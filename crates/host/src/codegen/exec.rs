//! Native execution engine over the shared [`HostState`].
//!
//! Compiled fragments run with `r15` pinned on the emulator's own
//! [`HostState`]. Fast paths address the state as `[r15 + disp32]`; slow
//! paths call the `extern "sysv64"` helpers below, thin wrappers around
//! the `HostState` methods the emulator's loop calls too (plus the
//! JIT-only L0-TLB refill).
//!
//! Control protocol: a fragment returns 0 in `rax` when the transaction
//! is DONE (exit info is in the state) and 1 to CONTINUE at
//! `cont_target` (with optional patch-site info so the trampoline can
//! chain fragments directly in native code).

use super::buffer::CodeBuffer;
use super::check;
use super::lower::{compile_fragment, Helpers};
use super::{CheckMode, JitStats, MutationLog};
use crate::emu::{ExitInfo, HostEmulator, IbtcTable, ProfTable};
use crate::insn::{add_rel, HInsn};
use crate::state::{HostState, TLB_SLOTS};
use darco_guest::GuestMem;
use std::collections::{HashMap, HashSet};

macro_rules! off {
    ($name:ident, $($field:tt)+) => {
        pub(super) const $name: i32 = std::mem::offset_of!(HostState, $($field)+) as i32;
    };
}

off!(O_IREGS, iregs);
off!(O_FREGS, fregs);
off!(O_EXECUTED, executed);
off!(O_UNATTR, unattributed);
off!(O_GCNT_BB, gcnt_bb);
off!(O_GCNT_SB, gcnt_sb);
off!(O_HOST_BB, host_bb);
off!(O_HOST_SB, host_sb);
off!(O_IBTC_HITS, counters.ibtc_hits);
off!(O_STORE_LEN, store_len);
off!(O_STORE_LAST_SEQ, store_last_seq);
off!(O_STORE_LO, store_lo);
off!(O_STORE_HI, store_hi);
off!(O_STORE_LO2, store_lo2);
off!(O_STORE_HI2, store_hi2);
off!(O_STORE_BLOOM, store_bloom);
off!(O_SPEC_LEN, spec_len);
off!(O_SPEC_LO, spec_lo);
off!(O_SPEC_HI, spec_hi);
off!(O_SPEC_LO2, spec_lo2);
off!(O_SPEC_HI2, spec_hi2);
off!(O_SPEC_BLOOM, spec_bloom);
// The lowerer addresses the second-range fields as `first + 16`.
const _: () = assert!(O_STORE_LO2 == O_STORE_LO + 16 && O_STORE_HI2 == O_STORE_HI + 16);
const _: () = assert!(O_SPEC_LO2 == O_SPEC_LO + 16 && O_SPEC_HI2 == O_SPEC_HI + 16);
off!(O_HELPER_EXIT, helper_exit);
off!(O_CONT_TARGET, cont_target);
off!(O_PATCH_KIND, patch_kind);
off!(O_PATCH_SITE, patch_site);
off!(O_IBTC_GUARD_SITE, ibtc_guard_site);
off!(O_IBTC_CMP_SITE, ibtc_cmp_site);
off!(O_IBTC_JMP_SITE, ibtc_jmp_site);
off!(O_IBTC_PC, ibtc_pc);
off!(O_PROF_COUNTS, prof_counts);
off!(O_PROF_TRIPS, prof_trips);
off!(O_TLB, tlb);
off!(O_STORE_BUF, store_buf);
off!(O_SPEC_BUF, spec_buf);

/// Offset of integer register `i` in the state.
pub(super) fn ireg_off(i: usize) -> i32 {
    O_IREGS + (i as i32) * 4
}

/// Offset of FP register `i` in the state.
pub(super) fn freg_off(i: usize) -> i32 {
    O_FREGS + (i as i32) * 8
}

// ---------------------------------------------------------------------
// Helpers (extern "sysv64", called from emitted code)
// ---------------------------------------------------------------------

fn state<'a>(ctx: *mut HostState) -> &'a mut HostState {
    unsafe { &mut *ctx }
}

/// The guest memory of the running `execute` call.
fn guest_mem<'a>(c: &HostState) -> &'a mut GuestMem {
    unsafe { &mut *c.mem }
}

/// `Chkpt`: returns 1 on fuel exhaustion (DONE), 0 to continue.
pub(super) extern "sysv64" fn h_chkpt(ctx: *mut HostState, pc: u64) -> u64 {
    let c = state(ctx);
    c.chkpt(guest_mem(c), pc as usize) as u64
}

/// `Commit`: commit without a new snapshot.
pub(super) extern "sysv64" fn h_commit(ctx: *mut HostState) {
    let c = state(ctx);
    c.commit(guest_mem(c));
}

/// `TolExit` / unchained `ChainSlot` / `Count` profile trip: commit and
/// exit with `cause` and payload `a`.
pub(super) extern "sysv64" fn h_exit_commit(ctx: *mut HostState, pc: u64, cause: u64, a: u64) {
    let c = state(ctx);
    c.exit_commit(guest_mem(c), pc as usize, cause as u32, a as u32);
}

/// Assert / div-by-zero rollback exits.
pub(super) extern "sysv64" fn h_rollback(ctx: *mut HostState, pc: u64, cause: u64, a: u64, b: u64) {
    state(ctx).rollback(pc as usize, cause as u32, a as u32, b as u32);
}

/// Fills the native TLB slot for the page containing `addr`, if mapped.
/// Marked code pages never enter the TLB: every access to one takes the
/// slow helper, where self-modifying stores are detected and aborted
/// (mirroring `GuestMem`'s write-TLB discipline).
fn tlb_fill(c: &mut HostState, addr: u32) {
    let page = addr >> 12;
    let mem = guest_mem(c);
    if mem.is_code_page(page) {
        return;
    }
    if let Some(pg) = mem.page(page) {
        let slot = (page as usize & (TLB_SLOTS - 1)) * 2;
        c.tlb[slot] = page as u64 + 1;
        c.tlb[slot + 1] = pg.as_ptr() as u64;
    }
}

/// Slow-path load plus TLB refill. `desc` packs `seq | len<<16 |
/// spec<<24`. Returns the raw little-endian value; the fragment extends
/// it. On fault, sets `helper_exit` and the fragment returns DONE.
pub(super) extern "sysv64" fn h_slow_load(ctx: *mut HostState, addr: u64, pc: u64, desc: u64) -> u64 {
    let c = state(ctx);
    c.slow_mem += 1;
    let (seq, len, spec) = (desc as u16, (desc >> 16) as u8, (desc >> 24) & 1 != 0);
    let Some(raw) = c.load(guest_mem(c), pc as usize, addr as u32, len, seq, spec) else {
        c.helper_exit = 1;
        return 0;
    };
    tlb_fill(c, addr as u32);
    c.helper_exit = 0;
    raw
}

/// Slow-path store plus TLB refill. `desc` packs `seq | len<<16`.
pub(super) extern "sysv64" fn h_slow_store(ctx: *mut HostState, addr: u64, pc: u64, desc: u64, data: u64) {
    let c = state(ctx);
    c.slow_mem += 1;
    if !c.store(guest_mem(c), pc as usize, addr as u32, (desc >> 16) as u8, data, desc as u16) {
        c.helper_exit = 1;
        return;
    }
    tlb_fill(c, addr as u32);
    c.helper_exit = 0;
}

/// `IbtcJmp` probe. Hit: returns host target + 1 (no commit). Miss:
/// commits, fills `Exit{id}` info and returns 0 (DONE).
pub(super) extern "sysv64" fn h_ibtc(ctx: *mut HostState, guest: u64, pc: u64, id: u64) -> u64 {
    let c = state(ctx);
    let ibtc = unsafe { &*c.ibtc };
    c.ibtc_probe(ibtc, guest_mem(c), guest as u32, pc as usize, id as u16).map_or(0, |hpc| hpc as u64 + 1)
}

/// `Bl`: runs the runtime routine at `target` until its `Blr`, with the
/// same per-instruction cost accounting as the emulator. The routines
/// are pure register code (no memory, no exits), so this cannot fault;
/// anything outside that subset aborts loudly.
pub(super) extern "sysv64" fn h_bl_routine(ctx: *mut HostState, target: u64) {
    let c = state(ctx);
    let arena = unsafe { std::slice::from_raw_parts(c.arena, c.arena_len as usize) };
    let mut pc = target as usize;
    loop {
        let insn = arena[pc];
        c.executed += insn.dyn_cost();
        c.unattributed += insn.dyn_cost();
        pc = match insn {
            HInsn::Blr => return,
            HInsn::B { rel } => add_rel(pc, rel),
            HInsn::Bz { rs, rel } if c.iregs[rs.index()] == 0 => add_rel(pc, rel),
            HInsn::Bnz { rs, rel } if c.iregs[rs.index()] != 0 => add_rel(pc, rel),
            HInsn::Bz { .. } | HInsn::Bnz { .. } => pc + 1,
            _ if c.reg_op(insn) => pc + 1,
            _ => std::process::abort(),
        };
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Enter thunk: saves callee-saved registers, anchors `r15` on the
/// state and calls the fragment.
/// `push rbx/rbp/r12..r15; mov r15, rdi; call rsi; pops; ret`
const THUNK: &[u8] = &[
    0x53, 0x55, 0x41, 0x54, 0x41, 0x55, 0x41, 0x56, 0x41, 0x57, // pushes
    0x49, 0x89, 0xFF, // mov r15, rdi
    0xFF, 0xD6, // call rsi
    0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D, 0x41, 0x5C, 0x5D, 0x5B, // pops
    0xC3, // ret
];

const BUF_CAP: usize = 16 << 20;

struct Frag {
    /// Buffer offset of the fragment's code.
    off: usize,
    /// Emitted code length in bytes (`[off, off + host_len)` is the
    /// fragment's buffer range — patch sites inside it die with it).
    host_len: usize,
    /// One-past-the-last arena word the code depends on: the fragment is
    /// stale iff a mutated range overlaps `[entry, end)`.
    end: usize,
}

/// A jump patched into compiled code, recorded so precise invalidation
/// can undo it when its target fragment is dropped.
enum PatchRec {
    /// Chained direct jump: rel32 at buffer offset `site`; writing 0
    /// restores the fall-through continue-exit.
    Direct { site: usize, target: usize },
    /// Inline IBTC cache: restoring `guard_orig` at `guard` closes the
    /// guard (jump back to the out-of-line probe).
    Ibtc { guard: usize, guard_orig: u32, target: usize },
}

/// The native backend: a per-engine code buffer plus a fragment cache
/// keyed on arena word index, validated by the code cache's mutation
/// epoch. Fragments are a pure cache over the HISA arena — dropping all
/// of them at any point is always correct, which is exactly what happens
/// on chaining/invalidation/flush/restore (epoch bump) and buffer
/// overflow.
pub struct NativeEngine {
    buf: CodeBuffer,
    frags: HashMap<usize, Frag>,
    epoch: Option<u64>,
    /// IBTC guard sites already patched (absolute buffer offsets).
    patched_ibtc: HashSet<usize>,
    /// Every live patch, for precise unpatching (cleared on reset).
    patches: Vec<PatchRec>,
    /// Machine-code checking applied to every fragment before it may run
    /// (DESIGN.md §13).
    check_mode: CheckMode,
    /// Findings queued under [`CheckMode::Report`], drained by the TOL.
    pending_findings: Vec<String>,
    /// Planted r15-clobber mutation: corrupt the N-th compiled fragment
    /// (0-based) for debug-toolchain tests.
    plant: Option<u64>,
    /// Backend counters (reported as `jit.*` metrics).
    pub stats: JitStats,
}

impl Default for NativeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeEngine {
    pub fn new() -> NativeEngine {
        let mut buf = CodeBuffer::new(BUF_CAP);
        buf.append(THUNK);
        NativeEngine {
            buf,
            frags: HashMap::new(),
            epoch: None,
            patched_ibtc: HashSet::new(),
            patches: Vec::new(),
            check_mode: CheckMode::Off,
            pending_findings: Vec::new(),
            plant: None,
            stats: JitStats::default(),
        }
    }

    /// Sets the machine-code checking mode for subsequently compiled
    /// fragments and for patch re-validation.
    pub fn set_verify(&mut self, mode: CheckMode) {
        self.check_mode = mode;
    }

    /// Drains findings queued under [`CheckMode::Report`].
    pub fn take_verify_findings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.pending_findings)
    }

    /// Plants a pinned-register clobber into the `ordinal`-th compiled
    /// fragment (a `mov r15, r15` after the final `ret` — dead at run
    /// time, forbidden statically).
    pub fn plant_clobber(&mut self, ordinal: u64) {
        self.plant = Some(ordinal);
    }

    fn helper_list() -> [usize; 8] {
        let h = Self::helpers();
        [
            h.chkpt,
            h.commit,
            h.exit_commit,
            h.rollback,
            h.slow_load,
            h.slow_store,
            h.ibtc,
            h.bl_routine,
        ]
    }

    /// Records checker findings: counts them, and under `Fatal` panics
    /// before the flagged code can ever execute. `what` names the checked
    /// unit (a fragment or the patch set).
    fn note_findings(&mut self, what: &str, findings: Vec<check::CheckFinding>) {
        if findings.is_empty() {
            return;
        }
        self.stats.verify_findings += findings.len() as u64;
        for f in &findings {
            self.stats.verify_by_kind[f.kind.index()] += 1;
        }
        let rendered: Vec<String> = findings.iter().map(|f| format!("{what} {f}")).collect();
        if self.check_mode == CheckMode::Fatal {
            panic!("native code verification failed for {what}:\n{}", rendered.join("\n"));
        }
        self.pending_findings.extend(rendered);
    }

    /// Re-validates every live patch after MutationLog-driven
    /// invalidation: a chained rel32 must still sit inside a live
    /// fragment and land exactly on its target fragment's entry, and an
    /// open IBTC guard must still belong to a live fragment with a live
    /// target. `invalidate_ranges` maintains exactly this, so a finding
    /// here means patch bookkeeping was corrupted.
    fn verify_patches(&mut self) {
        let mut findings = Vec::new();
        let live = |site: usize| {
            self.frags.values().any(|f| site >= f.off && site < f.off + f.host_len)
        };
        for p in &self.patches {
            match *p {
                PatchRec::Direct { site, target } => {
                    if !live(site) {
                        findings.push(check::CheckFinding {
                            kind: super::CheckKind::PatchTarget,
                            off: site,
                            msg: "chained jump site is not inside any live fragment".into(),
                        });
                        continue;
                    }
                    let Some(tf) = self.frags.get(&target) else {
                        findings.push(check::CheckFinding {
                            kind: super::CheckKind::PatchTarget,
                            off: site,
                            msg: format!("chained jump targets dropped fragment {target}"),
                        });
                        continue;
                    };
                    let rel = self.buf.read_u32(site) as i32;
                    let lands = site as i64 + 4 + i64::from(rel);
                    if lands != tf.off as i64 {
                        findings.push(check::CheckFinding {
                            kind: super::CheckKind::PatchTarget,
                            off: site,
                            msg: format!(
                                "chained rel32 lands at {lands:#x}, not fragment {target}'s entry {:#x}",
                                tf.off
                            ),
                        });
                    }
                }
                PatchRec::Ibtc { guard, target, .. } => {
                    if !live(guard) {
                        findings.push(check::CheckFinding {
                            kind: super::CheckKind::PatchTarget,
                            off: guard,
                            msg: "IBTC guard site is not inside any live fragment".into(),
                        });
                    } else if !self.frags.contains_key(&target) {
                        findings.push(check::CheckFinding {
                            kind: super::CheckKind::PatchTarget,
                            off: guard,
                            msg: format!("open IBTC guard targets dropped fragment {target}"),
                        });
                    }
                }
            }
        }
        self.note_findings("patch set", findings);
    }

    /// Drops every compiled fragment (the buffer is reclaimed wholesale).
    pub fn invalidate_all(&mut self) {
        self.frags.clear();
        self.patched_ibtc.clear();
        self.patches.clear();
        self.buf.reset();
        self.buf.append(THUNK);
        self.epoch = None;
    }

    /// Precise invalidation: drops only the fragments whose arena
    /// coverage overlaps a mutated range, and unpatches every recorded
    /// jump into a dropped fragment (direct chains fall back to their
    /// continue-exit, inline IBTC caches close their guard). Fragments
    /// that merely *jumped to* stale code keep running; their unpatched
    /// exits re-enter the trampoline, which recompiles on demand.
    fn invalidate_ranges(&mut self, ranges: &[(usize, usize)]) {
        if ranges.is_empty() {
            return;
        }
        let mut dropped = HashSet::new();
        let mut dropped_host: Vec<(usize, usize)> = Vec::new();
        self.frags.retain(|&entry, f| {
            let stale = ranges.iter().any(|&(lo, hi)| entry < hi && f.end > lo);
            if stale {
                dropped.insert(entry);
                dropped_host.push((f.off, f.off + f.host_len));
            }
            !stale
        });
        if dropped.is_empty() {
            return;
        }
        let in_dropped =
            |site: usize| dropped_host.iter().any(|&(a, b)| site >= a && site < b);
        let mut patches = std::mem::take(&mut self.patches);
        patches.retain(|p| match *p {
            PatchRec::Direct { site, target } => {
                if in_dropped(site) {
                    return false; // the patch site itself is dead code
                }
                if dropped.contains(&target) {
                    self.buf.patch_u32(site, 0);
                    return false;
                }
                true
            }
            PatchRec::Ibtc { guard, guard_orig, target } => {
                if in_dropped(guard) {
                    self.patched_ibtc.remove(&guard);
                    return false;
                }
                if dropped.contains(&target) {
                    self.buf.patch_u32(guard, guard_orig);
                    self.patched_ibtc.remove(&guard);
                    return false;
                }
                true
            }
        });
        self.patches = patches;
    }

    fn helpers() -> Helpers {
        Helpers {
            chkpt: h_chkpt as *const () as usize,
            commit: h_commit as *const () as usize,
            exit_commit: h_exit_commit as *const () as usize,
            rollback: h_rollback as *const () as usize,
            slow_load: h_slow_load as *const () as usize,
            slow_store: h_slow_store as *const () as usize,
            ibtc: h_ibtc as *const () as usize,
            bl_routine: h_bl_routine as *const () as usize,
        }
    }

    /// Offset of the fragment entered at arena word `entry`, compiling it
    /// if needed. The bool reports whether the buffer was reset (any
    /// previously recorded patch site is then stale).
    fn frag_off(&mut self, arena: &[HInsn], entry: usize) -> (usize, bool) {
        if let Some(f) = self.frags.get(&entry) {
            return (f.off, false);
        }
        let mut did_reset = false;
        // Worst-case bound: biggest lowering (a store fast path + stub)
        // stays under 256 bytes/insn; fragments are capped in length.
        if self.buf.remaining() < 4 << 20 {
            self.invalidate_all();
            did_reset = true;
        }
        let frag_base = self.buf.len();
        let tc = std::time::Instant::now();
        let mut out = compile_fragment(arena, entry, frag_base, &Self::helpers());
        self.stats.compile_nanos += tc.elapsed().as_nanos() as u64;
        if self.plant == Some(self.stats.frags_compiled) {
            // `mov r15, r15` after the final `ret`: unreachable at run
            // time, but a forbidden pinned-register write the checker
            // must reject (BugKind::CodegenClobberPinnedReg).
            out.bytes.extend_from_slice(&[0x4D, 0x89, 0xFF]);
        }
        if self.check_mode != CheckMode::Off {
            let tv = std::time::Instant::now();
            let findings = check::check_fragment(&out.bytes, &Self::helper_list());
            self.stats.verify_nanos += tv.elapsed().as_nanos() as u64;
            self.stats.verify_fragments += 1;
            self.note_findings(&format!("fragment at arena entry {entry} (buffer offset {frag_base:#x})"), findings);
        }
        let host_len = out.bytes.len();
        let off = self.buf.append(&out.bytes);
        debug_assert_eq!(off, frag_base);
        self.frags.insert(entry, Frag { off, host_len, end: out.end });
        self.stats.frags_compiled += 1;
        self.stats.regalloc_spills += out.spills;
        (off, did_reset)
    }

    /// Runs host code natively from `entry` over `emu`'s own state,
    /// with the same results as `HostEmulator::execute` under a null
    /// sink.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &mut self,
        emu: &mut HostEmulator,
        arena: &[HInsn],
        entry: usize,
        mem: &mut GuestMem,
        ibtc: &IbtcTable,
        prof: &mut ProfTable,
        fuel: u64,
        mutations: &MutationLog,
    ) -> ExitInfo {
        let t0 = std::time::Instant::now();
        let epoch = mutations.epoch();
        if self.epoch != Some(epoch) {
            match self.epoch.and_then(|e| mutations.since(e)) {
                Some(ranges) => self.invalidate_ranges(&ranges),
                // Fresh engine or log gap: recompile from scratch. (A
                // fresh engine has nothing compiled, so the reset is
                // free.)
                None => self.invalidate_all(),
            }
            self.epoch = Some(epoch);
            if self.check_mode != CheckMode::Off {
                self.verify_patches();
            }
        }
        self.stats.enters += 1;

        let st: &mut HostState = emu;
        st.begin(entry, fuel);
        st.helper_exit = 0;
        st.slow_mem = 0;
        st.mem = mem;
        st.ibtc = ibtc;
        st.prof_counts = prof.counts.as_mut_ptr();
        st.prof_trips = prof.trips.as_ptr();
        st.arena = arena.as_ptr();
        st.arena_len = arena.len() as u64;
        st.tlb = [0; TLB_SLOTS * 2];

        let mut pc = entry;
        loop {
            let (off, _) = self.frag_off(arena, pc);
            let frag_ptr = self.buf.exec_ptr(off);
            let thunk_ptr = self.buf.exec_ptr(0);
            let enter: extern "sysv64" fn(*mut HostState, *const u8) -> u64 =
                unsafe { std::mem::transmute(thunk_ptr) };
            let token = enter(&mut *st, frag_ptr);
            if token == 0 {
                break;
            }
            let target = st.cont_target as usize;
            let kind = st.patch_kind;
            let (site, guard, cmp, jmp, ibtc_pc) = (
                st.patch_site as usize,
                st.ibtc_guard_site as usize,
                st.ibtc_cmp_site as usize,
                st.ibtc_jmp_site as usize,
                st.ibtc_pc as u32,
            );
            let (toff, reset) = self.frag_off(arena, target);
            if !reset {
                match kind {
                    1 => {
                        let rel = toff as i64 - (site as i64 + 4);
                        self.buf.patch_u32(site, rel as i32 as u32);
                        self.patches.push(PatchRec::Direct { site, target });
                        self.stats.jump_patches += 1;
                    }
                    2 if self.patched_ibtc.insert(guard) => {
                        let guard_orig = self.buf.read_u32(guard);
                        self.buf.patch_u32(cmp, ibtc_pc);
                        let rel = toff as i64 - (jmp as i64 + 4);
                        self.buf.patch_u32(jmp, rel as i32 as u32);
                        // Open the guard last: rel32 = 0 falls
                        // through into the now-valid inline cache.
                        self.buf.patch_u32(guard, 0);
                        self.patches.push(PatchRec::Ibtc { guard, guard_orig, target });
                        self.stats.jump_patches += 1;
                        self.stats.ibtc_patches += 1;
                    }
                    _ => {}
                }
            }
            pc = target;
        }

        self.stats.slow_mem_exits += st.slow_mem;
        self.stats.code_bytes_emitted = self.buf.bytes_emitted;
        self.stats.code_bytes_flushed = self.buf.bytes_flushed;
        self.stats.exec_nanos += t0.elapsed().as_nanos() as u64;

        st.exit_info()
    }
}
