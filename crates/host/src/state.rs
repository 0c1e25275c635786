//! The one transactional host state both backends execute over.
//!
//! [`HostState`] holds everything the co-designed speculation support of
//! §III and §V-B works on: the register files, the counters, the rollback
//! snapshot, the gated store buffer and the speculative-load log with
//! their alias screens, and the exit info. It is one `#[repr(C)]` struct,
//! heap-allocated once and owned by [`HostEmulator`](crate::emu::HostEmulator).
//!
//! The emulator's `execute` loop works on it directly. The native backend
//! pins `r15` on the same struct: compiled fast paths address its fields
//! as `[r15 + disp32]`, and every slow path is a thin `extern "sysv64"`
//! wrapper around a method below. Commit, snapshot, rollback, the exit
//! decode, the slow load and store and the register-only instruction
//! semantics therefore exist once, and the backends agree on them by
//! construction.
//!
//! The tail of the struct (continue/patch sites, environment pointers,
//! L0 TLB) is scratch only the JIT uses. It lives here because emitted
//! code reaches everything through the one `r15` base.

use crate::emu::{eval_falu, eval_halu, EmuCounters, ExitCause, ExitInfo, IbtcTable};
use crate::insn::{FCmpOp, FUnOp2, HInsn};
use darco_guest::GuestMem;
use std::mem::MaybeUninit;

/// Store-buffer capacity. A transaction is one acyclic pass through one
/// translation: loops leave through a chained exit into a translation
/// entry, which opens with `chkpt`, and REP string instructions are never
/// translated. So a transaction buffers at most one entry per store in a
/// translation. Under the default configuration a translation holds at
/// most ~512 guest instructions (4 unrolled copies of a 128-instruction
/// block; `max_sb_insns` is 200), each lowering to a few memory operations,
/// far below this cap. Only configurations an order of magnitude beyond
/// the defaults could reach it, and then the process aborts rather than
/// wrapping.
pub(crate) const STORE_CAP: usize = 8192;
/// Speculative-load log capacity (same bound argument as [`STORE_CAP`]).
pub(crate) const SPEC_CAP: usize = 8192;
/// Store/spec range-screen split: addresses at or above this (the guest
/// stack lives at 0x7FFF_F000 down) are tracked in the second range.
/// Transactions usually mix stack traffic with data traffic; one global
/// `[lo, hi)` interval would fuse them into a range spanning most of the
/// address space and send every load in between to the slow path. The
/// split keeps both intervals tight. Correctness never depends on the
/// split point — both intervals are always checked.
pub(crate) const RANGE_SPLIT: u32 = 0x7000_0000;

/// Direct-mapped native L0 TLB entries. Sized so hot working sets
/// (hundreds of guest pages) fit without conflict misses; the array is
/// rezeroed on every native `execute` entry, which bounds how big it can
/// usefully be.
pub(crate) const TLB_SLOTS: usize = 256;

/// Exit-cause codes, shared by emitted code and both backends.
pub(crate) const CAUSE_EXIT: u32 = 0;
pub(crate) const CAUSE_ASSERT: u32 = 1;
pub(crate) const CAUSE_ALIAS: u32 = 2;
pub(crate) const CAUSE_PAGE_FAULT: u32 = 3;
pub(crate) const CAUSE_DIV_ZERO: u32 = 4;
pub(crate) const CAUSE_TRIP: u32 = 5;
pub(crate) const CAUSE_FUEL: u32 = 6;
pub(crate) const CAUSE_SMC: u32 = 7;

/// One buffered store (16 bytes, so slot addressing is `index << 4`).
/// The byte after `len` is padding: the native append writes every
/// field but not it.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct StoreSlot {
    pub seq: u16,
    pub len: u8,
    pub addr: u32,
    pub data: u64,
}

/// One logged speculative load (16 bytes, all after `addr` padding).
#[repr(C, align(16))]
#[derive(Clone, Copy)]
pub(crate) struct SpecSlot {
    pub seq: u16,
    pub len: u8,
    pub addr: u32,
}

const _: () = assert!(size_of::<StoreSlot>() == 16 && size_of::<SpecSlot>() == 16);

/// The host register files and speculation machinery (see the module
/// docs). Field order is the layout the native backend's `[r15 + disp]`
/// offsets are computed from.
#[repr(C)]
pub struct HostState {
    // -- architectural state --
    /// Integer register file.
    pub iregs: [u32; 64],
    /// Floating-point register file.
    pub fregs: [f64; 64],
    /// Host instructions executed by the current `execute` call.
    pub(crate) executed: u64,
    /// Host instructions not yet attributed to a mode (work since the
    /// last `gcnt`).
    pub(crate) unattributed: u64,
    /// Guest instructions retired in basic-block-mode translations.
    pub gcnt_bb: u64,
    /// Guest instructions retired in superblock-mode translations.
    pub gcnt_sb: u64,
    /// Host instructions attributed to BBM execution (see `gcnt`).
    pub host_bb: u64,
    /// Host instructions attributed to SBM execution.
    pub host_sb: u64,
    /// Aggregate counters.
    pub counters: EmuCounters,
    // -- rollback snapshot --
    pub(crate) snap_iregs: [u32; 64],
    pub(crate) snap_fregs: [f64; 64],
    pub(crate) snap_pc: u64,
    pub(crate) snap_gcnt_bb: u64,
    pub(crate) snap_gcnt_sb: u64,
    /// Absolute bound on `gcnt_bb + gcnt_sb`, checked at each `chkpt`.
    pub(crate) fuel: u64,
    // -- store buffer / spec log bookkeeping --
    pub(crate) store_len: u32,
    /// `seq` of the last (highest-seq) buffered store; 0 when empty, so
    /// the in-order append test `seq >= last` is correct for any seq.
    pub(crate) store_last_seq: u32,
    pub(crate) store_lo: u64,
    pub(crate) store_hi: u64,
    /// Second store range (addresses >= `RANGE_SPLIT`).
    pub(crate) store_lo2: u64,
    pub(crate) store_hi2: u64,
    /// Bloom filter over 8-byte granules of buffered-store addresses:
    /// bit `(addr >> 3) & 63`. Consulted by loads whose range screen
    /// suspects an overlap — a miss proves no store-buffer entry can
    /// alias the load, so it still takes the fast path.
    pub(crate) store_bloom: u64,
    pub(crate) spec_len: u32,
    pub(crate) _pad0: u32,
    pub(crate) spec_lo: u64,
    pub(crate) spec_hi: u64,
    /// Second speculative-load range (addresses >= `RANGE_SPLIT`).
    pub(crate) spec_lo2: u64,
    pub(crate) spec_hi2: u64,
    /// Bloom filter over 8-byte granules of speculative-load addresses
    /// (same hash as `store_bloom`), consulted by the store alias screen.
    pub(crate) spec_bloom: u64,
    // -- exit info (decoded by `exit_info`) --
    pub(crate) exit_cause: u32,
    pub(crate) exit_a: u32,
    pub(crate) exit_b: u32,
    /// Set to 1 by a native slow-path memory helper when it already
    /// rolled back and filled the exit info (the fragment must return
    /// DONE).
    pub(crate) helper_exit: u32,
    pub(crate) exit_host_pc: u64,
    pub(crate) exit_chkpt_pc: u64,
    // -- JIT continue protocol --
    pub(crate) cont_target: u64,
    /// 0 = no patch, 1 = direct-jump site, 2 = IBTC inline-cache site.
    pub(crate) patch_kind: u64,
    pub(crate) patch_site: u64,
    pub(crate) ibtc_guard_site: u64,
    pub(crate) ibtc_cmp_site: u64,
    pub(crate) ibtc_jmp_site: u64,
    pub(crate) ibtc_pc: u64,
    // -- JIT environment (set at every native execute entry) --
    pub(crate) mem: *mut GuestMem,
    pub(crate) ibtc: *const IbtcTable,
    pub(crate) prof_counts: *mut u64,
    pub(crate) prof_trips: *const u64,
    pub(crate) arena: *const HInsn,
    pub(crate) arena_len: u64,
    /// Slow-path memory operations this native execute
    /// (`jit.slow_mem_exits`).
    pub(crate) slow_mem: u64,
    /// Native L0 TLB: `[tag = page + 1, page data pointer]` pairs.
    pub(crate) tlb: [u64; TLB_SLOTS * 2],
    // -- flat transaction buffers (must stay last: see `new_boxed`) --
    /// Buffered stores, sorted by `seq`; only `..store_len` is written.
    pub(crate) store_buf: [MaybeUninit<StoreSlot>; STORE_CAP],
    /// Logged speculative loads; only `..spec_len` is written.
    pub(crate) spec_buf: [MaybeUninit<SpecSlot>; SPEC_CAP],
}

// `new_boxed` zeroes only what precedes `store_buf`, so the two buffers
// must be the struct's whole tail.
const _: () = {
    use std::mem::offset_of;
    let store_end = offset_of!(HostState, store_buf) + size_of::<[StoreSlot; STORE_CAP]>();
    assert!(store_end == offset_of!(HostState, spec_buf));
    assert!(offset_of!(HostState, spec_buf) + size_of::<[SpecSlot; SPEC_CAP]>() == size_of::<HostState>());
};

// The environment pointers are set from fresh borrows at the top of every
// native `execute` and never dereferenced outside it, so moving the state
// across threads between calls is sound.
unsafe impl Send for HostState {}

/// Bloom mask for an access at `addr`: bits for granule `addr >> 3` and
/// its successor (mod 64) — a superset of the granules any `len <= 8`
/// access touches. Must match `emit_bloom_mask` in the lowerer exactly:
/// soundness only needs every *set* mask to cover the store's granules
/// and every *checked* mask to cover the load's, which the common
/// two-bit superset does.
fn bloom_mask(addr: u32) -> u64 {
    3u64.rotate_left(addr >> 3)
}

fn overlaps(a: u32, alen: u8, b: u32, blen: u8) -> bool {
    let (a, b) = (a as u64, b as u64);
    a < b + blen as u64 && b < a + alen as u64
}

/// Extends `[lo, hi)` (or the second range at `RANGE_SPLIT` and above)
/// to cover `[addr, addr + len)`.
fn widen(lo: &mut u64, hi: &mut u64, addr: u32, len: u8) {
    *lo = (*lo).min(addr as u64);
    *hi = (*hi).max(addr as u64 + len as u64);
}

impl HostState {
    /// Allocates a state directly on the heap. Everything before the
    /// transaction buffers starts zeroed (a valid pattern for each of
    /// those fields); the buffers, nearly all of the struct's several
    /// hundred KiB, are `MaybeUninit` and left untouched, so an engine
    /// pays neither for zeroing them nor in resident memory for slots it
    /// never uses.
    pub(crate) fn new_boxed() -> Box<HostState> {
        let layout = std::alloc::Layout::new::<HostState>();
        let mut st = unsafe {
            let p = std::alloc::alloc(layout);
            if p.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            p.write_bytes(0, std::mem::offset_of!(HostState, store_buf));
            Box::from_raw(p.cast::<HostState>())
        };
        st.clear_transaction();
        st
    }

    /// The buffered stores, in `seq` order.
    fn stores(&self) -> &[StoreSlot] {
        // SAFETY: every slot below `store_len` was written whole by
        // `store` or by the native in-order append.
        unsafe { std::slice::from_raw_parts(self.store_buf.as_ptr().cast(), self.store_len as usize) }
    }

    /// The logged speculative loads.
    fn spec_loads(&self) -> &[SpecSlot] {
        // SAFETY: as for `stores`, with `spec_len`.
        unsafe { std::slice::from_raw_parts(self.spec_buf.as_ptr().cast(), self.spec_len as usize) }
    }

    /// Drains the host-instruction count not yet attributed to a mode
    /// (work since the last `gcnt`; the caller attributes it by the kind
    /// of the translation execution stopped in).
    pub fn drain_unattributed(&mut self) -> u64 {
        std::mem::take(&mut self.unattributed)
    }

    /// Opens an `execute` call at host address `entry` with guest-retired
    /// bound `fuel`.
    pub(crate) fn begin(&mut self, entry: usize, fuel: u64) {
        self.executed = 0;
        self.fuel = fuel;
        self.clear_transaction();
        self.snapshot(entry);
    }

    fn snapshot(&mut self, pc: usize) {
        self.snap_iregs = self.iregs;
        self.snap_fregs = self.fregs;
        self.snap_pc = pc as u64;
        self.snap_gcnt_bb = self.gcnt_bb;
        self.snap_gcnt_sb = self.gcnt_sb;
    }

    fn clear_transaction(&mut self) {
        self.store_len = 0;
        self.store_last_seq = 0;
        (self.store_lo, self.store_hi, self.store_lo2, self.store_hi2) = (u64::MAX, 0, u64::MAX, 0);
        self.store_bloom = 0;
        self.spec_len = 0;
        (self.spec_lo, self.spec_hi, self.spec_lo2, self.spec_hi2) = (u64::MAX, 0, u64::MAX, 0);
        self.spec_bloom = 0;
    }

    /// Commits the store buffer to guest memory. The buffer is sorted by
    /// `seq`, so stores land in program order.
    ///
    /// Commits cluster heavily on one page, so the page is resolved once
    /// per run of same-page stores instead of once per store. Code pages
    /// and page-crossing stores take the full `write` path, so the
    /// decode-cache generation advances once per store to a code page (it
    /// is checkpointed state).
    pub(crate) fn commit(&mut self, mem: &mut GuestMem) {
        let mut cur_page = u32::MAX;
        let mut cur_ptr: *mut u8 = std::ptr::null_mut();
        for e in self.stores() {
            let off = (e.addr & 0xfff) as usize;
            let len = e.len as usize;
            let page = e.addr >> 12;
            let bytes = e.data.to_le_bytes();
            if off + len <= 4096 && page != cur_page {
                if let Some(pg) = mem.page_for_commit(page) {
                    cur_page = page;
                    cur_ptr = pg.as_mut_ptr();
                }
            }
            if off + len <= 4096 && page == cur_page {
                // `cur_ptr` is the page `page_for_commit` returned; pages
                // are not remapped during a commit.
                unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), cur_ptr.add(off), len) };
            } else {
                mem.write(e.addr, &bytes[..len]).expect("store page probed at execute");
            }
        }
        self.clear_transaction();
        self.counters.commits += 1;
    }

    /// `chkpt`: commits, then either stops on exhausted fuel (returns
    /// `true` with the exit info filled) or snapshots for the next
    /// transaction.
    pub(crate) fn chkpt(&mut self, mem: &mut GuestMem, pc: usize) -> bool {
        self.commit(mem);
        if self.gcnt_bb + self.gcnt_sb >= self.fuel {
            self.set_exit(CAUSE_FUEL, 0, 0, pc, pc);
            return true;
        }
        self.snapshot(pc);
        self.counters.chkpts += 1;
        false
    }

    /// Commits and exits with `cause` (`CAUSE_EXIT` for `tolexit`, an
    /// unpatched `chainslot` or an IBTC miss; `CAUSE_TRIP` for a profile
    /// trip) and payload `a`.
    pub(crate) fn exit_commit(&mut self, mem: &mut GuestMem, pc: usize, cause: u32, a: u32) {
        self.commit(mem);
        self.set_exit(cause, a, 0, pc, self.snap_pc as usize);
    }

    /// Rolls the architectural state back to the last checkpoint,
    /// discards the transaction, counts the cause and fills the exit info.
    pub(crate) fn rollback(&mut self, pc: usize, cause: u32, a: u32, b: u32) {
        self.iregs = self.snap_iregs;
        self.fregs = self.snap_fregs;
        self.gcnt_bb = self.snap_gcnt_bb;
        self.gcnt_sb = self.snap_gcnt_sb;
        self.clear_transaction();
        match cause {
            CAUSE_ASSERT => self.counters.assert_fails += 1,
            CAUSE_ALIAS => self.counters.alias_fails += 1,
            CAUSE_PAGE_FAULT => self.counters.page_faults += 1,
            CAUSE_SMC => self.counters.smc_aborts += 1,
            _ => {}
        }
        self.set_exit(cause, a, b, pc, self.snap_pc as usize);
    }

    fn set_exit(&mut self, cause: u32, a: u32, b: u32, host_pc: usize, chkpt_pc: usize) {
        self.exit_cause = cause;
        self.exit_a = a;
        self.exit_b = b;
        self.exit_host_pc = host_pc as u64;
        self.exit_chkpt_pc = chkpt_pc as u64;
    }

    /// Decodes the exit info of the `execute` call that just stopped.
    pub(crate) fn exit_info(&self) -> ExitInfo {
        let cause = match self.exit_cause {
            CAUSE_EXIT => ExitCause::Exit { id: self.exit_a as u16 },
            CAUSE_ASSERT => ExitCause::AssertFail,
            CAUSE_ALIAS => ExitCause::AliasFail,
            CAUSE_PAGE_FAULT => ExitCause::PageFault { addr: self.exit_a, write: self.exit_b != 0 },
            CAUSE_DIV_ZERO => ExitCause::DivByZero,
            CAUSE_TRIP => ExitCause::ProfileTrip { idx: self.exit_a },
            CAUSE_FUEL => ExitCause::Fuel,
            CAUSE_SMC => ExitCause::SmcWrite { addr: self.exit_a },
            other => unreachable!("bad exit cause {other}"),
        };
        ExitInfo {
            cause,
            executed: self.executed,
            host_pc: self.exit_host_pc as usize,
            chkpt_pc: self.exit_chkpt_pc as usize,
        }
    }

    /// Loads `len` bytes at `addr` as seen by a memory operation with
    /// original sequence number `seq` (memory overlaid with older buffered
    /// stores, in program order) and logs it when `spec`. Returns the raw
    /// little-endian value, or `None` after a page-fault rollback.
    pub(crate) fn load(&mut self, mem: &GuestMem, pc: usize, addr: u32, len: u8, seq: u16, spec: bool) -> Option<u64> {
        let mut buf = [0u8; 8];
        if let Err(pf) = mem.read(addr, &mut buf[..len as usize]) {
            self.rollback(pc, CAUSE_PAGE_FAULT, pf.addr, 0);
            return None;
        }
        // `store_buf` is sorted by `seq`, so a plain scan forwards in
        // program order and can stop at the first younger store.
        for e in self.stores() {
            if e.seq >= seq {
                break;
            }
            if !overlaps(e.addr, e.len, addr, len) {
                continue;
            }
            let d = e.data.to_le_bytes();
            for j in 0..e.len as u64 {
                let a = e.addr as u64 + j;
                if a >= addr as u64 && a < addr as u64 + len as u64 {
                    buf[(a - addr as u64) as usize] = d[j as usize];
                }
            }
        }
        if spec {
            let i = self.spec_len as usize;
            if i >= SPEC_CAP {
                std::process::abort();
            }
            self.spec_buf[i] = MaybeUninit::new(SpecSlot { seq, len, addr });
            self.spec_len += 1;
            if addr >= RANGE_SPLIT {
                widen(&mut self.spec_lo2, &mut self.spec_hi2, addr, len);
            } else {
                widen(&mut self.spec_lo, &mut self.spec_hi, addr, len);
            }
            self.spec_bloom |= bloom_mask(addr);
        }
        Some(u64::from_le_bytes(buf))
    }

    /// Buffers a store: probe, then self-modifying-code check, then alias
    /// check against executed speculative loads that are *younger* in
    /// program order, then sorted insert. Returns `false` after a
    /// rollback (page fault, SMC or alias violation).
    pub(crate) fn store(&mut self, mem: &GuestMem, pc: usize, addr: u32, len: u8, data: u64, seq: u16) -> bool {
        if let Err(pf) = mem.probe(addr, len as u32, true) {
            self.rollback(pc, CAUSE_PAGE_FAULT, pf.addr, 1);
            return false;
        }
        // Self-modifying store: abort before the write enters the
        // transaction.
        if mem.is_code(addr, len as u32) {
            self.rollback(pc, CAUSE_SMC, addr, 0);
            return false;
        }
        if self.spec_loads().iter().any(|l| l.seq > seq && overlaps(l.addr, l.len, addr, len)) {
            self.rollback(pc, CAUSE_ALIAS, 0, 0);
            return false;
        }
        let n = self.store_len as usize;
        if n >= STORE_CAP {
            std::process::abort();
        }
        // Stores almost always arrive in program order, so this is an
        // O(1) append in practice.
        let pos = self.stores().iter().rposition(|e| e.seq <= seq).map_or(0, |i| i + 1);
        self.store_buf.copy_within(pos..n, pos + 1);
        self.store_buf[pos] = MaybeUninit::new(StoreSlot { seq, len, addr, data });
        self.store_len += 1;
        self.store_last_seq = self.stores()[n].seq as u32;
        if addr >= RANGE_SPLIT {
            widen(&mut self.store_lo2, &mut self.store_hi2, addr, len);
        } else {
            widen(&mut self.store_lo, &mut self.store_hi, addr, len);
        }
        self.store_bloom |= bloom_mask(addr);
        true
    }

    /// `ibtcjmp` probe: the host target on a hit; on a miss, commits,
    /// fills `Exit { id }` and returns `None`.
    pub(crate) fn ibtc_probe(&mut self, ibtc: &IbtcTable, mem: &mut GuestMem, guest: u32, pc: usize, id: u16) -> Option<usize> {
        let hit = ibtc.get(&guest).copied();
        if hit.is_some() {
            self.counters.ibtc_hits += 1;
        } else {
            self.counters.ibtc_misses += 1;
            self.exit_commit(mem, pc, CAUSE_EXIT, id as u32);
        }
        hit
    }

    /// Executes a register-only, non-branching instruction and returns
    /// `true`; returns `false` for any other instruction. Integer division
    /// by zero must be ruled out by the caller.
    #[inline(always)]
    pub(crate) fn reg_op(&mut self, insn: HInsn) -> bool {
        let (ir, fr) = (&mut self.iregs, &mut self.fregs);
        match insn {
            HInsn::Alu { op, rd, ra, rb } => ir[rd.index()] = eval_halu(op, ir[ra.index()], ir[rb.index()]),
            HInsn::AluI { op, rd, ra, imm } => ir[rd.index()] = eval_halu(op, ir[ra.index()], imm as i32 as u32),
            HInsn::Lui { rd, imm } => ir[rd.index()] = (imm as u32) << 16,
            HInsn::OriZ { rd, imm } => ir[rd.index()] |= imm as u32,
            HInsn::Li16 { rd, imm } => ir[rd.index()] = imm as i32 as u32,
            HInsn::FAlu { op, fd, fa, fb } => fr[fd.index()] = eval_falu(op, fr[fa.index()], fr[fb.index()]),
            HInsn::FUn { op, fd, fa } => {
                let a = fr[fa.index()];
                fr[fd.index()] = match op {
                    FUnOp2::Mov => a,
                    FUnOp2::Sqrt => a.sqrt(),
                    FUnOp2::Abs => a.abs(),
                    FUnOp2::Neg => -a,
                };
            }
            HInsn::FCmp { op, rd, fa, fb } => {
                let (a, b) = (fr[fa.index()], fr[fb.index()]);
                ir[rd.index()] = match op {
                    FCmpOp::Lt => a < b,
                    FCmpOp::Le => a <= b,
                    FCmpOp::Eq => a == b,
                    FCmpOp::Unord => a.is_nan() || b.is_nan(),
                } as u32;
            }
            HInsn::CvtIF { fd, ra } => fr[fd.index()] = ir[ra.index()] as i32 as f64,
            HInsn::CvtFI { rd, fa } => ir[rd.index()] = fr[fa.index()] as i32 as u32,
            HInsn::FLoadImm { fd, bits } => fr[fd.index()] = f64::from_bits(bits),
            HInsn::Nop => {}
            _ => return false,
        }
        true
    }
}
