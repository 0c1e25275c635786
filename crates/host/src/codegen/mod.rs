//! Native code generation for HISA translations.
//!
//! The software layer runs host code through one of two backends behind
//! the [`HostCodeGen`] contract:
//!
//! * the [`HostEmulator`](crate::emu::HostEmulator) — the architectural
//!   reference, always available, and the only backend that can feed an
//!   [`InsnSink`](crate::sink::InsnSink) (timing/power need per-retire
//!   events);
//! * the x86-64 JIT ([`NativeEngine`], Linux/x86-64 only) — translates
//!   arena fragments to native code in a W^X
//!   [`CodeBuffer`](buffer::CodeBuffer), chains fragments by patching
//!   jumps in place, and runs with `r15` pinned on the emulator's own
//!   [`HostState`](crate::state::HostState). Its slow paths are thin
//!   wrappers around the same `HostState` methods the emulator calls
//!   (commit, rollback, slow load and store, runtime-routine register
//!   semantics), so the transactional machinery it shares with the
//!   emulator is identical by construction; `backend_identity` gates
//!   what stays backend-specific (inline TLB and alias screens,
//!   chaining, IBTC patching).
//!
//! Compiled code is a pure cache of the arena: nothing in it is
//! serialized, and a checkpoint restored into either backend replays
//! identically (the engine revalidates against the code cache's
//! [`MutationLog`], drops only fragments covering arena ranges that
//! changed meaning — unpatching jumps into them — and recompiles from
//! scratch when the log cannot cover the gap).

use crate::emu::{ExitInfo, HostEmulator, IbtcTable, ProfTable};
use crate::insn::HInsn;
use darco_guest::GuestMem;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod buffer;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod check;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod exec;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod lower;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod x64;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use exec::NativeEngine;

/// Which backend executes host code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The instruction-by-instruction reference emulator.
    #[default]
    Emu,
    /// Native x86-64 code generation (falls back to the emulator when
    /// unavailable on the build target, or whenever a run needs retire
    /// events).
    Native,
}

impl Backend {
    /// Parses a `--backend` / config value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "emu" => Some(Backend::Emu),
            "native" => Some(Backend::Native),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Emu => "emu",
            Backend::Native => "native",
        }
    }

    /// Whether native code generation exists for the build target.
    pub fn native_available() -> bool {
        cfg!(all(target_arch = "x86_64", target_os = "linux"))
    }
}

/// How the machine-code checker ([`check`], DESIGN.md §13 stage 2) is
/// applied to every compiled fragment before it can execute. The TOL maps
/// its `verify`/`verify_level` configuration onto this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checking (structural verify level, or verification off).
    #[default]
    Off,
    /// Check, count findings and queue them for
    /// [`HostCodeGen::take_verify_findings`], but run the code anyway.
    Report,
    /// Check and panic on the first finding — unverified machine code
    /// must never execute.
    Fatal,
}

/// The invariant classes the machine-code checker proves, mirroring
/// `darco_ir::InvariantKind` for the IR layer. Each gets a
/// `jit.verify.*` observability counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Bytes that do not decode as the emitter's x86-64 subset.
    Decode,
    /// A write to a pinned/reserved host register (r15 ctx pointer, rsp).
    RegDiscipline,
    /// An indirect call not of the `mov rax, helper; call rax` shape or
    /// to an address that is not a registered helper.
    HelperCall,
    /// A context access (`[r15 + disp]` or derived) outside the
    /// [`HostState`](crate::state::HostState) layout.
    CtxBounds,
    /// A load/store through a pointer not proven to be the context, a
    /// bounds-checked L0-TLB page pointer, or a profile table.
    MemDiscipline,
    /// A rel32 branch that does not land on an instruction boundary
    /// inside the fragment.
    BranchTarget,
    /// A chain/IBTC patch whose site or target is not live compiled code
    /// (checked again after mutation-driven invalidation).
    PatchTarget,
}

impl CheckKind {
    /// All kinds, in counter order.
    pub const ALL: [CheckKind; 7] = [
        CheckKind::Decode,
        CheckKind::RegDiscipline,
        CheckKind::HelperCall,
        CheckKind::CtxBounds,
        CheckKind::MemDiscipline,
        CheckKind::BranchTarget,
        CheckKind::PatchTarget,
    ];

    /// Stable index into [`JitStats::verify_by_kind`].
    pub fn index(self) -> usize {
        match self {
            CheckKind::Decode => 0,
            CheckKind::RegDiscipline => 1,
            CheckKind::HelperCall => 2,
            CheckKind::CtxBounds => 3,
            CheckKind::MemDiscipline => 4,
            CheckKind::BranchTarget => 5,
            CheckKind::PatchTarget => 6,
        }
    }

    /// Stable counter-name suffix (`jit.verify.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Decode => "decode",
            CheckKind::RegDiscipline => "reg-discipline",
            CheckKind::HelperCall => "helper-call",
            CheckKind::CtxBounds => "ctx-bounds",
            CheckKind::MemDiscipline => "mem-discipline",
            CheckKind::BranchTarget => "branch-target",
            CheckKind::PatchTarget => "patch-target",
        }
    }
}

/// Number of [`CheckKind`]s (size of [`JitStats::verify_by_kind`]).
pub const CHECK_KIND_COUNT: usize = CheckKind::ALL.len();

/// Counters the JIT maintains about itself (exposed as `jit.*` metrics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JitStats {
    /// Fragments compiled (recompiles after a flush count again).
    pub frags_compiled: u64,
    /// Trampoline entries (one per `execute` call).
    pub enters: u64,
    /// Machine-code bytes ever written to the code buffer.
    pub code_bytes_emitted: u64,
    /// Machine-code bytes discarded by whole-buffer flushes.
    pub code_bytes_flushed: u64,
    /// Direct jumps patched into compiled code (fragment chaining).
    pub jump_patches: u64,
    /// Inline IBTC caches installed (subset of `jump_patches`).
    pub ibtc_patches: u64,
    /// Guest registers that did not fit the fragment register cache.
    pub regalloc_spills: u64,
    /// Memory operations that left the inline fast path for a helper.
    pub slow_mem_exits: u64,
    /// Wall nanoseconds inside `execute` (compile + native run). The
    /// `_nanos` suffix keeps it out of determinism comparisons, like the
    /// TOL's translate timers.
    pub exec_nanos: u64,
    /// Of `exec_nanos`, nanoseconds spent compiling fragments.
    pub compile_nanos: u64,
    /// Fragments run through the machine-code checker.
    pub verify_fragments: u64,
    /// Total checker findings (sum of `verify_by_kind`).
    pub verify_findings: u64,
    /// Wall nanoseconds inside the machine-code checker (the `_nanos`
    /// suffix keeps it out of determinism comparisons).
    pub verify_nanos: u64,
    /// Findings per [`CheckKind`], indexed by [`CheckKind::index`].
    pub verify_by_kind: [u64; CHECK_KIND_COUNT],
}

/// Record of arena ranges whose already-installed words changed meaning
/// (chain patches, invalidation unpatches, flushes, restores), kept by
/// the code cache so a backend can invalidate compiled code *precisely*:
/// only fragments covering a mutated range are dropped, everything else
/// keeps running. The log is bounded; a consumer that has fallen too far
/// behind (or a full-cache event) gets `None` from [`Self::since`] and
/// must fall back to whole-cache invalidation.
///
/// Like the epoch it generalizes, the log is a cache-validity token, not
/// simulated state: it is never serialized, and a restored run simply
/// recompiles from scratch.
#[derive(Debug, Default)]
pub struct MutationLog {
    epoch: u64,
    /// `(epoch after the bump, lo, hi)` — half-open arena word ranges.
    entries: std::collections::VecDeque<(u64, usize, usize)>,
    /// Epoch from which `entries` is complete; `since(e)` with
    /// `e < complete_from` cannot be answered precisely.
    complete_from: u64,
}

impl MutationLog {
    /// Bound on retained entries: past this, precise invalidation would
    /// cost more than it saves and stragglers recompile wholesale.
    const CAP: usize = 256;

    pub fn new() -> MutationLog {
        MutationLog::default()
    }

    /// Monotonic mutation counter (the classic epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records that arena words `[lo, hi)` changed meaning.
    pub fn record(&mut self, lo: usize, hi: usize) {
        self.epoch += 1;
        self.entries.push_back((self.epoch, lo, hi));
        while self.entries.len() > Self::CAP {
            let (e, _, _) = self.entries.pop_front().expect("non-empty");
            self.complete_from = self.complete_from.max(e);
        }
    }

    /// Records a whole-cache event (flush, restore): every consumer must
    /// do a full invalidation.
    pub fn record_full(&mut self) {
        self.epoch += 1;
        self.entries.clear();
        self.complete_from = self.epoch;
    }

    /// The ranges mutated since `epoch`, or `None` when the log no longer
    /// reaches back that far (full invalidation required).
    pub fn since(&self, epoch: u64) -> Option<Vec<(usize, usize)>> {
        if epoch < self.complete_from {
            return None;
        }
        Some(
            self.entries
                .iter()
                .filter(|&&(e, _, _)| e > epoch)
                .map(|&(_, lo, hi)| (lo, hi))
                .collect(),
        )
    }
}

/// The native-backend contract: execute arena code starting at `entry`
/// until the transaction ends, producing the same [`ExitInfo`] and the
/// same mutations of `emu`'s architectural state, counters and
/// profile table as `HostEmulator::execute` would.
///
/// `mutations` is the code cache's mutation log; an engine must discard
/// compiled code covering any arena range that changed meaning since its
/// last call (chaining, invalidation, flush or checkpoint restore).
pub trait HostCodeGen: Send {
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        emu: &mut HostEmulator,
        arena: &[HInsn],
        entry: usize,
        mem: &mut GuestMem,
        ibtc: &IbtcTable,
        prof: &mut ProfTable,
        fuel: u64,
        mutations: &MutationLog,
    ) -> ExitInfo;

    /// Snapshot of the engine's self-counters.
    fn stats(&self) -> JitStats;

    /// Drops all compiled code (it is a pure cache).
    fn invalidate_all(&mut self);

    /// Sets the machine-code checking mode applied to every fragment
    /// before it may execute. Backends without a checker ignore it.
    fn set_verify(&mut self, _mode: CheckMode) {}

    /// Drains checker findings queued under [`CheckMode::Report`]
    /// (empty under `Off`/`Fatal` — `Fatal` panics instead).
    fn take_verify_findings(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Plants a pinned-register-clobber mutation (the TOL's
    /// `CodegenClobberPinnedReg` injection) into the N-th compiled
    /// fragment (0-based), for debug-toolchain tests. Backends without a
    /// code buffer ignore it.
    fn plant_clobber(&mut self, _ordinal: u64) {}
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl HostCodeGen for NativeEngine {
    #[allow(clippy::too_many_arguments)]
    fn execute(
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
        NativeEngine::execute(self, emu, arena, entry, mem, ibtc, prof, fuel, mutations)
    }

    fn stats(&self) -> JitStats {
        self.stats
    }

    fn invalidate_all(&mut self) {
        NativeEngine::invalidate_all(self);
    }

    fn set_verify(&mut self, mode: CheckMode) {
        NativeEngine::set_verify(self, mode);
    }

    fn take_verify_findings(&mut self) -> Vec<String> {
        NativeEngine::take_verify_findings(self)
    }

    fn plant_clobber(&mut self, ordinal: u64) {
        NativeEngine::plant_clobber(self, ordinal);
    }
}

/// Instantiates the backend, or `None` when it must fall back to the
/// emulator (`Backend::Emu`, or native on a host without a JIT).
pub fn new_backend(b: Backend) -> Option<Box<dyn HostCodeGen>> {
    match b {
        Backend::Emu => None,
        Backend::Native => {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            {
                Some(Box::new(NativeEngine::new()))
            }
            #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
            {
                None
            }
        }
    }
}
