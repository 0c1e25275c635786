//! The TOL driver: mode dispatch, promotion, chaining, speculation
//! recovery and overhead accounting (paper Fig. 3's execution flow).

use crate::cache::{CodeCache, TransKind, Translation};
use crate::config::{BugKind, TolConfig, VerifyLevel, VerifyMode};
use crate::flags::{self, PendingFlags};
use crate::obs::TolObs;
use crate::overhead::{Accountant, CostModel, Overhead, OverheadKind};
use crate::sbm::{self, SbShape};
use crate::translate::{self, EdgeCounters};
use darco_guest::predecode::{BlockStop, MAX_BLOCK_INSNS};
use darco_guest::{DecodeCache, Fault, GuestState, Wire, WireError, WireReader, PAGE_SHIFT};
use darco_host::codegen::{Backend, CheckMode, HostCodeGen, JitStats};
use darco_host::emu::ProfTable;
use darco_host::regs::{FLAG_REGS, R_DEF_A, R_DEF_B, R_DEF_KIND, R_IND, R_SPILL_BASE};
use darco_host::sink::InsnSink;
use darco_host::{ExitCause, HInsn, HostEmulator};
use darco_ir::codegen::{self, CodegenCtx, SPILL_AREA_BASE};
use darco_ir::passes::{level_passes, run_pipeline, OptLevel};
use darco_ir::sym::{check_equiv, try_summarize, RegionSummary, TermPool};
use darco_ir::sched::list_schedule;
use darco_ir::{ddg, ExitKind, FlagsKind, IrOp, Region, VerifyReport, KIND_COUNT};
use darco_obs::{ExecMode, TraceEventKind};

use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One entry of a [`SemanticCheck`] replay script: a transform that ran
/// since the last clean baseline and is re-run step-by-step when a
/// divergence needs attribution.
#[derive(Clone, Copy)]
enum SemStep {
    /// A full optimization pipeline — replayed pass-by-pass.
    Pipeline(OptLevel),
    /// DDG redundant-load elimination / store forwarding.
    MemoryOpt,
}

/// In-flight semantic translation validation for one region (DESIGN.md
/// §13): a hash-consed term pool, a pristine copy of the region taken
/// before the optimizer ran, and the first recorded divergence. Opened
/// by `Tol::sem_begin`, closed by `Tol::sem_finish`.
///
/// Validation is lazy end to end: the whole transform sequence is
/// compared at once at the phase boundary (the term evaluator models
/// store-to-load forwarding, so even the DDG memory phase folds into
/// one composite check), and both summaries — baseline and after — are
/// deferred to that single [`SemanticCheck::check`] call. When the
/// optimizer left the region untouched (a third of all translations)
/// equivalence is decided by a direct structural compare and no
/// summary is computed at all. Only when a divergence is actually
/// found does it replay the recorded steps one at a time on the
/// pristine copy to name the offending pass — so the clean case (every
/// translation, all the time) costs at most two summaries instead of
/// one per pass, and the failing case still reports
/// `ConstFold`/`Cse`/`memory_opt`/… by name.
struct SemanticCheck {
    pool: TermPool,
    /// Copy of the region as the translator produced it: the baseline
    /// the optimized region is checked against, and the starting point
    /// for step-by-step attribution replay.
    pristine: Region,
    /// Transforms run since the baseline was taken (the replay script
    /// for attribution).
    steps: Vec<SemStep>,
    /// Whether any recorded transform reported doing work. `false`
    /// means the region is *expected* to still equal `pristine`, so the
    /// check leads with the cheap structural compare; `true` skips the
    /// compare and goes straight to the summaries. Purely a hint —
    /// either way disagreement falls through to the full proof.
    dirty: bool,
    region_pc: u32,
    /// Wall nanoseconds spent summarizing/comparing (the semantic share
    /// of `verify_nanos`).
    nanos: u64,
    /// First divergence; later checks are skipped so the report names
    /// the pass that introduced the bug, not every pass after it.
    failed: Option<VerifyReport>,
}

impl SemanticCheck {
    /// Phase-boundary check: proves the optimized `region`
    /// observationally equivalent to the pristine input. If no
    /// transform actually changed the region the proof is a structural
    /// compare (no summaries); otherwise both sides are summarized into
    /// the shared pool and their event lists compared. Divergent → the
    /// transforms recorded since `sem_begin` are replayed for
    /// attribution; if every step replays clean, the divergence came
    /// from outside the recorded transforms and stays attributed to
    /// `context`.
    fn check(&mut self, region: &Region, context: &str) {
        if self.failed.is_some() {
            return;
        }
        let t0 = Instant::now();
        if !self.dirty
            && self.pristine.insts == region.insts
            && self.pristine.exits == region.exits
            && self.pristine.entry == region.entry
        {
            self.nanos += t0.elapsed().as_nanos() as u64;
            return;
        }
        let outcome = match try_summarize(&self.pristine, &mut self.pool, "<input>") {
            Err(report) => Err(report),
            Ok(baseline) => match try_summarize(region, &mut self.pool, context) {
                Err(report) => Err(report),
                Ok(after) => {
                    let report = check_equiv(&self.pool, &baseline, &after, context);
                    if report.is_ok() {
                        Ok(())
                    } else {
                        Err(self.attribute(baseline, report))
                    }
                }
            },
        };
        self.nanos += t0.elapsed().as_nanos() as u64;
        if let Err(report) = outcome {
            self.failed = Some(report);
        }
    }

    /// Slow path, divergence already established: replays the recorded
    /// steps one at a time on the pristine copy, returning the first
    /// transform whose output is not equivalent to its input (pipelines
    /// are replayed pass-by-pass, so the report names the pass). Falls
    /// back to the whole-phase report (with the caller's context) when
    /// every step replays clean — the bug was introduced between the
    /// last recorded transform and this check.
    fn attribute(&mut self, mut baseline: RegionSummary, whole: VerifyReport) -> VerifyReport {
        let mut region = self.pristine.clone();
        let mut step = |region: &Region, name: &'static str, pool: &mut TermPool| {
            let after = match try_summarize(region, pool, name) {
                Ok(a) => a,
                Err(report) => return Err(report),
            };
            let report = check_equiv(pool, &baseline, &after, name);
            if !report.is_ok() {
                return Err(report);
            }
            baseline = after;
            Ok(())
        };
        let steps = std::mem::take(&mut self.steps);
        for s in &steps {
            match s {
                SemStep::Pipeline(level) => {
                    for p in level_passes(*level) {
                        p.run(&mut region);
                        if let Err(report) = step(&region, p.name(), &mut self.pool) {
                            return report;
                        }
                    }
                }
                SemStep::MemoryOpt => {
                    let _ = ddg::memory_opt(&mut region);
                    if let Err(report) = step(&region, "memory_opt", &mut self.pool) {
                        return report;
                    }
                }
            }
        }
        whole
    }
}

/// Runs the optimization pipeline for `level`. With a [`SemanticCheck`]
/// scope open the level is recorded as part of the current phase's
/// replay script — the equivalence check itself happens at the next
/// phase boundary ([`SemanticCheck::check`]), not per pass. Without a
/// scope this is exactly [`run_pipeline`]; either way the debug-build
/// structural verify-each inside `run_pipeline` still runs.
fn run_pipeline_sem(sem: &mut Option<Box<SemanticCheck>>, region: &mut Region, level: OptLevel) {
    if let Some(sem) = sem.as_mut() {
        sem.steps.push(SemStep::Pipeline(level));
    }
    let stats = run_pipeline(region, level);
    if let Some(sem) = sem.as_mut() {
        if stats.rewritten + stats.removed > 0 {
            sem.dirty = true;
        }
    }
}

/// Events that hand control to the controller (DARCO's synchronization
/// triggers, §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TolEvent {
    /// First touch of an unmapped guest page — the paper's *data request*.
    PageFault {
        /// Faulting address.
        addr: u32,
        /// Write access?
        write: bool,
    },
    /// The guest reached a system call (`EIP` points at it).
    Syscall,
    /// The guest halted.
    Halted,
    /// A non-recoverable guest fault.
    GuestError(Fault),
    /// The per-call guest-instruction budget was exhausted (periodic
    /// validation hook).
    FuelOut,
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TolStats {
    /// Guest instructions retired in interpretation mode.
    pub guest_im: u64,
    /// BBM translations produced.
    pub translations_bb: u64,
    /// SBM translations produced.
    pub translations_sb: u64,
    /// Multi-exit recreations after speculation-failure limits.
    pub recreations: u64,
    /// Host instructions executed as application code.
    pub host_app: u64,
    /// Interpreted blocks.
    pub interp_blocks: u64,
    /// Assert/alias rollbacks.
    pub spec_rollbacks: u64,
    /// Transactions aborted by a store into a marked code page
    /// (self-modifying code), rolled back pre-store.
    pub smc_aborts: u64,
    /// Translation-cache flushes forced by a code-generation bump
    /// (self-modifying code made installed translations stale).
    pub smc_flushes: u64,
    /// Successful chain patches.
    pub chain_patches: u64,
    /// IBTC insertions.
    pub ibtc_inserts: u64,
    /// Instructions retired on the co-designed component's behalf by the
    /// authoritative component (system calls).
    pub guest_external: u64,
    /// Guest instructions statically inside SBM translations.
    pub sb_static_guest: u64,
    /// Host instructions statically inside SBM translations.
    pub sb_static_host: u64,
    /// Verifier invocations (IR, DDG and host-code checks all count).
    pub verify_regions: u64,
    /// Total verifier findings across all invocations.
    pub verify_findings: u64,
    /// Findings per [`darco_ir::InvariantKind`] (indexed by `kind.index()`).
    pub verify_by_kind: [u64; KIND_COUNT],
    /// Wall-clock nanoseconds spent inside the verifier.
    pub verify_nanos: u64,
    /// The semantic-validation share of `verify_nanos`: time spent in
    /// `SemanticCheck` (summaries + equivalence), zero at the default
    /// structural level. Lets the overhead gates budget the structural
    /// checks and the semantic layer separately. Not serialized (wall
    /// clock, like the other timing telemetry).
    pub verify_sem_nanos: u64,
    /// Wall-clock nanoseconds spent translating (BBM + SBM, including
    /// optimization, verification and code generation).
    pub translate_nanos: u64,
}

enum CacheOutcome {
    Event(TolEvent),
    Continue,
    InterpretNext,
}

#[derive(Debug, Default, Clone)]
struct ImProf {
    count: u64,
    taken: u64,
    fall: u64,
}

/// The Translation Optimization Layer.
pub struct Tol {
    /// Configuration.
    pub cfg: TolConfig,
    /// Code cache.
    pub cache: CodeCache,
    /// Software profile counters (updated by translated code).
    pub prof: ProfTable,
    /// The host functional emulator.
    pub emu: HostEmulator,
    /// Overhead accounting.
    pub acct: Accountant,
    /// Cost model.
    pub costs: CostModel,
    /// Statistics.
    pub stats: TolStats,
    /// Deferred guest-flag descriptor pending materialization.
    pub pending_flags: Option<PendingFlags>,
    /// Verifier findings collected in [`VerifyMode::Report`] mode, with
    /// the pipeline stage and guest provenance of each.
    pub verify_log: Vec<String>,
    /// Observability: trace sink (off by default) + live metrics.
    pub obs: TolObs,
    /// Native code-generation backend, if selected and available. Purely
    /// a runtime accelerator: never serialized (compiled code is a cache
    /// over the arena), and bypassed for any run that needs retire events
    /// (the emulator is the only backend that can feed a real sink).
    native: Option<Box<dyn HostCodeGen>>,
    /// Native-backend counters at the last trace emission: the deltas
    /// across one `execute` call become the `jit.*` / `verify.mcode`
    /// trace events. Transient like the backend itself.
    jit_seen: JitStats,
    counter_bb: HashMap<u32, u32>, // exec counter idx per BB pc
    bb_edges: HashMap<u32, EdgeCounters>,
    im_prof: HashMap<u32, ImProf>,
    do_not_translate: HashSet<u32>,
    translation_ordinal: u64,
    spill_mapped: bool,
    /// Block head of an interpretation split by the fuel budget, so the
    /// repetition counter credits the true head when the block completes.
    im_split_entry: Option<u32>,
    /// Guest code generation observed at the last dispatch. A bump means
    /// self-modifying code landed (interpreted store, committed
    /// transaction, or code page unmapped): installed translations were
    /// built from the old bytes, so the dispatcher flushes them before
    /// the next cache entry. `u64::MAX` until the first dispatch.
    last_code_gen: u64,
    /// Predecoded guest-block cache backing the IM interpreter.
    decode: DecodeCache,
    /// Recycled semantic-validation scratch (term pool + pristine-region
    /// buffers): taken by `sem_begin`, returned by `sem_finish`, so
    /// back-to-back translations reuse the same allocations. Purely
    /// transient — never serialized.
    sem_spare: Option<Box<SemanticCheck>>,
}

impl std::fmt::Debug for Tol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tol").field("stats", &self.stats).field("cache", &self.cache).finish()
    }
}

impl Tol {
    /// Creates a TOL with the given configuration. Charges the one-time
    /// initialization cost.
    pub fn new(cfg: TolConfig) -> Tol {
        let cache = CodeCache::new(cfg.code_cache_words);
        let costs = CostModel::default();
        let mut acct = Accountant::new(false);
        acct.overhead.others += costs.init;
        Tol {
            cache,
            prof: ProfTable::new(),
            emu: HostEmulator::new(),
            acct,
            costs,
            stats: TolStats::default(),
            pending_flags: None,
            verify_log: Vec::new(),
            obs: TolObs::new(),
            native: None,
            jit_seen: JitStats::default(),
            counter_bb: HashMap::new(),
            bb_edges: HashMap::new(),
            im_prof: HashMap::new(),
            do_not_translate: HashSet::new(),
            translation_ordinal: 0,
            spill_mapped: false,
            im_split_entry: None,
            last_code_gen: u64::MAX,
            decode: DecodeCache::new(),
            sem_spare: None,
            cfg,
        }
    }

    /// Enables synthesis of TOL-overhead instructions into the timing
    /// stream.
    pub fn set_synthesize_overhead(&mut self, on: bool) {
        self.acct.synthesize = on;
    }

    /// Selects the host-code backend. `Backend::Native` silently keeps
    /// the emulator on hosts without a JIT.
    pub fn set_backend(&mut self, backend: Backend) {
        self.native = darco_host::codegen::new_backend(backend);
        self.sync_native_verify();
    }

    /// Propagates the configured verification depth to the native
    /// backend's machine-code checker, and arms the planted
    /// pinned-register-clobber mutation when one is configured. For
    /// [`BugKind::CodegenClobberPinnedReg`] the injection ordinal counts
    /// *compiled fragments*, not TOL translations (the bug lives below
    /// the translation layer).
    fn sync_native_verify(&mut self) {
        let Some(native) = self.native.as_mut() else { return };
        let mode = if self.cfg.verify_level == VerifyLevel::Semantic {
            match self.cfg.verify {
                VerifyMode::Off => CheckMode::Off,
                VerifyMode::Report => CheckMode::Report,
                VerifyMode::Fatal => CheckMode::Fatal,
            }
        } else {
            CheckMode::Off
        };
        native.set_verify(mode);
        if let Some(inj) = self.cfg.injection {
            if inj.kind == BugKind::CodegenClobberPinnedReg {
                native.plant_clobber(inj.translation_ordinal);
            }
        }
    }

    /// The native backend's self-counters, if one is active.
    pub fn jit_stats(&self) -> Option<JitStats> {
        self.native.as_ref().map(|n| n.stats())
    }

    /// Total guest instructions retired so far, across all modes
    /// (including syscalls retired by the authoritative component).
    pub fn total_guest(&self) -> u64 {
        self.stats.guest_im + self.stats.guest_external + self.emu.gcnt_bb + self.emu.gcnt_sb
    }

    /// Credits instructions retired externally (the controller calls this
    /// after the authoritative component executes a system call, keeping
    /// the two components' instruction counts aligned).
    pub fn credit_external(&mut self, n: u64) {
        self.stats.guest_external += n;
    }

    /// Guest instructions retired per mode `(IM, BBM, SBM)` — Fig. 4's
    /// distribution.
    pub fn mode_split(&self) -> (u64, u64, u64) {
        (self.stats.guest_im, self.emu.gcnt_bb, self.emu.gcnt_sb)
    }

    /// Dynamic host-per-guest instruction ratio in SBM (Fig. 5).
    pub fn sbm_emulation_cost(&self) -> f64 {
        if self.emu.gcnt_sb == 0 {
            return 0.0;
        }
        self.emu.host_sb as f64 / self.emu.gcnt_sb as f64
    }

    /// The overhead accounting (Figs. 6 and 7).
    pub fn overhead(&self) -> &Overhead {
        &self.acct.overhead
    }

    /// Runs the guest for up to `fuel_guest` retired instructions or until
    /// an event needs the controller.
    pub fn run<S: InsnSink>(
        &mut self,
        st: &mut GuestState,
        fuel_guest: u64,
        sink: &mut S,
    ) -> TolEvent {
        let limit = self.total_guest().saturating_add(fuel_guest);
        let mut interp_next = false;
        loop {
            if self.total_guest() >= limit {
                return TolEvent::FuelOut;
            }
            // Self-modifying code: a code-generation bump means installed
            // translations may describe stale bytes. Flush them (chains
            // and IBTC included) before the next cache entry; the decode
            // cache re-checks the generation itself.
            let gen = st.mem.code_gen();
            if gen != self.last_code_gen {
                if self.last_code_gen != u64::MAX && self.cache.live_translations() > 0 {
                    self.obs.emit(TraceEventKind::CacheFlush {
                        live: self.cache.live_translations() as u32,
                        used_words: self.cache.used_words() as u64,
                    });
                    self.cache.flush();
                    self.stats.smc_flushes += 1;
                }
                self.last_code_gen = gen;
            }
            self.acct.charge(OverheadKind::Others, self.costs.dispatch, sink);
            if !interp_next {
                self.acct.charge(OverheadKind::CacheLookup, self.costs.cache_lookup, sink);
                if let Some(id) = self.cache.lookup(st.eip) {
                    match self.enter_cache(st, id, limit, sink) {
                        CacheOutcome::Event(ev) => return ev,
                        CacheOutcome::Continue => continue,
                        CacheOutcome::InterpretNext => {
                            interp_next = true;
                            continue;
                        }
                    }
                }
                // Promotion check (IM → BBM). Skipped on the speculation
                // recovery path so a failing superblock is not demoted.
                let pc = st.eip;
                let im_count = self.im_prof.get(&pc).map(|p| p.count).unwrap_or(0);
                if im_count >= self.cfg.bbm_threshold
                    && !self.do_not_translate.contains(&pc)
                    && self.translate_bb(st, pc, sink)
                {
                    self.obs.emit(TraceEventKind::Promotion { pc, to: ExecMode::Bbm });
                    continue;
                }
            }
            interp_next = false;

            // Interpret one basic block.
            self.obs.mode(ExecMode::Im, st.eip);
            flags::resolve(st, &mut self.pending_flags);
            let budget = (limit - self.total_guest()).min(MAX_BLOCK_INSNS as u64);
            let run = self.decode.run(st, budget);
            self.stats.guest_im += run.insns;
            self.stats.interp_blocks += 1;
            self.acct.charge(
                OverheadKind::Interpreter,
                run.insns * self.costs.interp_per_insn,
                sink,
            );
            self.acct.charge(OverheadKind::Others, self.costs.profile_block, sink);
            // Budget splits resume mid-block; credit the true block head.
            let head = self.im_split_entry.take().unwrap_or(run.entry_pc);
            if run.stop == BlockStop::Budget {
                self.im_split_entry = Some(head);
            }
            let prof = self.im_prof.entry(head).or_default();
            if run.stop == BlockStop::End {
                prof.count += 1;
                if let Some((_t, _f, taken)) = run.jcc {
                    if taken {
                        prof.taken += 1;
                    } else {
                        prof.fall += 1;
                    }
                }
            }
            match run.stop {
                BlockStop::End | BlockStop::Budget => {}
                BlockStop::Syscall => return TolEvent::Syscall,
                BlockStop::Halt => return TolEvent::Halted,
                BlockStop::PageFault { addr, write } => {
                    return TolEvent::PageFault { addr, write }
                }
                BlockStop::GuestError(f) => return TolEvent::GuestError(f),
            }
        }
    }

    // -- code-cache execution --------------------------------------------------

    fn enter_cache<S: InsnSink>(
        &mut self,
        st: &mut GuestState,
        id: usize,
        limit: u64,
        sink: &mut S,
    ) -> CacheOutcome {
        if !self.spill_mapped {
            st.mem.map_zero(SPILL_AREA_BASE >> PAGE_SHIFT);
            self.spill_mapped = true;
        }
        if self.obs.is_on() {
            let mode = match self.cache.translation(id).kind {
                TransKind::Bb => ExecMode::Bbm,
                TransKind::Sb { .. } => ExecMode::Sbm,
            };
            self.obs.mode(mode, st.eip);
        }
        self.im_split_entry = None;
        if self.cache.translation(id).needs_flags_mask != 0 {
            flags::resolve(st, &mut self.pending_flags);
        }
        // Prologue: pin the guest state into the host register file.
        self.acct.charge(OverheadKind::Prologue, self.costs.prologue_per_transition, sink);
        for (i, v) in st.gprs().into_iter().enumerate() {
            self.emu.iregs[i] = v;
        }
        for (i, v) in st.fprs().into_iter().enumerate() {
            self.emu.fregs[i] = v;
        }
        let bits = st.flags.to_bits();
        for (j, r) in FLAG_REGS.into_iter().enumerate() {
            self.emu.iregs[r.index()] = (bits >> j & 1) as u32;
        }
        match self.pending_flags {
            Some(p) => {
                self.emu.iregs[R_DEF_KIND.index()] = p.kind.code() as u32;
                self.emu.iregs[R_DEF_A.index()] = p.a;
                self.emu.iregs[R_DEF_B.index()] = p.b;
            }
            None => self.emu.iregs[R_DEF_KIND.index()] = 0,
        }
        self.emu.iregs[R_SPILL_BASE.index()] = SPILL_AREA_BASE;

        let remaining = limit.saturating_sub(self.total_guest());
        let guest_fuel = (self.emu.gcnt_bb + self.emu.gcnt_sb).saturating_add(remaining);
        let base = self.cache.translation(id).host_base;
        // The native backend only runs when no retire events are wanted:
        // it produces the same architectural state, counters and exits as
        // the emulator, but no per-instruction stream.
        let info = match self.native.as_mut() {
            Some(native) if sink.is_null() => native.execute(
                &mut self.emu,
                &self.cache.arena,
                base,
                &mut st.mem,
                &self.cache.ibtc,
                &mut self.prof,
                guest_fuel,
                self.cache.mutations(),
            ),
            _ => self.emu.execute(
                &self.cache.arena,
                base,
                &mut st.mem,
                &self.cache.ibtc,
                &mut self.prof,
                guest_fuel,
                sink,
            ),
        };
        if let Some(native) = self.native.as_mut() {
            // Machine-code checker findings queued under Report mode
            // (Fatal panics inside the backend before the code runs).
            let findings = native.take_verify_findings();
            if !findings.is_empty() {
                self.stats.verify_findings += findings.len() as u64;
                for f in findings {
                    self.verify_log.push(format!("[native-code] {f}"));
                }
            }
            let jit = native.stats();
            if self.obs.is_on() {
                let prev = self.jit_seen;
                if jit.frags_compiled > prev.frags_compiled {
                    self.obs.emit(TraceEventKind::JitCompile {
                        frags: jit.frags_compiled - prev.frags_compiled,
                        bytes: jit.code_bytes_emitted - prev.code_bytes_emitted,
                        ns: jit.compile_nanos - prev.compile_nanos,
                    });
                }
                if jit.jump_patches > prev.jump_patches {
                    self.obs.emit(TraceEventKind::JitPatch {
                        jumps: jit.jump_patches - prev.jump_patches,
                        ibtc: jit.ibtc_patches - prev.ibtc_patches,
                    });
                }
                if jit.code_bytes_flushed > prev.code_bytes_flushed {
                    self.obs.emit(TraceEventKind::JitInvalidate {
                        bytes: jit.code_bytes_flushed - prev.code_bytes_flushed,
                    });
                }
                if jit.verify_fragments > prev.verify_fragments {
                    self.obs.emit(TraceEventKind::McodeVerify {
                        fragments: jit.verify_fragments - prev.verify_fragments,
                        findings: jit.verify_findings - prev.verify_findings,
                        ns: jit.verify_nanos - prev.verify_nanos,
                    });
                }
            }
            self.jit_seen = jit;
        }
        self.stats.host_app += info.executed;

        match info.cause {
            ExitCause::Exit { id: exit_id } => {
                let tid = self
                    .cache
                    .translation_at_host(info.host_pc)
                    .expect("exit outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                let meta = self.cache.translation(tid).exits[exit_id as usize];
                if std::env::var_os("DARCO_TRACE_EXITS").is_some() {
                    eprintln!(
                        "EXIT t{tid}@{:#x} exit{exit_id} kind {:?} count={} eax={:#x} ecx={:#x}",
                        self.cache.translation(tid).guest_pc,
                        meta.kind,
                        self.total_guest(),
                        st.gprs()[0],
                        st.gprs()[1],
                    );
                }
                match meta.kind {
                    ExitKind::Jump { target } => {
                        st.eip = target;
                        if self.cfg.chaining {
                            if let Some(slot) = meta.chain_slot {
                                self.acct.charge(
                                    OverheadKind::Chaining,
                                    self.costs.chain_attempt,
                                    sink,
                                );
                                if let Some(to) = self.cache.lookup(target) {
                                    let need = self.cache.translation(to).needs_flags_mask;
                                    // Legal iff every flag the target reads
                                    // is published by this exit.
                                    if need & !meta.flags_valid == 0 {
                                        let slot_addr =
                                            self.cache.translation(tid).host_base + slot;
                                        self.cache.chain(tid, slot_addr, to);
                                        self.stats.chain_patches += 1;
                                        if self.obs.is_on() {
                                            let from_pc = self.cache.translation(tid).guest_pc;
                                            self.obs.emit(TraceEventKind::ChainPatch {
                                                from_pc,
                                                to_pc: target,
                                            });
                                        }
                                        self.acct.charge(
                                            OverheadKind::Chaining,
                                            self.costs.chain_patch,
                                            sink,
                                        );
                                    }
                                }
                            }
                        }
                        CacheOutcome::Continue
                    }
                    ExitKind::Indirect => {
                        let target = self.emu.iregs[R_IND.index()];
                        st.eip = target;
                        if self.cfg.ibtc {
                            self.acct.charge(
                                OverheadKind::Chaining,
                                self.costs.chain_attempt,
                                sink,
                            );
                            if let Some(to) = self.cache.lookup(target) {
                                // IBTC entries are global (any indirect
                                // branch can hit them), so only flag-free
                                // targets are eligible.
                                if self.cache.translation(to).needs_flags_mask == 0 {
                                    self.cache.ibtc_insert(target, to);
                                    self.stats.ibtc_inserts += 1;
                                    self.obs.emit(TraceEventKind::IbtcInsert { pc: target });
                                    self.acct.charge(
                                        OverheadKind::Chaining,
                                        self.costs.chain_patch,
                                        sink,
                                    );
                                }
                            }
                        }
                        CacheOutcome::Continue
                    }
                    ExitKind::Syscall { pc } => {
                        st.eip = pc;
                        CacheOutcome::Event(TolEvent::Syscall)
                    }
                    ExitKind::Halt => CacheOutcome::Event(TolEvent::Halted),
                }
            }
            ExitCause::AssertFail | ExitCause::AliasFail => {
                let tid = self
                    .cache
                    .translation_at_host(info.chkpt_pc)
                    .expect("rollback outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                st.eip = self.cache.translation(tid).guest_pc;
                self.stats.spec_rollbacks += 1;
                self.obs.rollback(st.eip, info.executed);
                let t = self.cache.translation_mut(tid);
                t.spec_fails += 1;
                let recreate = t.spec_fails > self.cfg.assert_fail_limit
                    && matches!(t.kind, TransKind::Sb { asserts: true });
                if recreate {
                    self.recreate_multi_exit(st, tid, sink);
                }
                // Forward progress through the interpreter (paper §V-B1).
                CacheOutcome::InterpretNext
            }
            ExitCause::PageFault { addr, write } => {
                let tid = self
                    .cache
                    .translation_at_host(info.chkpt_pc)
                    .expect("fault outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                st.eip = self.cache.translation(tid).guest_pc;
                CacheOutcome::Event(TolEvent::PageFault { addr, write })
            }
            ExitCause::DivByZero => {
                let tid = self
                    .cache
                    .translation_at_host(info.chkpt_pc)
                    .expect("fault outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                st.eip = self.cache.translation(tid).guest_pc;
                // Interpretation raises the precise guest fault.
                CacheOutcome::InterpretNext
            }
            ExitCause::ProfileTrip { idx } => {
                let tid = self
                    .cache
                    .translation_at_host(info.host_pc)
                    .expect("trip outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                let pc = self.cache.translation(tid).guest_pc;
                st.eip = pc;
                debug_assert_eq!(self.counter_bb.get(&pc), Some(&idx));
                self.translate_sb(st, pc, sink);
                CacheOutcome::Continue
            }
            ExitCause::Fuel => {
                let tid = self
                    .cache
                    .translation_at_host(info.host_pc)
                    .expect("fuel stop outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                st.eip = self.cache.translation(tid).guest_pc;
                CacheOutcome::Continue // outer loop re-checks the budget
            }
            ExitCause::SmcWrite { addr: _ } => {
                // A store into a marked code page aborted the transaction
                // before the write was buffered: state is back at the
                // last checkpoint. Interpreting forward executes the
                // store with per-instruction visibility (the generation
                // bump then makes the dispatcher flush stale
                // translations), exactly matching the reference
                // component's view of self-modifying code.
                let tid = self
                    .cache
                    .translation_at_host(info.chkpt_pc)
                    .expect("smc abort outside any translation");
                self.attribute_unattributed(tid);
                self.writeback(st);
                st.eip = self.cache.translation(tid).guest_pc;
                self.stats.smc_aborts += 1;
                self.obs.rollback(st.eip, info.executed);
                CacheOutcome::InterpretNext
            }
        }
    }

    fn attribute_unattributed(&mut self, tid: usize) {
        let n = self.emu.drain_unattributed();
        match self.cache.translation(tid).kind {
            TransKind::Bb => self.emu.host_bb += n,
            TransKind::Sb { .. } => self.emu.host_sb += n,
        }
    }

    /// Writes the pinned host register file back into the guest state,
    /// including the dynamic flag descriptor (see `regs` docs).
    fn writeback(&mut self, st: &mut GuestState) {
        for (i, g) in darco_guest::Gpr::ALL.into_iter().enumerate() {
            st.set_gpr(g, self.emu.iregs[i]);
        }
        for i in 0..8 {
            st.set_fpr(darco_guest::Fpr::new(i), self.emu.fregs[i as usize]);
        }
        let kind_code = self.emu.iregs[R_DEF_KIND.index()];
        match FlagsKind::from_code(kind_code) {
            None => {
                // Flags are materialized in r8–r12.
                let mut bits = 0u8;
                for (j, r) in FLAG_REGS.into_iter().enumerate() {
                    bits |= ((self.emu.iregs[r.index()] != 0) as u8) << j;
                }
                st.flags = darco_guest::Flags::from_bits(bits);
                self.pending_flags = None;
            }
            Some(kind) => {
                if matches!(kind, FlagsKind::Inc | FlagsKind::Dec) {
                    st.flags.cf = self.emu.iregs[FLAG_REGS[0].index()] != 0;
                }
                self.pending_flags = Some(PendingFlags {
                    kind,
                    a: self.emu.iregs[R_DEF_A.index()],
                    b: self.emu.iregs[R_DEF_B.index()],
                });
            }
        }
    }

    // -- static verification -------------------------------------------------------

    /// Opens a semantic translation-validation scope over `region`
    /// (DESIGN.md §13): the region's guest-observable behaviour is
    /// summarized symbolically now, and [`SemanticCheck::check`] compares
    /// every later rewrite against it. Returns `None` unless
    /// `verify_level` is [`VerifyLevel::Semantic`] (and `verify` is on).
    fn sem_begin(&mut self, region: &Region) -> Option<Box<SemanticCheck>> {
        if self.cfg.verify == VerifyMode::Off || self.cfg.verify_level != VerifyLevel::Semantic {
            return None;
        }
        let t0 = Instant::now();
        let mut sem = match self.sem_spare.take() {
            Some(mut s) => {
                // Terms are closed expressions over entry state
                // (`EntryGpr(i)`, `InitMem`), so the pool carries over
                // across regions: shared subexpressions become memo hits
                // instead of fresh interns. Clear only to bound memory.
                if s.pool.len() > (1 << 16) {
                    s.pool.clear();
                }
                s.pristine.clone_from(region);
                s.steps.clear();
                s.dirty = false;
                s.region_pc = region.guest_entry_pc;
                s.nanos = 0;
                s.failed = None;
                s
            }
            None => Box::new(SemanticCheck {
                pool: TermPool::new(),
                pristine: region.clone(),
                steps: Vec::new(),
                dirty: false,
                region_pc: region.guest_entry_pc,
                nanos: 0,
                failed: None,
            }),
        };
        sem.nanos = t0.elapsed().as_nanos() as u64;
        self.obs.emit(TraceEventKind::SemBegin { pc: sem.region_pc });
        Some(sem)
    }

    /// Closes a semantic-validation scope: reports the first divergence
    /// (or a clean empty report, so the region still counts toward
    /// `verify_regions`/`verify_nanos` for overhead accounting).
    fn sem_finish(&mut self, sem: Option<Box<SemanticCheck>>, stage: &'static str) {
        let Some(mut sem) = sem else { return };
        let report = sem
            .failed
            .take()
            .unwrap_or(VerifyReport { region_pc: sem.region_pc, findings: Vec::new() });
        let nanos = sem.nanos;
        self.sem_spare = Some(sem);
        self.stats.verify_sem_nanos += nanos;
        self.obs.emit(TraceEventKind::SemEnd {
            pc: report.region_pc,
            ns: nanos,
            findings: report.findings.len() as u32,
        });
        self.note_report(stage, report, nanos);
    }

    /// Verifies the IR invariants of `region` after an optimization
    /// pipeline ran (see [`darco_ir::verify_region`]).
    fn verify_ir(&mut self, region: &Region, stage: &'static str) {
        if self.cfg.verify == VerifyMode::Off {
            return;
        }
        let t0 = Instant::now();
        let report = darco_ir::verify_region(region);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.note_report(stage, report, nanos);
    }

    /// Cross-checks a built data-dependence graph against the region's
    /// hardware ordering contract (see [`darco_ir::verify_ddg`]).
    fn verify_ddg_stage(&mut self, region: &Region, graph: &ddg::Ddg, stage: &'static str) {
        if self.cfg.verify == VerifyMode::Off {
            return;
        }
        let t0 = Instant::now();
        let report = darco_ir::verify_ddg(region, graph);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.note_report(stage, report, nanos);
    }

    /// Checks the generated host code against the region (register
    /// discipline, branch targets, memory-op parity; see
    /// [`darco_ir::check_host_code`]).
    fn verify_host(&mut self, region: &Region, out: &codegen::CodegenOut, stage: &'static str) {
        if self.cfg.verify == VerifyMode::Off {
            return;
        }
        let t0 = Instant::now();
        let report = darco_ir::check_host_code(region, out);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.note_report(stage, report, nanos);
    }

    fn note_report(&mut self, stage: &'static str, report: VerifyReport, nanos: u64) {
        self.stats.verify_regions += 1;
        self.stats.verify_nanos += nanos;
        if report.is_ok() {
            return;
        }
        self.stats.verify_findings += report.findings.len() as u64;
        for (i, n) in report.by_kind().into_iter().enumerate() {
            self.stats.verify_by_kind[i] += n;
        }
        if self.obs.is_on() {
            for f in &report.findings {
                self.obs.emit(TraceEventKind::VerifierFinding {
                    stage,
                    kind: f.kind.name(),
                    pc: f.guest_pc,
                });
            }
        }
        match self.cfg.verify {
            VerifyMode::Fatal => {
                panic!("TOL static verification failed at stage `{stage}`: {report}")
            }
            VerifyMode::Report => self.verify_log.push(format!("[{stage}] {report}")),
            VerifyMode::Off => unreachable!("verify hooks are gated on VerifyMode::Off"),
        }
    }

    // -- translation -------------------------------------------------------------

    /// Translates the basic block at `pc` (BBM). Returns false if the
    /// block is untranslatable or undecodable.
    fn translate_bb<S: InsnSink>(&mut self, st: &mut GuestState, pc: u32, sink: &mut S) -> bool {
        self.obs.emit(TraceEventKind::TranslateStart { sb: false, pc });
        let t0 = Instant::now();
        let ok = self.translate_bb_inner(st, pc, sink);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.translate_nanos += ns;
        self.obs.translate_end(false, pc, ns, ok);
        ok
    }

    fn translate_bb_inner<S: InsnSink>(
        &mut self,
        st: &mut GuestState,
        pc: u32,
        sink: &mut S,
    ) -> bool {
        let plan = match translate::decode_block(&st.mem, pc) {
            Ok(p) => p,
            Err(_) => return false, // page not resident yet: interpret on
        };
        if !plan.translatable {
            self.do_not_translate.insert(pc);
            return false;
        }
        let src_insns = plan.retired_insns();
        self.acct.charge(
            OverheadKind::BbTranslator,
            (src_insns as u64 + 1) * self.costs.bb_translate_per_insn,
            sink,
        );
        // Profiling counters (§V-B3: exec + edge counters in BBM code).
        let trip = self.cfg.sbm_threshold.saturating_sub(self.cfg.bbm_threshold).max(1);
        let exec_idx = self.prof.alloc(trip);
        let edges = match plan.term_kind {
            translate::TermKind::Jcc { .. } => {
                let e = EdgeCounters { taken: self.prof.alloc(0), fall: self.prof.alloc(0) };
                self.bb_edges.insert(pc, e);
                Some(e)
            }
            _ => None,
        };
        let mut region = translate::build_bb_region(&plan, edges, self.cfg.strict_flags);
        self.inject_bug_region(&mut region, BugKind::TranslatorWrongConstant);
        let bbm_level = match self.cfg.opt_level {
            OptLevel::O0 => OptLevel::O0,
            _ => OptLevel::O1,
        };
        let mut sem = self.sem_begin(&region);
        run_pipeline_sem(&mut sem, &mut region, bbm_level);
        self.inject_bug_region(&mut region, BugKind::OptimizerBadFold);
        if let Some(s) = sem.as_mut() {
            s.check(&region, "optimizer");
        }
        region.validate();
        self.sem_finish(sem, "bbm-semantic");
        self.verify_ir(&region, "bbm-pipeline");
        self.install(region, TransKind::Bb, Some(exec_idx), None, src_insns, sink);
        self.counter_bb.insert(pc, exec_idx);
        self.stats.translations_bb += 1;
        true
    }

    /// Promotes the block at `pc` to a superblock (SBM).
    fn translate_sb<S: InsnSink>(&mut self, st: &mut GuestState, pc: u32, sink: &mut S) {
        let edges = |bb: u32| -> Option<(u64, u64)> {
            if let Some(e) = self.bb_edges.get(&bb) {
                let t = self.prof.count(e.taken);
                let f = self.prof.count(e.fall);
                if t + f > 0 {
                    return Some((t, f));
                }
            }
            self.im_prof.get(&bb).and_then(|p| (p.taken + p.fall > 0).then_some((p.taken, p.fall)))
        };
        let Some(shape) = sbm::plan_superblock(&st.mem, pc, &edges, &self.cfg) else {
            return;
        };
        if self.build_and_install_sb(st, &shape, self.cfg.speculation, sink) {
            self.obs.emit(TraceEventKind::Promotion { pc, to: ExecMode::Sbm });
        }
    }

    fn build_and_install_sb<S: InsnSink>(
        &mut self,
        st: &mut GuestState,
        shape: &SbShape,
        asserts: bool,
        sink: &mut S,
    ) -> bool {
        self.obs.emit(TraceEventKind::TranslateStart { sb: true, pc: shape.entry });
        let t0 = Instant::now();
        let ok = self.build_and_install_sb_inner(st, shape, asserts, sink);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.translate_nanos += ns;
        self.obs.translate_end(true, shape.entry, ns, ok);
        ok
    }

    fn build_and_install_sb_inner<S: InsnSink>(
        &mut self,
        st: &mut GuestState,
        shape: &SbShape,
        asserts: bool,
        sink: &mut S,
    ) -> bool {
        let Some(mut region) = sbm::build_sb_region(&st.mem, shape, asserts, &self.cfg) else {
            return false;
        };
        let src_insns: u32 = region.exits.iter().map(|e| e.gcnt as u32).max().unwrap_or(0);
        self.acct.charge(
            OverheadKind::SbTranslator,
            (src_insns as u64 + 2) * self.costs.sb_translate_per_insn,
            sink,
        );
        self.inject_bug_region(&mut region, BugKind::TranslatorWrongConstant);
        let mut sem = self.sem_begin(&region);
        run_pipeline_sem(&mut sem, &mut region, self.cfg.opt_level);
        self.inject_bug_region(&mut region, BugKind::OptimizerBadFold);
        if self.cfg.opt_level >= OptLevel::O3 {
            let rle = ddg::memory_opt(&mut region);
            if let Some(s) = sem.as_mut() {
                s.steps.push(SemStep::MemoryOpt);
                if rle > 0 {
                    s.dirty = true;
                }
            }
            // Clean up RLE-introduced copies.
            run_pipeline_sem(&mut sem, &mut region, OptLevel::O2);
        }
        // One composite check covers the pipeline(s) and memory_opt —
        // the term evaluator's store-forwarding model proves the RLE
        // rewrites equivalent, and a divergence is attributed to the
        // offending pass by replaying the recorded steps.
        if let Some(s) = sem.as_mut() {
            s.check(&region, "optimizer");
        }
        if self.cfg.opt_level >= OptLevel::O3 {
            let allow_spec = asserts && self.cfg.speculation;
            let graph = ddg::build(&mut region, allow_spec);
            self.verify_ddg_stage(&region, &graph, "sbm-ddg");
            list_schedule(&mut region, &graph, &self.cfg.sched);
        }
        region.validate();
        self.sem_finish(sem, "sbm-semantic");
        self.verify_ir(&region, "sbm-pipeline");
        let id = self.install(
            region,
            TransKind::Sb { asserts },
            None,
            Some(shape.clone()),
            src_insns,
            sink,
        );
        let _ = id;
        self.stats.translations_sb += 1;
        true
    }

    fn recreate_multi_exit<S: InsnSink>(&mut self, st: &mut GuestState, tid: usize, sink: &mut S) {
        let Some(shape) = self.cache.translation(tid).shape.clone() else {
            return;
        };
        self.cache.invalidate(tid);
        self.stats.recreations += 1;
        self.obs.emit(TraceEventKind::Recreate { pc: shape.entry });
        self.build_and_install_sb(st, &shape, false, sink);
    }

    fn install<S: InsnSink>(
        &mut self,
        region: Region,
        kind: TransKind,
        exec_counter: Option<u32>,
        shape: Option<SbShape>,
        src_insns: u32,
        sink: &mut S,
    ) -> usize {
        let sb_mode = matches!(kind, TransKind::Sb { .. });
        if std::env::var_os("DARCO_DUMP_REGIONS").is_some() {
            eprintln!("--- installing {kind:?} ---\n{region}");
        }
        let ctx = CodegenCtx {
            base: self.cache.next_base(),
            sin_addr: self.cache.sin_addr(),
            cos_addr: self.cache.cos_addr(),
            entry_count_idx: exec_counter,
            sb_mode,
        };
        let mut out = codegen::generate(&region, &ctx);
        if self.cache.would_overflow(out.encoded_words) {
            // Full cache: flush everything (translations, chains, IBTC)
            // and retry; profiling state survives.
            self.obs.emit(TraceEventKind::CacheFlush {
                live: self.cache.live_translations() as u32,
                used_words: self.cache.used_words() as u64,
            });
            self.cache.flush();
            self.decode.flush();
            self.acct.charge(OverheadKind::Others, self.costs.init / 2, sink);
            let ctx = CodegenCtx { base: self.cache.next_base(), ..ctx };
            out = codegen::generate(&region, &ctx);
        }
        // Check the generated code before any fault injection touches it
        // (a planted codegen bug must reach the cache so the debug
        // toolchain can hunt it down).
        self.verify_host(&region, &out, "codegen");
        self.inject_bug_code(&mut out.code);
        self.translation_ordinal += 1;
        if sb_mode {
            self.stats.sb_static_guest += src_insns as u64;
            self.stats.sb_static_host += out.code.iter().map(HInsn::dyn_cost).sum::<u64>();
        }
        let mut needs_flags_mask = 0u8;
        for (j, f) in region.entry.flags.iter().enumerate() {
            if f.is_some() {
                needs_flags_mask |= 1 << j;
            }
        }
        let t = Translation {
            guest_pc: region.guest_entry_pc,
            kind,
            host_base: self.cache.next_base(),
            len: 0,
            encoded_words: out.encoded_words,
            exits: out.exits,
            src_insns,
            host_insns: out.code.len() as u32,
            needs_flags_mask,
            spec_fails: 0,
            shape,
            valid: true,
        };
        let guest_pc = region.guest_entry_pc;
        let encoded_words = out.encoded_words;
        let id = self.cache.install(t, out.code);
        self.obs.region_size(src_insns);
        self.obs.emit(TraceEventKind::CacheInsert {
            id: id as u32,
            pc: guest_pc,
            words: encoded_words as u32,
        });
        self.obs
            .cache_occupancy(self.cache.used_words() as u64, self.cfg.code_cache_words as u64);
        id
    }

    // -- checkpointing ---------------------------------------------------------

    /// Serializes the complete TOL state. Must only be called at a mode
    /// boundary — i.e. after [`Tol::run`] has returned — where the host
    /// emulator's speculative transients (store buffer, speculative loads,
    /// unattributed counts) are provably empty.
    ///
    /// Serialized: code cache (arena + translations + chains + IBTC),
    /// profile tables (both the software [`ProfTable`] and the private
    /// IM/edge counters), emulator register files and retire counters,
    /// overhead accounting (including the synthesis rotor), statistics,
    /// pending lazy flags, the verifier log and the live metrics registry.
    ///
    /// Re-materialized on restore, not serialized: configuration and cost
    /// model (the restoring side must construct the TOL with the same
    /// [`TolConfig`]), the predecoded block cache (a pure cache over guest
    /// memory), and tracing state.
    pub fn snapshot_into(&self, w: &mut Wire) {
        self.cache.snapshot_into(w);
        w.put_usize(self.prof.counts.len());
        for (c, t) in self.prof.counts.iter().zip(&self.prof.trips) {
            w.put_u64(*c);
            w.put_u64(*t);
        }

        for r in self.emu.iregs {
            w.put_u32(r);
        }
        for r in self.emu.fregs {
            w.put_f64(r);
        }
        let ec = &self.emu.counters;
        for v in [
            ec.chkpts,
            ec.commits,
            ec.assert_fails,
            ec.alias_fails,
            ec.page_faults,
            ec.ibtc_hits,
            ec.ibtc_misses,
            ec.smc_aborts,
            self.emu.gcnt_bb,
            self.emu.gcnt_sb,
            self.emu.host_bb,
            self.emu.host_sb,
            self.last_code_gen,
        ] {
            w.put_u64(v);
        }
        let o = &self.acct.overhead;
        for v in [
            o.interpreter,
            o.bb_translator,
            o.sb_translator,
            o.prologue,
            o.chaining,
            o.cache_lookup,
            o.others,
            self.acct.rot(),
        ] {
            w.put_u64(v);
        }
        let s = &self.stats;
        for v in [
            s.guest_im,
            s.translations_bb,
            s.translations_sb,
            s.recreations,
            s.host_app,
            s.interp_blocks,
            s.spec_rollbacks,
            s.smc_aborts,
            s.smc_flushes,
            s.chain_patches,
            s.ibtc_inserts,
            s.guest_external,
            s.sb_static_guest,
            s.sb_static_host,
            s.verify_regions,
            s.verify_findings,
            // Wall-clock telemetry is serialized as zero: a snapshot is a
            // pure function of guest progress, and host timing is neither
            // (it differs run to run and backend to backend). A restored
            // engine restarts its timing accumulators from zero — they
            // then describe the resuming process, which is the honest
            // reading. The live engine that produced the snapshot keeps
            // its real values; only the wire image is normalized.
            0, // s.verify_nanos
            0, // s.translate_nanos
        ] {
            w.put_u64(v);
        }
        for v in s.verify_by_kind {
            w.put_u64(v);
        }
        w.put_bool(self.pending_flags.is_some());
        if let Some(p) = self.pending_flags {
            w.put_u32(p.kind.code() as u32);
            w.put_u32(p.a);
            w.put_u32(p.b);
        }
        w.put_usize(self.verify_log.len());
        for line in &self.verify_log {
            w.put_str(line);
        }
        crate::obs::registry_snapshot_into(&self.obs.metrics, w);
        let mut counter_bb: Vec<_> = self.counter_bb.iter().collect();
        counter_bb.sort_by_key(|(pc, _)| **pc);
        w.put_usize(counter_bb.len());
        for (pc, idx) in counter_bb {
            w.put_u32(*pc);
            w.put_u32(*idx);
        }
        let mut edges: Vec<_> = self.bb_edges.iter().collect();
        edges.sort_by_key(|(pc, _)| **pc);
        w.put_usize(edges.len());
        for (pc, e) in edges {
            w.put_u32(*pc);
            w.put_u32(e.taken);
            w.put_u32(e.fall);
        }
        let mut im_prof: Vec<_> = self.im_prof.iter().collect();
        im_prof.sort_by_key(|(pc, _)| **pc);
        w.put_usize(im_prof.len());
        for (pc, p) in im_prof {
            w.put_u32(*pc);
            w.put_u64(p.count);
            w.put_u64(p.taken);
            w.put_u64(p.fall);
        }
        let mut dnt: Vec<_> = self.do_not_translate.iter().copied().collect();
        dnt.sort_unstable();
        w.put_u32s(&dnt);
        w.put_u64(self.translation_ordinal);
        w.put_bool(self.spill_mapped);
        w.put_bool(self.im_split_entry.is_some());
        if let Some(pc) = self.im_split_entry {
            w.put_u32(pc);
        }
    }

    /// Restores from a [`Tol::snapshot_into`] stream. `self` must have
    /// been created with the same [`TolConfig`] as the snapshotted TOL
    /// (the caller checks a config fingerprint before getting here; the
    /// code cache additionally validates its own geometry).
    ///
    /// # Errors
    /// Wire decode failures or code-cache geometry mismatches.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.cache.restore_from(r)?;
        let n = r.get_usize()?;
        let mut prof = ProfTable::new();
        for _ in 0..n {
            prof.counts.push(r.get_u64()?);
            prof.trips.push(r.get_u64()?);
        }
        self.prof = prof;
        // Fresh emulator + public fields: the speculative transients are
        // empty at every legal snapshot point, so none are serialized.
        let mut emu = HostEmulator::new();
        for i in 0..64 {
            emu.iregs[i] = r.get_u32()?;
        }
        for i in 0..64 {
            emu.fregs[i] = r.get_f64()?;
        }
        emu.counters.chkpts = r.get_u64()?;
        emu.counters.commits = r.get_u64()?;
        emu.counters.assert_fails = r.get_u64()?;
        emu.counters.alias_fails = r.get_u64()?;
        emu.counters.page_faults = r.get_u64()?;
        emu.counters.ibtc_hits = r.get_u64()?;
        emu.counters.ibtc_misses = r.get_u64()?;
        emu.counters.smc_aborts = r.get_u64()?;
        emu.gcnt_bb = r.get_u64()?;
        emu.gcnt_sb = r.get_u64()?;
        emu.host_bb = r.get_u64()?;
        emu.host_sb = r.get_u64()?;
        self.last_code_gen = r.get_u64()?;
        self.emu = emu;
        self.acct.overhead = Overhead {
            interpreter: r.get_u64()?,
            bb_translator: r.get_u64()?,
            sb_translator: r.get_u64()?,
            prologue: r.get_u64()?,
            chaining: r.get_u64()?,
            cache_lookup: r.get_u64()?,
            others: r.get_u64()?,
        };
        self.acct.set_rot(r.get_u64()?);
        let mut stats = TolStats {
            guest_im: r.get_u64()?,
            translations_bb: r.get_u64()?,
            translations_sb: r.get_u64()?,
            recreations: r.get_u64()?,
            host_app: r.get_u64()?,
            interp_blocks: r.get_u64()?,
            spec_rollbacks: r.get_u64()?,
            smc_aborts: r.get_u64()?,
            smc_flushes: r.get_u64()?,
            chain_patches: r.get_u64()?,
            ibtc_inserts: r.get_u64()?,
            guest_external: r.get_u64()?,
            sb_static_guest: r.get_u64()?,
            sb_static_host: r.get_u64()?,
            verify_regions: r.get_u64()?,
            verify_findings: r.get_u64()?,
            verify_nanos: r.get_u64()?,
            translate_nanos: r.get_u64()?,
            ..TolStats::default()
        };
        for v in &mut stats.verify_by_kind {
            *v = r.get_u64()?;
        }
        self.stats = stats;
        self.pending_flags = if r.get_bool()? {
            let code = r.get_u32()?;
            let kind = FlagsKind::from_code(code).ok_or(WireError::Malformed {
                at: r.pos(),
                what: "unknown pending-flags code",
            })?;
            Some(PendingFlags { kind, a: r.get_u32()?, b: r.get_u32()? })
        } else {
            None
        };
        let n = r.get_usize()?;
        let mut verify_log = Vec::with_capacity(n);
        for _ in 0..n {
            verify_log.push(r.get_str()?);
        }
        self.verify_log = verify_log;
        self.obs.restore_metrics(crate::obs::registry_restore(r)?);
        let n = r.get_usize()?;
        let mut counter_bb = HashMap::with_capacity(n);
        for _ in 0..n {
            let pc = r.get_u32()?;
            counter_bb.insert(pc, r.get_u32()?);
        }
        self.counter_bb = counter_bb;
        let n = r.get_usize()?;
        let mut bb_edges = HashMap::with_capacity(n);
        for _ in 0..n {
            let pc = r.get_u32()?;
            bb_edges.insert(pc, EdgeCounters { taken: r.get_u32()?, fall: r.get_u32()? });
        }
        self.bb_edges = bb_edges;
        let n = r.get_usize()?;
        let mut im_prof = HashMap::with_capacity(n);
        for _ in 0..n {
            let pc = r.get_u32()?;
            im_prof.insert(
                pc,
                ImProf { count: r.get_u64()?, taken: r.get_u64()?, fall: r.get_u64()? },
            );
        }
        self.im_prof = im_prof;
        self.do_not_translate = r.get_u32s()?.into_iter().collect();
        self.translation_ordinal = r.get_u64()?;
        self.spill_mapped = r.get_bool()?;
        self.im_split_entry = if r.get_bool()? { Some(r.get_u32()?) } else { None };
        // Pure cache over guest memory — rebuilt on demand.
        self.decode = DecodeCache::new();
        Ok(())
    }

    // -- fault injection (debug-toolchain support) ---------------------------------

    fn inject_bug_region(&mut self, region: &mut Region, want: BugKind) {
        let Some(inj) = self.cfg.injection else { return };
        if inj.kind != want || inj.translation_ordinal != self.translation_ordinal {
            return;
        }
        // An optimizer bug only exists when the optimizer actually runs.
        if want == BugKind::OptimizerBadFold && self.cfg.opt_level == OptLevel::O0 {
            return;
        }
        for inst in &mut region.insts {
            if let IrOp::ConstI(c) = inst.op {
                inst.op = IrOp::ConstI(c.wrapping_add(1));
                return;
            }
        }
    }

    fn inject_bug_code(&mut self, code: &mut [HInsn]) {
        let Some(inj) = self.cfg.injection else { return };
        if inj.kind != BugKind::CodegenDropStore
            || inj.translation_ordinal != self.translation_ordinal
        {
            return;
        }
        for insn in code.iter_mut() {
            if matches!(insn, HInsn::Store { base, .. } if *base != R_SPILL_BASE) {
                *insn = HInsn::Nop;
                return;
            }
        }
    }
}
