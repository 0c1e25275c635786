//! The re-entrant stepping engine and serializable checkpoints.
//!
//! [`Engine`] inverts the old run-to-completion control flow: instead of
//! [`crate::System::run`] owning the loop until the application ends, the
//! caller owns it — [`Engine::step`] runs one bounded quantum and returns
//! a [`StepExit`] at a synchronization-safe boundary. At every such
//! boundary the complete simulation state (guest architectural state and
//! memory, TOL including the code cache, the authoritative component, and
//! the attached timing core) can be serialized with [`Engine::checkpoint`]
//! and later resumed bit-identically with [`Engine::restore`].
//!
//! The determinism contract: for a fixed stepping schedule, a run that is
//! checkpointed at a boundary, restored into a fresh engine and driven to
//! completion produces a [`crate::RunReport`] identical to the
//! uninterrupted run in every deterministic metric (wall-clock
//! measurements such as `*_nanos` counters are inherently excluded).

use crate::machine::{Machine, MachineEvent};
use crate::profiler::Profiler;
use crate::system::{DarcoError, RunReport, SinkChoice, SystemConfig, TimingMode};
use darco_guest::{Fault, GuestProgram, Wire, WireError, WireReader};
use darco_host::sink::{InsnSink, NullSink, RetireEvent};
use darco_obs::{Registry, Tracer};
use darco_power::EnergyModel;
use darco_timing::{FastTimer, InOrderCore, OooCore};

/// Why [`Engine::step`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExit {
    /// The quantum budget was exhausted; call [`Engine::step`] again to
    /// continue.
    Yielded,
    /// The application ended (halt or exit syscall); the report is final.
    Ended,
    /// Both components raised the same guest fault; the report is final.
    GuestFault,
    /// A periodic validation boundary was reached and the validation was
    /// performed (successfully — a divergence is an error, not an exit).
    ValidationDue,
}

/// Snapshot format magic (`DARCOSNP`, little-endian).
const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"DARCOSNP");
/// Snapshot format version. v4: translations and `TolStats` carry no
/// static cycle figure, and the `fast` sink body (tag 3) carries no
/// install counters.
const SNAP_VERSION: u32 = 4;

/// A serialized checkpoint of a running engine.
///
/// The header carries a format magic + version plus fingerprints of the
/// guest program and the system configuration, so a snapshot can only be
/// restored into an engine built from the same inputs.
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
    guest_insns: u64,
    program_fingerprint: u64,
}

impl Snapshot {
    /// The serialized form (stable across processes and hosts).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parses a serialized snapshot, checking magic and version.
    ///
    /// # Errors
    /// [`DarcoError::Protocol`] when the bytes are not a DARCO snapshot
    /// or use an unsupported format version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, DarcoError> {
        let mut r = WireReader::new(&bytes);
        let magic = r.get_u64().map_err(wire_err)?;
        if magic != SNAP_MAGIC {
            return Err(DarcoError::Protocol("not a DARCO snapshot (bad magic)".into()));
        }
        let version = r.get_u32().map_err(wire_err)?;
        if version != SNAP_VERSION {
            return Err(DarcoError::Protocol(format!(
                "unsupported snapshot version {version} (expected {SNAP_VERSION})"
            )));
        }
        let program_fingerprint = r.get_u64().map_err(wire_err)?;
        let _config_fingerprint = r.get_u64().map_err(wire_err)?;
        let guest_insns = r.get_u64().map_err(wire_err)?;
        Ok(Snapshot { bytes, guest_insns, program_fingerprint })
    }

    /// Retired guest instructions at the checkpoint.
    pub fn guest_insns(&self) -> u64 {
        self.guest_insns
    }

    /// Fingerprint of the program the snapshot was taken from.
    pub fn program_fingerprint(&self) -> u64 {
        self.program_fingerprint
    }
}

fn wire_err(e: WireError) -> DarcoError {
    DarcoError::Protocol(format!("malformed snapshot: {e}"))
}

/// FNV-1a over the configuration's debug rendering: a guard against
/// restoring a snapshot under a different configuration, not a security
/// boundary. [`SystemConfig`] contains no hash-ordered containers, so the
/// rendering is deterministic.
///
/// The backend is normalized out: native code is a pure cache over the
/// arena, so a snapshot taken under either backend restores bit-for-bit
/// into the other.
pub(crate) fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    let mut cfg = cfg.clone();
    cfg.backend = Default::default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{cfg:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) enum Sink {
    Null(NullSink),
    InOrder(Box<InOrderCore>),
    Ooo(Box<OooCore>),
    /// The in-order model behind the block-granular accelerated path
    /// ([`TimingMode::Fast`]) — bit-identical to `InOrder` by contract.
    Fast(Box<FastTimer>),
}

impl InsnSink for Sink {
    fn retire(&mut self, ev: &RetireEvent) {
        match self {
            Sink::Null(s) => s.retire(ev),
            Sink::InOrder(s) => s.retire(ev),
            Sink::Ooo(s) => s.retire(ev),
            Sink::Fast(s) => s.retire(ev),
        }
    }

    fn is_null(&self) -> bool {
        matches!(self, Sink::Null(_))
    }

    fn wants_blocks(&self) -> bool {
        match self {
            Sink::Null(s) => s.wants_blocks(),
            Sink::InOrder(s) => s.wants_blocks(),
            Sink::Ooo(s) => s.wants_blocks(),
            Sink::Fast(s) => s.wants_blocks(),
        }
    }

    fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
        match self {
            Sink::Null(s) => s.retire_block(events, complete),
            Sink::InOrder(s) => s.retire_block(events, complete),
            Sink::Ooo(s) => s.retire_block(events, complete),
            Sink::Fast(s) => s.retire_block(events, complete),
        }
    }
}

enum Finish {
    Ended { exit_status: Option<u32> },
    Fault(Fault),
}

/// Persistent registry mirror for flight dumps: `sync_from` at every
/// quantum boundary accumulates honest epoch stamps (quiet metrics are
/// not re-stamped), so on a crash `delta_since(boundary_epoch)` names
/// exactly the metrics that moved after the last good boundary.
struct ObsMirror {
    reg: Registry,
    /// Mirror epoch as of the last completed boundary.
    boundary_epoch: u64,
}

/// A running simulation that the caller steps.
///
/// Created by [`crate::System::start`]. Drop it at any point, resume it
/// with more [`Engine::step`] calls, or serialize it with
/// [`Engine::checkpoint`] — the engine never owns a loop.
pub struct Engine {
    cfg: SystemConfig,
    program: GuestProgram,
    machine: Machine,
    sink: Sink,
    /// Next instruction count at which to validate (`u64::MAX` when
    /// periodic validation is off).
    next_validate: u64,
    finished: Option<Finish>,
    /// Guest-PC sampling profiler, sampled at every quantum boundary when
    /// enabled ([`Engine::enable_profiler`]). Boxed: most runs carry none.
    profiler: Option<Box<Profiler>>,
    /// Flight-dump registry mirror (allocated only with a flight path).
    flight_mirror: Option<Box<ObsMirror>>,
}

impl Engine {
    /// Builds a ready-to-step engine (the Initialization phase).
    pub fn new(cfg: SystemConfig, program: GuestProgram) -> Engine {
        let mut machine = Machine::new(cfg.tol.clone(), &program);
        if let Some(cap) = cfg.trace_capacity {
            machine.tol.obs.trace = Tracer::ring(cap);
        }
        if cfg.timing_includes_tol && cfg.sink != SinkChoice::None {
            machine.tol.set_synthesize_overhead(true);
        }
        machine.tol.set_backend(cfg.backend);
        let sink = match (cfg.sink, cfg.timing_mode) {
            (SinkChoice::None, _) => Sink::Null(NullSink),
            (SinkChoice::InOrder, TimingMode::Full) => {
                Sink::InOrder(Box::new(InOrderCore::new(cfg.timing.clone())))
            }
            (SinkChoice::InOrder, TimingMode::Fast) => {
                Sink::Fast(Box::new(FastTimer::new(cfg.timing.clone())))
            }
            // The out-of-order model has no accelerated path; `fast`
            // degrades to the detailed simulation it would escape into
            // anyway.
            (SinkChoice::OutOfOrder, _) => Sink::Ooo(Box::new(OooCore::new(cfg.timing.clone()))),
        };
        let next_validate = match cfg.validate_every {
            Some(step) => machine.insns().saturating_add(step),
            None => u64::MAX,
        };
        let flight_mirror = cfg
            .flight_path
            .is_some()
            .then(|| Box::new(ObsMirror { reg: Registry::default(), boundary_epoch: 0 }));
        Engine { cfg, program, machine, sink, next_validate, finished: None, profiler: None, flight_mirror }
    }

    /// Turns on the guest-PC sampling profiler. The engine samples once
    /// per [`Engine::step`] boundary, so `every` is realized by stepping
    /// with that budget (as `darco-run --profile` does); the value is
    /// recorded in the profiler's reports. Replaces any prior profiler.
    pub fn enable_profiler(&mut self, every: u64) {
        self.profiler = Some(Box::new(Profiler::new(every)));
    }

    /// The profiler, when enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// Detaches and returns the profiler (e.g. before
    /// [`Engine::into_report`]).
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take().map(|p| *p)
    }

    /// Total retired guest instructions so far.
    pub fn insns(&self) -> u64 {
        self.machine.insns()
    }

    /// Whether the application has ended (further steps are no-ops).
    pub fn finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The coupled machine (inspection; the sampling harness also mutates
    /// TOL thresholds through it between steps).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the coupled machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Assembles the current unified metrics registry: a read-only
    /// snapshot of everything counted so far, exactly what
    /// [`Engine::into_report`] would carry (minus the power bridge).
    /// Callers that publish incremental updates pair this with
    /// [`Registry::sync_from`] on a persistent mirror and
    /// [`Registry::delta_since`].
    pub fn metrics(&self) -> Registry {
        Self::assemble_metrics(&self.machine, &self.sink)
    }

    /// Runs up to `budget` more guest instructions, stopping early at
    /// periodic-validation boundaries (the validation is performed before
    /// returning [`StepExit::ValidationDue`]) and at the end of the
    /// application. All synchronization invariants hold at return: the
    /// TOL is at a mode boundary with emulator transients drained, so the
    /// engine can be checkpointed or dropped.
    ///
    /// # Errors
    /// [`DarcoError`] on validation divergence, protocol errors, or when
    /// the total run exceeds [`SystemConfig::max_guest_insns`]
    /// ([`DarcoError::BudgetExceeded`] — the partial report remains
    /// available via [`Engine::into_report`]).
    pub fn step(&mut self, budget: u64) -> Result<StepExit, DarcoError> {
        if let Some(f) = &self.finished {
            return Ok(match f {
                Finish::Ended { .. } => StepExit::Ended,
                Finish::Fault(_) => StepExit::GuestFault,
            });
        }
        // With a flight path configured, a panic anywhere in the pipeline
        // (e.g. `VerifyMode::Fatal`) still produces the dump before
        // propagating, and so does every returned error.
        let r = if self.cfg.flight_path.is_some() {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.step_inner(budget)
            }));
            match r {
                Ok(Ok(exit)) => Ok(exit),
                Ok(Err(e)) => {
                    self.emit_flight(&e.to_string());
                    Err(e)
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    self.emit_flight(&format!("panic: {msg}"));
                    std::panic::resume_unwind(payload);
                }
            }
        } else {
            self.step_inner(budget)
        };
        if matches!(r, Ok(StepExit::Yielded | StepExit::ValidationDue)) {
            // A quantum boundary mid-run: the TOL sits at a mode boundary
            // with transients drained, so the sample is well-defined.
            if let Some(p) = &mut self.profiler {
                p.sample(&self.machine);
            }
            if let Some(mirr) = &mut self.flight_mirror {
                mirr.reg.sync_from(&Self::assemble_metrics(&self.machine, &self.sink));
                mirr.boundary_epoch = mirr.reg.epoch();
            }
        }
        r
    }

    /// Assembles and writes the flight artifact for a failing step,
    /// attaching the since-last-boundary registry delta and the profile
    /// window when available.
    fn emit_flight(&mut self, context: &str) {
        let reg = Self::assemble_metrics(&self.machine, &self.sink);
        let delta = self.flight_mirror.as_mut().map(|mirr| {
            mirr.reg.sync_from(&reg);
            mirr.reg.delta_since(mirr.boundary_epoch).to_json()
        });
        let window = self.profiler.as_ref().map(|p| p.window_json());
        let mut extras: Vec<(&str, &str)> = Vec::new();
        if let Some(d) = &delta {
            extras.push(("delta", d));
        }
        if let Some(w) = &window {
            extras.push(("profile_window", w));
        }
        Self::write_flight(&self.cfg, &self.machine, &reg, context, &extras);
    }

    fn step_inner(&mut self, budget: u64) -> Result<StepExit, DarcoError> {
        let now = self.machine.insns();
        if now >= self.cfg.max_guest_insns {
            return Err(DarcoError::BudgetExceeded);
        }
        let target =
            now.saturating_add(budget).min(self.next_validate).min(self.cfg.max_guest_insns);
        match self.machine.run_to(target, self.cfg.compare_flags, &mut self.sink)? {
            MachineEvent::Reached => {
                if self.machine.insns() >= self.next_validate {
                    self.machine
                        .xcomp
                        .run_until(self.machine.insns())
                        .map_err(|e| DarcoError::Protocol(e.to_string()))?;
                    self.machine.validate(self.cfg.compare_flags)?;
                    let step = self.cfg.validate_every.unwrap_or(u64::MAX);
                    self.next_validate = self.machine.insns().saturating_add(step);
                    Ok(StepExit::ValidationDue)
                } else {
                    Ok(StepExit::Yielded)
                }
            }
            MachineEvent::Ended { exit_status } => {
                self.finished = Some(Finish::Ended { exit_status });
                Ok(StepExit::Ended)
            }
            MachineEvent::GuestFault(f) => {
                self.finished = Some(Finish::Fault(f));
                Ok(StepExit::GuestFault)
            }
        }
    }

    /// Serializes the complete engine state. Drives the authoritative
    /// component to the co-designed instruction count first, so the
    /// snapshot captures both components at the same execution point.
    ///
    /// # Errors
    /// [`DarcoError::Protocol`] when the run already finished (nothing
    /// left to resume) or the authoritative component cannot catch up.
    pub fn checkpoint(&mut self) -> Result<Snapshot, DarcoError> {
        if self.finished.is_some() {
            return Err(DarcoError::Protocol("cannot checkpoint a finished run".into()));
        }
        let mut w = Wire::new();
        w.put_u64(SNAP_MAGIC);
        w.put_u32(SNAP_VERSION);
        let program_fingerprint = self.program.fingerprint();
        w.put_u64(program_fingerprint);
        w.put_u64(config_fingerprint(&self.cfg));
        let guest_insns = self.machine.insns();
        w.put_u64(guest_insns);
        self.machine.snapshot_into(&mut w)?;
        w.put_u64(self.next_validate);
        match &self.sink {
            Sink::Null(_) => w.put_u8(0),
            Sink::InOrder(c) => {
                w.put_u8(1);
                c.snapshot_into(&mut w);
            }
            Sink::Ooo(c) => {
                w.put_u8(2);
                c.snapshot_into(&mut w);
            }
            Sink::Fast(c) => {
                w.put_u8(3);
                c.snapshot_into(&mut w);
            }
        }
        Ok(Snapshot { bytes: w.finish(), guest_insns, program_fingerprint })
    }

    /// Restores the engine to a checkpointed state. The engine must have
    /// been built from the same program and configuration the snapshot
    /// was taken under (enforced via the header fingerprints).
    ///
    /// # Errors
    /// [`DarcoError::Protocol`] on fingerprint mismatches or a malformed
    /// snapshot body.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), DarcoError> {
        let mut r = WireReader::new(&snap.bytes);
        let magic = r.get_u64().map_err(wire_err)?;
        let version = r.get_u32().map_err(wire_err)?;
        if magic != SNAP_MAGIC || version != SNAP_VERSION {
            return Err(DarcoError::Protocol("not a restorable DARCO snapshot".into()));
        }
        let program_fp = r.get_u64().map_err(wire_err)?;
        if program_fp != self.program.fingerprint() {
            return Err(DarcoError::Protocol(format!(
                "snapshot was taken from a different program \
                 (fingerprint {program_fp:#018x}, engine has {:#018x})",
                self.program.fingerprint()
            )));
        }
        let config_fp = r.get_u64().map_err(wire_err)?;
        if config_fp != config_fingerprint(&self.cfg) {
            return Err(DarcoError::Protocol(
                "snapshot was taken under a different configuration".into(),
            ));
        }
        let _insns = r.get_u64().map_err(wire_err)?;
        self.machine.restore_from(&mut r).map_err(wire_err)?;
        self.next_validate = r.get_u64().map_err(wire_err)?;
        let sink_tag = r.get_u8().map_err(wire_err)?;
        match (&mut self.sink, sink_tag) {
            (Sink::Null(_), 0) => {}
            (Sink::InOrder(c), 1) => c.restore_from(&mut r).map_err(wire_err)?,
            (Sink::Ooo(c), 2) => c.restore_from(&mut r).map_err(wire_err)?,
            (Sink::Fast(c), 3) => c.restore_from(&mut r).map_err(wire_err)?,
            _ => {
                return Err(DarcoError::Protocol(
                    "snapshot was taken with a different timing sink".into(),
                ))
            }
        }
        r.expect_end().map_err(wire_err)?;
        self.finished = None;
        // Synthesis follows the engine's configuration, not the snapshot.
        self.machine
            .tol
            .set_synthesize_overhead(self.cfg.timing_includes_tol && self.cfg.sink != SinkChoice::None);
        Ok(())
    }

    /// Finalizes the run into a report. Valid at any point: after
    /// [`StepExit::Ended`]/[`StepExit::GuestFault`] the report is final,
    /// mid-run (or after [`DarcoError::BudgetExceeded`]) it is the
    /// partial report of everything retired so far.
    pub fn into_report(self) -> RunReport {
        let Engine { cfg, program, machine: m, sink, finished, .. } = self;
        let (exit_status, fault) = match finished {
            Some(Finish::Ended { exit_status }) => (exit_status, None),
            Some(Finish::Fault(f)) => (None, Some(f)),
            None => (None, None),
        };
        let timing = match &sink {
            Sink::Null(_) => None,
            Sink::InOrder(c) => Some(c.stats()),
            Sink::Ooo(c) => Some(c.stats()),
            Sink::Fast(c) => Some(c.stats()),
        };
        let fast = match &sink {
            Sink::Fast(c) => Some(c.fast_stats()),
            _ => None,
        };
        let power = match (&timing, cfg.power) {
            (Some(ts), true) => Some(darco_power::report(ts, &cfg.timing, &EnergyModel::default())),
            _ => None,
        };
        // Single metric assembly: the registry built here is the one the
        // report carries (the flight path assembles its own only on the
        // error path, where no report exists). The timing bridge lives in
        // `assemble_metrics`, so live consumers (`--metrics`, flight
        // dumps, the dashboard) see the same `timing.*`/`fast.*` keys.
        let mut metrics = Self::assemble_metrics(&m, &sink);
        if let Some(p) = &power {
            metrics.set_gauge("power.total_pj", p.total_pj);
            metrics.set_gauge("power.avg_power_mw", p.avg_power_mw);
            metrics.set_gauge("power.edp", p.edp);
        }
        RunReport {
            name: program.name.clone(),
            guest_insns: m.tol.total_guest(),
            mode_insns: m.tol.mode_split(),
            host_app_insns: m.tol.stats.host_app,
            overhead: *m.tol.overhead(),
            sbm_emulation_cost: m.tol.sbm_emulation_cost(),
            tol_stats: m.tol.stats,
            chkpts: m.tol.emu.counters.chkpts,
            rollbacks: m.tol.emu.counters.assert_fails + m.tol.emu.counters.alias_fails,
            validations: m.validations,
            pages_served: m.pages_served,
            syscalls: m.syscalls,
            output: m.xcomp.output.clone(),
            exit_status,
            guest_fault: fault.map(|f| f.to_string()),
            timing,
            fast,
            power,
            metrics,
            trace: m.tol.obs.trace.events(),
        }
    }

    /// Builds the unified registry from everything the machine counted:
    /// the TOL's live histograms/gauges, the `TolStats` and overhead
    /// bridges, sync-protocol counters, the authoritative component and
    /// the timing sink (`timing.*`, plus `fast.*` in accelerated mode) —
    /// so `--metrics`, flight dumps and the final report all expose the
    /// same keys.
    fn assemble_metrics(m: &Machine, sink: &Sink) -> Registry {
        let mut reg = m.tol.obs.metrics.clone();
        match sink {
            Sink::Null(_) => {}
            Sink::InOrder(c) => c.stats().register_into(&mut reg, "timing"),
            Sink::Ooo(c) => c.stats().register_into(&mut reg, "timing"),
            Sink::Fast(c) => {
                c.stats().register_into(&mut reg, "timing");
                c.fast_stats().register_into(&mut reg, "fast");
            }
        }
        m.tol.stats.register_into(&mut reg, "tol");
        m.tol.overhead().register_into(&mut reg, "tol");
        m.xcomp.register_metrics(&mut reg, "xcomp");
        reg.set_counter("sync.validations", m.validations);
        reg.set_counter("sync.pages_served", m.pages_served);
        reg.set_counter("sync.syscalls", m.syscalls);
        reg.set_counter("sync.xcomp_nanos", m.xcomp_nanos);
        // Per-cause emulator counters: rollback and transaction causes
        // individually, where `tol.spec_rollbacks` only has the merged
        // total. Deterministic (no wall clock), so campaign artifacts and
        // the fuzzer's coverage map can key on them.
        let ec = &m.tol.emu.counters;
        reg.set_counter("emu.chkpts", ec.chkpts);
        reg.set_counter("emu.commits", ec.commits);
        reg.set_counter("emu.assert_fails", ec.assert_fails);
        reg.set_counter("emu.alias_fails", ec.alias_fails);
        reg.set_counter("emu.page_faults", ec.page_faults);
        reg.set_counter("emu.ibtc_hits", ec.ibtc_hits);
        reg.set_counter("emu.ibtc_misses", ec.ibtc_misses);
        reg.set_counter("emu.smc_aborts", ec.smc_aborts);
        // Native-backend self-counters. Assembled here, never into the
        // TOL's serialized registry: JIT state is not part of a snapshot.
        if let Some(j) = m.tol.jit_stats() {
            reg.set_counter("jit.frags_compiled", j.frags_compiled);
            reg.set_counter("jit.enters", j.enters);
            reg.set_counter("jit.code_bytes_emitted", j.code_bytes_emitted);
            reg.set_counter("jit.code_bytes_flushed", j.code_bytes_flushed);
            reg.set_counter("jit.jump_patches", j.jump_patches);
            reg.set_counter("jit.ibtc_patches", j.ibtc_patches);
            reg.set_counter("jit.regalloc_spills", j.regalloc_spills);
            reg.set_counter("jit.slow_mem_exits", j.slow_mem_exits);
            reg.set_counter("jit.exec_nanos", j.exec_nanos);
            reg.set_counter("jit.compile_nanos", j.compile_nanos);
            reg.set_counter("jit.verify.fragments", j.verify_fragments);
            reg.set_counter("jit.verify.findings", j.verify_findings);
            reg.set_counter("jit.verify.nanos", j.verify_nanos);
            for k in darco_host::codegen::CheckKind::ALL {
                reg.set_counter(
                    &format!("jit.verify.{}", k.name()),
                    j.verify_by_kind[k.index()],
                );
            }
        }
        reg
    }

    /// Writes the flight-recorder artifact from a pre-assembled registry
    /// (best effort — a failing dump never masks the original error).
    fn write_flight(
        cfg: &SystemConfig,
        machine: &Machine,
        reg: &Registry,
        context: &str,
        extras: &[(&str, &str)],
    ) {
        let Some(path) = &cfg.flight_path else { return };
        let (events, dropped) = match machine.tol.obs.trace.ring_ref() {
            Some(r) => (r.events(), r.dropped()),
            None => (Vec::new(), 0),
        };
        let dump = darco_obs::flight::flight_dump_with(context, &events, dropped, reg, extras);
        if let Err(e) = std::fs::write(path, dump) {
            eprintln!("warning: could not write flight dump to {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use darco_guest::program::DEFAULT_CODE_BASE;
    use darco_guest::{Asm, Cond, Gpr};

    fn loop_program(iters: i32) -> GuestProgram {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Ecx, iters);
        let top = a.here();
        a.add_rr(Gpr::Eax, Gpr::Ecx);
        a.dec(Gpr::Ecx);
        a.jcc_to(Cond::Ne, top);
        a.halt();
        a.into_program()
    }

    fn hot_cfg() -> SystemConfig {
        SystemConfig {
            tol: darco_tol::TolConfig { bbm_threshold: 3, sbm_threshold: 12, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn stepping_matches_monolithic_run() {
        let monolithic = System::new(hot_cfg(), loop_program(2000)).run().unwrap();
        let mut e = System::new(hot_cfg(), loop_program(2000)).start();
        let mut steps = 0;
        while let StepExit::Yielded | StepExit::ValidationDue = e.step(500).unwrap() {
            steps += 1;
        }
        assert!(steps >= 10, "quantum 500 over 6001 insns yields repeatedly: {steps}");
        let stepped = e.into_report();
        assert_eq!(stepped.guest_insns, monolithic.guest_insns);
        assert_eq!(stepped.mode_insns, monolithic.mode_insns);
        assert_eq!(stepped.exit_status, monolithic.exit_status);
    }

    #[test]
    fn step_after_end_is_idempotent() {
        let mut e = System::new(hot_cfg(), loop_program(50)).start();
        while !matches!(e.step(u64::MAX).unwrap(), StepExit::Ended) {}
        assert!(e.finished());
        assert_eq!(e.step(100).unwrap(), StepExit::Ended);
        assert_eq!(e.step(100).unwrap(), StepExit::Ended);
    }

    #[test]
    fn validation_due_is_surfaced_and_performed() {
        let mut cfg = hot_cfg();
        cfg.validate_every = Some(300);
        let mut e = System::new(cfg, loop_program(1000)).start();
        let mut validations = 0;
        loop {
            match e.step(10_000).unwrap() {
                StepExit::ValidationDue => validations += 1,
                StepExit::Yielded => {}
                StepExit::Ended | StepExit::GuestFault => break,
            }
        }
        assert!(validations >= 5, "3001 insns / 300 per check: {validations}");
        let r = e.into_report();
        assert!(r.validations >= validations as u64);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut cfg = hot_cfg();
        cfg.sink = crate::SinkChoice::InOrder;
        // Uninterrupted reference with a fixed stepping schedule.
        let mut a = System::new(cfg.clone(), loop_program(3000)).start();
        let mut plain = System::new(cfg.clone(), loop_program(3000)).start();
        for _ in 0..4 {
            assert_eq!(a.step(1000).unwrap(), StepExit::Yielded);
            assert_eq!(plain.step(1000).unwrap(), StepExit::Yielded);
        }
        let snap = a.checkpoint().unwrap();
        assert!(snap.guest_insns() >= 4000);
        // Restore into a brand-new engine and finish both.
        let mut b = System::new(cfg, loop_program(3000)).start();
        b.restore(&snap).unwrap();
        assert_eq!(b.insns(), a.insns());
        loop {
            let (x, y) = (b.step(1000).unwrap(), plain.step(1000).unwrap());
            assert_eq!(x, y, "restored and uninterrupted runs step in lockstep");
            if x == StepExit::Ended {
                break;
            }
        }
        let rb = b.into_report();
        let rp = plain.into_report();
        assert_eq!(rb.guest_insns, rp.guest_insns);
        assert_eq!(rb.mode_insns, rp.mode_insns);
        assert_eq!(rb.overhead, rp.overhead);
        assert_eq!(rb.tol_stats.chain_patches, rp.tol_stats.chain_patches);
        let (tb, tp) = (rb.timing.unwrap(), rp.timing.unwrap());
        assert_eq!(tb.cycles, tp.cycles, "timing state carries over exactly");
        assert_eq!(tb.il1_misses, tp.il1_misses);
    }

    #[test]
    fn old_versions_and_bad_magic_are_refused() {
        let mut cfg = hot_cfg();
        cfg.sink = crate::SinkChoice::InOrder;
        cfg.timing_mode = crate::TimingMode::Fast;
        let mut a = System::new(cfg.clone(), loop_program(3000)).start();
        assert_eq!(a.step(1000).unwrap(), StepExit::Yielded);
        let good = a.checkpoint().unwrap();
        let mut b = System::new(cfg, loop_program(3000)).start();
        b.restore(&good).unwrap();

        // Header: magic (8 bytes), then the version (u32 LE).
        let mut v3 = good.as_bytes().to_vec();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        let mut bad_magic = good.as_bytes().to_vec();
        bad_magic[0] ^= 0xff;
        for bytes in [v3, bad_magic] {
            let parsed = Snapshot::from_bytes(bytes.clone());
            assert!(matches!(parsed, Err(DarcoError::Protocol(_))), "{parsed:?}");
            // `from_bytes` is not the only way in: `restore` checks too.
            let forged = Snapshot { bytes, ..good.clone() };
            let restored = b.restore(&forged);
            assert!(matches!(restored, Err(DarcoError::Protocol(_))), "{restored:?}");
        }
    }

    #[test]
    fn fast_timing_mode_matches_full_and_checkpoints() {
        let mut full = hot_cfg();
        full.sink = crate::SinkChoice::InOrder;
        let mut fast = full.clone();
        fast.timing_mode = crate::TimingMode::Fast;
        let rf = System::new(full, loop_program(4000)).run().unwrap();
        // Same (trivial) stepping schedule: the synthesized overhead
        // stream depends on quantum boundaries, so oracle comparisons
        // must hold the schedule fixed.
        let rb = System::new(fast.clone(), loop_program(4000)).run().unwrap();
        assert_eq!(rb.guest_insns, rf.guest_insns);
        assert_eq!(rb.timing, rf.timing, "fast path is bit-identical to full");
        let fs = rb.fast.expect("fast stats present in fast mode");
        assert!(fs.memo_blocks > 0, "steady loop must take the fast path: {fs:?}");
        assert!(rf.fast.is_none(), "full mode reports no fast stats");
        assert_eq!(
            rb.metrics.counter_value("timing.cycles"),
            rf.metrics.counter_value("timing.cycles"),
            "timing bridge is assembled identically in both modes"
        );
        assert!(rb.metrics.counter_value("fast.memo_blocks").is_some());

        // Checkpoint/restore under the fast sink (tag 3): a restored run
        // finishes identically to an uninterrupted run on the same
        // stepping schedule.
        let mut a = System::new(fast.clone(), loop_program(4000)).start();
        let mut plain = System::new(fast.clone(), loop_program(4000)).start();
        for _ in 0..3 {
            assert_eq!(a.step(1000).unwrap(), StepExit::Yielded);
            assert_eq!(plain.step(1000).unwrap(), StepExit::Yielded);
        }
        let snap = a.checkpoint().unwrap();
        let mut b = System::new(fast, loop_program(4000)).start();
        b.restore(&snap).unwrap();
        loop {
            let (x, y) = (b.step(1000).unwrap(), plain.step(1000).unwrap());
            assert_eq!(x, y);
            if x == StepExit::Ended {
                break;
            }
        }
        let (rb, rp) = (b.into_report(), plain.into_report());
        assert_eq!(rb.timing, rp.timing, "fast sink state survives checkpoint/restore");
    }

    #[test]
    fn live_metrics_carry_timing_bridge() {
        let mut cfg = hot_cfg();
        cfg.sink = crate::SinkChoice::InOrder;
        let mut e = System::new(cfg, loop_program(2000)).start();
        e.step(1000).unwrap();
        let m = e.metrics();
        assert!(
            m.counter_value("timing.cycles").unwrap_or(0) > 0,
            "mid-run metrics expose timing.* without finalizing the report"
        );
    }

    #[test]
    fn restore_rejects_wrong_program_and_config() {
        let mut e = System::new(hot_cfg(), loop_program(3000)).start();
        e.step(1000).unwrap();
        let snap = e.checkpoint().unwrap();
        let mut other = System::new(hot_cfg(), loop_program(3001)).start();
        let err = other.restore(&snap).unwrap_err();
        assert!(matches!(&err, DarcoError::Protocol(m) if m.contains("different program")), "{err}");
        let mut cfg = hot_cfg();
        cfg.validate_every = Some(777);
        let mut wrong_cfg = System::new(cfg, loop_program(3000)).start();
        let err = wrong_cfg.restore(&snap).unwrap_err();
        assert!(
            matches!(&err, DarcoError::Protocol(m) if m.contains("different configuration")),
            "{err}"
        );
    }

    #[test]
    fn snapshot_bytes_round_trip_through_parser() {
        let mut e = System::new(hot_cfg(), loop_program(2000)).start();
        e.step(1500).unwrap();
        let snap = e.checkpoint().unwrap();
        let parsed = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(parsed.guest_insns(), snap.guest_insns());
        assert_eq!(parsed.program_fingerprint(), snap.program_fingerprint());
        assert!(Snapshot::from_bytes(b"garbage".to_vec()).is_err());
    }

    #[test]
    fn budget_exceeded_still_yields_partial_report() {
        let mut cfg = hot_cfg();
        cfg.max_guest_insns = 2_000;
        let mut e = System::new(cfg, loop_program(100_000)).start();
        let err = loop {
            match e.step(10_000) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err, DarcoError::BudgetExceeded);
        let r = e.into_report();
        assert!(r.guest_insns >= 2_000 && r.exit_status.is_none());
    }
}
