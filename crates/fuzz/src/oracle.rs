//! The differential oracle: run one candidate through every lane and
//! compare the architecturally observable results bit-for-bit.
//!
//! Each lane is already *internally* differential — the co-designed
//! stack validates against the authoritative component at syscalls,
//! halt and periodically — so a translator bug inside a lane surfaces
//! as a [`darco::DarcoError::Validation`]. On top of that the oracle
//! compares lanes against each other (final output bytes, retire
//! counts, exit status, guest fault) and, between the emulator and
//! native backends of the identical configuration, the per-cause exit
//! counter stream. Semantic-verifier findings are treated as crashes.
//!
//! The `im` lane's internal validation compares the TOL's interpreter
//! with the authoritative component, and both replay guest blocks through
//! the same `darco_guest::DecodeCache::run`. So the `im` lane still
//! checks the controller's protocol (sync points, data requests,
//! syscalls, retire counts) and serves as the untranslated reference for
//! the other lanes, but it cannot catch a bug in the shared replay
//! itself. That replay is checked against the fetch-per-instruction
//! reference `exec::step` by `block_replay_matches_step_reference` in
//! `tests/hotpath_equivalence.rs`.

use darco::{DarcoError, RunReport, SinkChoice, System, SystemConfig, TimingMode};
use darco_host::codegen::Backend;
use darco_tol::{Injection, TolConfig, VerifyLevel, VerifyMode};
use darco_workloads::fuzzprog::FuzzProgram;

/// Guest-instruction guard: structured fuel bounds every candidate far
/// below this; hitting it means the fuel gate itself broke.
pub const INSN_BUDGET: u64 = 4_000_000;

/// One lane: a named configuration of the whole stack.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Short stable name (`im`, `bbm`, `sbm`, `sbm-native`,
    /// `sbm-timed`, `sbm-fast`).
    pub name: &'static str,
    /// The configuration the candidate runs under.
    pub cfg: SystemConfig,
}

/// The six differential lanes. `inject` plants a bug in every
/// translating lane (the interpreter lane never translates, so it acts
/// as the unperturbed reference either way). The last two lanes run the
/// identical configuration under the detailed and the accelerated
/// (block-memoizing) timing paths: beyond agreeing with every other
/// lane on final guest state, the pair must agree with *each other*
/// bit-for-bit on retired events and cycles.
pub fn lanes(inject: Option<Injection>) -> Vec<Lane> {
    let base = |bbm: u64, sbm: u64, spec: bool, backend: Backend| SystemConfig {
        tol: TolConfig {
            bbm_threshold: bbm,
            sbm_threshold: sbm,
            speculation: spec,
            // Findings are recorded, not fatal: the oracle turns them
            // into divergences so they get minimized like any crash.
            verify: VerifyMode::Report,
            verify_level: VerifyLevel::Semantic,
            injection: inject,
            ..TolConfig::default()
        },
        compare_flags: true,
        sink: SinkChoice::None,
        max_guest_insns: INSN_BUDGET,
        backend,
        ..SystemConfig::default()
    };
    let timed = |mode: TimingMode| {
        let mut cfg = base(2, 6, true, Backend::Emu);
        cfg.sink = SinkChoice::InOrder;
        cfg.timing_mode = mode;
        cfg
    };
    vec![
        Lane { name: "im", cfg: base(u64::MAX, u64::MAX, false, Backend::Emu) },
        Lane { name: "bbm", cfg: base(2, u64::MAX, false, Backend::Emu) },
        Lane { name: "sbm", cfg: base(2, 6, true, Backend::Emu) },
        Lane { name: "sbm-native", cfg: base(2, 6, true, Backend::Native) },
        Lane { name: "sbm-timed", cfg: timed(TimingMode::Full) },
        Lane { name: "sbm-fast", cfg: timed(TimingMode::Fast) },
    ]
}

/// The deterministic, architecturally observable slice of one lane run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneObs {
    /// Guest stdout (the exit stub publishes all scratch registers).
    pub output: Vec<u8>,
    /// Total retired guest instructions.
    pub guest_insns: u64,
    /// Exit-syscall status, if the guest exited that way.
    pub exit_status: Option<u32>,
    /// Guest fault rendered to a string, if execution ended with one.
    pub guest_fault: Option<String>,
}

/// What one lane produced.
#[derive(Debug, Clone)]
pub enum LaneOutcome {
    /// The run completed (normally, faulted, or out of budget — all
    /// deterministic, comparable endings).
    Done(Box<RunReport>),
    /// The lane exhausted the guest-instruction guard.
    Budget,
    /// The lane failed: internal validation divergence or protocol
    /// error — a crash finding on its own.
    Error(String),
}

/// The oracle's verdict over all lanes.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All lanes agreed; reports are kept for coverage extraction, in
    /// lane order.
    Clean(Vec<(&'static str, Box<RunReport>)>),
    /// Something diverged.
    Diverged(Divergence),
}

/// A divergence finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Stable discriminator used by the shrinker: a minimized program
    /// must reproduce the same kind.
    pub kind: DivKind,
    /// Human-readable detail.
    pub detail: String,
}

/// Divergence classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivKind {
    /// A lane failed its internal validation (or a protocol error).
    LaneError {
        /// Which lane.
        lane: &'static str,
    },
    /// The semantic verifier reported findings in a lane.
    VerifyFinding {
        /// Which lane.
        lane: &'static str,
    },
    /// Two lanes disagreed on an architecturally observable value.
    CrossLane {
        /// Which observable differed (`output`, `guest_insns`, ...).
        field: &'static str,
    },
    /// The emulator and native backends of the same configuration
    /// disagreed on the per-cause exit counter stream.
    ExitCounters {
        /// The differing counter name.
        counter: String,
    },
    /// The detailed and accelerated timing paths of the same
    /// configuration disagreed on a timing counter.
    Timing {
        /// The differing counter name.
        counter: String,
    },
}

impl DivKind {
    /// Stable short label for file names and stats.
    pub fn label(&self) -> String {
        match self {
            DivKind::LaneError { lane } => format!("lane-error-{lane}"),
            DivKind::VerifyFinding { lane } => format!("verify-{lane}"),
            DivKind::CrossLane { field } => format!("cross-{field}"),
            DivKind::ExitCounters { counter } => format!("exitctr-{counter}"),
            DivKind::Timing { counter } => format!("timing-{counter}"),
        }
    }
}

fn observe(r: &RunReport) -> LaneObs {
    LaneObs {
        output: r.output.clone(),
        guest_insns: r.guest_insns,
        exit_status: r.exit_status,
        guest_fault: r.guest_fault.clone(),
    }
}

/// Runs one lane to completion.
pub fn run_lane(lane: &Lane, prog: &darco_guest::GuestProgram) -> LaneOutcome {
    match System::new(lane.cfg.clone(), prog.clone()).run() {
        Ok(report) => LaneOutcome::Done(Box::new(report)),
        Err(DarcoError::BudgetExceeded) => LaneOutcome::Budget,
        Err(e) => LaneOutcome::Error(e.to_string()),
    }
}

/// The per-cause exit counters that must agree bit-for-bit between the
/// emulator and native backends of one configuration (the check order
/// inside a translation — probe, SMC, alias — is kept identical in both
/// backends precisely so this holds).
const EXIT_COUNTERS: [&str; 8] = [
    "emu.chkpts",
    "emu.commits",
    "emu.assert_fails",
    "emu.alias_fails",
    "emu.page_faults",
    "emu.ibtc_hits",
    "emu.ibtc_misses",
    "emu.smc_aborts",
];

/// Runs every lane over a candidate and compares.
pub fn run_differential(prog: &FuzzProgram, lanes: &[Lane]) -> Verdict {
    let guest = prog.lower();
    let mut done: Vec<(&'static str, Box<RunReport>)> = Vec::new();
    let mut budget_lanes: Vec<&'static str> = Vec::new();
    for lane in lanes {
        match run_lane(lane, &guest) {
            LaneOutcome::Done(r) => {
                if r.tol_stats.verify_findings > 0 {
                    return Verdict::Diverged(Divergence {
                        kind: DivKind::VerifyFinding { lane: lane.name },
                        detail: format!(
                            "lane {}: {} semantic-verifier finding(s)",
                            lane.name, r.tol_stats.verify_findings
                        ),
                    });
                }
                done.push((lane.name, r));
            }
            LaneOutcome::Budget => budget_lanes.push(lane.name),
            LaneOutcome::Error(e) => {
                return Verdict::Diverged(Divergence {
                    kind: DivKind::LaneError { lane: lane.name },
                    detail: format!("lane {}: {e}", lane.name),
                });
            }
        }
    }
    // Budget exhaustion must be unanimous to count as agreement.
    if !budget_lanes.is_empty() {
        if budget_lanes.len() == lanes.len() {
            return Verdict::Clean(done);
        }
        return Verdict::Diverged(Divergence {
            kind: DivKind::CrossLane { field: "budget" },
            detail: format!("only lanes {budget_lanes:?} exhausted the instruction budget"),
        });
    }

    // Architectural agreement across all lanes.
    if let Some((ref_name, ref_rep)) = done.first() {
        let reference = observe(ref_rep);
        for (name, rep) in &done[1..] {
            let obs = observe(rep);
            for (field, same) in [
                ("output", obs.output == reference.output),
                ("guest_insns", obs.guest_insns == reference.guest_insns),
                ("exit_status", obs.exit_status == reference.exit_status),
                ("guest_fault", obs.guest_fault == reference.guest_fault),
            ] {
                if !same {
                    return Verdict::Diverged(Divergence {
                        kind: DivKind::CrossLane { field },
                        detail: format!(
                            "{name} vs {ref_name}: {field} differs ({:?} vs {:?})",
                            field_of(&obs, field),
                            field_of(&reference, field)
                        ),
                    });
                }
            }
        }
    }

    // Backend agreement: identical config, emu vs native, per-cause
    // exit counters bit-for-bit.
    let find = |lane: &str| done.iter().find(|(n, _)| *n == lane).map(|(_, r)| r);
    if let (Some(emu), Some(native)) = (find("sbm"), find("sbm-native")) {
        for c in EXIT_COUNTERS {
            let (a, b) = (emu.metrics.counter_value(c), native.metrics.counter_value(c));
            if a != b {
                return Verdict::Diverged(Divergence {
                    kind: DivKind::ExitCounters { counter: c.to_string() },
                    detail: format!("sbm vs sbm-native: {c} = {a:?} vs {b:?}"),
                });
            }
        }
    }

    // Timing-path agreement: identical config, detailed versus
    // accelerated timing, retired events and cycles bit-for-bit. The
    // two lanes step on the same schedule (same quantum, same config),
    // so the accelerated path's memoized block costs must replay to
    // exactly the detailed model's totals.
    if let (Some(full), Some(fast)) = (find("sbm-timed"), find("sbm-fast")) {
        for c in ["timing.insns", "timing.cycles"] {
            let (a, b) = (full.metrics.counter_value(c), fast.metrics.counter_value(c));
            if a != b {
                return Verdict::Diverged(Divergence {
                    kind: DivKind::Timing { counter: c.to_string() },
                    detail: format!("sbm-timed vs sbm-fast: {c} = {a:?} vs {b:?}"),
                });
            }
        }
    }
    Verdict::Clean(done)
}

fn field_of(o: &LaneObs, field: &str) -> String {
    match field {
        "output" => format!("{:02x?}", o.output),
        "guest_insns" => o.guest_insns.to_string(),
        "exit_status" => format!("{:?}", o.exit_status),
        _ => format!("{:?}", o.guest_fault),
    }
}
