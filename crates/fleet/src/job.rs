//! The job model: what a campaign schedules and what a finished job
//! reports.

use darco::{RunReport, SystemConfig};
use darco_obs::{JsonWriter, Registry};

/// Which harness a job runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The full system ([`darco::System::run`]): functional + optional
    /// timing/power, producing a [`RunReport`].
    Run,
    /// The static-verification harness (`darco-lint` semantics): execute
    /// with the verifier in its configured mode and report regions
    /// verified / findings.
    Lint,
}

impl JobKind {
    /// Campaign-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Lint => "lint",
        }
    }

    /// Parses the campaign-file spelling.
    ///
    /// # Errors
    /// Unknown spellings name themselves.
    pub fn parse(s: &str) -> Result<JobKind, String> {
        match s {
            "run" => Ok(JobKind::Run),
            "lint" => Ok(JobKind::Lint),
            other => Err(format!("unknown job kind `{other}` (expected `run` or `lint`)")),
        }
    }
}

/// One schedulable unit: a workload under a configuration through a
/// harness. `id` is the job's position in campaign expansion order — the
/// key the deterministic merger sorts by.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Campaign-order identity (0-based).
    pub id: u64,
    /// Workload name: a suite benchmark (`403.gcc`), `kernel:NAME`, or a
    /// fault-injection workload (`fault:panic`, `fault:spin`).
    pub workload: String,
    /// Harness kind.
    pub kind: JobKind,
    /// Full system configuration (campaign defaults + per-job patch).
    pub cfg: SystemConfig,
    /// Iteration scaling `(numerator, denominator)` applied to the
    /// workload profile.
    pub scale: (u32, u32),
    /// Wall-clock bound per attempt; `None` = unbounded.
    pub timeout_ms: Option<u64>,
    /// Extra attempts after a timeout (a deterministic failure — panic or
    /// validation error — is never retried: it would fail identically).
    pub retries: u32,
    /// Caller-chosen label echoed in the job's result.
    pub tag: Option<String>,
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed and the harness reported success.
    Ok,
    /// The harness reported an error (validation divergence, guest
    /// fault mismatch, lint findings, budget exhaustion, ...).
    Failed(String),
    /// The job panicked; isolated by the pool, siblings unaffected.
    Panicked(String),
    /// Every attempt exceeded the wall-clock bound (value: the bound in
    /// milliseconds).
    TimedOut(u64),
    /// Never started: the campaign was stopped (SIGINT) first.
    Skipped,
}

impl JobStatus {
    /// Artifact spelling.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
            JobStatus::TimedOut(_) => "timeout",
            JobStatus::Skipped => "skipped",
        }
    }

    /// Whether the job produced a usable result.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }
}

/// Everything a finished job hands back to the scheduler.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Mirror of [`JobSpec::id`].
    pub id: u64,
    /// Mirror of [`JobSpec::workload`].
    pub workload: String,
    /// Mirror of [`JobSpec::tag`].
    pub tag: Option<String>,
    /// Terminal state.
    pub status: JobStatus,
    /// Attempts used (1 unless timeouts triggered retries).
    pub attempts: u32,
    /// Wall-clock of the successful (or final) attempt, milliseconds.
    /// Excluded from the merged deterministic artifact.
    pub wall_ms: u64,
    /// The job's metrics snapshot, already projected to the
    /// deterministic subset ([`crate::deterministic_metric`]).
    pub metrics: Option<Registry>,
    /// Harness-specific result payload (deterministic JSON).
    pub payload: Option<String>,
    /// Flight-recorder dump path, when the job failed and wrote one.
    pub flight_path: Option<String>,
    /// Engine checkpoint path, when the cooperative scheduler
    /// checkpointed this job (timeout or interrupt) instead of killing
    /// it; `darco-fleet run --resume` continues from it.
    pub checkpoint_path: Option<String>,
}

impl JobResult {
    /// The deterministic slice of this result: identity, status and
    /// harness payload — no wall-clock, no attempt counts. This is what
    /// the campaign merger concatenates in id order.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_num("id", self.id);
        w.field_str("workload", &self.workload);
        if let Some(t) = &self.tag {
            w.field_str("tag", t);
        }
        w.field_str("status", self.status.name());
        match &self.status {
            JobStatus::Failed(e) | JobStatus::Panicked(e) => {
                w.field_str("error", e);
            }
            JobStatus::TimedOut(ms) => {
                w.field_num("timeout_ms", *ms);
            }
            JobStatus::Ok | JobStatus::Skipped => {}
        }
        match &self.payload {
            Some(p) => w.field_raw("result", p),
            None => w.field_null("result"),
        };
        w.end_obj();
        w.finish()
    }

    /// The scheduling view — wall-clock, attempts, flight artifacts —
    /// reported next to (never inside) the deterministic artifact.
    pub fn schedule_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_num("id", self.id);
        w.field_str("workload", &self.workload);
        w.field_str("status", self.status.name());
        w.field_num("attempts", self.attempts);
        w.field_num("wall_ms", self.wall_ms);
        match &self.flight_path {
            Some(p) => w.field_str("flight", p),
            None => w.field_null("flight"),
        };
        match &self.checkpoint_path {
            Some(p) => w.field_str("checkpoint", p),
            None => w.field_null("checkpoint"),
        };
        w.end_obj();
        w.finish()
    }
}

/// Builds the deterministic `run` payload from a [`RunReport`]: the
/// headline numbers every figure harness consumes plus the projected
/// metrics registry. Wall-clock metrics (`*_nanos`, `tol.translate_ns.*`)
/// are stripped so the payload is bit-stable across hosts and worker
/// counts.
pub fn run_payload(r: &RunReport) -> (String, Registry) {
    let mut metrics = r.metrics.clone();
    metrics.retain(crate::deterministic_metric);
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("name", &r.name);
    w.field_num("guest_insns", r.guest_insns);
    w.begin_obj(Some("mode_insns"))
        .field_num("im", r.mode_insns.0)
        .field_num("bbm", r.mode_insns.1)
        .field_num("sbm", r.mode_insns.2)
        .end_obj();
    w.field_num("host_app_insns", r.host_app_insns);
    w.field_num("overhead_total", r.overhead.total());
    w.field_f64("overhead_fraction", r.overhead_fraction());
    w.field_f64("sbm_emulation_cost", r.sbm_emulation_cost);
    w.field_f64("sbm_fraction", r.sbm_fraction());
    w.field_num("rollbacks", r.rollbacks);
    w.field_num("syscalls", r.syscalls);
    w.field_num("output_bytes", r.output.len());
    match r.exit_status {
        Some(v) => w.field_num("exit_status", v),
        None => w.field_null("exit_status"),
    };
    match &r.guest_fault {
        Some(f) => w.field_str("guest_fault", f),
        None => w.field_null("guest_fault"),
    };
    match &r.timing {
        Some(t) => {
            w.begin_obj(Some("timing"))
                .field_num("insns", t.insns)
                .field_num("cycles", t.cycles)
                .field_f64("ipc", t.ipc())
                .end_obj();
        }
        None => {
            w.field_null("timing");
        }
    }
    w.field_raw("metrics", &metrics.to_json());
    w.end_obj();
    (w.finish(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_names_and_kind_spellings_round_trip() {
        assert_eq!(JobKind::parse("run").unwrap(), JobKind::Run);
        assert_eq!(JobKind::parse("lint").unwrap(), JobKind::Lint);
        assert!(JobKind::parse("bench").is_err());
        assert_eq!(JobStatus::Ok.name(), "ok");
        assert_eq!(JobStatus::TimedOut(5).name(), "timeout");
        assert!(!JobStatus::Skipped.is_ok());
    }

    #[test]
    fn deterministic_json_excludes_schedule_fields() {
        let r = JobResult {
            id: 3,
            workload: "kernel:dot".into(),
            tag: None,
            status: JobStatus::Ok,
            attempts: 2,
            wall_ms: 1234,
            metrics: None,
            payload: Some("{\"x\":1}".into()),
            flight_path: None,
            checkpoint_path: None,
        };
        let d = r.deterministic_json();
        assert!(!d.contains("wall_ms") && !d.contains("attempts"), "{d}");
        assert!(d.contains("\"result\":{\"x\":1}"), "{d}");
        let s = r.schedule_json();
        assert!(s.contains("\"wall_ms\":1234") && s.contains("\"attempts\":2"), "{s}");
        darco_obs::parse(&d).unwrap();
        darco_obs::parse(&s).unwrap();
    }
}
