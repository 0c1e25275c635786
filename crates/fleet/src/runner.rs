//! Job execution and campaign aggregation.
//!
//! [`execute_job`] runs one [`JobSpec`] with the full failure protocol:
//! panics caught and turned into [`JobStatus::Panicked`] (with a flight
//! dump), wall-clock timeouts enforced by running the attempt on a
//! helper thread and bounding `recv_timeout` (the abandoned attempt
//! terminates itself through `max_guest_insns` — simulations always have
//! an instruction budget), and bounded retry *only* for timeouts: a
//! panic or validation failure is deterministic and would fail
//! identically on every retry.
//!
//! [`merge_results`] is the determinism contract's enforcement point:
//! results are ordered by job id, each contributes only its
//! deterministic slice, and the metric registries fold through
//! [`Registry::merge`] (order-independent) — so the artifact is
//! byte-identical for any worker count.

use crate::job::{run_payload, JobKind, JobResult, JobSpec, JobStatus};
use crate::pool::panic_message;
use crate::workload::{resolve, Resolved};
use darco::machine::Machine;
use darco::System;
use darco_host::sink::NullSink;
use darco_obs::{JsonWriter, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one attempt produced (status, projected metrics, payload).
type AttemptOut = (JobStatus, Option<Registry>, Option<String>);

fn ensure_flight(path: &str, context: &str) {
    if Path::new(path).exists() {
        return; // the System already dumped richer state
    }
    let dump = darco_obs::flight::flight_dump(context, &[], 0, &Registry::new());
    if let Err(e) = std::fs::write(path, dump) {
        eprintln!("warning: could not write flight dump to {path}: {e}");
    }
}

fn run_harness(spec: &JobSpec, program: darco_guest::GuestProgram, flight: Option<&str>) -> AttemptOut {
    let mut cfg = spec.cfg.clone();
    if cfg.flight_path.is_none() {
        cfg.flight_path = flight.map(String::from);
    }
    match System::new(cfg, program).run() {
        Ok(report) => {
            let (payload, metrics) = run_payload(&report);
            (JobStatus::Ok, Some(metrics), Some(payload))
        }
        Err(e) => (JobStatus::Failed(e.to_string()), None, None),
    }
}

fn lint_harness(spec: &JobSpec, program: darco_guest::GuestProgram) -> AttemptOut {
    let mut m = Machine::new(spec.cfg.tol.clone(), &program);
    let run = m.run_to(spec.cfg.max_guest_insns, spec.cfg.compare_flags, &mut NullSink);
    let stats = m.tol.stats;
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("name", &spec.workload);
    w.field_num("regions", stats.verify_regions);
    w.field_num("findings", stats.verify_findings);
    w.begin_arr(Some("log"));
    for line in &m.tol.verify_log {
        w.elem_str(line);
    }
    w.end_arr();
    w.end_obj();
    let mut reg = Registry::new();
    stats.register_into(&mut reg, "tol");
    reg.retain(crate::deterministic_metric);
    let status = if let Err(e) = run {
        JobStatus::Failed(format!("machine error: {e}"))
    } else if stats.verify_findings > 0 {
        JobStatus::Failed(format!("{} verifier findings", stats.verify_findings))
    } else {
        JobStatus::Ok
    };
    (status, Some(reg), Some(w.finish()))
}

/// One attempt, fully caught: returns a typed status even when the
/// harness panics (and guarantees a flight dump exists for panics when a
/// flight path is configured).
fn attempt(spec: &JobSpec, flight: Option<&str>) -> AttemptOut {
    let resolved = match resolve(&spec.workload, spec.scale) {
        Ok(r) => r,
        Err(e) => return (JobStatus::Failed(e), None, None),
    };
    let caught = catch_unwind(AssertUnwindSafe(|| match resolved {
        Resolved::InjectedPanic => panic!("injected panic (workload fault:panic)"),
        Resolved::Program(p) => match spec.kind {
            JobKind::Run => run_harness(spec, p, flight),
            JobKind::Lint => lint_harness(spec, p),
        },
    }));
    match caught {
        Ok(out) => out,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            if let Some(fp) = flight {
                ensure_flight(fp, &format!("panic: {msg}"));
            }
            (JobStatus::Panicked(msg), None, None)
        }
    }
}

/// Runs one job to a terminal [`JobResult`], applying the timeout/retry
/// protocol. `flight_dir`, when set, receives `job-<id>.flight.json` for
/// jobs that panic or diverge.
pub fn execute_job(spec: &JobSpec, flight_dir: Option<&Path>) -> JobResult {
    let flight = flight_dir.map(|d| {
        d.join(format!("job-{}.flight.json", spec.id)).to_string_lossy().into_owned()
    });
    let t0 = Instant::now();
    let max_attempts = spec.retries.saturating_add(1);
    let mut attempts = 0u32;
    let (status, metrics, payload) = loop {
        attempts += 1;
        let out = match spec.timeout_ms {
            None => attempt(spec, flight.as_deref()),
            Some(ms) => {
                // The attempt runs on a helper thread so this thread can
                // enforce the deadline. A timed-out attempt is abandoned,
                // not killed: it self-terminates through the guest
                // instruction budget, and its late send lands in a
                // disconnected channel.
                let (tx, rx) = mpsc::channel();
                let spec2 = spec.clone();
                let flight2 = flight.clone();
                let h = std::thread::Builder::new()
                    .name(format!("fleet-job-{}", spec.id))
                    .spawn(move || {
                        let _ = tx.send(attempt(&spec2, flight2.as_deref()));
                    })
                    .expect("spawning a job attempt thread");
                match rx.recv_timeout(Duration::from_millis(ms)) {
                    Ok(out) => {
                        let _ = h.join();
                        out
                    }
                    Err(_) => {
                        drop(rx); // the orphan's send becomes a no-op
                        (JobStatus::TimedOut(ms), None, None)
                    }
                }
            }
        };
        // Only timeouts retry: everything else is deterministic.
        if matches!(out.0, JobStatus::TimedOut(_)) && attempts < max_attempts {
            continue;
        }
        break out;
    };
    let flight_path = match &status {
        JobStatus::Panicked(_) | JobStatus::Failed(_) => {
            flight.filter(|p| Path::new(p).exists())
        }
        _ => None,
    };
    JobResult {
        id: spec.id,
        workload: spec.workload.clone(),
        tag: spec.tag.clone(),
        status,
        attempts,
        wall_ms: t0.elapsed().as_millis() as u64,
        metrics,
        payload,
        flight_path,
        checkpoint_path: None,
    }
}

/// A finished campaign: results in job-id order plus headline counts.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name (from the file).
    pub name: String,
    /// One result per job, in id order.
    pub results: Vec<JobResult>,
}

impl CampaignOutcome {
    /// Jobs that produced a usable result.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.status.is_ok()).count()
    }

    /// Jobs that did not (failed, panicked, timed out or skipped).
    pub fn failed_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// The merged deterministic artifact for this outcome.
    pub fn merged_json(&self) -> String {
        merge_results(&self.name, &self.results)
    }
}

/// Folds job results into the merged deterministic artifact: results in
/// id order (each contributing only its deterministic slice) plus one
/// [`Registry`] merged across all successful jobs, projected to the
/// deterministic metric subset. Byte-identical for any worker count or
/// completion order.
pub fn merge_results(campaign: &str, results: &[JobResult]) -> String {
    let mut order: Vec<&JobResult> = results.iter().collect();
    order.sort_by_key(|r| r.id);
    let mut merged = Registry::new();
    for r in &order {
        if let Some(m) = &r.metrics {
            merged.merge(m);
        }
    }
    merged.retain(crate::deterministic_metric);
    let ok = order.iter().filter(|r| r.status.is_ok()).count();
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("campaign", campaign);
    w.field_num("jobs", order.len());
    w.field_num("ok", ok);
    w.field_num("failed", order.len() - ok);
    w.begin_arr(Some("results"));
    for r in &order {
        w.elem_raw(&r.deterministic_json());
    }
    w.end_arr();
    w.field_raw("metrics", &merged.to_json());
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco::SystemConfig;

    fn spec(id: u64, workload: &str) -> JobSpec {
        JobSpec {
            id,
            workload: workload.to_string(),
            kind: JobKind::Run,
            cfg: SystemConfig::default(),
            scale: (1, 1),
            timeout_ms: None,
            retries: 0,
            tag: None,
        }
    }

    #[test]
    fn run_job_produces_payload_and_metrics() {
        let r = execute_job(&spec(0, "kernel:crc32"), None);
        assert_eq!(r.status, JobStatus::Ok);
        assert_eq!(r.attempts, 1);
        let payload = r.payload.unwrap();
        let doc = darco_obs::parse(&payload).unwrap();
        assert!(doc.get("guest_insns").and_then(|v| v.as_num()).unwrap() > 0.0);
        // The projection stripped wall-clock metrics.
        assert!(!payload.contains("_nanos") && !payload.contains("translate_ns"), "{payload}");
        assert!(r.metrics.is_some());
    }

    #[test]
    fn lint_job_reports_regions() {
        let mut s = spec(1, "kernel:dot");
        s.kind = JobKind::Lint;
        s.cfg.tol.bbm_threshold = 3;
        s.cfg.tol.sbm_threshold = 12;
        s.cfg.tol.verify = darco_tol::VerifyMode::Report;
        s.cfg.max_guest_insns = 20_000_000;
        let r = execute_job(&s, None);
        assert_eq!(r.status, JobStatus::Ok, "{:?}", r.status);
        let doc = darco_obs::parse(&r.payload.unwrap()).unwrap();
        assert!(doc.get("regions").and_then(|v| v.as_num()).unwrap() > 0.0);
        assert_eq!(doc.get("findings").and_then(|v| v.as_num()), Some(0.0));
    }

    #[test]
    fn panicking_job_is_isolated_and_dumps_flight() {
        let dir = std::env::temp_dir().join("fleet-test-flight-panic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let r = execute_job(&spec(7, "fault:panic"), Some(&dir));
        assert!(matches!(r.status, JobStatus::Panicked(ref m) if m.contains("injected")));
        let fp = r.flight_path.expect("panicked job records its flight dump");
        let doc = darco_obs::parse(&std::fs::read_to_string(&fp).unwrap()).unwrap();
        darco_obs::flight::validate_flight_dump(&doc).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeout_fires_and_retries_are_bounded() {
        let mut s = spec(2, "fault:spin");
        // Pin the spinner in the interpreter so wall-time per instruction
        // is high and the timeout reliably fires first; the budget ends
        // the orphaned attempt soon after.
        s.cfg.tol.bbm_threshold = 1_000_000_000;
        s.cfg.max_guest_insns = 50_000_000;
        s.timeout_ms = Some(100);
        s.retries = 1;
        let r = execute_job(&s, None);
        assert_eq!(r.status, JobStatus::TimedOut(100));
        assert_eq!(r.attempts, 2, "one retry after the first timeout");
    }

    #[test]
    fn merge_is_order_and_worker_independent() {
        let mk = || {
            vec![
                execute_job(&spec(0, "kernel:dot"), None),
                execute_job(&spec(1, "kernel:crc32"), None),
                execute_job(&spec(2, "fault:panic"), None),
            ]
        };
        let a = merge_results("m", &mk());
        let mut shuffled = mk();
        shuffled.reverse();
        let b = merge_results("m", &shuffled);
        assert_eq!(a, b, "merger must sort by job id");
        let doc = darco_obs::parse(&a).unwrap();
        assert_eq!(doc.get("jobs").and_then(|v| v.as_num()), Some(3.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_num()), Some(1.0));
        assert!(!a.contains("wall_ms"));
    }
}
