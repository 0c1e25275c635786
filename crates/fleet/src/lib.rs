//! # darco-fleet — deterministic parallel campaign runner
//!
//! A zero-dependency (std-only) worker pool and job
//! scheduler for the whole DARCO simulation stack. A **campaign** is a
//! JSON-specified matrix of jobs — workload × configuration × harness —
//! executed with:
//!
//! * **panic isolation** — a panicking job is caught, marked
//!   [`JobStatus::Panicked`], dumps its flight recorder, and its
//!   siblings keep running;
//! * **wall-clock timeouts** with bounded retry (only timeouts retry:
//!   deterministic failures would fail identically);
//! * **graceful shutdown** — SIGINT sets the cooperative scheduler's
//!   stop flag; unstarted jobs drain as [`JobStatus::Skipped`] and live
//!   engines checkpoint when a state dir is configured.
//!
//! The headline property is the **determinism contract**: campaign
//! results are aggregated in job-id order and projected to their
//! deterministic slice (no wall-clock values, no attempt counts, no
//! artifact paths), so the merged artifact is **bit-identical** no
//! matter how many workers ran the campaign or in what order jobs
//! finished. See `DESIGN.md` §10.

pub mod campaign;
pub mod job;
pub mod live;
pub mod pool;
pub mod runner;
pub mod sched;
pub mod signal;
pub mod workload;

pub use campaign::{parse_campaign, Campaign};
pub use job::{JobKind, JobResult, JobSpec, JobStatus};
pub use live::LiveHub;
pub use pool::{Pool, TaskError};
pub use runner::{execute_job, merge_results, CampaignOutcome};
pub use sched::{run_campaign_cooperative, SchedOpts};
pub use workload::{resolve, Resolved};

/// The deterministic-metric predicate: `true` for metric names that are
/// pure functions of the simulated execution, `false` for wall-clock
/// measurements that vary run to run (`*_nanos` counters, `*_ns`
/// histograms such as `tol.translate_ns.bb`). [`runner::merge_results`]
/// keeps only names passing this predicate, which is what makes the
/// merged artifact byte-stable across hosts and worker counts.
pub fn deterministic_metric(name: &str) -> bool {
    !(name.ends_with("_nanos")
        || name.ends_with(".nanos")
        || name.ends_with("_ns")
        || name.ends_with(".ns")
        || name.contains("_ns.")
        || name.contains(".ns."))
}

// Send audit: the pool moves these across threads; a field change that
// introduces an `Rc`/raw-pointer would otherwise only surface as a
// distant trait-bound error inside `Pool::map`. Fail loudly here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<darco::SystemConfig>();
    assert_send::<darco::RunReport>();
    assert_send::<darco_guest::GuestProgram>();
    assert_send::<JobSpec>();
    assert_send::<JobResult>();
    assert_send::<darco_obs::Registry>();
};

#[cfg(test)]
mod tests {
    #[test]
    fn deterministic_metric_strips_wall_clock_names() {
        assert!(super::deterministic_metric("tol.rollbacks"));
        assert!(super::deterministic_metric("sys.guest_insns"));
        assert!(super::deterministic_metric("tol.region_guest_insns"));
        assert!(!super::deterministic_metric("tol.verify_nanos"));
        assert!(!super::deterministic_metric("tol.translate_nanos"));
        assert!(!super::deterministic_metric("jit.verify.nanos"));
        assert!(!super::deterministic_metric("tol.translate_ns.bb"));
        assert!(!super::deterministic_metric("tol.translate_ns.sb"));
    }
}
