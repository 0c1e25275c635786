//! Cooperative engine scheduling: N engines time-sliced per worker — the
//! fleet's one campaign runner.
//!
//! The pool ([`crate::pool`]) treats a job as an opaque blocking closure,
//! which forces the wall-clock timeout onto a helper thread and makes a
//! timed-out simulation unrecoverable — the attempt is abandoned and all
//! its progress lost. With the run loop inverted ([`darco::Engine`]),
//! the campaign runner owns the loop instead: each worker holds a *slate* of live
//! engines and round-robins [`Engine::step`] over them one quantum at a
//! time. Between quanta the worker is at a synchronization-safe boundary
//! for every engine it owns, so it can
//!
//! * enforce wall-clock deadlines **cooperatively** — a job over its
//!   budget is checkpointed to `<state-dir>/job-<id>.snap` instead of
//!   killed, and `darco-fleet run --resume <dir>` picks it back up at
//!   the exact instruction it yielded at;
//! * drain a SIGINT gracefully by checkpointing every live engine, not
//!   just letting running jobs finish;
//! * persist finished jobs (`job-<id>.done`, a wire-encoded
//!   [`JobResult`]) so a resumed campaign re-runs nothing that already
//!   completed.
//!
//! Non-engine jobs (lint harness, fault injection) still go through
//! [`crate::runner::execute_job`]: they are atomic by nature and keep the
//! thread-based timeout protocol.
//!
//! Determinism: a job's simulation is a pure function of its spec, so
//! per-job results are identical whatever worker ran them and however
//! often they were checkpointed and resumed; the campaign artifact is
//! merged in id order ([`crate::runner::merge_results`]). The determinism
//! regression drives this at 1, 2 and 8 workers with an injected
//! checkpoint/resume cycle.

use crate::campaign::Campaign;
use crate::job::{run_payload, JobKind, JobResult, JobSpec, JobStatus};
use crate::live::{self, LiveHub};
use crate::pool::panic_message;
use crate::runner::{execute_job, CampaignOutcome};
use crate::workload::{resolve, Resolved};
use darco::{Engine, Snapshot, System};
use darco_guest::{Wire, WireError, WireReader};
use darco_obs::Registry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scheduling knobs for a cooperative campaign run.
#[derive(Debug, Clone)]
pub struct SchedOpts {
    /// Guest instructions per engine slice. Small quanta interleave more
    /// finely but pay more loop-inversion overhead (see `BENCH_engine`);
    /// the default of 100k keeps the overhead under 2%.
    pub quantum: u64,
    /// Directory for checkpoints (`job-<id>.snap`) and finished-job
    /// records (`job-<id>.done`). `None` disables both: timeouts then
    /// discard progress exactly like the pool path.
    pub state_dir: Option<PathBuf>,
    /// Load prior state from `state_dir` before running: finished jobs
    /// are reused, checkpointed jobs restored mid-flight.
    pub resume: bool,
    /// Flight-dump directory for failing jobs (same contract as the pool
    /// path's `--flight-dir`).
    pub flight_dir: Option<PathBuf>,
    /// Live telemetry hub: workers publish job lifecycle, progress and
    /// registry-delta events into it (see [`crate::live`]). Publishing
    /// only reads engine state — the merged artifact is byte-identical
    /// with or without a hub attached.
    pub live: Option<Arc<LiveHub>>,
}

impl Default for SchedOpts {
    fn default() -> Self {
        SchedOpts { quantum: 100_000, state_dir: None, resume: false, flight_dir: None, live: None }
    }
}

/// Minimum wall-clock between per-job progress/delta publications (the
/// first boundary and terminal states always publish).
const PUBLISH_INTERVAL_MS: u128 = 200;

/// `<state-dir>/job-<id>.snap` — where a timed-out (or interrupted) job's
/// engine checkpoint lands.
pub fn snap_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.snap"))
}

/// `<state-dir>/job-<id>.done` — the wire-encoded result of a finished
/// job, reused verbatim on `--resume`.
pub fn done_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.done"))
}

const DONE_MAGIC: u64 = u64::from_le_bytes(*b"DARCODNE");
const DONE_VERSION: u32 = 1;

/// Serializes a terminal [`JobResult`] (its deterministic slice plus the
/// status detail; scheduling fields are not persisted).
fn encode_result(r: &JobResult) -> Vec<u8> {
    let mut w = Wire::new();
    w.put_u64(DONE_MAGIC);
    w.put_u32(DONE_VERSION);
    w.put_u64(r.id);
    w.put_str(&r.workload);
    w.put_bool(r.tag.is_some());
    if let Some(t) = &r.tag {
        w.put_str(t);
    }
    match &r.status {
        JobStatus::Ok => w.put_u8(0),
        JobStatus::Failed(e) => {
            w.put_u8(1);
            w.put_str(e);
        }
        JobStatus::Panicked(e) => {
            w.put_u8(2);
            w.put_str(e);
        }
        JobStatus::TimedOut(ms) => {
            w.put_u8(3);
            w.put_u64(*ms);
        }
        JobStatus::Skipped => w.put_u8(4),
    }
    w.put_bool(r.payload.is_some());
    if let Some(p) = &r.payload {
        w.put_str(p);
    }
    w.put_bool(r.metrics.is_some());
    if let Some(m) = &r.metrics {
        darco_tol::obs::registry_snapshot_into(m, &mut w);
    }
    w.finish()
}

fn decode_result(bytes: &[u8]) -> Result<JobResult, WireError> {
    let mut r = WireReader::new(bytes);
    let magic = r.get_u64()?;
    let version = r.get_u32()?;
    if magic != DONE_MAGIC || version != DONE_VERSION {
        return Err(WireError::Malformed { at: 0, what: "not a fleet job record" });
    }
    let id = r.get_u64()?;
    let workload = r.get_str()?;
    let tag = if r.get_bool()? { Some(r.get_str()?) } else { None };
    let status = match r.get_u8()? {
        0 => JobStatus::Ok,
        1 => JobStatus::Failed(r.get_str()?),
        2 => JobStatus::Panicked(r.get_str()?),
        3 => JobStatus::TimedOut(r.get_u64()?),
        4 => JobStatus::Skipped,
        _ => return Err(WireError::Malformed { at: r.pos(), what: "job status tag" }),
    };
    let payload = if r.get_bool()? { Some(r.get_str()?) } else { None };
    let metrics =
        if r.get_bool()? { Some(darco_tol::obs::registry_restore(&mut r)?) } else { None };
    r.expect_end()?;
    Ok(JobResult {
        id,
        workload,
        tag,
        status,
        attempts: 0,
        wall_ms: 0,
        metrics,
        payload,
        flight_path: None,
        checkpoint_path: None,
    })
}

/// A reused result only counts when it matches the campaign's job —
/// a state directory from a *different* campaign must not be trusted.
fn load_done(dir: &Path, spec: &JobSpec) -> Option<JobResult> {
    let bytes = std::fs::read(done_path(dir, spec.id)).ok()?;
    let r = decode_result(&bytes).ok()?;
    (r.id == spec.id && r.workload == spec.workload && r.tag == spec.tag).then_some(r)
}

fn persist_done(dir: &Path, r: &JobResult) {
    let path = done_path(dir, r.id);
    if let Err(e) = std::fs::write(&path, encode_result(r)) {
        eprintln!("warning: could not persist job {} result to {}: {e}", r.id, path.display());
    }
    // A completed job supersedes any mid-flight checkpoint.
    let _ = std::fs::remove_file(snap_path(dir, r.id));
}

/// One live engine on a worker's slate.
struct Slot {
    spec: JobSpec,
    engine: Box<Engine>,
    /// Wall-clock start of *this session* (a resumed job gets a fresh
    /// budget — the timeout bounds one scheduling session, not the sum).
    started: Instant,
    flight: Option<String>,
    /// Publisher state when a live hub is attached.
    live: Option<SlotLive>,
}

/// Per-slot telemetry publisher: the persistent registry mirror
/// accumulates honest epoch stamps across publications
/// ([`Registry::sync_from`]), so `delta_since(published_epoch)` is
/// exactly what changed since the job's previous `delta` event.
struct SlotLive {
    mirror: Registry,
    published_epoch: u64,
    last_pub: Option<Instant>,
    last_insns: u64,
}

impl Slot {
    fn over_deadline(&self) -> bool {
        match self.spec.timeout_ms {
            Some(ms) => self.started.elapsed().as_millis() as u64 >= ms,
            None => false,
        }
    }

    /// Publishes a `progress` + `delta` event pair for this job, rate
    /// limited unless `force` (terminal states flush unconditionally).
    fn publish_live(&mut self, hub: &LiveHub, worker: usize, force: bool) {
        let Some(live) = &mut self.live else { return };
        let due = force
            || match live.last_pub {
                None => true,
                Some(t) => t.elapsed().as_millis() >= PUBLISH_INTERVAL_MS,
            };
        if !due {
            return;
        }
        let insns = self.engine.insns();
        let dt = live.last_pub.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        let mips =
            if dt > 0.0 { (insns - live.last_insns) as f64 / dt / 1e6 } else { 0.0 };
        let m = self.engine.machine();
        let mode = m.tol.mode_split();
        let rollbacks = m.tol.emu.counters.assert_fails + m.tol.emu.counters.alias_fails;
        let t_ms = hub.now_ms();
        let id = self.spec.id;
        hub.publish(
            Some(&live::model_key(2, id)),
            &live::progress_event(t_ms, id, worker, insns, mips, mode, rollbacks),
        );
        live.mirror.sync_from(&self.engine.metrics());
        let delta = live.mirror.delta_since(live.published_epoch);
        if !delta.is_empty() {
            hub.publish(Some(&live::model_key(3, id)), &live::delta_event(t_ms, id, &delta));
        }
        live.published_epoch = live.mirror.epoch();
        live.last_pub = Some(Instant::now());
        live.last_insns = insns;
    }
}

/// Publishes a terminal `job` lifecycle event.
fn publish_done(opts: &SchedOpts, r: &JobResult, worker: usize) {
    if let Some(hub) = &opts.live {
        hub.publish(
            Some(&live::model_key(1, r.id)),
            &live::job_event(hub.now_ms(), r.id, &r.workload, "done", Some(r.status.name()), worker),
        );
    }
}

fn result_shell(spec: &JobSpec, status: JobStatus) -> JobResult {
    JobResult {
        id: spec.id,
        workload: spec.workload.clone(),
        tag: spec.tag.clone(),
        status,
        attempts: 1,
        wall_ms: 0,
        metrics: None,
        payload: None,
        flight_path: None,
        checkpoint_path: None,
    }
}

/// Checkpoints a live slot into the state dir; returns the path on
/// success, an error-shaped status on failure.
fn checkpoint_slot(slot: &mut Slot, dir: &Path) -> Result<String, String> {
    let snap = slot.engine.checkpoint().map_err(|e| format!("checkpoint failed: {e}"))?;
    let path = snap_path(dir, slot.spec.id);
    std::fs::write(&path, snap.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Builds the engine for a run job, restoring a prior checkpoint when
/// resuming. Returns an error status when the workload cannot resolve to
/// a program or the checkpoint does not fit the spec.
fn make_slot(spec: &JobSpec, opts: &SchedOpts) -> Result<Slot, Box<JobResult>> {
    let program = match resolve(&spec.workload, spec.scale) {
        Ok(Resolved::Program(p)) => p,
        Ok(Resolved::InjectedPanic) => {
            unreachable!("fault:panic jobs take the atomic path")
        }
        Err(e) => return Err(Box::new(result_shell(spec, JobStatus::Failed(e)))),
    };
    let mut cfg = spec.cfg.clone();
    let flight = opts.flight_dir.as_ref().map(|d| {
        d.join(format!("job-{}.flight.json", spec.id)).to_string_lossy().into_owned()
    });
    if cfg.flight_path.is_none() {
        cfg.flight_path = flight.clone();
    }
    let mut engine = Box::new(System::new(cfg, program).start());
    if opts.resume {
        if let Some(dir) = &opts.state_dir {
            let path = snap_path(dir, spec.id);
            if let Ok(bytes) = std::fs::read(&path) {
                let restored = Snapshot::from_bytes(bytes)
                    .and_then(|snap| engine.restore(&snap));
                if let Err(e) = restored {
                    return Err(Box::new(result_shell(
                        spec,
                        JobStatus::Failed(format!(
                            "cannot resume from {}: {e}",
                            path.display()
                        )),
                    )));
                }
            }
        }
    }
    let live = opts.live.is_some().then(|| SlotLive {
        mirror: Registry::default(),
        published_epoch: 0,
        last_pub: None,
        last_insns: engine.insns(),
    });
    Ok(Slot { spec: spec.clone(), engine, started: Instant::now(), flight, live })
}

/// Steps every slot on the slate round-robin until all are terminal (or
/// the stop flag interrupts), producing one result per slot.
fn drive_slate(
    mut slate: Vec<Slot>,
    opts: &SchedOpts,
    stop: &AtomicBool,
    worker: usize,
) -> Vec<JobResult> {
    let mut out = Vec::with_capacity(slate.len());
    while !slate.is_empty() {
        let mut i = 0;
        while i < slate.len() {
            if stop.load(Ordering::SeqCst) {
                // Graceful shutdown: checkpoint what we can, skip the rest.
                for mut slot in slate.drain(..) {
                    let mut r = result_shell(&slot.spec, JobStatus::Skipped);
                    if let Some(dir) = &opts.state_dir {
                        if let Ok(p) = checkpoint_slot(&mut slot, dir) {
                            r.checkpoint_path = Some(p);
                        }
                    }
                    publish_done(opts, &r, worker);
                    out.push(r);
                }
                return out;
            }
            let slot = &mut slate[i];
            let stepped = catch_unwind(AssertUnwindSafe(|| slot.engine.step(opts.quantum)));
            let done: Option<JobResult> = match stepped {
                Ok(Ok(exit)) => match exit {
                    darco::StepExit::Yielded | darco::StepExit::ValidationDue => {
                        if slot.over_deadline() {
                            let ms = slot.spec.timeout_ms.unwrap_or(0);
                            let mut r = result_shell(&slot.spec, JobStatus::TimedOut(ms));
                            if let Some(dir) = &opts.state_dir {
                                match checkpoint_slot(slot, dir) {
                                    Ok(p) => r.checkpoint_path = Some(p),
                                    Err(e) => r.status = JobStatus::Failed(e),
                                }
                            }
                            Some(r)
                        } else {
                            if let Some(hub) = &opts.live {
                                slot.publish_live(hub, worker, false);
                            }
                            None
                        }
                    }
                    darco::StepExit::Ended | darco::StepExit::GuestFault => {
                        let mut slot = slate.remove(i);
                        if let Some(hub) = &opts.live {
                            slot.publish_live(hub, worker, true);
                        }
                        let report = slot.engine.into_report();
                        let (payload, metrics) = run_payload(&report);
                        let mut r = result_shell(&slot.spec, JobStatus::Ok);
                        r.payload = Some(payload);
                        r.metrics = Some(metrics);
                        r.wall_ms = slot.started.elapsed().as_millis() as u64;
                        publish_done(opts, &r, worker);
                        out.push(r);
                        continue; // `i` now points at the next slot
                    }
                },
                Ok(Err(e)) => {
                    let mut r = result_shell(&slot.spec, JobStatus::Failed(e.to_string()));
                    r.flight_path = slot.flight.clone().filter(|p| Path::new(p).exists());
                    Some(r)
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    let mut r = result_shell(&slot.spec, JobStatus::Panicked(msg));
                    r.flight_path = slot.flight.clone().filter(|p| Path::new(p).exists());
                    Some(r)
                }
            };
            match done {
                Some(mut r) => {
                    let slot = slate.remove(i);
                    r.wall_ms = slot.started.elapsed().as_millis() as u64;
                    publish_done(opts, &r, worker);
                    out.push(r);
                }
                None => i += 1,
            }
        }
    }
    out
}

/// Whether a job runs as a time-sliced engine (run harness over a real
/// program) or atomically through [`execute_job`].
fn is_engine_job(spec: &JobSpec) -> bool {
    spec.kind == JobKind::Run && !spec.workload.starts_with("fault:panic")
}

/// Runs a campaign on `workers` cooperative worker threads. Each worker
/// owns a slate of engines (jobs dealt round-robin by id) and time-slices
/// them `opts.quantum` instructions at a time; atomic jobs (lint, fault
/// injection) run first through the classic per-job protocol. `stop`
/// mirrors the pool's poison flag: once set, unstarted jobs drain as
/// skipped and live engines are checkpointed (when a state dir is
/// configured) instead of finishing.
pub fn run_campaign_cooperative(
    c: &Campaign,
    workers: usize,
    opts: &SchedOpts,
    stop: &AtomicBool,
) -> CampaignOutcome {
    let workers = workers.max(1);
    if let Some(dir) = &opts.state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create state dir {}: {e}", dir.display());
        }
    }
    if let Some(hub) = &opts.live {
        hub.publish(
            Some(&live::model_key(0, 0)),
            &live::campaign_event(hub.now_ms(), &c.name, c.jobs.len(), workers, opts.quantum),
        );
    }
    // Reused results and atomic-vs-engine classification happen up front,
    // single-threaded, in id order — cheap, and it keeps the worker loop
    // free of filesystem races on the state dir.
    let mut results: Vec<Option<JobResult>> = vec![None; c.jobs.len()];
    let mut pending: Vec<&JobSpec> = Vec::new();
    for (i, spec) in c.jobs.iter().enumerate() {
        let reused = match (&opts.state_dir, opts.resume) {
            (Some(dir), true) => load_done(dir, spec),
            _ => None,
        };
        match reused {
            Some(r) => {
                publish_done(opts, &r, 0);
                results[i] = Some(r);
            }
            None => pending.push(spec),
        }
    }
    let mut finished: Vec<JobResult> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let mine: Vec<&JobSpec> =
                pending.iter().enumerate().filter(|(i, _)| i % workers == w).map(|(_, s)| *s).collect();
            let opts = opts.clone();
            handles.push(s.spawn(move || {
                let mut out = Vec::with_capacity(mine.len());
                let mut slate = Vec::new();
                for spec in mine {
                    if !is_engine_job(spec) {
                        let r = if stop.load(Ordering::SeqCst) {
                            result_shell(spec, JobStatus::Skipped)
                        } else {
                            execute_job(spec, opts.flight_dir.as_deref())
                        };
                        publish_done(&opts, &r, w);
                        out.push(r);
                        continue;
                    }
                    match make_slot(spec, &opts) {
                        Ok(slot) => {
                            if let Some(hub) = &opts.live {
                                hub.publish(
                                    Some(&live::model_key(1, spec.id)),
                                    &live::job_event(
                                        hub.now_ms(),
                                        spec.id,
                                        &spec.workload,
                                        "running",
                                        None,
                                        w,
                                    ),
                                );
                            }
                            slate.push(slot);
                        }
                        Err(r) => {
                            publish_done(&opts, &r, w);
                            out.push(*r);
                        }
                    }
                }
                out.extend(drive_slate(slate, &opts, stop, w));
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().expect("fleet worker thread")).collect()
    });
    finished.sort_by_key(|r| r.id);
    let mut finished = finished.into_iter();
    let results: Vec<JobResult> = results
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| finished.next().expect("one result per pending job")))
        .collect();
    if let Some(dir) = &opts.state_dir {
        for r in &results {
            // Terminal outcomes persist; timeouts/interrupts keep (only)
            // their checkpoint so a resume continues them.
            if matches!(r.status, JobStatus::Ok | JobStatus::Failed(_) | JobStatus::Panicked(_))
                && r.attempts > 0
            {
                persist_done(dir, r);
            }
        }
    }
    let outcome = CampaignOutcome { name: c.name.clone(), results };
    if let Some(hub) = &opts.live {
        hub.publish(
            Some(&live::model_key(9, 0)),
            &live::end_event(hub.now_ms(), outcome.ok_count(), outcome.failed_count()),
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::parse_campaign;
    use darco_obs::Registry;

    fn no_stop() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn done_record_round_trips() {
        let mut reg = Registry::new();
        reg.set_counter("sys.guest_insns", 42);
        let r = JobResult {
            id: 9,
            workload: "kernel:dot".into(),
            tag: Some("t".into()),
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 55,
            metrics: Some(reg),
            payload: Some("{\"x\":1}".into()),
            flight_path: None,
            checkpoint_path: None,
        };
        let back = decode_result(&encode_result(&r)).unwrap();
        assert_eq!(back.id, 9);
        assert_eq!(back.workload, "kernel:dot");
        assert_eq!(back.status, JobStatus::Ok);
        assert_eq!(back.payload, r.payload);
        assert_eq!(back.metrics.unwrap().to_json(), r.metrics.unwrap().to_json());
        assert_eq!(back.wall_ms, 0, "scheduling fields are not persisted");
        assert!(decode_result(b"junk").is_err());
    }

    #[test]
    fn timeout_checkpoints_and_resume_completes() {
        let dir = std::env::temp_dir().join("fleet-sched-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = parse_campaign(
            r#"{"name":"ckpt","jobs":[{"workload":"kernel:crc32"}]}"#,
        )
        .unwrap();
        // A zero timeout deterministically fires at the first quantum
        // boundary: the job must checkpoint, not die.
        c.jobs[0].timeout_ms = Some(0);
        let opts = SchedOpts {
            quantum: 2_000,
            state_dir: Some(dir.clone()),
            ..SchedOpts::default()
        };
        let first = run_campaign_cooperative(&c, 1, &opts, &no_stop());
        assert_eq!(first.results[0].status, JobStatus::TimedOut(0));
        let snap = snap_path(&dir, 0);
        assert!(snap.exists(), "timed-out job left a checkpoint");
        let ckpt_insns = first.results[0].checkpoint_path.as_ref().unwrap();
        assert_eq!(ckpt_insns, &snap.to_string_lossy().into_owned());

        // Resume without the timeout: the job continues from the snapshot
        // and its result is byte-identical to an uninterrupted run *under
        // the same stepping schedule* (overhead accounting legitimately
        // depends on where fuel boundaries land, so the quantum must
        // match — checkpoint/restore itself must add nothing).
        c.jobs[0].timeout_ms = None;
        let resumed =
            run_campaign_cooperative(&c, 1, &SchedOpts { resume: true, ..opts.clone() }, &no_stop());
        assert_eq!(resumed.results[0].status, JobStatus::Ok);
        assert!(!snap.exists(), "completion removes the checkpoint");
        assert!(done_path(&dir, 0).exists(), "completion persists the result");
        let uninterrupted = run_campaign_cooperative(
            &c,
            1,
            &SchedOpts { quantum: opts.quantum, ..SchedOpts::default() },
            &no_stop(),
        );
        assert_eq!(resumed.merged_json(), uninterrupted.merged_json());

        // A second resume reuses the persisted record without running.
        let reused =
            run_campaign_cooperative(&c, 1, &SchedOpts { resume: true, ..opts }, &no_stop());
        assert_eq!(reused.results[0].attempts, 0, "loaded, not re-run");
        assert_eq!(reused.merged_json(), uninterrupted.merged_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_flag_checkpoints_live_engines() {
        let dir = std::env::temp_dir().join("fleet-sched-stop");
        let _ = std::fs::remove_dir_all(&dir);
        let c = parse_campaign(r#"{"name":"stop","jobs":[{"workload":"kernel:dot"}]}"#).unwrap();
        let stop = AtomicBool::new(true); // interrupted before the first slice
        let opts = SchedOpts { state_dir: Some(dir.clone()), ..SchedOpts::default() };
        let outcome = run_campaign_cooperative(&c, 1, &opts, &stop);
        assert_eq!(outcome.results[0].status, JobStatus::Skipped);
        assert!(snap_path(&dir, 0).exists(), "interrupted engine checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
