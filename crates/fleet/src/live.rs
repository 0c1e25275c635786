//! Live telemetry streaming: JSON-lines fan-out for running campaigns.
//!
//! The merged campaign artifact is an *end-of-run* surface; a multi-hour
//! campaign is invisible while it runs. This module adds the live side:
//! the cooperative scheduler (and the fuzz campaign) publish small JSON
//! events into a [`LiveHub`], which fans them out to any number of
//! subscribers — `darco-top` dashboards attached over TCP
//! (`darco-fleet run --live ADDR`) or in-process line channels
//! ([`LiveHub::subscribe_channel`]).
//!
//! ## The stream protocol
//!
//! One JSON object per line, each tagged with `ev` and a relative
//! timestamp `t_ms` (milliseconds since the hub was created):
//!
//! * `{"ev":"campaign","name":..,"jobs":N,"workers":N,"quantum":N}`
//! * `{"ev":"job","id":N,"workload":..,"state":"running"|"done",
//!   "status":..,"worker":W}` — lifecycle edges;
//! * `{"ev":"progress","id":N,"worker":W,"insns":N,"mips":X,
//!   "im":A,"bbm":B,"sbm":C,"rollbacks":R}` — periodic per-job
//!   progress (instantaneous MIPS over the publication interval, mode
//!   split and rollback count so far);
//! * `{"ev":"delta","id":N,"delta":{..}}` — the job's incremental
//!   [`darco_obs::RegistryDelta`] (wire encoding) since its previous
//!   publication;
//! * `{"ev":"end","ok":N,"failed":N}` — campaign termination;
//! * `{"ev":"sync"}` — sent to each subscriber after its catch-up
//!   replay (below); everything after it is live.
//!
//! ## Catch-up
//!
//! A dashboard attaching mid-campaign must not start from a blank
//! screen. Every published event may carry a *model key*; the hub
//! retains the latest line per key (campaign meta, each job's latest
//! lifecycle/progress/delta line, the end marker) in key order, and a
//! new subscriber receives that model as a replay prefix, then the
//! `sync` marker, then live events. Keys are chosen so the replay is
//! ordered campaign → jobs → progress → deltas → end.
//!
//! ## Non-interference
//!
//! Publishing only ever *reads* simulation state, subscribers are fed
//! through bounded queues with drop-on-full (a stalled dashboard loses
//! telemetry lines, it never stalls a worker), and wall-clock fields
//! (`t_ms`, `mips`) live only in the stream — the merged campaign
//! artifact is byte-identical with streaming on or off.

use darco_obs::{JsonWriter, RegistryDelta};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Per-subscriber queue depth. A subscriber further than this many lines
/// behind starts losing events (newest-dropped), which is the correct
/// failure mode for telemetry.
const SUB_QUEUE_CAP: usize = 1024;

enum Sub {
    /// TCP subscriber fed through a bounded channel (its writer thread
    /// owns the socket); full queue drops the event.
    Bounded(mpsc::SyncSender<String>),
    /// In-process subscriber on an unbounded line channel.
    Unbounded(mpsc::Sender<String>),
}

impl Sub {
    /// Delivers one line; `false` means the subscriber is gone.
    fn deliver(&self, line: &str) -> bool {
        match self {
            Sub::Bounded(tx) => !matches!(
                tx.try_send(line.to_string()),
                Err(mpsc::TrySendError::Disconnected(_))
            ),
            Sub::Unbounded(tx) => tx.send(line.to_string()).is_ok(),
        }
    }
}

struct HubInner {
    subs: Vec<Sub>,
    /// Latest retained line per model key — the catch-up replay, in
    /// `BTreeMap` key order.
    model: BTreeMap<String, String>,
}

/// The fan-out hub (see the module docs). Shared as `Arc<LiveHub>`
/// between the publisher and the subscriber intake.
pub struct LiveHub {
    inner: Mutex<HubInner>,
    t0: Instant,
    closed: AtomicBool,
}

impl std::fmt::Debug for LiveHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveHub").finish_non_exhaustive()
    }
}

impl LiveHub {
    /// A hub with no listener of its own — subscribers arrive through
    /// [`LiveHub::subscribe_channel`].
    pub fn detached() -> Arc<LiveHub> {
        Arc::new(LiveHub {
            inner: Mutex::new(HubInner { subs: Vec::new(), model: BTreeMap::new() }),
            t0: Instant::now(),
            closed: AtomicBool::new(false),
        })
    }

    /// Binds a TCP listener on `addr` and spawns the accept loop: every
    /// connection becomes a subscriber (catch-up replay, `sync`, then
    /// live events). Returns the hub and the bound address (real port
    /// when bound to `:0`).
    ///
    /// # Errors
    /// Address binding.
    pub fn bind(addr: &str) -> std::io::Result<(Arc<LiveHub>, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let hub = Self::detached();
        let accept_hub = Arc::clone(&hub);
        let _ = std::thread::Builder::new().name("live-accept".to_string()).spawn(move || {
            for conn in listener.incoming() {
                if accept_hub.closed.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = stream.set_nodelay(true);
                let (tx, rx) = mpsc::sync_channel::<String>(SUB_QUEUE_CAP);
                let _ = std::thread::Builder::new().name("live-sub".to_string()).spawn(
                    move || {
                        let mut out = stream;
                        while let Ok(line) = rx.recv() {
                            if out.write_all(line.as_bytes()).is_err()
                                || out.write_all(b"\n").is_err()
                            {
                                break;
                            }
                            let _ = out.flush();
                        }
                    },
                );
                accept_hub.attach(Sub::Bounded(tx));
            }
        });
        Ok((hub, bound))
    }

    /// Milliseconds since the hub was created — the `t_ms` event stamp.
    pub fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Subscribes an existing line channel: the catch-up replay and
    /// `sync` marker are queued immediately, live events follow.
    pub fn subscribe_channel(&self, tx: mpsc::Sender<String>) {
        self.attach(Sub::Unbounded(tx));
    }

    fn attach(&self, sub: Sub) {
        let mut inner = self.inner.lock().expect("live hub lock");
        let mut alive = true;
        for line in inner.model.values() {
            alive &= sub.deliver(line);
        }
        alive &= sub.deliver(&sync_event(self.now_ms()));
        if alive {
            inner.subs.push(sub);
        }
    }

    /// Publishes one event line to every subscriber. With a `key`, the
    /// line also replaces that key's entry in the catch-up model.
    pub fn publish(&self, key: Option<&str>, line: &str) {
        let mut inner = self.inner.lock().expect("live hub lock");
        if let Some(k) = key {
            inner.model.insert(k.to_string(), line.to_string());
        }
        inner.subs.retain(|s| s.deliver(line));
    }

    /// Stops accepting new TCP subscribers and drops the current ones
    /// (their queues drain, then their writer threads exit). Published
    /// events after close only update the model.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.inner.lock().expect("live hub lock").subs.clear();
    }

    /// Current subscriber count (tests and idle-publish elision).
    pub fn subscribers(&self) -> usize {
        self.inner.lock().expect("live hub lock").subs.len()
    }
}

/// Model key ordering the catch-up replay: campaign meta first, then
/// job lifecycle lines, progress, deltas, and the end marker last.
pub fn model_key(group: u8, id: u64) -> String {
    format!("{group}.{id:08}")
}

fn base(ev: &str, t_ms: u64) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("ev", ev);
    w.field_num("t_ms", t_ms);
    w
}

/// `campaign` event (model key `0.*`).
pub fn campaign_event(t_ms: u64, name: &str, jobs: usize, workers: usize, quantum: u64) -> String {
    let mut w = base("campaign", t_ms);
    w.field_str("name", name);
    w.field_num("jobs", jobs);
    w.field_num("workers", workers);
    w.field_num("quantum", quantum);
    w.end_obj();
    w.finish()
}

/// `job` lifecycle event (model key `1.<id>`). `status` is the terminal
/// [`crate::JobStatus`] spelling for `state == "done"`, absent while
/// running.
pub fn job_event(
    t_ms: u64,
    id: u64,
    workload: &str,
    state: &str,
    status: Option<&str>,
    worker: usize,
) -> String {
    let mut w = base("job", t_ms);
    w.field_num("id", id);
    w.field_str("workload", workload);
    w.field_str("state", state);
    match status {
        Some(s) => w.field_str("status", s),
        None => w.field_null("status"),
    };
    w.field_num("worker", worker);
    w.end_obj();
    w.finish()
}

/// `progress` event (model key `2.<id>`).
#[allow(clippy::too_many_arguments)]
pub fn progress_event(
    t_ms: u64,
    id: u64,
    worker: usize,
    insns: u64,
    mips: f64,
    mode: (u64, u64, u64),
    rollbacks: u64,
) -> String {
    let mut w = base("progress", t_ms);
    w.field_num("id", id);
    w.field_num("worker", worker);
    w.field_num("insns", insns);
    w.field_f64("mips", mips);
    w.field_num("im", mode.0);
    w.field_num("bbm", mode.1);
    w.field_num("sbm", mode.2);
    w.field_num("rollbacks", rollbacks);
    w.end_obj();
    w.finish()
}

/// `delta` event (model key `3.<id>`): the job's incremental registry
/// delta in the [`RegistryDelta::to_json`] wire encoding.
pub fn delta_event(t_ms: u64, id: u64, delta: &RegistryDelta) -> String {
    let mut w = base("delta", t_ms);
    w.field_num("id", id);
    w.field_raw("delta", &delta.to_json());
    w.end_obj();
    w.finish()
}

/// `fuzz` event (model key `4.0`): campaign-level fuzzing stats from
/// `darco-fuzz run --live` — executions, corpus size, distinct coverage
/// edges and divergence findings so far.
pub fn fuzz_event(t_ms: u64, execs: u64, corpus: u64, edges: u64, divergences: u64) -> String {
    let mut w = base("fuzz", t_ms);
    w.field_num("execs", execs);
    w.field_num("corpus", corpus);
    w.field_num("edges", edges);
    w.field_num("divergences", divergences);
    w.end_obj();
    w.finish()
}

/// `end` event (model key `9.*`).
pub fn end_event(t_ms: u64, ok: usize, failed: usize) -> String {
    let mut w = base("end", t_ms);
    w.field_num("ok", ok);
    w.field_num("failed", failed);
    w.end_obj();
    w.finish()
}

/// `sync` marker: catch-up replay complete, live events follow.
pub fn sync_event(t_ms: u64) -> String {
    let mut w = base("sync", t_ms);
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    #[test]
    fn late_subscriber_gets_model_then_sync_then_live() {
        let (hub, addr) = LiveHub::bind("127.0.0.1:0").unwrap();
        hub.publish(Some(&model_key(0, 0)), &campaign_event(0, "c", 2, 1, 1000));
        hub.publish(Some(&model_key(1, 1)), &job_event(1, 1, "kernel:dot", "running", None, 0));
        // Stale line for job 0 is superseded in the model.
        hub.publish(Some(&model_key(1, 0)), &job_event(1, 0, "kernel:dot", "running", None, 0));
        hub.publish(
            Some(&model_key(1, 0)),
            &job_event(2, 0, "kernel:dot", "done", Some("ok"), 0),
        );

        let c = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(c);
        let mut read = || {
            let mut s = String::new();
            reader.read_line(&mut s).unwrap();
            darco_obs::parse(&s).unwrap()
        };
        // Deadline-free: the replay is queued synchronously on attach.
        let ev = |d: &darco_obs::JsonValue| d.get("ev").and_then(|v| v.as_str()).map(String::from);
        let first = read();
        assert_eq!(ev(&first).as_deref(), Some("campaign"));
        let job0 = read();
        assert_eq!(job0.get("state").and_then(|v| v.as_str()), Some("done"), "latest line wins");
        let job1 = read();
        assert_eq!(job1.get("id").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(ev(&read()).as_deref(), Some("sync"));

        // Live events arrive after the sync marker. Subscription raced
        // with nothing here, so exactly this event follows.
        while hub.subscribers() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        hub.publish(None, &end_event(9, 2, 0));
        let end = read();
        assert_eq!(ev(&end).as_deref(), Some("end"));
        assert_eq!(end.get("ok").and_then(|v| v.as_num()), Some(2.0));
        hub.close();
    }

    #[test]
    fn events_are_valid_json_with_required_fields() {
        let lines = [
            campaign_event(5, "c\"x", 3, 2, 100_000),
            job_event(6, 7, "403.gcc", "running", None, 1),
            progress_event(7, 7, 1, 1_000_000, 32.5, (10, 20, 70), 4),
            delta_event(8, 7, &RegistryDelta::default()),
            end_event(9, 3, 0),
            sync_event(10),
        ];
        for l in &lines {
            let d = darco_obs::parse(l).unwrap();
            assert!(d.get("ev").and_then(|v| v.as_str()).is_some(), "{l}");
            assert!(d.get("t_ms").and_then(|v| v.as_num()).is_some(), "{l}");
        }
        let p = darco_obs::parse(&lines[2]).unwrap();
        for f in ["id", "worker", "insns", "mips", "im", "bbm", "sbm", "rollbacks"] {
            assert!(p.get(f).is_some(), "progress event carries {f}");
        }
    }

    #[test]
    fn model_keys_sort_campaign_jobs_progress_end() {
        let keys =
            [model_key(9, 0), model_key(2, 3), model_key(0, 0), model_key(1, 11), model_key(1, 2)];
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![model_key(0, 0), model_key(1, 2), model_key(1, 11), model_key(2, 3), model_key(9, 0)]
        );
    }
}
