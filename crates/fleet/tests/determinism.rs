//! The determinism regression: one campaign run at 1, 2 and 8 workers
//! must merge to byte-identical artifacts — the contract every figure
//! built on fleet output relies on.

use darco_fleet::{parse_campaign, run_campaign_cooperative, LiveHub, SchedOpts};
use std::sync::atomic::AtomicBool;

const CAMPAIGN: &str = r#"{
  "name": "determinism-regression",
  "defaults": {"scale": "1/4"},
  "jobs": [
    {"workload": "kernel:dot"},
    {"workload": "kernel:crc32", "tag": "checksum"},
    {"workload": "kernel:quicksort"},
    {"workload": "fault:panic"},
    {"workload": "kernel:search", "kind": "lint",
     "config": {"tol": {"bbm_threshold": 3, "sbm_threshold": 12, "verify": "report"}}},
    {"workload": "kernel:dot", "tag": "o1",
     "config": {"tol": {"opt_level": "O1"}}}
  ]
}"#;

#[test]
fn merged_artifact_is_byte_identical_across_worker_counts() {
    let campaign = parse_campaign(CAMPAIGN).unwrap();
    let stop = AtomicBool::new(false);
    let opts = SchedOpts { quantum: 5_000, ..SchedOpts::default() };
    let mut artifacts = Vec::new();
    for workers in [1usize, 2, 8] {
        let outcome = run_campaign_cooperative(&campaign, workers, &opts, &stop);
        assert_eq!(outcome.results.len(), 6);
        // Results land in id order whatever the completion order was.
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        artifacts.push((workers, outcome.merged_json()));
    }
    let (_, reference) = &artifacts[0];
    for (workers, artifact) in &artifacts[1..] {
        assert_eq!(
            artifact, reference,
            "merged artifact differs between --jobs 1 and --jobs {workers}"
        );
    }
    // The artifact is well-formed and reflects the injected failure.
    let doc = darco_obs::parse(reference).unwrap();
    assert_eq!(doc.get("jobs").and_then(|v| v.as_num()), Some(6.0));
    assert_eq!(doc.get("ok").and_then(|v| v.as_num()), Some(5.0));
    assert_eq!(doc.get("failed").and_then(|v| v.as_num()), Some(1.0));
    assert!(
        !reference.contains("wall_ms") && !reference.contains("_nanos"),
        "deterministic artifact must hold no wall-clock data"
    );
}

#[test]
fn live_streaming_leaves_the_artifact_byte_identical() {
    // The tentpole contract: attaching live telemetry must not perturb
    // the simulation. Artifacts with a subscribed hub at 1, 2 and 8
    // workers all equal the streaming-off reference, and the stream
    // itself carries the protocol's required events.
    let campaign = parse_campaign(CAMPAIGN).unwrap();
    let stop = AtomicBool::new(false);
    let quantum = 5_000u64;
    let reference = {
        let opts = SchedOpts { quantum, ..SchedOpts::default() };
        run_campaign_cooperative(&campaign, 1, &opts, &stop).merged_json()
    };
    for workers in [1usize, 2, 8] {
        let (hub, addr) = LiveHub::bind("127.0.0.1:0").unwrap();
        // A real TCP subscriber drains the stream concurrently.
        let collector = std::thread::spawn(move || {
            use std::io::BufRead;
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut lines = Vec::new();
            for line in std::io::BufReader::new(stream).lines() {
                let Ok(l) = line else { break };
                lines.push(l);
            }
            lines
        });
        // Wait for the subscription so the event sequence is complete.
        while hub.subscribers() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let opts = SchedOpts { quantum, live: Some(hub.clone()), ..SchedOpts::default() };
        let outcome = run_campaign_cooperative(&campaign, workers, &opts, &stop);
        assert_eq!(
            outcome.merged_json(),
            reference,
            "artifact with --live differs at {workers} workers"
        );
        hub.close();
        let lines = collector.join().unwrap();
        let ev_of = |l: &str| {
            darco_obs::parse(l)
                .unwrap()
                .get("ev")
                .and_then(|v| v.as_str())
                .map(String::from)
                .unwrap()
        };
        let evs: Vec<String> = lines.iter().map(|l| ev_of(l)).collect();
        for required in ["sync", "campaign", "job", "progress", "delta", "end"] {
            assert!(evs.iter().any(|e| e == required), "stream at {workers} workers misses `{required}`: {evs:?}");
        }
        // Every job reaches a terminal lifecycle event, and deltas decode.
        for (l, e) in lines.iter().zip(&evs) {
            let doc = darco_obs::parse(l).unwrap();
            if e == "job" && doc.get("state").and_then(|v| v.as_str()) == Some("done") {
                assert!(doc.get("status").and_then(|v| v.as_str()).is_some(), "{l}");
            }
            if e == "delta" {
                let d = doc.get("delta").expect("delta body");
                darco_obs::RegistryDelta::from_json(d).expect("wire-decodable delta");
            }
        }
        let done: Vec<f64> = lines
            .iter()
            .filter_map(|l| {
                let d = darco_obs::parse(l).unwrap();
                (d.get("ev").and_then(|v| v.as_str()) == Some("job")
                    && d.get("state").and_then(|v| v.as_str()) == Some("done"))
                .then(|| d.get("id").and_then(|v| v.as_num()).unwrap())
            })
            .collect();
        for id in 0..6 {
            assert!(done.contains(&(id as f64)), "job {id} never reported done at {workers} workers");
        }
    }
}

#[test]
fn checkpoint_resume_cycle_is_deterministic_across_worker_counts() {
    // Every run-kind job times out immediately (timeout 0 fires at the
    // first quantum boundary), checkpoints, and is then resumed to
    // completion — at 1, 2 and 8 workers. The resumed artifacts must all
    // equal the uninterrupted run under the same stepping schedule.
    let campaign_text = r#"{
      "name": "ckpt-workers",
      "defaults": {"scale": "1/4"},
      "jobs": [
        {"workload": "kernel:dot"},
        {"workload": "kernel:crc32"},
        {"workload": "kernel:quicksort"}
      ]
    }"#;
    let stop = AtomicBool::new(false);
    let quantum = 3_000u64;
    let plain = {
        let c = parse_campaign(campaign_text).unwrap();
        let opts = SchedOpts { quantum, ..SchedOpts::default() };
        run_campaign_cooperative(&c, 1, &opts, &stop).merged_json()
    };
    for workers in [1usize, 2, 8] {
        let dir = std::env::temp_dir().join(format!("fleet-det-ckpt-{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = parse_campaign(campaign_text).unwrap();
        for j in &mut c.jobs {
            j.timeout_ms = Some(0);
        }
        let opts =
            SchedOpts { quantum, state_dir: Some(dir.clone()), ..SchedOpts::default() };
        let first = run_campaign_cooperative(&c, workers, &opts, &stop);
        for r in &first.results {
            assert_eq!(r.status, darco_fleet::JobStatus::TimedOut(0), "job {}", r.id);
            assert!(r.checkpoint_path.is_some(), "job {} left a checkpoint", r.id);
        }
        for j in &mut c.jobs {
            j.timeout_ms = None;
        }
        let resumed =
            run_campaign_cooperative(&c, workers, &SchedOpts { resume: true, ..opts }, &stop);
        assert_eq!(
            resumed.merged_json(),
            plain,
            "checkpoint/resume at {workers} workers must match the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
