//! **BENCH_fleet** — throughput scaling of the fleet campaign runner.
//!
//! Runs the fig4–fig7 campaign (the full 31-benchmark suite under the
//! default configuration — the same runs all four figure harnesses
//! consume) on the cooperative campaign runner `darco-fleet run` uses, at
//! 1/2/4/8 workers, recording wall-clock per worker count and asserting
//! the merged artifact is **byte-identical** across all of them —
//! parallelism must never change results.
//!
//! Wall times follow the shared protocol ([`darco_bench::measure`]): the
//! four worker counts interleave within each repetition and each keeps
//! its minimum; every run's merged artifact must match the first.
//! Speedup is bounded by the host's CPU count (`host.nproc`); on a
//! single-core host every worker count costs the same wall-clock and
//! only the determinism claim is meaningful.

use darco::json::JsonWriter;
use darco_bench::measure::{self, Args};
use darco_bench::Scale;
use darco_fleet::{parse_campaign, run_campaign_cooperative, SchedOpts};
use std::sync::atomic::AtomicBool;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn campaign_json(scale: Scale) -> String {
    format!(
        r#"{{
          "name": "fig-suite",
          "defaults": {{"scale": "{scale}"}},
          "matrix": {{"workloads": ["all-benchmarks"]}}
        }}"#
    )
}

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE);
    let host_cpus = measure::host().0;
    let campaign = parse_campaign(&campaign_json(args.scale)).expect("campaign parses");
    println!(
        "== Fleet scaling: fig4-fig7 campaign ({} jobs) on {} host CPUs, min of {} ==",
        campaign.jobs.len(),
        host_cpus,
        measure::REPS
    );
    let mut reference: Option<String> = None;
    let stop = AtomicBool::new(false);
    let best = measure::interleaved_min(WORKER_COUNTS.len(), 1, |v, _| {
        let workers = WORKER_COUNTS[v];
        let (wall, outcome) = measure::time(|| {
            run_campaign_cooperative(&campaign, workers, &SchedOpts::default(), &stop)
        });
        assert_eq!(outcome.failed_count(), 0, "figure suite must run clean");
        let merged = outcome.merged_json();
        match &reference {
            None => reference = Some(merged),
            Some(r) => assert_eq!(&merged, r, "merged artifact differs at {workers} workers"),
        }
        (wall, ())
    });
    let walls: Vec<f64> = best.iter().map(|row| row[0].wall_s).collect();
    println!("{:<8} {:>10} {:>10}", "workers", "wall s", "speedup");
    for (workers, wall) in WORKER_COUNTS.iter().zip(&walls) {
        println!("{workers:<8} {wall:>10.2} {:>9.2}x", walls[0] / wall);
    }
    let speedup_4 = walls[0] / walls[2];
    if host_cpus >= 4 && speedup_4 < 3.0 {
        println!("WARNING: 4-worker speedup {speedup_4:.2}x below the 3x target");
    }
    if host_cpus < 4 {
        println!("(host has {host_cpus} CPUs: wall-clock scaling is bounded by the hardware;");
        println!(" the byte-identical merge assertion above is the load-bearing check here)");
    }

    let mut w = measure::header("fleet", args.scale, measure::REPS);
    w.field_num("suite_jobs", campaign.jobs.len());
    w.begin_arr(Some("suite"));
    for (workers, wall) in WORKER_COUNTS.iter().zip(&walls) {
        let mut e = JsonWriter::new();
        e.begin_obj(None)
            .field_num("workers", workers)
            .field_f64("wall_s", *wall)
            .field_f64("speedup_vs_1", walls[0] / wall)
            .end_obj();
        w.elem_raw(&e.finish());
    }
    w.end_arr();
    w.field_bool("merged_byte_identical", true);
    w.field_f64("speedup_4_workers", speedup_4);
    w.end_obj();
    args.write("BENCH_fleet.json", &w.finish());
}
