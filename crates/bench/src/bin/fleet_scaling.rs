//! **BENCH_fleet** — throughput scaling of the fleet campaign runner.
//!
//! Runs the fig4–fig7 campaign (the full 31-benchmark suite under the
//! default configuration — the same runs all four figure harnesses
//! consume) on the cooperative campaign runner `darco-fleet run` uses, at
//! 1/2/4/8 workers, recording wall-clock per worker count and asserting
//! the merged artifact is **byte-identical** across all of them —
//! parallelism must never change results.
//!
//! Speedup is bounded by the host's CPU count (recorded as `host_cpus`);
//! on a single-core host every worker count costs the same wall-clock
//! and only the determinism claim is meaningful.

use darco::json::JsonWriter;
use darco_bench::Scale;
use darco_fleet::{parse_campaign, run_campaign_cooperative, SchedOpts};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn campaign_json(scale: Scale) -> String {
    format!(
        r#"{{
          "name": "fig-suite",
          "defaults": {{"scale": "{}/{}"}},
          "matrix": {{"workloads": ["all-benchmarks"]}}
        }}"#,
        scale.0, scale.1
    )
}

fn main() {
    let scale = Scale::from_args();
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let campaign = parse_campaign(&campaign_json(scale)).expect("campaign parses");
    println!(
        "== Fleet scaling: fig4-fig7 campaign ({} jobs) on {} host CPUs ==",
        campaign.jobs.len(),
        host_cpus
    );
    println!("{:<8} {:>10} {:>10}", "workers", "wall s", "speedup");
    let mut rows: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<String> = None;
    let stop = AtomicBool::new(false);
    for workers in WORKER_COUNTS {
        let t0 = Instant::now();
        let outcome = run_campaign_cooperative(&campaign, workers, &SchedOpts::default(), &stop);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(outcome.failed_count(), 0, "figure suite must run clean");
        let merged = outcome.merged_json();
        match &reference {
            None => reference = Some(merged),
            Some(r) => assert_eq!(
                &merged, r,
                "merged artifact differs between 1 and {workers} workers"
            ),
        }
        let speedup = rows.first().map(|&(_, w1)| w1 / wall).unwrap_or(1.0);
        println!("{workers:<8} {wall:>10.2} {speedup:>9.2}x");
        rows.push((workers, wall));
    }
    let wall_1 = rows[0].1;
    let speedup_4 = wall_1 / rows[2].1;
    if host_cpus >= 4 && speedup_4 < 3.0 {
        println!("WARNING: 4-worker speedup {speedup_4:.2}x below the 3x target");
    }
    if host_cpus < 4 {
        println!("(host has {host_cpus} CPUs: wall-clock scaling is bounded by the hardware;");
        println!(" the byte-identical merge assertion above is the load-bearing check here)");
    }

    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("bench", "fleet");
    w.field_str("scale", &format!("{}/{}", scale.0, scale.1));
    w.field_num("host_cpus", host_cpus);
    w.field_num("suite_jobs", campaign.jobs.len());
    w.begin_arr(Some("suite"));
    for &(workers, wall) in &rows {
        let mut e = JsonWriter::new();
        e.begin_obj(None)
            .field_num("workers", workers)
            .field_f64("wall_s", wall)
            .field_f64("speedup_vs_1", wall_1 / wall)
            .end_obj();
        w.elem_raw(&e.finish());
    }
    w.end_arr();
    w.field_bool("merged_byte_identical", true);
    w.field_f64("speedup_4_workers", speedup_4);
    w.end_obj();
    std::fs::write("BENCH_fleet.json", w.finish()).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}
