//! **A1** — Lazy vs strict flag materialization (§V-D "DARCO writes to
//! the flag registers only if the written value is really going to be
//! consumed"): strict mode materializes all five flags at every
//! flag-writing instruction and must raise the SBM emulation cost.

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_jobs, suite_avg, Scale};
use darco_workloads::{benchmarks, Suite};

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let scale = args.scale;
    let ints: Vec<_> = benchmarks().into_iter().filter(|b| b.suite == Suite::SpecInt).collect();
    // Two jobs per benchmark, lazy then strict, run on the fleet pool.
    let mut work = Vec::new();
    for b in &ints {
        work.push((b.clone(), default_config()));
        let mut cfg = default_config();
        cfg.tol.strict_flags = true;
        work.push((b.clone(), cfg));
    }
    let rows = run_jobs(scale, args.jobs, work);
    let mut rows_lazy = Vec::new();
    let mut rows_strict = Vec::new();
    println!("== A1: lazy vs strict guest-flag materialization (SPECINT) ==");
    println!("{:<16} {:>10} {:>10} {:>8}", "benchmark", "lazy", "strict", "strict/lazy");
    for pair in rows.chunks(2) {
        let [(b, lazy), (_, strict)] = pair else { unreachable!("two jobs per benchmark") };
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>8.2}",
            b.name,
            lazy.sbm_emulation_cost,
            strict.sbm_emulation_cost,
            strict.sbm_emulation_cost / lazy.sbm_emulation_cost
        );
        rows_lazy.push((b.clone(), lazy.clone()));
        rows_strict.push((b.clone(), strict.clone()));
    }
    let l = suite_avg(&rows_lazy, Suite::SpecInt, |r| r.sbm_emulation_cost);
    let s = suite_avg(&rows_strict, Suite::SpecInt, |r| r.sbm_emulation_cost);
    println!("{:-<48}", "");
    println!("avg SBM cost: lazy {l:.2}, strict {s:.2} ({:.0}% increase)", (s / l - 1.0) * 100.0);
}
