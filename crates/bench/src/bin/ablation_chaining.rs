//! **A2** — Translation chaining and the IBTC (§V-D "minimum TOL
//! overhead"): disabling them must multiply TOL invocations (prologue +
//! lookup overhead).

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_jobs, Scale};
use darco_workloads::benchmarks;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let scale = args.scale;
    let all = benchmarks();
    // Two jobs per benchmark — chained, then chaining+IBTC off — on the
    // fleet pool.
    let mut work = Vec::new();
    for idx in [0usize, 4, 13, 24, 28] {
        let b = &all[idx];
        work.push((b.clone(), default_config()));
        let mut cfg = default_config();
        cfg.tol.chaining = false;
        cfg.tol.ibtc = false;
        work.push((b.clone(), cfg));
    }
    let rows = run_jobs(scale, args.jobs, work);
    println!("== A2: chaining + IBTC on/off ==");
    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "benchmark", "ovh% chained", "ovh% unchained", "dispatch x"
    );
    for pair in rows.chunks(2) {
        let [(b, on), (_, off)] = pair else { unreachable!("two jobs per benchmark") };
        let disp_ratio = (off.overhead.prologue + off.overhead.cache_lookup) as f64
            / (on.overhead.prologue + on.overhead.cache_lookup).max(1) as f64;
        println!(
            "{:<16} {:>13.1}% {:>13.1}% {:>10.1}",
            b.name,
            on.overhead_fraction() * 100.0,
            off.overhead_fraction() * 100.0,
            disp_ratio
        );
    }
}
