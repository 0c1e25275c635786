//! **E2 / Fig. 4** — Dynamic guest instruction distribution in IM, BBM
//! and SBM, per benchmark and per suite.
//!
//! Paper: 88% / 96% / 75% of the dynamic stream executes in SBM for
//! SPECINT2006 / SPECFP2006 / Physicsbench.

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, paper, print_table, run_suite, suite_avg, Scale};
use darco_workloads::Suite;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let rows = run_suite(args.scale, args.jobs, |_| default_config());
    println!("== Fig. 4: dynamic guest instruction distribution ==");
    println!("{:<16} {:<13} {:>7} {:>7} {:>7}", "benchmark", "suite", "IM%", "BBM%", "SBM%");
    for (b, r) in &rows {
        let (im, bbm, sbm) = r.mode_insns;
        let t = (im + bbm + sbm) as f64;
        println!(
            "{:<16} {:<13} {:>6.1}% {:>6.1}% {:>6.1}%",
            b.name,
            b.suite.name(),
            im as f64 / t * 100.0,
            bbm as f64 / t * 100.0,
            sbm as f64 / t * 100.0
        );
    }
    println!("{:-<56}", "");
    for (i, s) in [Suite::SpecInt, Suite::SpecFp, Suite::Physics].into_iter().enumerate() {
        let sbm = suite_avg(&rows, s, |r| r.sbm_fraction());
        println!(
            "avg {:<13} SBM {:>5.1}%   (paper: {:>5.1}%)",
            s.name(),
            sbm * 100.0,
            paper::FIG4_SBM[i] * 100.0
        );
    }
    // Keep the generic table printer exercised for the percent path.
    print_table(
        "Fig. 4 (SBM fraction)",
        &rows,
        "SBM share",
        |r| r.sbm_fraction(),
        paper::FIG4_SBM,
        true,
    );
}
