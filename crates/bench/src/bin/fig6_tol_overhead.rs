//! **E4 / Fig. 6** — TOL overhead share of the host dynamic instruction
//! stream.
//!
//! Paper: 16% / 13% / 41% for SPECINT2006 / SPECFP2006 / Physicsbench —
//! the low dynamic-to-static instruction ratio keeps Physicsbench from
//! amortizing translation work.

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, paper, print_table, run_suite, Scale};

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let rows = run_suite(args.scale, args.jobs, |_| default_config());
    print_table(
        "Fig. 6: TOL overhead share of host dynamic stream",
        &rows,
        "overhead",
        |r| r.overhead_fraction(),
        paper::FIG6_OVERHEAD,
        true,
    );
}
