//! **E3 / Fig. 5** — Host instructions per guest instruction in SBM.
//!
//! Paper: 4.0 / 2.6 / 3.1 for SPECINT2006 / SPECFP2006 / Physicsbench
//! (branches dominate SPECINT's cost; software-emulated trigonometry
//! raises Physicsbench's).

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, paper, print_table, run_suite, Scale};

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let rows = run_suite(args.scale, args.jobs, |_| default_config());
    print_table(
        "Fig. 5: host instructions per guest instruction (SBM)",
        &rows,
        "host/guest",
        |r| r.sbm_emulation_cost,
        paper::FIG5_COST,
        false,
    );
    println!(
        "note: absolute costs are lower than the paper's (this translator\n\
         folds addressing and fuses compare+branch aggressively); the\n\
         suite ordering and its drivers are what the experiment checks."
    );
}
