//! **E5 / Fig. 7** — Dynamic TOL overhead distribution across the paper's
//! seven categories: interpreter, BB translator, SB translator, prologue,
//! chaining, code-cache lookup, others.
//!
//! Paper shape: Physicsbench is dominated by interpretation + BB
//! translation (low dynamic-to-static ratio); the SB translator's share
//! is comparatively small everywhere.

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_suite, Scale};
use darco_workloads::Suite;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let rows = run_suite(args.scale, args.jobs, |_| default_config());
    println!("== Fig. 7: TOL overhead breakdown (% of TOL overhead) ==");
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "interp", "bbxl", "sbxl", "prolog", "chain", "lookup", "others"
    );
    let print_row = |name: &str, o: &darco_tol::Overhead| {
        let t = o.total().max(1) as f64;
        println!(
            "{:<16} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            name,
            o.interpreter as f64 / t * 100.0,
            o.bb_translator as f64 / t * 100.0,
            o.sb_translator as f64 / t * 100.0,
            o.prologue as f64 / t * 100.0,
            o.chaining as f64 / t * 100.0,
            o.cache_lookup as f64 / t * 100.0,
            o.others as f64 / t * 100.0,
        );
    };
    for (b, r) in &rows {
        print_row(b.name, &r.overhead);
    }
    println!("{:-<76}", "");
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::Physics] {
        let mut sum = darco_tol::Overhead::default();
        for (_, r) in rows.iter().filter(|(b, _)| b.suite == s) {
            sum.interpreter += r.overhead.interpreter;
            sum.bb_translator += r.overhead.bb_translator;
            sum.sb_translator += r.overhead.sb_translator;
            sum.prologue += r.overhead.prologue;
            sum.chaining += r.overhead.chaining;
            sum.cache_lookup += r.overhead.cache_lookup;
            sum.others += r.overhead.others;
        }
        print_row(&format!("avg {}", s.name()), &sum);
    }
    println!(
        "\npaper shape check: interpreter+BB-translator dominate Physicsbench;\n\
         the SB translator's share is comparatively small in SPEC suites."
    );
}
