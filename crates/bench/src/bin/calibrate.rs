//! Calibration probe: one benchmark per suite, key shape metrics.
//! (Development tool; the per-figure binaries are the real harnesses.)

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_one, Scale};
use darco_workloads::benchmarks;

fn main() {
    let scale = Args::from_env(Scale(1, 1), measure::SCALE).scale;
    for idx in [0usize, 4, 11, 15, 24, 25, 30] {
        let b = &benchmarks()[idx];
        let (dt, r) = measure::time(|| run_one(b, scale, default_config()));
        let (im, bbm, sbm) = r.mode_insns;
        let total = (im + bbm + sbm) as f64;
        println!(
            "{:<16} {:<13} dyn={:>9} static≈{:>5} | IM {:4.1}% BBM {:4.1}% SBM {:4.1}% | cost {:4.2} | ovh {:4.1}% | {:.2}s ({:.1} MIPS)",
            b.name,
            b.suite.name(),
            r.guest_insns,
            "-",
            im as f64 / total * 100.0,
            bbm as f64 / total * 100.0,
            sbm as f64 / total * 100.0,
            r.sbm_emulation_cost,
            r.overhead_fraction() * 100.0,
            dt,
            r.guest_insns as f64 / dt / 1e6,
        );
        let o = &r.overhead;
        println!(
            "    ovh breakdown: interp {} bb {} sb {} pro {} chain {} lookup {} other {}",
            o.interpreter, o.bb_translator, o.sb_translator, o.prologue, o.chaining, o.cache_lookup, o.others
        );
    }
}
