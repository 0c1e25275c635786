//! **A3** — Control/memory speculation in superblocks (§V-B3): asserts
//! with rollback vs multi-exit-only superblocks, plus the unrolling knob.

use darco::SinkChoice;
use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_jobs, with_timing, Scale};
use darco_workloads::benchmarks;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let scale = args.scale;
    let all = benchmarks();
    // Three jobs per benchmark — speculation, no-speculation, no-unroll —
    // on the fleet pool.
    let mut work = Vec::new();
    for idx in [0usize, 4, 13, 24, 25] {
        let b = &all[idx];
        work.push((b.clone(), with_timing(default_config(), SinkChoice::InOrder)));
        let mut cfg = with_timing(default_config(), SinkChoice::InOrder);
        cfg.tol.speculation = false;
        work.push((b.clone(), cfg));
        let mut cfg = with_timing(default_config(), SinkChoice::InOrder);
        cfg.tol.unroll = false;
        work.push((b.clone(), cfg));
    }
    let rows = run_jobs(scale, args.jobs, work);
    println!("== A3: superblock speculation (asserts) vs multi-exit; unrolling ==");
    println!(
        "{:<16} {:>11} {:>11} {:>11} {:>9}",
        "benchmark", "spec CPI", "nospec CPI", "nounroll", "rollbacks"
    );
    // Guest CPI (host cycles per guest instruction) exposes the scheduling
    // freedom asserts buy: multi-exit superblocks must keep stores on
    // their side of every exit and cannot reorder may-alias pairs.
    let cpi = |r: &darco::RunReport| r.timing.as_ref().unwrap().cycles as f64 / r.guest_insns as f64;
    for group in rows.chunks(3) {
        let [(b, spec), (_, nospec), (_, nounroll)] = group else {
            unreachable!("three jobs per benchmark")
        };
        println!(
            "{:<16} {:>11.3} {:>11.3} {:>11.3} {:>9}",
            b.name,
            cpi(spec),
            cpi(nospec),
            cpi(nounroll),
            spec.rollbacks
        );
    }
    println!("(multi-exit superblocks forgo reordering freedom; unrolling amortizes shell work)");
}
