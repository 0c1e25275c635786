//! **A5** — Optimization level sweep (plug-and-play optimizer, §V-D):
//! O0 (straight translation), O1 (fold+DCE), O2 (+copy-prop/CSE),
//! O3 (+memory disambiguation, scheduling).

use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_jobs, Scale};
use darco_ir::OptLevel;
use darco_workloads::benchmarks;

const LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let scale = args.scale;
    let all = benchmarks();
    // Four jobs per benchmark (one per level) on the fleet pool.
    let mut work = Vec::new();
    for idx in [13usize, 17, 24, 0] {
        for lvl in LEVELS {
            let mut cfg = default_config();
            cfg.tol.opt_level = lvl;
            work.push((all[idx].clone(), cfg));
        }
    }
    let rows = run_jobs(scale, args.jobs, work);
    println!("== A5: SBM emulation cost by optimization level ==");
    println!("{:<16} {:>8} {:>8} {:>8} {:>8}", "benchmark", "O0", "O1", "O2", "O3");
    for group in rows.chunks(LEVELS.len()) {
        let cells: Vec<f64> = group.iter().map(|(_, r)| r.sbm_emulation_cost).collect();
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            group[0].0.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!("(lower is better; the drop from O0 to O3 is the optimizer's emulation-cost win)");
}
