//! **A4 / §III** — "Wide in-order or narrow out-of-order cores": IPC and
//! energy comparison of the two styles on identical co-designed
//! instruction streams.

use darco::SinkChoice;
use darco_bench::measure::{self, Args};
use darco_bench::{default_config, run_jobs, with_timing, Scale};
use darco_workloads::benchmarks;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE_JOBS);
    let scale = args.scale;
    let all = benchmarks();
    // Two jobs per benchmark — wide in-order, narrow out-of-order — on
    // the fleet pool.
    let mut work = Vec::new();
    for idx in [0usize, 4, 13, 24] {
        let b = &all[idx];
        let mut cfg = with_timing(default_config(), SinkChoice::InOrder);
        cfg.timing = darco_timing::TimingConfig::wide_inorder();
        cfg.power = true;
        work.push((b.clone(), cfg));
        let mut cfg = with_timing(default_config(), SinkChoice::OutOfOrder);
        cfg.timing = darco_timing::TimingConfig::narrow_ooo();
        cfg.power = true;
        work.push((b.clone(), cfg));
    }
    let rows = run_jobs(scale, args.jobs, work);
    println!("== A4: wide in-order vs narrow out-of-order ==");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12}",
        "benchmark", "inord IPC", "ooo IPC", "inord mW", "ooo mW"
    );
    for pair in rows.chunks(2) {
        let [(b, ino), (_, ooo)] = pair else { unreachable!("two jobs per benchmark") };
        let (it, ot) = (ino.timing.as_ref().unwrap(), ooo.timing.as_ref().unwrap());
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>12.1} {:>12.1}",
            b.name,
            it.ipc(),
            ot.ipc(),
            ino.power.as_ref().unwrap().avg_power_mw,
            ooo.power.as_ref().unwrap().avg_power_mw,
        );
    }
    println!("(the co-designed bet: static scheduling lets the wide in-order core compete)");
}
