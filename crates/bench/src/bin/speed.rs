//! **E1 / §VI-A** — DARCO speed: guest/host instruction rates with and
//! without the timing simulator.
//!
//! Paper (on their cluster): 3.4 guest MIPS emulated, 0.37 guest MIPS with
//! timing; 20 host MIPS emulated, 2 host MIPS with timing. Absolute rates
//! depend on the machine; the experiment checks the relative slowdown of
//! attaching the timing model. Wall times are the per-workload minimum
//! of the shared protocol ([`darco_bench::measure`]); the per-mode
//! (interp/bb/sb) rates live in `jit_speed`'s `BENCH_jit.json`.

use darco::SinkChoice;
use darco_bench::measure::{self, Args, SET};
use darco_bench::{default_config, paper, run_one, with_timing, Scale};
use darco_workloads::benchmarks;

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE);
    let best = measure::interleaved_min(2, SET.len(), |v, w| {
        let cfg = match v {
            0 => default_config(),
            _ => with_timing(default_config(), SinkChoice::InOrder),
        };
        let (wall, r) = measure::time(|| run_one(&benchmarks()[SET[w]], args.scale, cfg));
        (wall, (r.guest_insns, r.host_app_insns + r.overhead.total()))
    });
    let mips = |v: usize, w: usize, host: bool| {
        let b = &best[v][w];
        let insns = if host { b.data.1 } else { b.data.0 };
        insns as f64 / b.wall_s / 1e6
    };
    println!(
        "== §VI-A: DARCO speed (scale {}, per-workload min of {}) ==",
        args.scale,
        measure::REPS
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "guest MIPS", "guest+tim", "host MIPS", "host+tim"
    );
    let mut sums = [0.0f64; 4];
    for (w, &idx) in SET.iter().enumerate() {
        let row = [mips(0, w, false), mips(1, w, false), mips(0, w, true), mips(1, w, true)];
        for (s, r) in sums.iter_mut().zip(row) {
            *s += r / SET.len() as f64;
        }
        let [a, b, c, d] = row;
        println!("{:<16} {a:>12.2} {b:>12.2} {c:>12.2} {d:>12.2}", benchmarks()[idx].name);
    }
    let [ga, gt, ha, ht] = sums;
    println!("{:-<68}", "");
    println!(
        "average          {ga:>12.2} {gt:>12.2} {ha:>12.2} {ht:>12.2}   (paper: {:.2} / {:.2} / {:.0} / {:.0})",
        paper::SPEED.0, paper::SPEED.1, paper::SPEED.2, paper::SPEED.3
    );
    println!(
        "timing-attach slowdown: guest {:.1}x (paper {:.1}x), host {:.1}x (paper {:.1}x)",
        ga / gt,
        paper::SPEED.0 / paper::SPEED.1,
        ha / ht,
        paper::SPEED.2 / paper::SPEED.3
    );
}
