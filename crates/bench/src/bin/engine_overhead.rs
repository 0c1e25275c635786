//! **BENCH_engine** — pins the cost of the re-entrant stepping engine.
//!
//! Two measurements, written to `BENCH_engine.json`:
//!
//! - `quanta`: wall-clock cost of driving the system through
//!   `Engine::step(quantum)` at 1k / 10k / 100k guest-instruction
//!   quanta versus the monolithic run (one unbounded `step` call — what
//!   `System::run` does). Budget: ≤ 2% overhead at the 100k quantum,
//!   the fleet scheduler's default time slice.
//! - `warmup_restore`: time to reach a mid-run execution point by
//!   checkpoint restore versus functional re-execution from zero — the
//!   speedup the sampling methodology's warm-start bank banks on.
//!
//! Both use the shared protocol ([`darco_bench::measure`]): the four
//! stepping variants (monolithic and three quanta) are interleaved per
//! workload, as are re-execution and restore, and each variant keeps its
//! per-workload minimum.
//! `bench_gate` checks the artifact.

use darco::{Snapshot, StepExit, SystemConfig, System};
use darco_bench::measure::{self, Args, SET};
use darco_bench::Scale;
use darco_guest::GuestProgram;
use darco_workloads::benchmarks;

/// Stepping quanta under test, after the monolithic run (`u64::MAX`).
/// 100k is `SchedOpts::default().quantum`.
const QUANTA: [u64; 4] = [u64::MAX, 1_000, 10_000, 100_000];

/// Drives one engine to completion in `quantum`-sized steps, returning
/// retired guest instructions.
fn drive(program: GuestProgram, quantum: u64) -> u64 {
    let mut e = System::new(SystemConfig::default(), program).start();
    loop {
        match e.step(quantum) {
            Ok(StepExit::Ended | StepExit::GuestFault) => return e.insns(),
            Ok(_) => {}
            Err(err) => panic!("engine run failed: {err}"),
        }
    }
}

fn build(idx: usize, scale: Scale) -> GuestProgram {
    darco_workloads::build(&benchmarks()[idx].profile.clone().scaled(scale.0, scale.1))
}

/// Measures restore-vs-re-execution for the warm-start bank: reach the
/// 60% point of the first subset benchmark both ways. Returns
/// `(checkpoint_insns, reexec_s, restore_s)`.
fn warmup_restore(scale: Scale) -> (u64, f64, f64) {
    let total = drive(build(SET[0], scale), u64::MAX);
    let mut e = System::new(SystemConfig::default(), build(SET[0], scale)).start();
    // Cache-mode fuel stops land at translation granularity, so the
    // boundary may overshoot the requested point; the actual checkpoint
    // count is whatever the boundary landed on.
    while e.insns() < total * 6 / 10 {
        e.step(total * 6 / 10 - e.insns()).expect("warm-up prefix run");
    }
    let snap = Snapshot::from_bytes(e.checkpoint().expect("checkpoint").into_bytes())
        .expect("round trip");
    let at = snap.guest_insns();
    let best = measure::interleaved_min(2, 1, |v, _| {
        measure::time(|| {
            let mut f = System::new(SystemConfig::default(), build(SET[0], scale)).start();
            if v == 0 {
                while f.insns() < at {
                    f.step(at - f.insns()).expect("re-execution");
                }
            } else {
                f.restore(&snap).expect("restore");
                assert_eq!(f.insns(), at);
            }
        })
    });
    (at, best[0][0].wall_s, best[1][0].wall_s)
}

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE);
    let best = measure::interleaved_min(QUANTA.len(), SET.len(), |v, w| {
        let program = build(SET[w], args.scale);
        measure::time(|| drive(program, QUANTA[v]))
    });
    let insns: u64 = best[0].iter().map(|b| b.data).sum();
    let mono_wall = measure::total(&best[0]);
    println!(
        "== Engine stepping overhead ({} workloads, per-workload min of {}) ==",
        SET.len(),
        measure::REPS
    );
    println!("{:<12} {:>14} {:>10} {:>10} {:>10}", "quantum", "guest insns", "wall s", "MIPS", "overhead");
    println!(
        "{:<12} {:>14} {:>10.3} {:>10.2} {:>10}",
        "monolithic", insns, mono_wall, insns as f64 / mono_wall / 1e6, "-"
    );
    let mut w = measure::header("engine", args.scale, measure::REPS);
    w.begin_obj(Some("monolithic"))
        .field_num("guest_insns", insns)
        .field_f64("wall_s", mono_wall)
        .field_f64("mips", insns as f64 / mono_wall / 1e6)
        .end_obj();
    w.begin_obj(Some("quanta"));
    for (q, row) in QUANTA.iter().zip(&best).skip(1) {
        // Its own retired count: a stepping defect shows in its MIPS.
        let qinsns: u64 = row.iter().map(|b| b.data).sum();
        let wall = measure::total(row);
        let overhead = wall / mono_wall - 1.0;
        println!(
            "{:<12} {:>14} {:>10.3} {:>10.2} {:>+9.2}%",
            q,
            qinsns,
            wall,
            qinsns as f64 / wall / 1e6,
            overhead * 100.0
        );
        w.begin_obj(Some(&q.to_string()))
            .field_f64("wall_s", wall)
            .field_f64("mips", qinsns as f64 / wall / 1e6)
            .field_f64("overhead", overhead)
            .end_obj();
    }
    w.end_obj();

    let (at, reexec, restore) = warmup_restore(args.scale);
    let speedup = reexec / restore;
    println!(
        "warm-up to {at} insns: re-execution {:.4}s, restore {:.4}s ({speedup:.1}x)",
        reexec, restore
    );
    w.begin_obj(Some("warmup_restore"))
        .field_num("checkpoint_insns", at)
        .field_f64("reexec_s", reexec)
        .field_f64("restore_s", restore)
        .field_f64("speedup", speedup)
        .end_obj();
    w.end_obj();
    args.write("BENCH_engine.json", &w.finish());
}
