//! `darco-run` — the command-line face of the controller: run a suite
//! benchmark or a built-in kernel through the full infrastructure and
//! report what happened.
//!
//! ```text
//! darco-run --list
//! darco-run 401.bzip2 --scale 1/8 --timing --power
//! darco-run kernel:nbody --validate-every 10000 --json
//! darco-run continuous --ooo --strict-flags --no-chain
//! darco-run 401.bzip2 --scale 1/64 --trace=trace.json --metrics=metrics.json
//! ```

use darco::{SinkChoice, Snapshot, StepExit, System, SystemConfig};
use darco_workloads::{benchmarks, kernels};
use std::process::ExitCode;

/// Exit code for a clean guest-instruction-budget stop (partial report
/// was printed) — distinct from protocol/validation failures.
const EXIT_BUDGET: u8 = 3;

fn usage() -> ! {
    eprintln!(
        "usage: darco-run <benchmark|kernel:NAME|fuzz:PATH> [options]\n\
         \n\
         benchmarks: any name from --list (e.g. 403.gcc, breakable)\n\
         kernels:    kernel:dot, kernel:matmul, kernel:search, kernel:nbody,\n             kernel:quicksort, kernel:crc32\n\
         fuzz:PATH   replay a darco-fuzz reproducer or corpus entry\n\
         \n\
         options:\n\
           --list                 list suite benchmarks and exit\n\
           --scale N/D            scale iteration counts (default 1/1)\n\
           --timing               attach the in-order timing simulator\n\
           --timing-mode M        fast|full (default full): `fast` replays\n\
         \u{20}                        memoized per-block schedules and\n\
         \u{20}                        escapes into the detailed\n\
         \u{20}                        model on misses/mispredicts — cycle\n\
         \u{20}                        counts stay bit-identical to full\n\
           --ooo                  attach the out-of-order core instead\n\
         \u{20}                        (no fast path; always detailed)\n\
           --power                add the power report (implies --timing)\n\
           --validate-every N     periodic state validation interval\n\
           --strict-flags         materialize all guest flags (ablation)\n\
           --no-chain             disable chaining and the IBTC\n\
           --no-spec              disable speculation (multi-exit SBs)\n\
           --opt LEVEL            O0|O1|O2|O3 (default O3)\n\
           --backend B            native|emu (default emu): run host code\n\
         \u{20}                        through the x86-64 JIT or the reference\n\
         \u{20}                        emulator; native falls back to emu when\n\
         \u{20}                        timing/tracing needs retire events or\n\
         \u{20}                        the host has no JIT\n\
           --max-insns N          guest instruction budget (a run that\n\
         \u{20}                        exceeds it stops cleanly, prints the\n\
         \u{20}                        partial report and exits with code 3)\n\
           --checkpoint-at N      serialize a checkpoint once N guest\n\
         \u{20}                        instructions have retired, then go on\n\
           --checkpoint-to FILE   checkpoint destination (darco.snap)\n\
           --restore FILE         resume from a checkpoint file (same\n\
         \u{20}                        workload and options required)\n\
           --json                 print the full report as JSON\n\
           --trace[=]FILE         record trace events; write a Chrome\n\
         \u{20}                        trace-event JSON array to FILE\n\
           --trace-cap N          trace ring capacity (default 65536)\n\
           --metrics[=FILE]       print the metrics registry as JSON\n\
         \u{20}                        (or write it to FILE)\n\
           --flight[=]FILE        write a flight-recorder dump to FILE\n\
         \u{20}                        if the run diverges or panics\n\
           --profile[=]FILE       sample guest PC/mode/region at quantum\n\
         \u{20}                        boundaries; write collapsed-stack\n\
         \u{20}                        (flamegraph) lines to FILE and put the\n\
         \u{20}                        translation-cache heatmap in --json\n\
           --profile-every N      sampling quantum in guest instructions\n\
         \u{20}                        (default 10000)\n\
         \n\
         exit codes:\n\
           0  run completed (or guest faulted identically on both\n\
         \u{20}    components — a program error, not a simulator error)\n\
           1  simulator error: validation divergence, protocol error,\n\
         \u{20}    unreadable/mismatched checkpoint, unwritable output\n\
           2  usage error\n\
           3  guest instruction budget (--max-insns) exceeded; the\n\
         \u{20}    partial report was still produced"
    );
    std::process::exit(2);
}

/// Accepts both `--flag=VALUE` and `--flag VALUE` spellings.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    let a = &args[*i];
    if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
        return v.to_string();
    }
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for b in benchmarks() {
            println!("{:<16} {}", b.name, b.suite.name());
        }
        return ExitCode::SUCCESS;
    }
    let Some(target) = args.first().filter(|a| !a.starts_with("--")) else { usage() };

    let mut cfg = SystemConfig::default();
    let mut scale = (1u32, 1u32);
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut trace_cap: usize = 1 << 16;
    // None: off; Some(None): stdout; Some(Some(path)): file.
    let mut metrics_out: Option<Option<String>> = None;
    let mut checkpoint_at: Option<u64> = None;
    let mut checkpoint_to = "darco.snap".to_string();
    let mut restore_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut profile_every: u64 = darco::DEFAULT_SAMPLE_EVERY;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage());
                let mut it = v.split('/');
                scale = (
                    it.next().and_then(|x| x.parse().ok()).unwrap_or(1),
                    it.next().and_then(|x| x.parse().ok()).unwrap_or(1),
                );
            }
            "--timing" => {
                if cfg.sink == SinkChoice::None {
                    cfg.sink = SinkChoice::InOrder;
                }
            }
            a if a == "--timing-mode" || a.starts_with("--timing-mode=") => {
                let v = flag_value(&args, &mut i, "--timing-mode");
                if cfg.sink == SinkChoice::None {
                    cfg.sink = SinkChoice::InOrder;
                }
                cfg.timing_mode = match v.as_str() {
                    "full" => darco::TimingMode::Full,
                    "fast" => darco::TimingMode::Fast,
                    _ => usage(),
                };
            }
            "--ooo" => cfg.sink = SinkChoice::OutOfOrder,
            "--power" => {
                if cfg.sink == SinkChoice::None {
                    cfg.sink = SinkChoice::InOrder;
                }
                cfg.power = true;
            }
            "--validate-every" => {
                i += 1;
                cfg.validate_every =
                    Some(args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--strict-flags" => cfg.tol.strict_flags = true,
            "--no-chain" => {
                cfg.tol.chaining = false;
                cfg.tol.ibtc = false;
            }
            "--no-spec" => cfg.tol.speculation = false,
            "--opt" => {
                i += 1;
                cfg.tol.opt_level = match args.get(i).map(String::as_str) {
                    Some("O0") => darco_ir::OptLevel::O0,
                    Some("O1") => darco_ir::OptLevel::O1,
                    Some("O2") => darco_ir::OptLevel::O2,
                    Some("O3") => darco_ir::OptLevel::O3,
                    _ => usage(),
                };
            }
            "--max-insns" => {
                i += 1;
                cfg.max_guest_insns =
                    args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--checkpoint-at" => {
                i += 1;
                checkpoint_at =
                    Some(args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--checkpoint-to" => {
                i += 1;
                checkpoint_to = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--restore" => {
                i += 1;
                restore_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => json = true,
            "--trace-cap" => {
                i += 1;
                trace_cap = args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            a if a == "--trace" || a.starts_with("--trace=") => {
                trace_path = Some(flag_value(&args, &mut i, "--trace"));
            }
            "--metrics" => metrics_out = Some(None),
            a if a.starts_with("--metrics=") => {
                metrics_out = Some(Some(flag_value(&args, &mut i, "--metrics")));
            }
            a if a == "--flight" || a.starts_with("--flight=") => {
                cfg.flight_path = Some(flag_value(&args, &mut i, "--flight"));
            }
            a if a == "--profile" || a.starts_with("--profile=") => {
                profile_path = Some(flag_value(&args, &mut i, "--profile"));
            }
            "--profile-every" => {
                i += 1;
                profile_every =
                    args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            a if a == "--backend" || a.starts_with("--backend=") => {
                let v = flag_value(&args, &mut i, "--backend");
                cfg.backend =
                    darco_host::codegen::Backend::parse(&v).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if trace_path.is_some() || cfg.flight_path.is_some() {
        cfg.trace_capacity = Some(trace_cap);
    }

    let program = if let Some(k) = target.strip_prefix("kernel:") {
        match k {
            "dot" => kernels::dot_product(20_000),
            "matmul" => kernels::matmul(24),
            "search" => kernels::string_search(200_000, 123_456),
            "nbody" => kernels::nbody_step(64, 500),
            "quicksort" => kernels::quicksort(4_000),
            "crc32" => kernels::crc32(50_000),
            _ => usage(),
        }
    } else if let Some(path) = target.strip_prefix("fuzz:") {
        // A darco-fuzz reproducer/corpus entry: replay it through the
        // full single-run harness (tracing, flight recorder, profiler).
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading fuzz reproducer `{path}`: {e}");
            std::process::exit(2);
        });
        let fp = darco_workloads::fuzzprog::FuzzProgram::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing fuzz reproducer `{path}`: {e}");
            std::process::exit(2);
        });
        fp.lower()
    } else {
        match benchmarks().into_iter().find(|b| b.name == target) {
            Some(b) => darco_workloads::build(&b.profile.scaled(scale.0, scale.1)),
            None => usage(),
        }
    };

    let t0 = std::time::Instant::now();
    let flight_path = cfg.flight_path.clone();
    let mut engine = System::new(cfg, program).start();
    if profile_path.is_some() {
        engine.enable_profiler(profile_every);
    }
    if let Some(path) = &restore_path {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("could not read checkpoint {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snap = match Snapshot::from_bytes(bytes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("could not parse checkpoint {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = engine.restore(&snap) {
            eprintln!("could not restore checkpoint {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("restored checkpoint at {} guest instructions", engine.insns());
    }
    let mut budget_exceeded = false;
    loop {
        // Stop exactly (well, at the next boundary) at the checkpoint
        // point; otherwise run with an unbounded quantum — unless the
        // profiler needs boundaries at its sampling quantum.
        let budget = match checkpoint_at {
            Some(n) if engine.insns() < n => n - engine.insns(),
            _ => u64::MAX,
        };
        let budget = if profile_path.is_some() { budget.min(profile_every) } else { budget };
        match engine.step(budget) {
            Ok(StepExit::Ended | StepExit::GuestFault) => break,
            Ok(_) => {
                if let Some(n) = checkpoint_at {
                    if engine.insns() >= n {
                        checkpoint_at = None;
                        let snap = match engine.checkpoint() {
                            Ok(s) => s,
                            Err(e) => {
                                eprintln!("checkpoint failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        if let Err(e) = std::fs::write(&checkpoint_to, snap.as_bytes()) {
                            eprintln!("could not write checkpoint to {checkpoint_to}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "checkpoint written to {checkpoint_to} at {} guest instructions",
                            snap.guest_insns()
                        );
                    }
                }
            }
            Err(darco::DarcoError::BudgetExceeded) => {
                eprintln!(
                    "guest instruction budget exceeded after {} instructions; \
                     reporting partial results",
                    engine.insns()
                );
                budget_exceeded = true;
                break;
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                if let Some(p) = &flight_path {
                    eprintln!("flight-recorder dump written to {p}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    let profiler = engine.take_profiler();
    let report = engine.into_report();
    let dt = t0.elapsed().as_secs_f64();

    if let (Some(path), Some(p)) = (&profile_path, &profiler) {
        if let Err(e) = std::fs::write(path, p.to_folded(&report.name)) {
            eprintln!("could not write profile to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &trace_path {
        let doc = darco_obs::chrome::to_chrome_trace(&report.name, &report.trace);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("could not write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match &metrics_out {
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, report.metrics.to_json()) {
                eprintln!("could not write metrics to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        Some(None) => println!("{}", report.metrics.to_json()),
        None => {}
    }

    let exit = if budget_exceeded { ExitCode::from(EXIT_BUDGET) } else { ExitCode::SUCCESS };
    if json {
        match &profiler {
            Some(p) => {
                let heat = p.to_json();
                println!("{}", darco::json::report_to_json_with(&report, &[("profile", &heat)]));
            }
            None => println!("{}", darco::json::report_to_json(&report)),
        }
        return exit;
    }
    let (im, bbm, sbm) = report.mode_insns;
    let total = (im + bbm + sbm).max(1) as f64;
    println!("{}", report.name);
    println!("  guest instructions   {:>12}  ({:.2} MIPS wall-clock)", report.guest_insns, report.guest_insns as f64 / dt / 1e6);
    println!("  mode split           IM {:.1}% / BBM {:.1}% / SBM {:.1}%", im as f64 / total * 100.0, bbm as f64 / total * 100.0, sbm as f64 / total * 100.0);
    println!("  SBM emulation cost   {:>12.2}  host insns / guest insn", report.sbm_emulation_cost);
    println!("  TOL overhead         {:>11.1}%  of the host dynamic stream", report.overhead_fraction() * 100.0);
    println!("  translations         {:>12}  ({} BB, {} SB, {} recreations)",
        report.tol_stats.translations_bb + report.tol_stats.translations_sb,
        report.tol_stats.translations_bb, report.tol_stats.translations_sb, report.tol_stats.recreations);
    println!("  speculation          {:>12}  rollbacks", report.rollbacks);
    println!("  protocol             {:>12}  pages served, {} syscalls, {} validations",
        report.pages_served, report.syscalls, report.validations);
    if let Some(p) = &profiler {
        let (pim, pbbm, psbm) = p.mode_counts();
        println!("  profile              {:>12}  samples (IM {pim} / BBM {pbbm} / SBM {psbm})",
            p.samples());
    }
    if let Some(t) = &report.timing {
        println!("  timing               {:>12}  cycles, IPC {:.2}, CPI(guest) {:.2}",
            t.cycles, t.ipc(), t.cycles as f64 / report.guest_insns as f64);
        println!("  caches               L1D miss {:.2}%, L2 miss {:.2}%, bpred miss {:.2}%",
            t.dl1_misses as f64 / t.dl1_accesses.max(1) as f64 * 100.0,
            t.l2_misses as f64 / t.l2_accesses.max(1) as f64 * 100.0,
            t.mispredicts as f64 / t.branches.max(1) as f64 * 100.0);
    }
    if let Some(fs) = &report.fast {
        let blocks = (fs.memo_blocks + fs.escapes + fs.plain_blocks).max(1);
        println!("  fast path            {:>12}  memo blocks ({:.1}% of {} blocks), {} escapes",
            fs.memo_blocks, fs.memo_blocks as f64 / blocks as f64 * 100.0, blocks, fs.escapes);
    }
    if let Some(p) = &report.power {
        println!("  power                {:>9.1} mW  avg, {:.1} pJ/insn", p.avg_power_mw, p.total_pj / report.guest_insns as f64);
    }
    if let Some(f) = &report.guest_fault {
        println!("  guest fault          {f}");
    }
    exit
}
