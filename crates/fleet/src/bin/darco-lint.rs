//! `darco-lint` — run the static IR/DDG/host-code verifier over guest
//! workloads and report every finding with its provenance.
//!
//! The machine executes normally with aggressive promotion thresholds (so
//! as much code as possible reaches the BBM and SBM pipelines) and the
//! verifier in `Report` mode: a finding does not abort the run, it is
//! collected with its pipeline stage and guest PC and printed at the end.
//!
//! ```text
//! darco-lint all --scale 1/512
//! darco-lint 403.gcc kernel:crc32 --opt O2
//! darco-lint all --scale 1/512 --trace=lint-trace.json --jobs 4
//! ```
//!
//! Workloads lint independently, so the suite runs on the `darco-fleet`
//! worker pool (`--jobs N`, default: available parallelism).
//! Output order and content are identical for any worker count: each
//! workload's report is rendered into a buffer and printed in target
//! order after the pool drains.
//!
//! With `--trace`, every workload's run is recorded through the trace
//! layer and one Chrome trace-event JSON array is written with a process
//! per workload — the machine-readable companion to the text findings
//! (each verifier finding is a `verifier_finding` event with stage, kind
//! and guest PC).
//!
//! Exits 1 if any workload produced findings, 0 on a clean suite.

use darco::machine::Machine;
use darco_fleet::Pool;
use darco_host::codegen::Backend;
use darco_host::sink::NullSink;
use darco_obs::{chrome, TraceEvent, Tracer};
use darco_tol::{TolConfig, VerifyLevel, VerifyMode};
use darco_workloads::{benchmarks, kernels};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: darco-lint <benchmark|kernel:NAME|all> [more targets...] [options]\n\
         \n\
         targets:  any benchmark from --list, kernel:dot, kernel:matmul,\n\
         \u{20}         kernel:search, kernel:nbody, kernel:quicksort,\n\
         \u{20}         kernel:crc32, or `all` (every benchmark + kernel)\n\
         \n\
         options:\n\
           --list           list suite benchmarks and exit\n\
           --opt LEVEL      O0|O1|O2|O3 (default O3)\n\
           --scale N/D      scale benchmark iteration counts (default 1/1)\n\
           --max-insns N    per-workload retired-instruction cap (default 20000000)\n\
           --no-spec        disable speculation (multi-exit superblocks)\n\
           --semantic       symbolic per-pass translation validation on top\n\
         \u{20}                of the structural checks (and, with the native\n\
         \u{20}                backend, machine-code verification)\n\
           --backend B      emu|native (default emu; native requires\n\
         \u{20}                x86-64 Linux)\n\
           --jobs N         lint workloads on N pool workers (default:\n\
         \u{20}                available parallelism)\n\
           --trace[=]FILE   write all workloads' trace events (including\n\
         \u{20}                verifier findings) as Chrome trace-event JSON"
    );
    std::process::exit(2);
}

/// Ring capacity per linted workload (large enough that findings are
/// never overwritten at lint scales).
const LINT_TRACE_CAP: usize = 1 << 16;

struct LintOutcome {
    regions: u64,
    findings: u64,
    verify_us: f64,
    failed: bool,
}

/// Lints one workload, rendering its report into `out` instead of
/// printing — the pool runs these concurrently and the caller prints the
/// buffers in target order.
fn lint_one(
    name: &str,
    program: darco_guest::GuestProgram,
    cfg: &TolConfig,
    backend: Backend,
    cap: u64,
    trace: bool,
) -> (LintOutcome, Vec<TraceEvent>, String) {
    let mut m = Machine::new(cfg.clone(), &program);
    m.tol.set_backend(backend);
    if trace {
        m.tol.obs.trace = Tracer::ring(LINT_TRACE_CAP);
    }
    let run = m.run_to(cap, true, &mut NullSink);
    let stats = m.tol.stats;
    let findings = stats.verify_findings;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name:<18} {:>6} regions verified, {:>3} findings, {:>8.1} us in verifier",
        stats.verify_regions,
        findings,
        stats.verify_nanos as f64 / 1e3,
    );
    for line in &m.tol.verify_log {
        let _ = writeln!(out, "  {line}");
    }
    let mut failed = findings > 0;
    if let Err(e) = run {
        let _ = writeln!(out, "  [machine] {e}");
        failed = true;
    }
    let outcome = LintOutcome {
        regions: stats.verify_regions,
        findings,
        verify_us: stats.verify_nanos as f64 / 1e3,
        failed,
    };
    (outcome, m.tol.obs.trace.drain(), out)
}

fn build_target(target: &str, scale: (u32, u32)) -> Option<darco_guest::GuestProgram> {
    if let Some(k) = target.strip_prefix("kernel:") {
        // Lint-sized kernels: enough iterations to trip SBM promotion
        // at the aggressive thresholds, small enough to stay quick.
        return Some(match k {
            "dot" => kernels::dot_product(2_000),
            "matmul" => kernels::matmul(12),
            "search" => kernels::string_search(20_000, 12_345),
            "nbody" => kernels::nbody_step(16, 50),
            "quicksort" => kernels::quicksort(800),
            "crc32" => kernels::crc32(5_000),
            _ => return None,
        });
    }
    benchmarks()
        .into_iter()
        .find(|b| b.name == target)
        .map(|b| darco_workloads::build(&b.profile.scaled(scale.0, scale.1)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for b in benchmarks() {
            println!("{:<16} {}", b.name, b.suite.name());
        }
        return ExitCode::SUCCESS;
    }

    let mut cfg = TolConfig {
        // Promote early so the pipelines see as many regions as possible.
        bbm_threshold: 3,
        sbm_threshold: 12,
        verify: VerifyMode::Report,
        ..TolConfig::default()
    };
    let mut targets: Vec<String> = Vec::new();
    let mut backend = Backend::Emu;
    let mut scale = (1u32, 1u32);
    let mut cap: u64 = 20_000_000;
    let mut jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut trace_path: Option<String> = None;
    let mut i = 0;
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
            "--max-insns" => {
                i += 1;
                cap = args.get(i).and_then(|x| x.parse().ok()).unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|x| x.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--opt" => {
                i += 1;
                cfg.opt_level = match args.get(i).map(String::as_str) {
                    Some("O0") => darco_ir::OptLevel::O0,
                    Some("O1") => darco_ir::OptLevel::O1,
                    Some("O2") => darco_ir::OptLevel::O2,
                    Some("O3") => darco_ir::OptLevel::O3,
                    _ => usage(),
                };
            }
            "--no-spec" => cfg.speculation = false,
            "--semantic" => cfg.verify_level = VerifyLevel::Semantic,
            "--backend" => {
                i += 1;
                backend = args
                    .get(i)
                    .and_then(|b| Backend::parse(b))
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            a if a.starts_with("--trace=") => {
                trace_path = Some(a["--trace=".len()..].to_string());
            }
            a if a.starts_with("--") => usage(),
            a => targets.push(a.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        usage();
    }

    const KERNELS: [&str; 6] = ["dot", "matmul", "search", "nbody", "quicksort", "crc32"];
    if targets.iter().any(|t| t == "all") {
        targets = benchmarks().into_iter().map(|b| b.name.to_string()).collect();
        targets.extend(KERNELS.iter().map(|k| format!("kernel:{k}")));
    }
    // Validate every target before spawning anything — a typo should be a
    // usage error, not a mid-suite worker failure.
    for t in &targets {
        if build_target(t, scale).is_none() {
            usage();
        }
    }

    let pool = Pool::new(jobs);
    let trace = trace_path.is_some();
    let lint_cfg = cfg.clone();
    let results = pool.map(targets.clone(), move |_, target| {
        let program = build_target(target, scale).expect("targets validated above");
        lint_one(target, program, &lint_cfg, backend, cap, trace)
    });

    let mut total = LintOutcome { regions: 0, findings: 0, verify_us: 0.0, failed: false };
    let mut groups: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    for (target, result) in targets.iter().zip(results) {
        match result {
            Ok((out, events, rendered)) => {
                print!("{rendered}");
                total.regions += out.regions;
                total.findings += out.findings;
                total.verify_us += out.verify_us;
                total.failed |= out.failed;
                if trace {
                    groups.push((target.clone(), events));
                }
            }
            Err(e) => {
                println!("{target:<18} [pool] {e}");
                total.failed = true;
            }
        }
    }

    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, chrome::to_chrome_trace_multi(&groups)) {
            eprintln!("could not write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace with {} workload groups written to {path}", groups.len());
    }

    println!(
        "\ntotal: {} workloads, {} regions verified, {} findings, {:.1} us in verifier",
        targets.len(),
        total.regions,
        total.findings,
        total.verify_us,
    );
    if total.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
