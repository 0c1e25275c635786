//! Shared harness for the experiment binaries: runs benchmarks through
//! the full DARCO system, aggregates per-suite averages, and renders the
//! paper-versus-measured tables that back `EXPERIMENTS.md`. [`measure`]
//! holds the argument parser, the timing protocol and the gate table of
//! the `BENCH_*.json` harnesses.

use darco::{RunReport, SinkChoice, System, SystemConfig};
use darco_tol::TolConfig;
use darco_workloads::{benchmarks, Benchmark, Suite};

pub mod measure;

/// Paper reference values for the headline figures.
pub mod paper {
    /// Fig. 4: fraction of dynamic guest instructions in SBM per suite
    /// (SPECINT, SPECFP, Physicsbench).
    pub const FIG4_SBM: [f64; 3] = [0.88, 0.96, 0.75];
    /// Fig. 5: host instructions per guest instruction in SBM.
    pub const FIG5_COST: [f64; 3] = [4.0, 2.6, 3.1];
    /// Fig. 6: TOL overhead share of the host dynamic stream.
    pub const FIG6_OVERHEAD: [f64; 3] = [0.16, 0.13, 0.41];
    /// §VI-A: DARCO speed (guest MIPS emulated, guest MIPS with timing,
    /// host MIPS, host MIPS with timing).
    pub const SPEED: (f64, f64, f64, f64) = (3.4, 0.37, 20.0, 2.0);
    /// §VI-E: warm-up methodology (cost reduction ×, CPI error %).
    pub const WARMUP: (f64, f64) = (65.0, 0.75);
}

/// Scale of a run (numerator, denominator applied to iteration counts).
/// Parsed from `--scale N/D` by [`measure::Args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32, pub u32);

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.0, self.1)
    }
}

/// The default experiment configuration (functional mode).
pub fn default_config() -> SystemConfig {
    SystemConfig::default()
}

/// Runs one benchmark at a scale with a config.
///
/// # Panics
/// Panics if the run fails validation — experiments must run correct.
pub fn run_one(b: &Benchmark, scale: Scale, cfg: SystemConfig) -> RunReport {
    let profile = b.profile.clone().scaled(scale.0, scale.1);
    let program = darco_workloads::build(&profile);
    System::new(cfg, program)
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", b.name))
}

/// Runs an explicit `(benchmark, config)` job list, returning reports in
/// input order. The list executes on `jobs` workers of the `darco-fleet`
/// pool; results still come back in input order (the pool's determinism
/// contract), so output is identical at any worker count.
///
/// # Panics
/// Propagates [`run_one`]'s panic for any failing job — experiments must
/// run correct.
pub fn run_jobs(
    scale: Scale,
    jobs: usize,
    work: Vec<(Benchmark, SystemConfig)>,
) -> Vec<(Benchmark, RunReport)> {
    let benches: Vec<Benchmark> = work.iter().map(|(b, _)| b.clone()).collect();
    let out = darco_fleet::Pool::new(jobs).map(work, |_, (b, cfg)| run_one(b, scale, cfg.clone()));
    benches
        .into_iter()
        .zip(out)
        .map(|(b, r)| match r {
            Ok(report) => (b, report),
            Err(e) => panic!("{}: {e}", b.name),
        })
        .collect()
}

/// Runs the whole suite on `jobs` workers (the `--jobs` flag), returning
/// `(benchmark, report)` pairs in suite order.
pub fn run_suite(
    scale: Scale,
    jobs: usize,
    mk_cfg: impl Fn(&Benchmark) -> SystemConfig,
) -> Vec<(Benchmark, RunReport)> {
    let work = benchmarks()
        .into_iter()
        .map(|b| {
            let cfg = mk_cfg(&b);
            (b, cfg)
        })
        .collect();
    run_jobs(scale, jobs, work)
}

/// Per-suite average of a metric.
pub fn suite_avg(
    rows: &[(Benchmark, RunReport)],
    suite: Suite,
    f: impl Fn(&RunReport) -> f64,
) -> f64 {
    let xs: Vec<f64> = rows.iter().filter(|(b, _)| b.suite == suite).map(|(_, r)| f(r)).collect();
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Renders a per-benchmark table plus suite averages and the paper row.
pub fn print_table(
    title: &str,
    rows: &[(Benchmark, RunReport)],
    metric_name: &str,
    f: impl Fn(&RunReport) -> f64,
    paper_by_suite: [f64; 3],
    as_percent: bool,
) {
    let fmt = |v: f64| if as_percent { format!("{:6.1}%", v * 100.0) } else { format!("{v:7.2}") };
    println!("== {title} ==");
    println!("{:<16} {:<13} {}", "benchmark", "suite", metric_name);
    for (b, r) in rows {
        println!("{:<16} {:<13} {}", b.name, b.suite.name(), fmt(f(r)));
    }
    println!("{:-<44}", "");
    for (i, s) in [Suite::SpecInt, Suite::SpecFp, Suite::Physics].into_iter().enumerate() {
        println!(
            "{:<16} {:<13} {}   (paper: {})",
            format!("avg {}", s.name()),
            "",
            fmt(suite_avg(rows, s, &f)),
            fmt(paper_by_suite[i]),
        );
    }
    println!();
}

/// A hotter TOL config used by the quick smoke paths (not by the figure
/// harnesses, which use the defaults).
pub fn smoke_tol() -> TolConfig {
    TolConfig { bbm_threshold: 10, sbm_threshold: 60, ..TolConfig::default() }
}

/// Enables timing with the given sink.
pub fn with_timing(mut cfg: SystemConfig, sink: SinkChoice) -> SystemConfig {
    cfg.sink = sink;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_jobs_match_serial_results() {
        let work = || {
            benchmarks()
                .into_iter()
                .take(3)
                .map(|b| (b, default_config()))
                .collect::<Vec<_>>()
        };
        let serial = run_jobs(Scale(1, 64), 1, work());
        let pooled = run_jobs(Scale(1, 64), 4, work());
        assert_eq!(serial.len(), pooled.len());
        for ((b1, r1), (b2, r2)) in serial.iter().zip(&pooled) {
            assert_eq!(b1.name, b2.name, "input order preserved");
            assert_eq!(r1.guest_insns, r2.guest_insns, "{}", b1.name);
            assert_eq!(r1.mode_insns, r2.mode_insns, "{}", b1.name);
            assert_eq!(r1.overhead.total(), r2.overhead.total(), "{}", b1.name);
        }
    }

    #[test]
    fn one_benchmark_of_each_suite_runs_at_tiny_scale() {
        for idx in [0usize, 11, 24] {
            let b = &benchmarks()[idx];
            let r = run_one(b, Scale(1, 50), default_config());
            assert!(r.guest_insns > 1_000, "{}: {}", b.name, r.guest_insns);
            assert_eq!(r.syscalls, 1, "checksum write syscall");
        }
    }
}
