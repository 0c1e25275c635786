//! **Timing campaign** — sampled versus full timing simulation over the
//! whole workload set (31 synthetic SPEC/Physicsbench benchmarks + 6
//! hand-written kernels = 37 workloads).
//!
//! For every workload the harness runs:
//!
//! 1. the **full oracle**: a complete run under the detailed in-order
//!    timing model (`timing_mode=full`) — the ground-truth CPI;
//! 2. the **sampled campaign**: a SMARTS-style strided-window estimate
//!    (`darco::sampling::sampled_cpi`) fast-forwarding through the
//!    functional checkpoint bank and measuring each window under the
//!    accelerated (`timing_mode=fast`) path.
//!
//! It emits `BENCH_timing.json` with per-workload CPI, confidence
//! interval, error versus the oracle and wall-clock speedup (honest
//! measured numbers), plus an optional wall-clock-free determinism
//! artifact (`--det PATH`) that must be byte-identical at any `--jobs`.
//! One repetition of the 1/1 campaign takes about a minute of CPU, so
//! the wall figures are single-shot: the shared header says `"reps": 1`.
//!
//! Usage: `timing_sampling [--scale N/D] [--jobs N] [--out PATH] [--det PATH]`
//! (`--scale` applies to the synthetic benchmarks; kernel sizes are
//! fixed, matching `darco-run kernel:*`).

use darco::json::JsonWriter;
use darco::sampling::{sampled_cpi_with_len, SmartsConfig};
use darco::{SinkChoice, System, SystemConfig, TimingMode};
use darco_bench::measure::{self, Args};
use darco_bench::Scale;
use darco_guest::GuestProgram;
use darco_timing::TimingConfig;
use darco_tol::TolConfig;
use darco_workloads::{benchmarks, kernels};

struct Row {
    name: String,
    suite: String,
    total_insns: u64,
    full_cpi: f64,
    sampled_cpi: f64,
    ci95: f64,
    err_pct: f64,
    app_cph: f64,
    overhead_cph: f64,
    detailed_insns: u64,
    num_samples: usize,
    full_wall_ms: f64,
    sampled_wall_ms: f64,
    speedup: f64,
}

fn workload_set(scale: Scale) -> Vec<(String, String, GuestProgram)> {
    let mut out: Vec<(String, String, GuestProgram)> = benchmarks()
        .into_iter()
        .map(|b| {
            let p = darco_workloads::build(&b.profile.clone().scaled(scale.0, scale.1));
            (b.name.to_string(), b.suite.name().to_string(), p)
        })
        .collect();
    let ks: [(&str, GuestProgram); 6] = [
        ("kernel:dot", kernels::dot_product(20_000)),
        ("kernel:matmul", kernels::matmul(24)),
        ("kernel:search", kernels::string_search(200_000, 123_456)),
        ("kernel:nbody", kernels::nbody_step(64, 500)),
        ("kernel:quicksort", kernels::quicksort(4_000)),
        ("kernel:crc32", kernels::crc32(50_000)),
    ];
    out.extend(ks.into_iter().map(|(n, p)| (n.to_string(), "kernel".to_string(), p)));
    out
}

/// The sampling plan for a workload of `total` guest instructions: `n`
/// windows of 16k instructions (4k warm-up, 12k measured) — long enough
/// to warm caches and predictors after a cold restore — shrunk
/// proportionally when the workload is too short for full windows.
/// The overhead CPH is left to the per-workload calibration.
fn plan_for(total: u64, n: u64) -> SmartsConfig {
    let window = (total / (2 * n)).clamp(64, 16_000);
    let warm = window / 4;
    SmartsConfig {
        num_samples: n as usize,
        warm_len: warm,
        measure_len: window - warm,
        timing_mode: TimingMode::Fast,
        overhead_cph: None,
    }
}

fn run_workload(name: &str, suite: &str, program: &GuestProgram) -> Row {
    let tol = TolConfig::default();
    let timing = TimingConfig::default();

    // Full oracle: complete detailed run.
    let mut cfg = SystemConfig { tol: tol.clone(), timing: timing.clone(), ..Default::default() };
    cfg.sink = SinkChoice::InOrder;
    cfg.timing_mode = TimingMode::Full;
    let (full_wall_s, report) = measure::time(|| {
        System::new(cfg, program.clone())
            .run()
            .unwrap_or_else(|e| panic!("{name}: full run failed: {e}"))
    });
    let full_wall_ms = full_wall_s * 1e3;
    let cycles = report.timing.as_ref().expect("timing enabled").cycles;
    let full_cpi = cycles as f64 / report.guest_insns as f64;

    // Sampled campaign. The workload length is already known from the
    // oracle run (in a standalone campaign a functional scout pass
    // provides it — `sampled_cpi` does that), so the sampled cost here
    // is one functional fast-forward pass plus the detailed windows.
    let total = report.guest_insns;
    // SMARTS-style adaptive sampling: start with 7 windows and double
    // until the 95% confidence interval is within 4% of the estimate.
    // Escalation is capped where the next stage would push detailed
    // simulation past ~1/6 of the workload — past that point sampling
    // stops being an acceleration and the CI is reported as-is.
    let (sampled_wall_s, (s, detailed)) = measure::time(|| {
        let mut s = None;
        let mut detailed = 0u64;
        for n in [7u64, 14, 28] {
            let scfg = plan_for(total, n);
            let window = scfg.warm_len + scfg.measure_len;
            let Some(r) = sampled_cpi_with_len(program, &tol, &timing, &scfg, total) else { break };
            detailed += r.detailed_insns;
            let converged = r.ci95 <= 0.04 * r.cpi;
            s = Some(r);
            if converged || 6 * 2 * n * window > total {
                break;
            }
        }
        (s, detailed)
    });
    let mut s =
        s.unwrap_or_else(|| panic!("{name}: too short for the sampling plan ({total} insns)"));
    s.detailed_insns = detailed;
    let sampled_wall_ms = sampled_wall_s * 1e3;

    let err_pct = ((s.cpi - full_cpi) / full_cpi).abs() * 100.0;
    Row {
        name: name.to_string(),
        suite: suite.to_string(),
        total_insns: s.total_insns,
        full_cpi,
        sampled_cpi: s.cpi,
        ci95: s.ci95,
        err_pct,
        app_cph: s.app_cph,
        overhead_cph: s.overhead_cph,
        detailed_insns: s.detailed_insns,
        num_samples: s.samples.len(),
        full_wall_ms,
        sampled_wall_ms,
        speedup: full_wall_ms / sampled_wall_ms.max(1e-9),
    }
}

/// Renders the campaign JSON. `with_wall` controls the wall-clock and
/// speedup fields: the determinism artifact omits them (wall clock is
/// the one legitimately nondeterministic measurement), so two runs at
/// any `--jobs` must produce byte-identical bytes.
fn render(rows: &[Row], scale: Scale, with_wall: bool) -> String {
    let mut w = measure::header("timing", scale, 1);
    w.field_str("timing_mode", "fast");
    w.begin_arr(Some("workloads"));
    for r in rows {
        let mut o = JsonWriter::new();
        o.begin_obj(None);
        o.field_str("name", &r.name);
        o.field_str("suite", &r.suite);
        o.field_num("total_insns", r.total_insns);
        o.field_f64("full_cpi", r.full_cpi);
        o.field_f64("sampled_cpi", r.sampled_cpi);
        o.field_f64("ci95", r.ci95);
        o.field_f64("err_pct", r.err_pct);
        o.field_f64("app_cph", r.app_cph);
        o.field_f64("overhead_cph", r.overhead_cph);
        o.field_num("detailed_insns", r.detailed_insns);
        o.field_f64("cost_reduction", r.total_insns as f64 / r.detailed_insns.max(1) as f64);
        o.field_num("num_samples", r.num_samples);
        if with_wall {
            o.field_f64("full_wall_ms", r.full_wall_ms);
            o.field_f64("sampled_wall_ms", r.sampled_wall_ms);
            o.field_f64("speedup", r.speedup);
        }
        o.end_obj();
        w.elem_raw(&o.finish());
    }
    w.end_arr();
    let n = rows.len() as f64;
    let mean_err = rows.iter().map(|r| r.err_pct).sum::<f64>() / n;
    let max_err = rows.iter().map(|r| r.err_pct).fold(0.0, f64::max);
    let detail_frac = rows.iter().map(|r| r.detailed_insns as f64 / r.total_insns as f64).sum::<f64>() / n;
    w.begin_obj(Some("summary"));
    w.field_num("workloads", rows.len());
    w.field_f64("mean_err_pct", mean_err);
    w.field_f64("max_err_pct", max_err);
    w.field_f64("mean_detailed_fraction", detail_frac);
    let min_red = rows
        .iter()
        .map(|r| r.total_insns as f64 / r.detailed_insns.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    w.field_f64("min_cost_reduction", min_red);
    let mean_red = rows
        .iter()
        .map(|r| r.total_insns as f64 / r.detailed_insns.max(1) as f64)
        .sum::<f64>()
        / n;
    w.field_f64("mean_cost_reduction", mean_red);
    // The honest error bound this campaign actually meets (the ±3%
    // target is kept when met; restated upward when not).
    let bound = if max_err <= 3.0 { 3.0 } else { (max_err * 1.25 * 10.0).ceil() / 10.0 };
    w.field_f64("stated_error_bound_pct", bound);
    w.field_bool("within_3pct", max_err <= 3.0);
    if with_wall {
        let mean_speedup = rows.iter().map(|r| r.speedup).sum::<f64>() / n;
        let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
        w.field_f64("mean_speedup", mean_speedup);
        w.field_f64("min_speedup", min_speedup);
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

fn main() {
    let args =
        Args::from_env(Scale(1, 1), &["--scale N/D", "--jobs N", "--out PATH", "--det PATH"]);
    let scale = args.scale;
    let rows: Vec<Row> = darco_fleet::Pool::new(args.jobs)
        .map(workload_set(scale), |_, (n, s, p)| run_workload(n, s, p))
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();

    println!("== sampled vs full timing ({} workloads) ==", rows.len());
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>8} {:>9}",
        "workload", "full CPI", "sampled", "±ci95", "err %", "speedup"
    );
    for r in &rows {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>8.4} {:>7.2}% {:>8.1}x",
            r.name, r.full_cpi, r.sampled_cpi, r.ci95, r.err_pct, r.speedup
        );
    }
    let n = rows.len() as f64;
    println!("{:-<68}", "");
    println!(
        "mean err {:.2}%  max err {:.2}%  mean speedup {:.1}x  min speedup {:.1}x",
        rows.iter().map(|r| r.err_pct).sum::<f64>() / n,
        rows.iter().map(|r| r.err_pct).fold(0.0, f64::max),
        rows.iter().map(|r| r.speedup).sum::<f64>() / n,
        rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min),
    );

    args.write("BENCH_timing.json", &render(&rows, scale, true));
    if let Some(det) = &args.det {
        std::fs::write(det, render(&rows, scale, false)).expect("write determinism artifact");
        println!("wrote {det}");
    }
}
