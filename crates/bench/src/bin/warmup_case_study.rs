//! **E6 / §VI-E** — The warm-up simulation methodology case study:
//! promotion-threshold downscaling during sample warm-up, with the
//! offline configuration-matching heuristic.
//!
//! Paper: 65× simulation-cost reduction at 0.75% average error (on
//! full-size SPEC runs; our synthetic benchmarks are orders of magnitude
//! shorter, so the reduction factor scales with program length).

use darco::sampling::{warmup_study, WarmupConfig};
use darco_bench::measure::{self, Args};
use darco_bench::{paper, Scale};
use darco_timing::TimingConfig;
use darco_tol::TolConfig;
use darco_workloads::benchmarks;

fn main() {
    let scale = Args::from_env(Scale(1, 1), measure::SCALE).scale;
    let wcfg = WarmupConfig {
        sample_len: 20_000,
        num_samples: 4,
        warmup_lens: vec![20_000, 60_000],
        scale_factors: vec![4, 16],
    };
    println!("== §VI-E: warm-up methodology case study ==");
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>10}",
        "benchmark", "full CPI", "sampled", "err %", "cost red."
    );
    let mut errs = Vec::new();
    let mut reds = Vec::new();
    for idx in [0usize, 4, 13, 17, 24] {
        let b = &benchmarks()[idx];
        let prog = darco_workloads::build(&b.profile.clone().scaled(scale.0, scale.1));
        let Some(r) = warmup_study(&prog, &TolConfig::default(), &TimingConfig::default(), &wcfg)
        else {
            println!("{:<16} (too short for the sampling plan)", b.name);
            continue;
        };
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>7.2}% {:>9.1}x",
            b.name, r.full_cpi, r.sampled_cpi, r.error_pct, r.cost_reduction
        );
        errs.push(r.error_pct);
        reds.push(r.cost_reduction);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("{:-<58}", "");
    println!(
        "average: error {:.2}% (paper {:.2}%), cost reduction {:.1}x (paper {:.0}x)",
        avg(&errs),
        paper::WARMUP.1,
        avg(&reds),
        paper::WARMUP.0
    );
}
