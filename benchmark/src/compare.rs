//! `compare`: judges a change's runs against its parent's, one row per
//! workload and end-to-end metric.
//!
//! The files are `run --json` records, paired in order: the i-th parent
//! run and the i-th change run form a pair and must share a seed. A gain
//! needs at least ten pairs, the change winning nine tenths of them, and
//! medians further apart than the parent's interquartile range. A
//! regression is a median worse than the parent's by more than the
//! metric's bound in `BENCHMARK.json`. Deterministic metrics repeat
//! exactly at a seed, so they are compared pair by pair, exactly.

use crate::spec::{Metric, Spec};
use crate::stats::Summary;
use darco_obs::JsonValue;

/// End-to-end metrics that are pure functions of the simulated execution.
const EXACT: [&str; 1] = ["host_per_guest"];
/// Pairs a gain needs, and the share of them the change must win.
const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

struct RunFile {
    path: String,
    seed: f64,
    doc: JsonValue,
}

impl RunFile {
    fn load(path: &str) -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = darco_obs::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc.get("seed").and_then(JsonValue::as_num).ok_or_else(|| format!("{path}: no `seed`"))?;
        Ok(RunFile { path: path.to_string(), seed, doc })
    }

    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_num()
    }
}

/// How one metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges paired samples (`parent[i]` and `change[i]` share a seed).
pub fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
    let better = |a: f64, b: f64| if m.higher_is_better { a > b } else { a < b };
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    if EXACT.contains(&m.name.as_str()) {
        let v = if parent == change {
            Verdict::Unchanged
        } else if parent.iter().zip(change).all(|(p, c)| c == p || better(*c, *p)) {
            Verdict::Better
        } else {
            Verdict::Worse
        };
        return (v, wins);
    }
    let (Some(p), Some(c)) = (Summary::of(parent), Summary::of(change)) else {
        return (Verdict::Unresolved, wins);
    };
    let pairs = parent.len();
    if pairs >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs as f64
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        return (Verdict::Better, wins);
    }
    let bound = m.bound.unwrap_or(0.0);
    let worse_by = (c.median - p.median) / p.median.abs() * if m.higher_is_better { -1.0 } else { 1.0 };
    if worse_by > bound {
        return (Verdict::Worse, wins);
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if p.spread() > bound && !all_better {
        return (Verdict::Unresolved, wins);
    }
    (Verdict::Unchanged, wins)
}

fn files(args: &[String], flag: &str) -> Vec<String> {
    args.iter().skip_while(|a| *a != flag).skip(1).take_while(|a| !a.starts_with("--")).cloned().collect()
}

/// `compare --parent A.json... --change B.json...`; exits 1 when any
/// metric got worse.
pub fn main(spec: &Spec, args: &[String]) -> Result<i32, String> {
    let load = |flag| files(args, flag).iter().map(|p| RunFile::load(p)).collect::<Result<Vec<_>, _>>();
    let (parent, change) = (load("--parent")?, load("--change")?);
    if parent.is_empty() || parent.len() != change.len() {
        return Err(format!(
            "need as many --change files as --parent files, at least one (got {} and {})",
            parent.len(),
            change.len()
        ));
    }
    for (p, c) in parent.iter().zip(&change) {
        if p.seed != c.seed {
            return Err(format!("{} (seed {}) is paired with {} (seed {})", p.path, p.seed, c.path, c.seed));
        }
    }
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>12} {:>12} {:>7}  verdict",
        "workload", "metric", "parent", "parent_iqr", "change", "change_iqr", "wins"
    );
    let mut worse = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let col =
                |runs: &[RunFile]| runs.iter().map(|r| r.value(w, &m.name)).collect::<Option<Vec<f64>>>();
            let (Some(pv), Some(cv)) = (col(&parent), col(&change)) else {
                continue; // workload not run in these files
            };
            let (v, wins) = verdict(m, &pv, &cv);
            worse |= v == Verdict::Worse;
            let (p, c) = (Summary::of(&pv).expect("non-empty"), Summary::of(&cv).expect("non-empty"));
            println!(
                "{w:<12} {:<16} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3}/{:<3}  {}",
                m.name,
                p.median,
                p.q3 - p.q1,
                c.median,
                c.q3 - c.q1,
                wins,
                pv.len(),
                v.name()
            );
        }
    }
    Ok(i32::from(worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: f64) -> Metric {
        Metric { name: name.into(), higher_is_better: higher, bound: Some(bound) }
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let m = metric("guest_mips", true, 0.07);
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 5.0).collect();
        assert_eq!(verdict(&m, &parent, &change), (Verdict::Better, 10));
        // Nine pairs are too few, however large the gain.
        assert_eq!(verdict(&m, &parent[..9], &change[..9]).0, Verdict::Unchanged);
        // Winning every pair by less than the parent's spread is no gain.
        let close: Vec<f64> = parent.iter().map(|p| p + 0.01).collect();
        assert_eq!(verdict(&m, &parent, &close).0, Verdict::Unchanged);
    }

    #[test]
    fn regressions_are_judged_against_the_bound() {
        let m = metric("setup_s", false, 0.10);
        let parent = vec![1.0; 10];
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&m, &parent, &slower).0, Verdict::Worse);
        let within: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&m, &parent, &within).0, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric("guest_mips", true, 0.07);
        let parent = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&m, &parent, &parent.clone()).0, Verdict::Unresolved);
    }

    #[test]
    fn deterministic_metrics_compare_exactly() {
        let m = metric("host_per_guest", false, 0.05);
        let parent = vec![3.0, 3.1];
        assert_eq!(verdict(&m, &parent, &[3.0, 3.1]).0, Verdict::Unchanged);
        assert_eq!(verdict(&m, &parent, &[3.0, 3.1001]).0, Verdict::Worse);
        assert_eq!(verdict(&m, &parent, &[2.9, 3.1]).0, Verdict::Better);
    }
}
