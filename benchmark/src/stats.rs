//! Order statistics over run-to-run samples.

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones recomputed in Python.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Summary { q1: v[0], median: v[0], q3: v[0], n }),
            _ => {
                let q = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Some(Summary { q1: q(1), median: q(2), q3: q(3), n })
            }
        }
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The value at quantile `p` (0..=1) of a sample, nearest-rank; used for
/// the restore-latency percentiles, whose pooled sample is large.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }
}
