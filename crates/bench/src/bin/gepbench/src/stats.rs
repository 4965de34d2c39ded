//! Order statistics over raw samples.
//!
//! Latencies are kept as raw per-request values, never as log-bucketed
//! histograms: a histogram's power-of-two buckets cannot show a 10%
//! change.

/// Samples sorted once, then queried by nearest-rank percentile.
pub struct Dist(Vec<f64>);

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the samples at or below it. `NaN` when empty.
    pub fn pct(&self, p: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return f64::NAN;
        }
        // The epsilon keeps float error in `p · n` from adding a rank.
        let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
        self.0[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }
}

/// Quartiles `(q1, q2, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so a
/// spread printed here matches one computed from the same values there.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    assert!(len >= 2, "quartiles need at least two values");
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=10).rev().map(f64::from).collect());
        assert_eq!(d.len(), 10);
        assert_eq!(d.pct(0.0), 1.0);
        assert_eq!(d.pct(10.0), 1.0);
        assert_eq!(d.pct(11.0), 2.0);
        assert_eq!(d.median(), 5.0);
        assert_eq!(d.pct(90.0), 9.0);
        assert_eq!(d.pct(99.0), 10.0);
        assert_eq!(d.pct(100.0), 10.0);
        let one = Dist::new(vec![3.5]);
        assert_eq!((one.median(), one.pct(99.0)), (3.5, 3.5));
        assert!(Dist::new(vec![]).median().is_nan());
    }

    #[test]
    fn p99_of_many_samples_is_the_99th_percent_rank() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.pct(99.0), 990.0);
        assert_eq!(d.pct(99.9), 999.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
