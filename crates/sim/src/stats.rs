//! Online statistics: percentiles, counters, SLO attainment.

/// A sample collector with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.values.push(v);
        }
    }

    /// The `p`-th percentile (nearest-rank; `p` in `[0, 100]`; 0 when
    /// empty).
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_sim::stats::Samples;
    /// let mut s = Samples::new();
    /// for v in [1.0, 2.0, 3.0, 4.0] { s.record(v); }
    /// assert_eq!(s.percentile(50.0), 2.0);
    /// assert_eq!(s.percentile(100.0), 4.0);
    /// ```
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// Fraction of samples at or below `threshold` (SLO attainment).
    pub fn attainment(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        self.values.iter().filter(|&&v| v <= threshold).count() as f64 / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zeroes() {
        let s = Samples::new();
        assert!(s.values.is_empty());
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.attainment(1.0), 1.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
    }

    #[test]
    fn attainment_counts_threshold() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.attainment(2.0), 0.5);
        assert_eq!(s.attainment(0.5), 0.0);
        assert_eq!(s.attainment(10.0), 1.0);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut s = Samples::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.values, vec![1.0]);
    }

    proptest! {
        #[test]
        fn percentile_monotone(vals in proptest::collection::vec(0.0..1e6f64, 1..200),
                               p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
            let mut s = Samples::new();
            for v in vals { s.record(v); }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(s.percentile(lo) <= s.percentile(hi));
        }
    }
}
