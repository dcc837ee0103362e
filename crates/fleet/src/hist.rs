//! Mergeable latency histograms over integer microseconds.
//!
//! Fleet runs record tens of millions of latency samples across many
//! shards; keeping raw sample vectors (as `litegpu_sim::stats::Samples`
//! does) would not scale, and merging sorted vectors across shards would
//! be order-sensitive. This histogram is HDR-style: log₂ major buckets
//! with [`LatencyHistogram::SUB_BITS`] linear sub-buckets each, bounding
//! relative quantile error at ~12.5% while supporting order-independent
//! merging with pure integer arithmetic — the property the engine's
//! byte-identical-at-any-shard-count guarantee rests on.
//!
//! A histogram costs what it holds: it allocates its buckets at the
//! first sample (or merge) that needs them, and clearing and merging
//! touch only the range of buckets that hold samples.

/// A fixed-shape latency histogram (values in microseconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Every bucket, or empty until the first sample lands.
    counts: Vec<u64>,
    /// The occupied buckets `lo..hi`: the first and one past the last
    /// nonzero count (`BUCKETS..0` while empty).
    lo: usize,
    hi: usize,
    total: u64,
    /// Exact weighted sum of recorded values, for exact means.
    sum_us: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Equal recorded samples, whatever the buckets' allocation state.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum_us == other.sum_us
            && self.lo == other.lo
            && self.occupied() == other.occupied()
    }
}

impl Eq for LatencyHistogram {}

impl LatencyHistogram {
    /// Linear sub-buckets per octave: 2^3 = 8.
    pub const SUB_BITS: u32 = 3;
    const SUB: u64 = 1 << Self::SUB_BITS;
    /// Bucket count: 64 octaves × 8 sub-buckets.
    const BUCKETS: usize = 64 * Self::SUB as usize;

    /// Creates an empty histogram; it allocates nothing until a sample
    /// lands.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            lo: Self::BUCKETS,
            hi: 0,
            total: 0,
            sum_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us < Self::SUB {
            return us as usize; // Exact buckets below 8 µs.
        }
        let exp = 63 - us.leading_zeros() as u64;
        let sub = (us >> (exp - Self::SUB_BITS as u64)) & (Self::SUB - 1);
        (exp * Self::SUB + sub) as usize
    }

    /// Representative value (µs) for a bucket: its inclusive midpoint.
    fn bucket_value(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < Self::SUB {
            return b;
        }
        let exp = b / Self::SUB;
        let sub = b % Self::SUB;
        let lo = (1u64 << exp) + (sub << (exp - Self::SUB_BITS as u64));
        let width = 1u64 << (exp - Self::SUB_BITS as u64);
        lo + width / 2
    }

    /// The counts of the occupied buckets, `lo..hi` (empty while
    /// nothing is recorded).
    fn occupied(&self) -> &[u64] {
        self.counts.get(self.lo..self.hi).unwrap_or(&[])
    }

    /// Makes room for samples in buckets `lo..hi`, allocating every
    /// bucket on first use.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    /// Records `weight` samples of `us` microseconds.
    pub fn record(&mut self, us: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let b = Self::bucket_of(us);
        self.widen(b, b + 1);
        self.counts[b] += weight;
        self.total += weight;
        self.sum_us += us as u128 * weight as u128;
    }

    /// Removes every sample, keeping the buckets' allocation.
    pub(crate) fn clear(&mut self) {
        if let Some(occupied) = self.counts.get_mut(self.lo..self.hi) {
            occupied.fill(0);
        }
        self.lo = Self::BUCKETS;
        self.hi = 0;
        self.total = 0;
        self.sum_us = 0;
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact weighted sum of recorded values, microseconds. Together
    /// with [`LatencyHistogram::total`] this is what telemetry series
    /// snapshots difference per window (count and sum deltas are
    /// additive across shards; percentiles are not).
    pub fn sum_us(&self) -> u128 {
        self.sum_us
    }

    /// The `p`-th percentile (nearest-rank over buckets), microseconds.
    /// Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Clamp the rank into [1, total]: at p = 100 with large totals the
        // f64 product can round *above* `total`, which would walk past
        // every occupied bucket and fall through to the ~2^63 µs top
        // bucket instead of the true maximum.
        let rank = (((p / 100.0) * self.total as f64).ceil().max(1.0) as u64).min(self.total);
        let mut seen = 0u64;
        for (i, &c) in (self.lo..).zip(self.occupied()) {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(Self::BUCKETS - 1)
    }

    /// The `p`-th percentile, seconds.
    pub fn percentile_s(&self, p: f64) -> f64 {
        self.percentile_us(p) as f64 / 1e6
    }

    /// Adds all of `other`'s samples into `self` (order-independent).
    pub fn merge(&mut self, other: &Self) {
        let from = other.occupied();
        if !from.is_empty() {
            self.widen(other.lo, other.hi);
            for (a, b) in self.counts[other.lo..other.hi].iter_mut().zip(from) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_allocate_at_their_first_sample() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.counts.capacity(), 0);
        // Merging an empty histogram allocates nothing either.
        h.merge(&LatencyHistogram::new());
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!(h, LatencyHistogram::new());
        h.record(3_000, 2);
        assert_eq!(h.counts.len(), LatencyHistogram::BUCKETS);
    }

    #[test]
    fn clear_forgets_samples_and_keeps_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(40, 3);
        h.record(9_000_000, 1);
        h.clear();
        assert_eq!(h, LatencyHistogram::new());
        assert_eq!(h.counts.len(), LatencyHistogram::BUCKETS);
        assert!(h.counts.iter().all(|&c| c == 0));
        h.record(500, 4);
        let mut fresh = LatencyHistogram::new();
        fresh.record(500, 4);
        assert_eq!(h, fresh);
        assert_eq!(h.percentile_us(50.0), fresh.percentile_us(50.0));
    }

    #[test]
    fn merge_widens_the_occupied_range_both_ways() {
        let mut mid = LatencyHistogram::new();
        mid.record(5_000, 1);
        let mut wide = LatencyHistogram::new();
        wide.record(2, 1);
        wide.record(80_000_000, 1);
        mid.merge(&wide);
        let mut whole = LatencyHistogram::new();
        for us in [2, 5_000, 80_000_000] {
            whole.record(us, 1);
        }
        assert_eq!(mid, whole);
        assert_eq!(mid.percentile_us(0.0), 2);
        assert_eq!(mid.percentile_us(100.0), whole.percentile_us(100.0));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile_us(50.0), 0);
        assert_eq!(h.sum_us(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v, 1);
        }
        assert_eq!(h.percentile_us(100.0), 7);
        assert_eq!(h.percentile_us(1.0), 0);
    }

    #[test]
    fn percentiles_bound_relative_error() {
        let mut h = LatencyHistogram::new();
        // 1000 samples at exactly 50 ms.
        h.record(50_000, 1000);
        let p50 = h.percentile_us(50.0) as f64;
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.125, "p50 = {p50}");
        // Order statistics: p99 over a two-mode distribution picks the
        // upper mode.
        h.record(500_000, 20);
        let p99 = h.percentile_us(99.0) as f64;
        assert!((p99 / 500_000.0 - 1.0).abs() < 0.125, "p99 = {p99}");
    }

    #[test]
    fn percentile_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 37, 1);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = h.percentile_us(p);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        // The percentile-merging property the sharded engine relies on:
        // merging shard histograms gives exactly the histogram of the
        // union of samples, regardless of how samples were partitioned.
        let samples: Vec<u64> = (1..=5000u64).map(|i| i * i % 900_000 + 1).collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s, 1);
        }
        for split in [1usize, 3, 8] {
            let mut parts: Vec<LatencyHistogram> =
                (0..split).map(|_| LatencyHistogram::new()).collect();
            for (i, &s) in samples.iter().enumerate() {
                parts[i % split].record(s, 1);
            }
            let mut merged = LatencyHistogram::new();
            // Merge in reverse order to prove order-independence.
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "split = {split}");
        }
    }

    #[test]
    fn weighted_recording_matches_repeated() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(12_345, 100);
        for _ in 0..100 {
            b.record(12_345, 1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn sum_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000, 1);
        h.record(3_000_000, 1);
        assert_eq!((h.total(), h.sum_us()), (2, 4_000_000));
    }

    #[test]
    fn empty_histogram_percentile_edges() {
        let h = LatencyHistogram::new();
        for p in [0.0, 50.0, 100.0, -3.0, 400.0] {
            assert_eq!(h.percentile_us(p), 0, "p = {p}");
        }
        assert_eq!(h.sum_us(), 0);
    }

    #[test]
    fn p0_and_p100_hit_min_and_max_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(100, 10);
        h.record(1_000_000, 1);
        let p0 = h.percentile_us(0.0);
        let p100 = h.percentile_us(100.0);
        assert!((p0 as f64 / 100.0 - 1.0).abs() < 0.125, "p0 = {p0}");
        assert!((p100 as f64 / 1e6 - 1.0).abs() < 0.125, "p100 = {p100}");
        // Out-of-range p clamps to the same edges.
        assert_eq!(h.percentile_us(-5.0), p0);
        assert_eq!(h.percentile_us(250.0), p100);
    }

    #[test]
    fn p100_rank_rounding_cannot_overflow_total() {
        // (2^53 + 3) is not f64-representable; the nearest double is
        // 2^53 + 4 > total, so the unclamped nearest-rank walked past
        // every occupied bucket and returned the ~2^63 µs top bucket.
        let mut h = LatencyHistogram::new();
        h.record(1_000, (1u64 << 53) + 3);
        let p100 = h.percentile_us(100.0);
        assert!((p100 as f64 / 1_000.0 - 1.0).abs() < 0.125, "p100 = {p100}");
    }

    #[test]
    fn single_bucket_histogram_is_flat_across_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(42_000, 7);
        let v = h.percentile_us(50.0);
        for p in [0.0, 1.0, 25.0, 99.0, 100.0] {
            assert_eq!(h.percentile_us(p), v, "p = {p}");
        }
        assert_eq!(h.sum_us(), 42_000u128 * 7);
    }
}
