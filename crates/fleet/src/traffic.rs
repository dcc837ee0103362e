//! Fleet traffic: diurnal and trace-driven arrival-rate modulation with
//! deterministic Poisson sampling.
//!
//! Production serving fleets see strong diurnal swings (the paper's §3
//! power-management argument leans on them), so the fleet simulator
//! modulates a base per-instance Poisson rate by a time-varying
//! multiplier: a cosine diurnal curve, a replayable piecewise-linear
//! trace, or a constant. All sampling draws from per-instance RNG
//! streams, which is what keeps the sharded engine's results independent
//! of shard and thread counts.

use rand::rngs::StdRng;
use rand::Rng;

/// Shape of the rate modulation over time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TrafficPattern {
    /// Flat load: multiplier 1 at all times.
    Constant,
    /// Cosine diurnal swing with a 24 h period:
    /// `1 + amplitude·cos(2π·(t − peak_hour)/24h)`.
    Diurnal {
        /// Swing around the mean, typically in `[0, 1]` (0.6 → peak
        /// 1.6×, trough 0.4×). Larger amplitudes are allowed; the
        /// multiplier clamps at 0, flattening the trough.
        amplitude: f64,
        /// Hour of day (0–24) at which load peaks.
        peak_hour: f64,
    },
    /// Replayable trace: `(time_s, multiplier)` points, piecewise-linear,
    /// clamped at both ends. Points must be sorted by non-decreasing time
    /// (a duplicate time is a step change) with finite, non-negative
    /// multipliers — call [`TrafficPattern::validate`] to have that
    /// checked (the fleet engine validates every pattern it is given).
    Trace(Vec<(f64, f64)>),
}

impl TrafficPattern {
    /// Checks the pattern's structural contract (see each variant's
    /// documentation). `Constant` always passes; `Diurnal` requires a
    /// finite non-negative amplitude and a finite peak hour; `Trace`
    /// points must be non-empty, sorted by non-decreasing finite time,
    /// with finite non-negative multipliers.
    ///
    /// ```
    /// use litegpu_fleet::TrafficPattern;
    ///
    /// let ramp = TrafficPattern::Trace(vec![(0.0, 0.2), (600.0, 1.6)]);
    /// assert!(ramp.validate().is_ok());
    /// assert!(TrafficPattern::Trace(vec![(600.0, 1.0), (0.0, 2.0)]).validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            TrafficPattern::Constant => Ok(()),
            TrafficPattern::Diurnal {
                amplitude,
                peak_hour,
            } => {
                if !(amplitude.is_finite() && *amplitude >= 0.0) {
                    return Err("diurnal amplitude must be finite and non-negative");
                }
                if !peak_hour.is_finite() {
                    return Err("diurnal peak_hour must be finite");
                }
                Ok(())
            }
            TrafficPattern::Trace(points) => {
                if points.is_empty() {
                    return Err("trace must have at least one point");
                }
                for w in points.windows(2) {
                    if w[1].0 < w[0].0 {
                        return Err("trace times must be sorted (non-decreasing)");
                    }
                }
                for &(t, m) in points {
                    if !t.is_finite() {
                        return Err("trace times must be finite");
                    }
                    if !(m.is_finite() && m >= 0.0) {
                        return Err("trace multipliers must be finite and non-negative");
                    }
                }
                Ok(())
            }
        }
    }

    /// Rate multiplier at simulated time `t_s` (≥ 0, dimensionless).
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        match self {
            TrafficPattern::Constant => 1.0,
            TrafficPattern::Diurnal {
                amplitude,
                peak_hour,
            } => {
                let t_h = t_s / 3600.0;
                let phase = (t_h - peak_hour) / 24.0 * core::f64::consts::TAU;
                (1.0 + amplitude * phase.cos()).max(0.0)
            }
            TrafficPattern::Trace(points) => {
                if points.is_empty() {
                    return 1.0;
                }
                let first = points[0];
                let last = points[points.len() - 1];
                if t_s <= first.0 {
                    return first.1.max(0.0);
                }
                if t_s >= last.0 {
                    return last.1.max(0.0);
                }
                let i = points.partition_point(|&(t, _)| t <= t_s);
                let (t0, m0) = points[i - 1];
                let (t1, m1) = points[i];
                let f = if t1 > t0 { (t_s - t0) / (t1 - t0) } else { 0.0 };
                (m0 + f * (m1 - m0)).max(0.0)
            }
        }
    }
}

/// Draws a Poisson-distributed count with mean `lambda`.
///
/// Knuth's product method for small means; larger means split into
/// sub-draws (a sum of Poissons is Poisson), which keeps the sampler
/// exact — no normal approximation — at any rate.
pub fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda.is_nan() || lambda <= 0.0 {
        return 0;
    }
    const CHUNK: f64 = 16.0;
    let mut remaining = lambda;
    let mut count = 0u64;
    while remaining > CHUNK {
        count += poisson_small(rng, CHUNK);
        remaining -= CHUNK;
    }
    count + poisson_small(rng, remaining)
}

fn poisson_small(rng: &mut StdRng, lambda: f64) -> u64 {
    knuth(rng, (-lambda).exp())
}

/// Knuth's product method given the precomputed threshold `l = e^-λ`.
///
/// The first step is inlined: its product is `1.0 · u`, which is `u`
/// exactly, and at a small λ almost every draw ends there, so a zero
/// costs one uniform and one compare. [`knuth_rest`] continues the same
/// product from there.
#[inline(always)]
fn knuth(rng: &mut StdRng, l: f64) -> u64 {
    let p = rng.random::<f64>();
    if p <= l {
        return 0;
    }
    knuth_rest(rng, l, p)
}

/// Knuth's product method after a first step that did not end it: `p`
/// is the product so far. Not `#[cold]`: streams with a mean of several
/// arrivals per draw take it on every draw.
#[inline(never)]
fn knuth_rest(rng: &mut StdRng, l: f64, mut p: f64) -> u64 {
    let mut k = 1u64;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// A pre-resolved [`poisson`] call for one fixed mean: the chunk count
/// and the final sub-draw's `e^-λ` threshold, both computed once so the
/// hot path never calls `exp` for the (dominant) remainder draw.
///
/// [`PoissonPlan::draw`] consumes the RNG stream exactly as
/// `poisson(rng, lambda)` would — same number of uniforms, same count —
/// which `plan_matches_poisson_draws_and_stream` pins. That equivalence
/// is what lets the event-driven engine draw each tenant's arrivals a
/// whole fleet window ahead, one window after another, without
/// perturbing any stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoissonPlan {
    /// Number of full-`CHUNK` sub-draws; `u32::MAX` is the λ ≤ 0 (or
    /// NaN) sentinel, which returns 0 without touching the RNG.
    chunks: u32,
    /// `e^-remainder` for the final sub-draw.
    l_rem: f64,
}

impl PoissonPlan {
    const CHUNK: f64 = 16.0;

    pub fn new(lambda: f64) -> Self {
        if lambda.is_nan() || lambda <= 0.0 {
            return Self {
                chunks: u32::MAX,
                l_rem: 0.0,
            };
        }
        // Replicates poisson()'s repeated-subtraction loop exactly: the
        // remainder must be bit-identical to what sequential `remaining
        // -= CHUNK` leaves behind, or `e^-remainder` drifts.
        let mut remaining = lambda;
        let mut chunks = 0u32;
        while remaining > Self::CHUNK {
            chunks += 1;
            remaining -= Self::CHUNK;
        }
        Self {
            chunks,
            l_rem: (-remaining).exp(),
        }
    }

    /// Draws one count, consuming the identical RNG stream
    /// `poisson(rng, lambda)` would consume (nothing at all for λ ≤ 0).
    pub fn draw(&self, rng: &mut StdRng) -> u64 {
        if self.chunks == u32::MAX {
            return 0;
        }
        let mut count = 0u64;
        for _ in 0..self.chunks {
            count += poisson_small(rng, Self::CHUNK);
        }
        count + knuth(rng, self.l_rem)
    }
}

/// A seedable per-tenant output-length distribution.
///
/// The geometric-tailed sampler the fleet always used (mirroring
/// `litegpu_sim`'s `LengthDist::GeometricMean`), packaged so each
/// [`crate::workload::Tenant`] carries its own distribution and every
/// draw comes from an explicit RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LengthDist {
    /// Mean length, tokens (clamped to ≥ 1 at sampling time).
    mean: u32,
}

impl LengthDist {
    /// A geometric-tailed distribution around `mean` tokens.
    pub fn geometric(mean: u32) -> Self {
        Self { mean }
    }

    /// The configured mean, tokens.
    pub fn mean(&self) -> u32 {
        self.mean
    }

    /// Draws one length (≥ 1 token, clamped at 16× the mean) from `rng`.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let mean = self.mean.max(1) as f64;
        let u: f64 = rng.random::<f64>().max(1e-12);
        ((-u.ln()) * mean).round().clamp(1.0, 16.0 * mean) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_pattern_is_flat() {
        let t = TrafficPattern::Constant;
        assert_eq!(t.multiplier_at(0.0), 1.0);
        assert_eq!(t.multiplier_at(1e6), 1.0);
    }

    #[test]
    fn diurnal_peaks_at_peak_hour_and_means_one() {
        let t = TrafficPattern::Diurnal {
            amplitude: 0.6,
            peak_hour: 15.0,
        };
        let peak = t.multiplier_at(15.0 * 3600.0);
        let trough = t.multiplier_at(3.0 * 3600.0);
        assert!((peak - 1.6).abs() < 1e-9, "peak = {peak}");
        assert!((trough - 0.4).abs() < 1e-9, "trough = {trough}");
        // Mean multiplier over a day is 1.
        let n = 24 * 60;
        let mean: f64 = (0..n)
            .map(|i| t.multiplier_at(i as f64 * 60.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean = {mean}");
    }

    #[test]
    fn trace_interpolates_and_clamps() {
        let t = TrafficPattern::Trace(vec![(100.0, 1.0), (200.0, 3.0)]);
        assert_eq!(t.multiplier_at(0.0), 1.0);
        assert_eq!(t.multiplier_at(300.0), 3.0);
        assert!((t.multiplier_at(150.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_constructor_rejects_malformed_traces() {
        // Empty.
        assert!(TrafficPattern::Trace(vec![]).validate().is_err());
        // Unsorted times.
        assert!(TrafficPattern::Trace(vec![(10.0, 1.0), (5.0, 1.0)])
            .validate()
            .is_err());
        // Non-finite time or multiplier.
        assert!(TrafficPattern::Trace(vec![(f64::NAN, 1.0)])
            .validate()
            .is_err());
        assert!(
            TrafficPattern::Trace(vec![(0.0, 1.0), (f64::INFINITY, 1.0)])
                .validate()
                .is_err()
        );
        assert!(TrafficPattern::Trace(vec![(0.0, f64::NAN)])
            .validate()
            .is_err());
        assert!(TrafficPattern::Trace(vec![(0.0, f64::INFINITY)])
            .validate()
            .is_err());
        // Negative multiplier.
        assert!(TrafficPattern::Trace(vec![(0.0, -0.5)]).validate().is_err());
        // A well-formed trace passes: single point, ramp, and a
        // duplicate time (a step change — `multiplier_at` handles the
        // zero-width segment explicitly, so it stays legal).
        assert!(TrafficPattern::Trace(vec![(0.0, 0.0)]).validate().is_ok());
        assert!(TrafficPattern::Trace(vec![(0.0, 0.2), (60.0, 1.6)])
            .validate()
            .is_ok());
        assert!(TrafficPattern::Trace(vec![(10.0, 1.0), (10.0, 2.0)])
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_covers_every_pattern_variant() {
        assert!(TrafficPattern::Constant.validate().is_ok());
        assert!(TrafficPattern::Diurnal {
            amplitude: 0.6,
            peak_hour: 15.0
        }
        .validate()
        .is_ok());
        // Amplitude beyond 1 stays legal (the multiplier clamps at 0);
        // negative or non-finite values do not.
        assert!(TrafficPattern::Diurnal {
            amplitude: 1.5,
            peak_hour: 15.0
        }
        .validate()
        .is_ok());
        assert!(TrafficPattern::Diurnal {
            amplitude: -0.1,
            peak_hour: 15.0
        }
        .validate()
        .is_err());
        assert!(TrafficPattern::Diurnal {
            amplitude: f64::NAN,
            peak_hour: 15.0
        }
        .validate()
        .is_err());
        assert!(TrafficPattern::Diurnal {
            amplitude: 0.5,
            peak_hour: f64::NAN
        }
        .validate()
        .is_err());
        // A hand-built (constructor-bypassing) bad trace is still caught.
        assert!(TrafficPattern::Trace(vec![(1.0, 1.0), (0.0, 1.0)])
            .validate()
            .is_err());
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(11);
        for lambda in [0.3, 2.0, 9.0, 40.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / n as f64;
            let tol = 4.0 * (lambda / n as f64).sqrt();
            assert!((mean - lambda).abs() < tol, "lambda {lambda}: mean {mean}");
        }
    }

    #[test]
    fn poisson_deterministic_per_seed_across_both_branches() {
        // Small means take the single Knuth draw; large means exercise
        // the chunked sub-draw branch. Both must replay exactly under a
        // seed and diverge across seeds.
        for lambda in [0.05, 3.0, 16.0, 200.0] {
            let draw = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..200)
                    .map(|_| poisson(&mut rng, lambda))
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw(7), draw(7), "lambda {lambda}");
            assert_ne!(draw(7), draw(8), "lambda {lambda}");
        }
    }

    #[test]
    fn poisson_mean_preserved_at_small_and_large_lambda() {
        let mut rng = StdRng::seed_from_u64(23);
        // Small λ: also check P[0] ≈ e^{-λ} so the small-mean branch is
        // genuinely Poisson, not just mean-matched.
        let lambda = 0.05;
        let n = 200_000u64;
        let draws: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lambda)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 4.0 * (lambda / n as f64).sqrt());
        let zero_frac = draws.iter().filter(|&&k| k == 0).count() as f64 / n as f64;
        assert!((zero_frac - (-lambda).exp()).abs() < 5e-3);
        // Large λ (chunked branch): mean and variance both track λ.
        let lambda = 200.0;
        let n = 20_000u64;
        let draws: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lambda)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 4.0 * (lambda / n as f64).sqrt(),
            "mean = {mean}"
        );
        let var = draws
            .iter()
            .map(|&k| (k as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((var / lambda - 1.0).abs() < 0.1, "variance = {var}");
    }

    #[test]
    fn poisson_zero_and_negative_lambda_yield_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn plan_matches_poisson_draws_and_stream() {
        // The event engine's pre-planned draws must consume the exact
        // RNG stream `poisson` consumes — counts AND stream position —
        // across the sentinel, single-Knuth, chunk-boundary and chunked
        // branches. Interleaving a marker draw after every count pins
        // the stream position, not just the values.
        //
        // At λ = 1e-12, e^-λ is 1 − 1e-12, above all but a
        // one-in-a-trillion share of uniforms; at λ = 1e-17 it rounds to
        // 1.0, above every uniform. Each draw then ends at Knuth's
        // inlined first step with a count of 0.
        for lambda in [
            -1.0,
            0.0,
            1e-17,
            1e-12,
            0.05,
            3.0,
            16.0,
            16.5,
            200.0,
            f64::NAN,
        ] {
            let plan = PoissonPlan::new(lambda);
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            for i in 0..200 {
                let n = poisson(&mut a, lambda);
                assert_eq!(n, plan.draw(&mut b), "lambda {lambda} draw {i}");
                assert!(lambda >= 1e-9 || n == 0, "lambda {lambda} draw {i}: {n}");
                assert_eq!(
                    a.random::<u64>(),
                    b.random::<u64>(),
                    "stream drifted at lambda {lambda} draw {i}"
                );
            }
        }
    }

    #[test]
    fn output_lengths_center_on_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let dist = LengthDist::geometric(500);
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 500.0).abs() < 25.0, "mean = {mean}");
        assert!(LengthDist::geometric(0).sample(&mut rng) >= 1);
    }

    #[test]
    fn output_lengths_deterministic_and_bounded_at_extremes() {
        let draw = |seed: u64, mean: u32| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dist = LengthDist::geometric(mean);
            (0..200).map(|_| dist.sample(&mut rng)).collect::<Vec<_>>()
        };
        for mean in [1u32, 10, 2000] {
            assert_eq!(draw(5, mean), draw(5, mean), "mean {mean}");
            assert!(draw(5, mean).iter().all(|&l| l >= 1 && l <= 16 * mean));
        }
        assert_ne!(draw(5, 10), draw(6, 10));
        // Mean preservation holds at a large mean too (the clamp at
        // 16×mean trims a negligible e^-16 tail).
        let mut rng = StdRng::seed_from_u64(17);
        let n = 50_000;
        let dist = LengthDist::geometric(2000);
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        assert!((mean / 2000.0 - 1.0).abs() < 0.05, "mean = {mean}");
    }
}
