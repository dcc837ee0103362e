//! Synthetic request workload generation.
//!
//! Substitutes for the production traces the paper references (Splitwise's
//! coding workload, median prompt 1500 tokens): a Poisson arrival process
//! with configurable prompt/output length distributions, fully
//! deterministic under a seed.

use crate::des::{secs, SimTime};
use crate::{Result, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Request id (arrival order).
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length, tokens.
    pub prompt_len: u32,
    /// Output length, tokens.
    pub output_len: u32,
}

/// Length distribution for prompts/outputs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LengthDist {
    /// Every request has the same length.
    Fixed(u32),
    /// Geometric-tailed around a mean (production-ish skew).
    GeometricMean(u32),
}

impl LengthDist {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match self {
            LengthDist::Fixed(n) => (*n).max(1),
            LengthDist::GeometricMean(mean) => {
                let mean = (*mean).max(1) as f64;
                let u: f64 = rng.random::<f64>().max(1e-12);
                ((-u.ln()) * mean).round().clamp(1.0, 16.0 * mean) as u32
            }
        }
    }
}

/// A Poisson request source.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    /// Mean arrival rate, requests/second.
    pub rate_per_s: f64,
    /// Prompt-length distribution (paper default: fixed 1500).
    pub prompt: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
}

impl Workload {
    /// The paper's workload shape: fixed 1500-token prompts, ~500-token
    /// outputs.
    pub fn paper_coding(rate_per_s: f64) -> Self {
        Self {
            rate_per_s,
            prompt: LengthDist::Fixed(1500),
            output: LengthDist::GeometricMean(500),
        }
    }

    /// Generates all arrivals within `[0, horizon_s)`.
    pub fn generate(&self, horizon_s: f64, seed: u64) -> Result<Vec<Request>> {
        if !self.rate_per_s.is_finite() || self.rate_per_s <= 0.0 {
            return Err(SimError::InvalidParameter {
                name: "rate_per_s",
                value: self.rate_per_s,
            });
        }
        if !horizon_s.is_finite() || horizon_s <= 0.0 {
            return Err(SimError::InvalidParameter {
                name: "horizon_s",
                value: horizon_s,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut id = 0u64;
        loop {
            let u: f64 = rng.random::<f64>().max(1e-300);
            t += -u.ln() / self.rate_per_s;
            if t >= horizon_s {
                break;
            }
            out.push(Request {
                id,
                arrival: secs(t),
                prompt_len: self.prompt.sample(&mut rng),
                output_len: self.output.sample(&mut rng),
            });
            id += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let w = Workload::paper_coding(2.0);
        let a = w.generate(100.0, 7).unwrap();
        let b = w.generate(100.0, 7).unwrap();
        assert_eq!(a, b);
        let c = w.generate(100.0, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_rate_approximates_lambda() {
        let w = Workload::paper_coding(5.0);
        let reqs = w.generate(2000.0, 1).unwrap();
        let rate = reqs.len() as f64 / 2000.0;
        assert!((rate - 5.0).abs() < 0.3, "rate = {rate}");
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let w = Workload::paper_coding(3.0);
        let reqs = w.generate(50.0, 2).unwrap();
        for pair in reqs.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(reqs.iter().all(|r| r.arrival < secs(50.0)));
    }

    #[test]
    fn fixed_prompt_lengths() {
        let w = Workload::paper_coding(2.0);
        let reqs = w.generate(50.0, 3).unwrap();
        assert!(reqs.iter().all(|r| r.prompt_len == 1500));
        assert!(reqs.iter().all(|r| r.output_len >= 1));
    }

    #[test]
    fn geometric_mean_is_roughly_mean() {
        let d = LengthDist::GeometricMean(500);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 500.0).abs() < 25.0, "mean = {mean}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let w = Workload::paper_coding(0.0);
        assert!(w.generate(10.0, 1).is_err());
        let w = Workload::paper_coding(1.0);
        assert!(w.generate(0.0, 1).is_err());
    }
}
