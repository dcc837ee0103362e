//! Failure injection and hot-spare policy for serving simulations.
//!
//! §3: "if one GPU out of a group of GPUs serving a model instance fails,
//! the entire instance is taken offline" — the instance-wide blast radius —
//! and "hot spares ... can be activated to serve a model instance while
//! recovering from a failure". The simulator injects instance failures at
//! a configurable accelerated rate (real AFRs would need year-long
//! horizons) and recovers either via a spare (fast swap) or via repair
//! (slow).

use crate::des::{secs, SimTime};
use crate::{Result, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failure-injection plan for a serving simulation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailurePlan {
    /// Mean failures per instance per simulated hour (accelerated rate).
    pub failures_per_instance_hour: f64,
    /// Hot spares available (instance-sized).
    pub spares: u32,
    /// Time to activate a spare, seconds.
    pub spare_swap_s: f64,
    /// Repair time without a spare, seconds.
    pub repair_s: f64,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        Self {
            failures_per_instance_hour: 0.0,
            spares: 0,
            spare_swap_s: 10.0,
            repair_s: 600.0,
        }
    }

    /// An accelerated stress plan: roughly one failure per instance per
    /// 10 minutes of simulated time.
    pub fn stress(spares: u32) -> Self {
        Self {
            failures_per_instance_hour: 6.0,
            spares,
            spare_swap_s: 10.0,
            repair_s: 600.0,
        }
    }

    /// Pre-generates failure times for `instances` instances over
    /// `horizon_s`, as `(time, instance)` pairs sorted by time.
    pub fn generate(
        &self,
        instances: usize,
        horizon_s: f64,
        seed: u64,
    ) -> Result<Vec<(SimTime, usize)>> {
        if self.failures_per_instance_hour < 0.0 || !self.failures_per_instance_hour.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "failures_per_instance_hour",
                value: self.failures_per_instance_hour,
            });
        }
        if self.failures_per_instance_hour == 0.0 || instances == 0 {
            return Ok(Vec::new());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_fa11);
        let rate_per_s = self.failures_per_instance_hour / 3600.0;
        let mut events = Vec::new();
        for inst in 0..instances {
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.random::<f64>().max(1e-300);
                t += -u.ln() / rate_per_s;
                if t >= horizon_s {
                    break;
                }
                events.push((secs(t), inst));
            }
        }
        events.sort_unstable();
        Ok(events)
    }

    /// Recovery delay for a failure, given whether a spare was free.
    pub fn recovery_delay(&self, spare_available: bool) -> SimTime {
        if spare_available {
            secs(self.spare_swap_s)
        } else {
            secs(self.repair_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_generates_nothing() {
        let p = FailurePlan::none();
        assert!(p.generate(8, 1000.0, 1).unwrap().is_empty());
    }

    #[test]
    fn stress_plan_rate_approximates() {
        let p = FailurePlan::stress(0);
        let ev = p.generate(4, 36_000.0, 2).unwrap();
        // 4 instances x 6/hour x 10 hours = 240 expected.
        let n = ev.len() as f64;
        assert!((n - 240.0).abs() < 60.0, "n = {n}");
    }

    #[test]
    fn events_sorted_and_attributed() {
        let p = FailurePlan::stress(0);
        let ev = p.generate(3, 3600.0, 3).unwrap();
        for w in ev.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(ev.iter().all(|&(_, i)| i < 3));
    }

    #[test]
    fn recovery_delay_depends_on_spares() {
        let p = FailurePlan::stress(1);
        assert!(p.recovery_delay(true) < p.recovery_delay(false));
        assert_eq!(p.recovery_delay(true), secs(10.0));
    }

    #[test]
    fn negative_rate_rejected() {
        let mut p = FailurePlan::none();
        p.failures_per_instance_hour = -1.0;
        assert!(p.generate(1, 10.0, 1).is_err());
    }
}
