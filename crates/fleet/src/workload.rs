//! The fleet-level workload API: a multi-tenant [`WorkloadSpec`].
//!
//! The paper's fleet-granularity argument (§3) is ultimately about
//! serving many heterogeneous tenants well — elasticity, power gating and
//! routing only pay off when distinct traffic classes with distinct SLOs
//! contend for the fleet. A [`WorkloadSpec`] describes that contention:
//! a list of [`Tenant`]s, each with its own traffic pattern, share of the
//! fleet's arrival rate, prompt/output-length shape, scheduling
//! [`PriorityClass`], and per-tenant TTFT/TBT SLO targets. The engine
//! samples each tenant's Poisson arrival stream per cell from a dedicated
//! RNG stream (inside the shard partition, so reports stay byte-identical
//! at any shard/thread count), routes arrivals in priority order, and
//! reports per-tenant SLO attainment in
//! [`crate::report::FleetReport::per_tenant`].

use crate::traffic::{LengthDist, TrafficPattern};
pub use litegpu_ctrl::PriorityClass;

/// One traffic source sharing the fleet.
///
/// A tenant's SLO targets default to the engine-wide constraints from
/// `EngineParams` when left `None`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tenant {
    /// Tenant name (report key; keep unique within a spec).
    pub name: String,
    /// Time-varying modulation of this tenant's arrival rate.
    pub pattern: TrafficPattern,
    /// Relative share of [`WorkloadSpec::rate_per_instance_s`] at
    /// multiplier 1 (normalized over the sum of all shares).
    pub rate_share: f64,
    /// Mean prompt length, tokens; `None` uses the engine's configured
    /// prompt length. Prefill time scales linearly with this relative to
    /// the engine default (the roofline prefill is compute-bound).
    pub prompt_len_mean: Option<u32>,
    /// Output-length distribution (seedable, sampled per request).
    pub output_len: LengthDist,
    /// Scheduling class: admission and routing order, and what admission
    /// control may shed under pressure.
    pub priority: PriorityClass,
    /// TTFT SLO target, seconds; `None` uses the engine constraint.
    pub ttft_slo_s: Option<f64>,
    /// TBT SLO target, seconds; `None` uses the engine constraint.
    pub tbt_slo_s: Option<f64>,
}

impl Tenant {
    /// A tenant with the given name, pattern, share and priority, using
    /// the engine-default prompt length and SLOs and a 500-token
    /// geometric output distribution.
    ///
    /// ```
    /// use litegpu_fleet::ctrl::PriorityClass;
    /// use litegpu_fleet::{LengthDist, Tenant, TrafficPattern};
    ///
    /// let mut batch = Tenant::new(
    ///     "nightly-eval",
    ///     TrafficPattern::Constant,
    ///     1.0,
    ///     PriorityClass::Batch,
    /// );
    /// batch.output_len = LengthDist::geometric(800); // long generations
    /// batch.ttft_slo_s = Some(30.0); // relaxed first-token target
    /// batch.validate().unwrap();
    /// ```
    pub fn new(
        name: impl Into<String>,
        pattern: TrafficPattern,
        rate_share: f64,
        priority: PriorityClass,
    ) -> Self {
        Self {
            name: name.into(),
            pattern,
            rate_share,
            prompt_len_mean: None,
            output_len: LengthDist::geometric(500),
            priority,
            ttft_slo_s: None,
            tbt_slo_s: None,
        }
    }

    /// Checks this tenant's structural contract.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.name.is_empty() {
            return Err("tenant name must be non-empty");
        }
        self.pattern.validate()?;
        if !(self.rate_share.is_finite() && self.rate_share > 0.0) {
            return Err("tenant rate_share must be finite and positive");
        }
        if self.prompt_len_mean == Some(0) {
            return Err("tenant prompt_len_mean must be at least 1 token");
        }
        for slo in [self.ttft_slo_s, self.tbt_slo_s].into_iter().flatten() {
            if !(slo.is_finite() && slo > 0.0) {
                return Err("tenant SLO targets must be finite and positive");
            }
        }
        Ok(())
    }
}

/// A complete fleet workload: the total base arrival rate and the tenants
/// sharing it.
///
/// # Examples
///
/// ```
/// use litegpu_fleet::ctrl::PriorityClass;
/// use litegpu_fleet::{Tenant, TrafficPattern, WorkloadSpec};
///
/// let spec = WorkloadSpec {
///     rate_per_instance_s: 2.0,
///     tenants: vec![
///         Tenant::new("chat", TrafficPattern::Constant, 3.0, PriorityClass::Interactive),
///         Tenant::new("scavenge", TrafficPattern::Constant, 1.0, PriorityClass::BestEffort),
///     ],
/// };
/// spec.validate().unwrap();
/// // Shares are relative: "chat" owns 3/4 of the 2.0 req/s base rate.
/// assert_eq!(spec.share_fractions(), vec![0.75, 0.25]);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    /// Total mean arrival rate per instance at multiplier 1,
    /// requests/second, split over the tenants by their shares.
    pub rate_per_instance_s: f64,
    /// The traffic sources sharing the fleet (at least one).
    pub tenants: Vec<Tenant>,
}

impl WorkloadSpec {
    /// The paper-flavoured single-tenant default: diurnal swing peaking
    /// mid-afternoon, ~500-token outputs, interactive priority.
    pub fn diurnal_demo(rate_per_instance_s: f64) -> Self {
        let pattern = TrafficPattern::Diurnal {
            amplitude: 0.6,
            peak_hour: 15.0,
        };
        Self {
            rate_per_instance_s,
            tenants: vec![Tenant::new(
                "default",
                pattern,
                1.0,
                PriorityClass::Interactive,
            )],
        }
    }

    /// The multi-tenant demo: three tenants with distinct shapes, SLOs
    /// and priorities contending for the fleet —
    ///
    /// - `chat` (interactive, 50% share): diurnal, short outputs, tight
    ///   TTFT;
    /// - `batch` (batch, 30% share): flat, long outputs, relaxed TTFT;
    /// - `scavenge` (best effort, 20% share): diurnal, first to be shed
    ///   when the afternoon peak outruns fleet capacity.
    pub fn multi_tenant_demo(rate_per_instance_s: f64) -> Self {
        let diurnal = TrafficPattern::Diurnal {
            amplitude: 0.6,
            peak_hour: 15.0,
        };
        let mut chat = Tenant::new("chat", diurnal.clone(), 5.0, PriorityClass::Interactive);
        chat.output_len = LengthDist::geometric(400);
        let mut batch = Tenant::new("batch", TrafficPattern::Constant, 3.0, PriorityClass::Batch);
        batch.output_len = LengthDist::geometric(800);
        batch.ttft_slo_s = Some(30.0);
        let mut scavenge = Tenant::new("scavenge", diurnal, 2.0, PriorityClass::BestEffort);
        scavenge.output_len = LengthDist::geometric(300);
        scavenge.ttft_slo_s = Some(60.0);
        Self {
            rate_per_instance_s,
            tenants: vec![chat, batch, scavenge],
        }
    }

    /// Checks the whole spec: a positive finite base rate, at least one
    /// tenant (at most `u16::MAX`), unique names, and every tenant's own
    /// contract.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(self.rate_per_instance_s.is_finite() && self.rate_per_instance_s >= 0.0) {
            return Err("workload rate_per_instance_s must be finite and non-negative");
        }
        if self.tenants.is_empty() {
            return Err("workload must have at least one tenant");
        }
        if self.tenants.len() > u16::MAX as usize {
            return Err("workload supports at most 65535 tenants");
        }
        for t in &self.tenants {
            t.validate()?;
        }
        for (i, a) in self.tenants.iter().enumerate() {
            if self.tenants[i + 1..].iter().any(|b| b.name == a.name) {
                return Err("tenant names must be unique");
            }
        }
        Ok(())
    }

    /// Sum of tenant shares (the normalization denominator).
    pub fn share_total(&self) -> f64 {
        self.tenants.iter().map(|t| t.rate_share).sum()
    }

    /// Every tenant's normalized share of the base rate, in `[0, 1]`,
    /// indexed by tenant id.
    pub fn share_fractions(&self) -> Vec<f64> {
        let total = self.share_total();
        self.tenants
            .iter()
            .map(|t| {
                if total > 0.0 {
                    t.rate_share / total
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Share-weighted mean output length, tokens (capacity estimates use
    /// this; identical to the tenant mean for single-tenant specs).
    pub fn mean_output_len(&self) -> f64 {
        self.share_fractions()
            .iter()
            .zip(&self.tenants)
            .map(|(f, t)| f * t.output_len.mean().max(1) as f64)
            .sum::<f64>()
            .max(1.0)
    }

    /// Share-weighted mean prefill-cost scale relative to the engine's
    /// default prompt length: tenants that override
    /// [`Tenant::prompt_len_mean`] pay proportionally longer prefills,
    /// and capacity estimates must price that in. 1.0 when no tenant
    /// overrides its prompt.
    pub fn mean_prompt_scale(&self, default_prompt_len: u32) -> f64 {
        let den = default_prompt_len.max(1) as f64;
        self.share_fractions()
            .iter()
            .zip(&self.tenants)
            .map(|(f, t)| f * t.prompt_len_mean.unwrap_or(default_prompt_len).max(1) as f64 / den)
            .sum::<f64>()
            .max(f64::EPSILON)
    }

    /// Tenant indices in admission order: priority class first
    /// (interactive → batch → best effort), then declaration order —
    /// the order the router grants queue room in.
    pub fn priority_order(&self) -> Vec<u16> {
        let mut order: Vec<u16> = (0..self.tenants.len() as u16).collect();
        order.sort_by_key(|&i| (self.tenants[i as usize].priority, i));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_demo_is_one_default_interactive_tenant() {
        let spec = WorkloadSpec::diurnal_demo(1.5);
        spec.validate().unwrap();
        assert_eq!(spec.tenants.len(), 1);
        assert_eq!(spec.tenants[0].name, "default");
        assert_eq!(spec.tenants[0].priority, PriorityClass::Interactive);
        assert_eq!(spec.tenants[0].output_len.mean(), 500);
        assert_eq!(spec.tenants[0].ttft_slo_s, None);
        assert!((spec.mean_output_len() - 500.0).abs() < 1e-9);
        // The one tenant carries the whole modulated rate.
        assert_eq!(spec.share_fractions(), vec![1.0]);
    }

    #[test]
    fn shares_normalize_and_weight_rates() {
        let spec = WorkloadSpec {
            rate_per_instance_s: 2.0,
            tenants: vec![
                Tenant::new(
                    "a",
                    TrafficPattern::Constant,
                    3.0,
                    PriorityClass::Interactive,
                ),
                Tenant::new("b", TrafficPattern::Constant, 1.0, PriorityClass::Batch),
            ],
        };
        assert!((spec.share_total() - 4.0).abs() < 1e-12);
        // Shares are relative and sum to one across tenants.
        assert_eq!(spec.share_fractions(), vec![0.75, 0.25]);
    }

    #[test]
    fn priority_order_sorts_classes_then_declaration() {
        let spec = WorkloadSpec {
            rate_per_instance_s: 1.0,
            tenants: vec![
                Tenant::new(
                    "be",
                    TrafficPattern::Constant,
                    1.0,
                    PriorityClass::BestEffort,
                ),
                Tenant::new("b1", TrafficPattern::Constant, 1.0, PriorityClass::Batch),
                Tenant::new(
                    "i",
                    TrafficPattern::Constant,
                    1.0,
                    PriorityClass::Interactive,
                ),
                Tenant::new("b2", TrafficPattern::Constant, 1.0, PriorityClass::Batch),
            ],
        };
        assert_eq!(spec.priority_order(), vec![2, 1, 3, 0]);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let good = WorkloadSpec::multi_tenant_demo(1.5);
        good.validate().unwrap();

        let mut s = good.clone();
        s.rate_per_instance_s = f64::NAN;
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants.clear();
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[0].rate_share = 0.0;
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[0].name.clear();
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[1].name = s.tenants[0].name.clone();
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[0].ttft_slo_s = Some(-1.0);
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[0].prompt_len_mean = Some(0);
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.tenants[0].pattern = TrafficPattern::Trace(vec![(5.0, 1.0), (1.0, 1.0)]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn mean_prompt_scale_weights_overrides_by_share() {
        let mut spec = WorkloadSpec {
            rate_per_instance_s: 1.0,
            tenants: vec![
                Tenant::new(
                    "a",
                    TrafficPattern::Constant,
                    3.0,
                    PriorityClass::Interactive,
                ),
                Tenant::new("b", TrafficPattern::Constant, 1.0, PriorityClass::Batch),
            ],
        };
        // No overrides: scale 1 regardless of the engine default.
        assert!((spec.mean_prompt_scale(1000) - 1.0).abs() < 1e-12);
        // Tenant b (25% share) uses 4x prompts: 0.75·1 + 0.25·4 = 1.75.
        spec.tenants[1].prompt_len_mean = Some(4000);
        assert!((spec.mean_prompt_scale(1000) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn multi_tenant_demo_covers_every_priority_class() {
        let spec = WorkloadSpec::multi_tenant_demo(2.0);
        let classes: Vec<PriorityClass> = spec.tenants.iter().map(|t| t.priority).collect();
        assert_eq!(
            classes,
            [
                PriorityClass::Interactive,
                PriorityClass::Batch,
                PriorityClass::BestEffort
            ]
        );
        // Shares sum the base rate back up.
        let total: f64 = spec.share_fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn specs_serialize_deterministically() {
        let spec = WorkloadSpec::multi_tenant_demo(1.5);
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(json, serde_json::to_string(&spec).unwrap());
        for key in ["chat", "batch", "scavenge", "Interactive", "BestEffort"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
