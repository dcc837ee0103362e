//! Derivation of Lite-GPU variants from a parent GPU.
//!
//! §2 of the paper defines a Lite-GPU as "a single compute-die GPU package
//! where the die area is much smaller than that of state-of-the-art". The
//! construction here is the paper's: take a parent spec, split it `n` ways
//! (compute, SMs, memory capacity/bandwidth, network bandwidth and power
//! all divide by `n`), then optionally *customize* how the now-doubled
//! shoreline budget is spent (`+MemBW`, `+NetBW`) and whether the cooling
//! headroom is spent on a sustained overclock (`+FLOPS`). Every
//! customization is validated against the physical budgets
//! ([`crate::die::ShorelineBudget`], [`crate::cooling`]).

use crate::cooling::CoolingClass;
use crate::die::ShorelineBudget;
use crate::gpu::GpuSpec;
use crate::power::PowerModel;
use crate::{check_positive, Result, SpecError};

/// A parent GPU together with a split factor.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiteDerivation {
    /// The GPU being replaced (e.g. H100).
    pub parent: GpuSpec,
    /// How many Lite-GPUs replace one parent (the paper uses 4).
    pub split: u32,
}

/// How a derived Lite-GPU spends its shoreline and thermal headroom.
///
/// Factors are relative to the *proportional* (1/n) baseline: a
/// `mem_bw_factor` of 2.0 doubles memory bandwidth versus the plain Lite,
/// which is what the Table 1 `+MemBW` variant does.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiteCustomization {
    /// Name for the resulting configuration.
    pub name: String,
    /// Memory bandwidth multiplier vs. proportional baseline.
    pub mem_bw_factor: f64,
    /// Network bandwidth multiplier vs. proportional baseline.
    pub net_bw_factor: f64,
    /// Sustained clock multiplier (raises FLOPS linearly, power cubically).
    pub clock_factor: f64,
}

impl LiteCustomization {
    /// The identity customization (plain "Lite").
    pub fn plain(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            mem_bw_factor: 1.0,
            net_bw_factor: 1.0,
            clock_factor: 1.0,
        }
    }
}

impl LiteDerivation {
    /// Creates a derivation; `split` must be ≥ 2 and the parent must be
    /// valid.
    pub fn new(parent: GpuSpec, split: u32) -> Result<Self> {
        parent.validate()?;
        if split < 2 {
            return Err(SpecError::InvalidParameter {
                name: "split",
                value: split as f64,
            });
        }
        Ok(Self { parent, split })
    }

    /// The proportional (1/n) Lite spec: every capability divided by the
    /// split factor, die shrunk by the split factor, fleet size multiplied.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_specs::{catalog, lite::LiteDerivation};
    /// let d = LiteDerivation::new(catalog::h100(), 4).unwrap();
    /// let lite = d.base("Lite").unwrap();
    /// assert_eq!(lite.tflops, 500.0);
    /// assert_eq!(lite.max_gpus, 32);
    /// ```
    pub fn base(&self, name: impl Into<String>) -> Result<GpuSpec> {
        let n = self.split as f64;
        let p = &self.parent;
        let spec = GpuSpec {
            name: name.into(),
            tflops: p.tflops / n,
            sms: (p.sms as f64 / n).round().max(1.0) as u32,
            mem_capacity_gb: p.mem_capacity_gb / n,
            mem_bw_gbps: p.mem_bw_gbps / n,
            net_bw_gbps: p.net_bw_gbps / n,
            max_gpus: p.max_gpus * self.split,
            tdp_w: p.tdp_w / n,
            idle_power_w: p.idle_power_w / n,
            die: p.die.shrink(self.split)?,
            dies_per_package: 1,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A customized Lite spec, validated against the shoreline budget and
    /// the forced-air cooling envelope.
    ///
    /// Power is adjusted for the overclock using the cubic DVFS model, and
    /// for bandwidth deltas using a linear PHY-power estimate.
    pub fn customized(&self, c: &LiteCustomization) -> Result<GpuSpec> {
        check_positive("mem_bw_factor", c.mem_bw_factor)?;
        check_positive("net_bw_factor", c.net_bw_factor)?;
        check_positive("clock_factor", c.clock_factor)?;
        let mut spec = self.base(c.name.clone())?;
        spec.mem_bw_gbps *= c.mem_bw_factor;
        spec.net_bw_gbps *= c.net_bw_factor;
        spec.tflops *= c.clock_factor;

        // Shoreline feasibility.
        let budget = ShorelineBudget::for_die(&spec.die);
        budget.check_allocation(spec.mem_bw_gbps, spec.net_bw_gbps)?;

        // Power: core dynamic power scales cubically with clock; I/O PHY
        // power scales linearly with provisioned bandwidth. Assume ~15% of
        // the dynamic budget is I/O at baseline.
        let model = PowerModel::for_spec(&self.base("tmp")?);
        let io_fraction = 0.15;
        let core_dyn = model.dynamic_w * (1.0 - io_fraction);
        let io_dyn = model.dynamic_w * io_fraction;
        let bw_scale = (spec.mem_bw_gbps + spec.net_bw_gbps)
            / ((self.parent.mem_bw_gbps + self.parent.net_bw_gbps) / self.split as f64);
        spec.tdp_w = model.idle_w
            + core_dyn * c.clock_factor.powf(crate::power::DVFS_EXPONENT)
            + io_dyn * bw_scale;
        spec.idle_power_w = model.idle_w;

        // Cooling feasibility: a Lite-GPU must stay within forced air -
        // that is its whole point.
        let limit = CoolingClass::ForcedAir.limit_w();
        if spec.tdp_w > limit {
            return Err(SpecError::CoolingExceeded {
                power_w: spec.tdp_w,
                limit_w: limit,
            });
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn derivation() -> LiteDerivation {
        LiteDerivation::new(catalog::h100(), 4).unwrap()
    }

    #[test]
    fn base_matches_catalog_lite() {
        let lite = derivation().base("Lite").unwrap();
        let cat = catalog::lite_base();
        assert_eq!(lite.tflops, cat.tflops);
        assert_eq!(lite.sms, cat.sms);
        assert_eq!(lite.mem_capacity_gb, cat.mem_capacity_gb);
        assert_eq!(lite.mem_bw_gbps, cat.mem_bw_gbps);
        assert_eq!(lite.net_bw_gbps, cat.net_bw_gbps);
        assert_eq!(lite.max_gpus, cat.max_gpus);
        assert!((lite.tdp_w - cat.tdp_w).abs() < 1e-9);
    }

    #[test]
    fn split_must_be_at_least_two() {
        assert!(LiteDerivation::new(catalog::h100(), 1).is_err());
        assert!(LiteDerivation::new(catalog::h100(), 0).is_err());
    }

    #[test]
    fn customization_reproduces_table1_mem_bw_variant() {
        let d = derivation();
        let c = LiteCustomization {
            name: "Lite+MemBW".into(),
            mem_bw_factor: 2.0,
            net_bw_factor: 1.0,
            clock_factor: 1.0,
        };
        let spec = d.customized(&c).unwrap();
        let cat = catalog::lite_mem_bw();
        // 2 x 838 = 1676; the paper's Table 1 rounds to 1675.
        assert!((spec.mem_bw_gbps - cat.mem_bw_gbps).abs() <= 1.0);
        assert_eq!(spec.net_bw_gbps, cat.net_bw_gbps);
    }

    #[test]
    fn customization_reproduces_flops_variant() {
        let d = derivation();
        let c = LiteCustomization {
            name: "Lite+NetBW+FLOPS".into(),
            mem_bw_factor: 0.5,
            net_bw_factor: 2.0,
            clock_factor: 1.1,
        };
        let spec = d.customized(&c).unwrap();
        assert!((spec.tflops - 550.0).abs() < 1e-9);
        assert!((spec.mem_bw_gbps - 419.0).abs() < 1.0);
        assert!((spec.net_bw_gbps - 225.0).abs() < 1e-9);
        // Overclocked variant stays within forced air.
        assert!(spec.tdp_w <= CoolingClass::ForcedAir.limit_w());
    }

    #[test]
    fn infeasible_shoreline_rejected() {
        let d = derivation();
        let c = LiteCustomization {
            name: "absurd".into(),
            mem_bw_factor: 4.0, // 3352 GB/s on a quarter die: impossible.
            net_bw_factor: 2.0,
            clock_factor: 1.0,
        };
        assert!(matches!(
            d.customized(&c),
            Err(SpecError::ShorelineExceeded { .. })
        ));
    }

    #[test]
    fn infeasible_overclock_rejected() {
        let d = derivation();
        let c = LiteCustomization {
            name: "molten".into(),
            mem_bw_factor: 1.0,
            net_bw_factor: 1.0,
            clock_factor: 1.6, // Cubic power puts this past forced air.
        };
        assert!(matches!(
            d.customized(&c),
            Err(SpecError::CoolingExceeded { .. })
        ));
    }

    #[test]
    fn headroom_allows_ten_percent() {
        // The cooling-limited sustained clock of the base Lite spec.
        let base = derivation().base("Lite").unwrap();
        let h = crate::cooling::assess(&base).unwrap().max_sustained_clock;
        assert!(h >= 1.1, "headroom = {h}");
    }

    #[test]
    fn plain_customization_is_identity_on_bandwidth() {
        let d = derivation();
        let spec = d.customized(&LiteCustomization::plain("Lite")).unwrap();
        let base = d.base("Lite").unwrap();
        assert_eq!(spec.mem_bw_gbps, base.mem_bw_gbps);
        assert_eq!(spec.net_bw_gbps, base.net_bw_gbps);
        assert_eq!(spec.tflops, base.tflops);
        // TDP is re-derived through the power model but stays close.
        assert!((spec.tdp_w - base.tdp_w).abs() / base.tdp_w < 0.02);
    }

    #[test]
    fn sixteen_way_split_also_works() {
        let d = LiteDerivation::new(catalog::h100(), 16).unwrap();
        let s = d.base("Micro").unwrap();
        assert_eq!(s.max_gpus, 128);
        assert!((s.tflops - 125.0).abs() < 1e-9);
        assert!(s.validate().is_ok());
    }
}
