//! GPU power and DVFS modeling.
//!
//! §3 of the paper argues Lite-GPUs enable *finer-grained* power
//! management: a big GPU can only down-clock all of its SMs at once, while
//! a Lite cluster can down-clock (or power off) a subset of its GPUs. This
//! module provides the per-GPU power model those arguments are computed
//! with: a static (idle) floor plus a dynamic component that scales with
//! utilization and cubically with clock (the classic `P ∝ C·V²·f` with
//! voltage tracking frequency).

use crate::gpu::GpuSpec;
use crate::{check_positive, Result, SpecError};

/// Exponent of the dynamic-power/clock relationship (`P_dyn ∝ f^3`).
pub const DVFS_EXPONENT: f64 = 3.0;

/// A GPU power model: static floor + utilization- and clock-dependent
/// dynamic power.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerModel {
    /// Idle (static) power, W.
    pub idle_w: f64,
    /// Dynamic power at nominal clock and full utilization, W.
    pub dynamic_w: f64,
}

impl PowerModel {
    /// Builds the power model for a GPU spec (`dynamic = TDP − idle`).
    pub fn for_spec(spec: &GpuSpec) -> Self {
        Self {
            idle_w: spec.idle_power_w,
            dynamic_w: (spec.tdp_w - spec.idle_power_w).max(0.0),
        }
    }

    /// Power draw at a relative clock (`1.0` = nominal) and utilization
    /// (`0.0..=1.0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_specs::{catalog, power::PowerModel};
    /// let m = PowerModel::for_spec(&catalog::h100());
    /// assert_eq!(m.power_w(1.0, 1.0), 700.0); // TDP at full tilt.
    /// assert_eq!(m.power_w(1.0, 0.0), 75.0);  // Idle floor.
    /// ```
    pub fn power_w(&self, clock_factor: f64, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let f = clock_factor.max(0.0);
        self.idle_w + self.dynamic_w * u * f.powf(DVFS_EXPONENT)
    }

    /// The clock factor at which total power reaches `limit_w` at full
    /// utilization — the sustained-overclock headroom under a given cooling
    /// envelope.
    pub fn max_clock_factor(&self, limit_w: f64) -> Result<f64> {
        check_positive("power limit_w", limit_w)?;
        if limit_w <= self.idle_w {
            return Err(SpecError::CoolingExceeded {
                power_w: self.idle_w,
                limit_w,
            });
        }
        if self.dynamic_w == 0.0 {
            return Ok(1.0);
        }
        Ok(((limit_w - self.idle_w) / self.dynamic_w).powf(1.0 / DVFS_EXPONENT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use proptest::prelude::*;

    fn h100_model() -> PowerModel {
        PowerModel::for_spec(&catalog::h100())
    }

    #[test]
    fn tdp_at_nominal_full_load() {
        let m = h100_model();
        assert!((m.power_w(1.0, 1.0) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_overclock_cost() {
        let m = h100_model();
        // +10% clock costs ~33% more dynamic power.
        let p = m.power_w(1.1, 1.0);
        let expected = 75.0 + 625.0 * 1.1f64.powi(3);
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn max_clock_factor_inverts_power() {
        let m = h100_model();
        let f = m.max_clock_factor(900.0).unwrap();
        assert!((m.power_w(f, 1.0) - 900.0).abs() < 1e-6);
        assert!(f > 1.0);
    }

    #[test]
    fn max_clock_rejects_sub_idle_limit() {
        let m = h100_model();
        assert!(m.max_clock_factor(50.0).is_err());
        assert!(m.max_clock_factor(0.0).is_err());
    }

    #[test]
    fn down_clocking_improves_efficiency() {
        // With a static floor, efficiency peaks below nominal clock but
        // moderate down-clocking still beats nominal perf/W.
        // Performance is linear in clock: compare perf/W at full load.
        let m = h100_model();
        assert!(0.8 / m.power_w(0.8, 1.0) > 1.0 / m.power_w(1.0, 1.0));
    }

    #[test]
    fn lite_gpu_has_lower_idle_floor() {
        let h = PowerModel::for_spec(&catalog::h100());
        let l = PowerModel::for_spec(&catalog::lite_base());
        // Four Lite idle floors ~ one H100 idle floor, but each can be
        // dropped independently - the finer-granularity argument.
        assert!((4.0 * l.idle_w - h.idle_w).abs() / h.idle_w < 0.05);
    }

    proptest! {
        #[test]
        fn power_monotone_in_clock_and_util(
            f1 in 0.1..2.0f64,
            df in 0.01..1.0f64,
            u in 0.0..1.0f64,
        ) {
            let m = h100_model();
            prop_assert!(m.power_w(f1 + df, u) >= m.power_w(f1, u) - 1e-9);
            prop_assert!(m.power_w(f1, u) >= m.power_w(f1, 0.0) - 1e-9);
        }

        #[test]
        fn power_bounded_by_idle_and_oc_tdp(f in 0.0..1.0f64, u in 0.0..1.0f64) {
            let m = h100_model();
            let p = m.power_w(f, u);
            prop_assert!(p >= m.idle_w - 1e-9);
            prop_assert!(p <= m.idle_w + m.dynamic_w + 1e-9);
        }
    }
}
