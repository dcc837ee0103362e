//! Die geometry and the shoreline bandwidth budget.
//!
//! §2 of the paper: "as the die gets larger, its area increases faster than
//! its perimeter ('shoreline') that determines the bandwidth it can
//! utilize". Off-die bandwidth (HBM PHYs + SerDes/optical I/O) is limited
//! by the escape bandwidth per millimetre of die edge. Splitting one die of
//! area `A` into `n` dies of area `A/n` multiplies the total perimeter by
//! `√n`, so a 4-way split doubles the aggregate shoreline — that is the
//! paper's "2× bandwidth-to-compute" headroom, which the Table 1 variants
//! (`+MemBW`, `+NetBW`) spend in different ways.
//!
//! [`ShorelineBudget`] turns a die geometry plus a per-mm escape-bandwidth
//! figure into a checkable budget for memory + network allocations.

use crate::{Result, SpecError};
use litegpu_fab::wafer::DieGeometry;

/// Escape bandwidth per millimetre of die edge, in GB/s per mm.
///
/// Calibrated so that an H100-class die (~814 mm², ~114 mm perimeter)
/// supports its 3352 GB/s of HBM plus 450 GB/s of NVLink with all four
/// edges in use: `(3352 + 450) / 114 ≈ 33.4`. Co-packaged optics is
/// expected to raise this by 1–2 orders of magnitude (§1); the default is
/// deliberately the *conservative electrical* figure so the Lite variants'
/// budgets are self-consistent with today's H100.
pub const DEFAULT_ESCAPE_GBPS_PER_MM: f64 = 33.4;

/// The off-die bandwidth budget implied by a die's shoreline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShorelineBudget {
    /// Die perimeter, mm.
    pub perimeter_mm: f64,
    /// Escape bandwidth per mm of edge, GB/s.
    pub escape_gbps_per_mm: f64,
}

impl ShorelineBudget {
    /// Budget for a die with the default (electrical H100-calibrated)
    /// escape bandwidth.
    pub fn for_die(die: &DieGeometry) -> Self {
        Self {
            perimeter_mm: die.perimeter_mm(),
            escape_gbps_per_mm: DEFAULT_ESCAPE_GBPS_PER_MM,
        }
    }

    /// Total off-die bandwidth this shoreline can carry, GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.perimeter_mm * self.escape_gbps_per_mm
    }

    /// Checks that a memory + network bandwidth allocation fits the budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_fab::wafer::DieGeometry;
    /// use litegpu_specs::die::ShorelineBudget;
    ///
    /// let lite_die = DieGeometry::with_aspect(814.0 / 4.0, 1.0).unwrap();
    /// let budget = ShorelineBudget::for_die(&lite_die);
    /// // Lite+MemBW+NetBW (Table 1): 1675 + 225 GB/s fits the doubled shoreline.
    /// assert!(budget.check_allocation(1675.0, 225.0).is_ok());
    /// // But 4x memory bandwidth would not.
    /// assert!(budget.check_allocation(3352.0, 225.0).is_err());
    /// ```
    pub fn check_allocation(&self, mem_gbps: f64, net_gbps: f64) -> Result<()> {
        let requested = mem_gbps + net_gbps;
        let budget = self.total_gbps();
        if requested > budget * (1.0 + 1e-9) {
            Err(SpecError::ShorelineExceeded {
                requested_gbps: requested,
                budget_gbps: budget,
            })
        } else {
            Ok(())
        }
    }

    /// Fraction of the budget an allocation consumes.
    pub fn utilization(&self, mem_gbps: f64, net_gbps: f64) -> f64 {
        (mem_gbps + net_gbps) / self.total_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn h100_die() -> DieGeometry {
        DieGeometry::with_aspect(814.0, 1.0).unwrap()
    }

    #[test]
    fn h100_budget_covers_h100_allocation() {
        let b = ShorelineBudget::for_die(&h100_die());
        assert!(b.check_allocation(3352.0, 450.0).is_ok());
        assert!(b.utilization(3352.0, 450.0) > 0.95);
    }

    #[test]
    fn quarter_die_has_half_the_budget_each() {
        let b_full = ShorelineBudget::for_die(&h100_die());
        let b_lite = ShorelineBudget::for_die(&h100_die().shrink(4).unwrap());
        let ratio = b_lite.total_gbps() / b_full.total_gbps();
        assert!(
            (ratio - 0.5).abs() < 1e-9,
            "each lite die has half, so 4 dies have 2x"
        );
    }

    #[test]
    fn table1_variants_fit_lite_shoreline() {
        // Every Lite variant in Table 1 must be physically plausible.
        let lite_die = h100_die().shrink(4).unwrap();
        let b = ShorelineBudget::for_die(&lite_die);
        for (mem, net) in [
            (838.0, 112.5),  // Lite
            (838.0, 225.0),  // Lite+NetBW
            (419.0, 225.0),  // Lite+NetBW+FLOPS
            (1675.0, 112.5), // Lite+MemBW
            (1675.0, 225.0), // Lite+MemBW+NetBW
        ] {
            assert!(
                b.check_allocation(mem, net).is_ok(),
                "({mem}, {net}) must fit"
            );
        }
        // The doubled budget is essentially fully used by the biggest variant.
        assert!(b.utilization(1675.0, 225.0) > 0.95);
    }

    #[test]
    fn overallocation_rejected() {
        let b = ShorelineBudget::for_die(&h100_die().shrink(4).unwrap());
        assert!(matches!(
            b.check_allocation(3352.0, 450.0),
            Err(SpecError::ShorelineExceeded { .. })
        ));
    }

    #[test]
    fn custom_escape_bandwidth() {
        let die = h100_die();
        let electrical = ShorelineBudget::for_die(&die);
        let optical = ShorelineBudget {
            escape_gbps_per_mm: 334.0,
            ..electrical
        };
        assert!((optical.total_gbps() / electrical.total_gbps() - 10.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn utilization_consistent_with_check(
            mem in 1.0..5000.0f64,
            net in 1.0..2000.0f64,
            area in 100.0..1000.0f64,
        ) {
            let die = DieGeometry::with_aspect(area, 1.0).unwrap();
            let b = ShorelineBudget::for_die(&die);
            let fits = b.check_allocation(mem, net).is_ok();
            let util = b.utilization(mem, net);
            prop_assert_eq!(fits, util <= 1.0 + 1e-9);
        }
    }
}
