//! Interconnect capital cost: what attaching a fleet of GPUs to the
//! serving fabric costs in dollars.
//!
//! §3's network story has a price tag the bandwidth models alone don't
//! expose: every Lite-GPU is its own fabric endpoint, so replacing one
//! big GPU with `n` small ones multiplies endpoint count by `n` while
//! (per Table 1) keeping aggregate bandwidth constant. This module
//! prices that trade — per-endpoint attach cost, per-GB/s optics and
//! switch-port silicon, and per-switch chassis overhead derived from a
//! [`Topology`]'s switch count — so the TCO optimizer can weigh the
//! extra endpoints against the §2 silicon savings in one unit.

use crate::topology::Topology;
use crate::{check_non_negative, Result};

/// Capital-cost model for one serving fabric.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FabricCostModel {
    /// Fabric topology (sets the switch count; endpoint counts beyond
    /// one fabric instance tile into additional instances).
    pub topology: Topology,
    /// Fixed cost per attached endpoint, USD (cage, cabling, bring-up).
    pub usd_per_endpoint: f64,
    /// Cost per GB/s of per-endpoint bandwidth, USD (optics plus the
    /// switch-port silicon it terminates on — this is the term Table 1
    /// holds constant across die sizes).
    pub usd_per_gb_s: f64,
    /// Fixed cost per switch, USD (chassis, management, power shelf).
    pub usd_per_switch: f64,
}

impl FabricCostModel {
    /// The default serving-fabric pricing: a non-blocking two-tier
    /// leaf/spine fabric with public-estimate optics and switch costs.
    pub fn paper_default() -> Self {
        Self {
            topology: Topology::Hierarchical {
                leaf_radix: 64,
                spine_radix: 64,
                oversubscription: 1.0,
            },
            usd_per_endpoint: 100.0,
            usd_per_gb_s: 8.0,
            usd_per_switch: 5_000.0,
        }
    }

    /// Validates the pricing parameters and the topology.
    pub fn validate(&self) -> Result<()> {
        self.topology.validate()?;
        check_non_negative("usd_per_endpoint", self.usd_per_endpoint)?;
        check_non_negative("usd_per_gb_s", self.usd_per_gb_s)?;
        check_non_negative("usd_per_switch", self.usd_per_switch)?;
        Ok(())
    }

    /// Capital cost of attaching `endpoints` GPUs, each with
    /// `per_endpoint_gb_s` of network bandwidth, USD.
    ///
    /// Endpoint counts beyond one fabric instance's capacity tile into
    /// additional instances (each with its own switches), so the cost is
    /// defined for any fleet size.
    pub fn capex_usd(&self, endpoints: u32, per_endpoint_gb_s: f64) -> Result<f64> {
        self.validate()?;
        check_non_negative("per_endpoint_gb_s", per_endpoint_gb_s)?;
        let capacity = self.topology.max_endpoints().max(1);
        let mut switches: u64 = 0;
        let mut left = endpoints;
        while left > 0 {
            let hosted = left.min(capacity);
            switches += self.topology.switch_count(hosted)? as u64;
            left -= hosted;
        }
        Ok(
            endpoints as f64 * (self.usd_per_endpoint + per_endpoint_gb_s * self.usd_per_gb_s)
                + switches as f64 * self.usd_per_switch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        FabricCostModel::paper_default().validate().unwrap();
    }

    #[test]
    fn rejects_negative_prices() {
        let mut m = FabricCostModel::paper_default();
        m.usd_per_gb_s = -1.0;
        assert!(m.validate().is_err());
        assert!(m.capex_usd(8, 450.0).is_err());
    }

    #[test]
    fn zero_endpoints_cost_nothing() {
        let m = FabricCostModel::paper_default();
        assert_eq!(m.capex_usd(0, 450.0).unwrap(), 0.0);
    }

    #[test]
    fn equal_aggregate_bandwidth_pays_for_extra_endpoints() {
        // Table 1's trade: 8 H100 endpoints at 450 GB/s vs 32 Lite
        // endpoints at 112.5 GB/s carry the same aggregate bandwidth, so
        // the bandwidth term matches exactly and the Lite fabric pays
        // only the per-endpoint attach overhead (plus any extra switch
        // share).
        let m = FabricCostModel::paper_default();
        let h100 = m.capex_usd(8, 450.0).unwrap();
        let lite = m.capex_usd(32, 112.5).unwrap();
        let bw_term = 8.0 * 450.0 * m.usd_per_gb_s;
        assert!(h100 >= bw_term && lite >= bw_term);
        assert!(
            lite > h100,
            "more endpoints must cost more: {lite} vs {h100}"
        );
        assert!(
            lite - h100 <= 24.0 * m.usd_per_endpoint + m.usd_per_switch,
            "the premium is bounded by attach cost plus one switch: {}",
            lite - h100
        );
    }

    #[test]
    fn oversized_fleets_tile_into_more_fabric_instances() {
        // Radix-4 leaves split 2 down, 2 up; 4 spines: 8 endpoints per
        // fabric on 4 leaves + 2 spines.
        let m = FabricCostModel {
            topology: Topology::Hierarchical {
                leaf_radix: 4,
                spine_radix: 4,
                oversubscription: 1.0,
            },
            ..FabricCostModel::paper_default()
        };
        assert_eq!(m.topology.max_endpoints(), 8);
        // 20 endpoints tile into fabrics of 8, 8 and 4 endpoints: 6 + 6
        // switches, then 2 leaves + 2 spines.
        let c = m.capex_usd(20, 100.0).unwrap();
        let expected =
            20.0 * (m.usd_per_endpoint + 100.0 * m.usd_per_gb_s) + 16.0 * m.usd_per_switch;
        assert!((c - expected).abs() < 1e-9, "got {c}, want {expected}");
    }

    #[test]
    fn switch_cost_scales_with_fleet() {
        let m = FabricCostModel::paper_default();
        let small = m.capex_usd(64, 112.5).unwrap();
        let big = m.capex_usd(1024, 112.5).unwrap();
        assert!(big > 16.0 * small * 0.9, "per-endpoint cost roughly flat");
    }
}
