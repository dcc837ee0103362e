//! Correlated failure domains: instance → rack → power domain.
//!
//! §3's blast-radius argument is not only about a single die failing —
//! racks lose power feeds, power domains trip breakers, and cooling
//! excursions clamp whole shelves at once. This module maps a homogeneous
//! fleet of model instances onto a physical rack/power-domain topology so
//! a chaos engine can ask "which instances die when rack `r` goes dark?"
//!
//! The packing model is deliberately power-first: instances are laid out
//! contiguously by their power draw (instance `i` occupies the integer
//! milliwatt span `[i·inst_mw, (i+1)·inst_mw)`), and rack `r` owns the
//! span `[r·rack_mw, (r+1)·rack_mw)`. A rack loss takes out **every
//! instance whose span overlaps the rack's** — including instances that
//! straddle a rack boundary and die as collateral. That straddle
//! collateral is where granularity pays: big instances (H100-class) span
//! rack boundaries more often per watt than small ones, so at equal rack
//! power the big-die fleet strands a larger capacity fraction per rack
//! loss. The `rack_loss_strands_less_capacity_under_lite` property test
//! below pins that down, echoing `failure::blast_radius_quarter_of_h100`
//! at the domain level.
//!
//! All arithmetic is integer milliwatts so the topology is exact and
//! deterministic — the chaos engine's byte-identical-report guarantee
//! extends through domain membership.

use crate::{ClusterError, Result};

/// A fleet's physical failure-domain topology, derived deterministically
/// from instance count and per-instance/per-rack power budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DomainTopology {
    /// Number of model instances in the fleet.
    pub instances: u32,
    /// Power draw of one instance, integer milliwatts.
    pub instance_mw: u64,
    /// Power budget of one rack, integer milliwatts.
    pub rack_mw: u64,
    /// Racks fed by one power domain (breaker group).
    pub racks_per_power_domain: u32,
}

impl DomainTopology {
    /// Builds a topology; all quantities must be positive and a rack must
    /// fit at least one instance.
    pub fn new(
        instances: u32,
        instance_mw: u64,
        rack_mw: u64,
        racks_per_power_domain: u32,
    ) -> Result<Self> {
        for (name, v) in [
            ("instances", instances as f64),
            ("instance_mw", instance_mw as f64),
            ("rack_mw", rack_mw as f64),
            ("racks_per_power_domain", racks_per_power_domain as f64),
        ] {
            if v <= 0.0 {
                return Err(ClusterError::InvalidParameter { name, value: v });
            }
        }
        if rack_mw < instance_mw {
            return Err(ClusterError::InvalidParameter {
                name: "rack_mw (must fit one instance)",
                value: rack_mw as f64,
            });
        }
        Ok(Self {
            instances,
            instance_mw,
            rack_mw,
            racks_per_power_domain,
        })
    }

    /// Total fleet power, milliwatts.
    pub fn fleet_mw(&self) -> u64 {
        self.instances as u64 * self.instance_mw
    }

    /// Number of racks needed to host the fleet.
    pub fn num_racks(&self) -> u32 {
        self.fleet_mw().div_ceil(self.rack_mw).max(1) as u32
    }

    /// Number of power domains (groups of `racks_per_power_domain` racks).
    pub fn num_power_domains(&self) -> u32 {
        self.num_racks().div_ceil(self.racks_per_power_domain)
    }

    /// Instances lost when rack `r` goes dark: every instance whose power
    /// span overlaps the rack's, including boundary-straddling collateral.
    pub fn rack_instances(&self, rack: u32) -> core::ops::Range<u32> {
        let lo = (rack as u64 * self.rack_mw) / self.instance_mw;
        let hi = ((rack as u64 + 1) * self.rack_mw).div_ceil(self.instance_mw);
        let lo = (lo.min(self.instances as u64)) as u32;
        let hi = (hi.min(self.instances as u64)) as u32;
        lo..hi.max(lo)
    }

    /// Instances lost when power domain `d` trips: the union of its racks.
    pub fn power_domain_instances(&self, domain: u32) -> core::ops::Range<u32> {
        let first = domain * self.racks_per_power_domain;
        let last = ((domain + 1) * self.racks_per_power_domain - 1).min(self.num_racks() - 1);
        let lo = self.rack_instances(first).start;
        let hi = self.rack_instances(last).end;
        lo..hi.max(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Mean capacity fraction stranded by one rack loss over all racks —
    /// the expected blast radius of a uniformly random rack loss.
    fn mean_rack_stranded_fraction(t: &DomainTopology) -> f64 {
        let racks = t.num_racks();
        (0..racks)
            .map(|r| t.rack_instances(r).len() as f64 / t.instances as f64)
            .sum::<f64>()
            / racks as f64
    }

    #[test]
    fn rack_spans_cover_the_fleet_without_gaps() {
        // 10 instances of 1.4 kW in 5 kW racks: 14 kW fleet → 3 racks.
        let t = DomainTopology::new(10, 1_400_000, 5_000_000, 2).unwrap();
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.num_power_domains(), 2);
        // Rack 0 spans [0, 5000) mW → instances 0..4 (3 straddles).
        assert_eq!(t.rack_instances(0), 0..4);
        // Rack 1 spans [5000, 10000) → instances 3..8 (3 and 7 straddle).
        assert_eq!(t.rack_instances(1), 3..8);
        // Rack 2 spans [10000, 15000) → instances 7..10 (clamped).
        assert_eq!(t.rack_instances(2), 7..10);
        // Union covers everything; adjacent racks overlap at straddles.
        let covered: std::collections::BTreeSet<u32> =
            (0..3).flat_map(|r| t.rack_instances(r)).collect();
        assert_eq!(covered.len(), 10);
    }

    #[test]
    fn power_domains_union_their_racks() {
        let t = DomainTopology::new(10, 1_400_000, 5_000_000, 2).unwrap();
        assert_eq!(t.power_domain_instances(0), 0..8);
        assert_eq!(t.power_domain_instances(1), 7..10);
    }

    #[test]
    fn aligned_packing_has_no_collateral() {
        // Rack power an exact multiple of instance power: no straddles,
        // each rack loses exactly rack_mw/inst_mw instances.
        let t = DomainTopology::new(16, 1_000_000, 4_000_000, 2).unwrap();
        for r in 0..t.num_racks() {
            assert_eq!(t.rack_instances(r).len(), 4, "rack {r}");
        }
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(DomainTopology::new(0, 1, 1, 1).is_err());
        assert!(DomainTopology::new(1, 0, 1, 1).is_err());
        assert!(DomainTopology::new(4, 2_000_000, 1_000_000, 1).is_err());
        assert!(DomainTopology::new(4, 1, 1, 0).is_err());
    }

    proptest! {
        /// Satellite of `failure::blast_radius_quarter_of_h100`: at equal
        /// rack power and equal total fleet power, a rack loss under the
        /// Lite fleet (4× the instances at ¼ the power each) strands a
        /// strictly smaller mean capacity fraction than under H100 —
        /// strictly, because the big instances straddle rack power
        /// boundaries and die as collateral whenever the rack budget is
        /// not an exact multiple of the H100 instance power.
        #[test]
        fn rack_loss_strands_less_capacity_under_lite(
            h100_instances in 8u32..64,
            rack_kw in 3u64..40,
            offset_w in 1u64..1_400,
        ) {
            let h100_mw = 1_400_000u64; // 2 × 700 W packages.
            let lite_mw = h100_mw / 4; // 2 × 175 W packages.
            // Keep the rack budget off the H100 instance-power lattice so
            // straddle collateral exists (an exact multiple packs both
            // fleets without straddles and the fractions tie).
            let rack_mw = rack_kw * 1_000_000 + offset_w * 1_000;
            if rack_mw % h100_mw == 0 {
                continue;
            }
            let h = DomainTopology::new(h100_instances, h100_mw, rack_mw, 4).unwrap();
            let l = DomainTopology::new(h100_instances * 4, lite_mw, rack_mw, 4).unwrap();
            // A single-rack fleet has no interior boundaries to straddle.
            if h.num_racks() < 2 {
                continue;
            }
            prop_assert_eq!(h.fleet_mw(), l.fleet_mw());
            prop_assert_eq!(h.num_racks(), l.num_racks());
            let (hf, lf) = (mean_rack_stranded_fraction(&h), mean_rack_stranded_fraction(&l));
            prop_assert!(
                lf < hf,
                "lite mean stranded {} must beat h100 {} (rack {} mW)",
                lf,
                hf,
                rack_mw
            );
        }
    }
}
