//! Cluster network topologies.
//!
//! §3 of the paper sketches the options for a Lite-GPU fabric: (a) a
//! direct-connect group replacing each big GPU ("an approximation to the
//! original network, though it eliminates the benefits of the smaller
//! blast radius"), (b) a flat switched network over the whole cluster, or
//! (c) a hierarchical fabric. This module models endpoint capacity and
//! switch counts for (c), the fabric the TCO model prices
//! ([`FabricCostModel`](crate::cost::FabricCostModel)); (a) and (b) are
//! not modeled.

use crate::{NetError, Result};

/// A Lite-GPU cluster fabric.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Topology {
    /// Two-tier leaf/spine fabric.
    Hierarchical {
        /// Leaf switch radix.
        leaf_radix: u32,
        /// Spine switch radix.
        spine_radix: u32,
        /// Downlinks:uplinks oversubscription ratio (1.0 = non-blocking).
        oversubscription: f64,
    },
}

impl Topology {
    /// Validates structural parameters.
    pub fn validate(&self) -> Result<()> {
        let Topology::Hierarchical {
            leaf_radix,
            spine_radix,
            oversubscription,
        } = self;
        if *leaf_radix < 2 || *spine_radix < 2 {
            return Err(NetError::InvalidParameter {
                name: "leaf/spine radix",
                value: *leaf_radix.min(spine_radix) as f64,
            });
        }
        if !oversubscription.is_finite() || *oversubscription < 1.0 {
            return Err(NetError::InvalidParameter {
                name: "oversubscription",
                value: *oversubscription,
            });
        }
        Ok(())
    }

    /// Maximum endpoints the topology supports in one fabric instance.
    pub fn max_endpoints(&self) -> u32 {
        let Topology::Hierarchical {
            leaf_radix,
            spine_radix,
            oversubscription,
        } = self;
        // Each leaf splits its ports between hosts and uplinks according
        // to the oversubscription ratio; spines connect one port per leaf.
        let down = (*leaf_radix as f64 * oversubscription / (1.0 + oversubscription)).floor();
        (down as u32).saturating_mul(*spine_radix)
    }

    /// Number of switches needed to connect `endpoints`.
    pub fn switch_count(&self, endpoints: u32) -> Result<u32> {
        self.validate()?;
        if endpoints > self.max_endpoints() {
            return Err(NetError::TopologyTooSmall {
                endpoints,
                capacity: self.max_endpoints(),
            });
        }
        let Topology::Hierarchical {
            leaf_radix,
            oversubscription,
            ..
        } = self;
        let down = (*leaf_radix as f64 * oversubscription / (1.0 + oversubscription)).floor();
        let leaves = (endpoints as f64 / down).ceil() as u32;
        let uplinks_per_leaf = *leaf_radix - down as u32;
        Ok(leaves + uplinks_per_leaf.min(leaves.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Topology::Hierarchical {
            leaf_radix: 1,
            spine_radix: 32,
            oversubscription: 1.0
        }
        .validate()
        .is_err());
        assert!(Topology::Hierarchical {
            leaf_radix: 32,
            spine_radix: 32,
            oversubscription: 0.5
        }
        .validate()
        .is_err());
        assert!(Topology::Hierarchical {
            leaf_radix: 32,
            spine_radix: 32,
            oversubscription: 1.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn hierarchical_scales_beyond_flat() {
        let t = Topology::Hierarchical {
            leaf_radix: 64,
            spine_radix: 64,
            oversubscription: 1.0,
        };
        assert!(t.max_endpoints() > 1000);
        let over = Topology::Hierarchical {
            leaf_radix: 64,
            spine_radix: 64,
            oversubscription: 2.0,
        };
        assert!(over.max_endpoints() > t.max_endpoints());
    }

    #[test]
    fn hierarchical_switch_count_grows_with_endpoints() {
        let t = Topology::Hierarchical {
            leaf_radix: 64,
            spine_radix: 64,
            oversubscription: 1.0,
        };
        let small = t.switch_count(64).unwrap();
        let big = t.switch_count(1024).unwrap();
        assert!(big > small);
        // One fabric instance hosts at most its capacity.
        assert!(t.switch_count(t.max_endpoints()).is_ok());
        assert!(t.switch_count(t.max_endpoints() + 1).is_err());
    }
}
