//! Cluster network topologies.
//!
//! §3 of the paper sketches the options for a Lite-GPU fabric: (a) a
//! direct-connect group replacing each big GPU ("an approximation to the
//! original network, though it eliminates the benefits of the smaller
//! blast radius"), (b) a flat switched network over the whole cluster, or
//! (c) a hierarchical fabric. This module models endpoint capacity and
//! switch counts for each.

use crate::{NetError, Result};

/// A Lite-GPU cluster fabric.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Topology {
    /// Full mesh among the `group_size` Lite-GPUs replacing one big GPU;
    /// inter-group traffic uses the pre-existing fabric.
    DirectGroup {
        /// Lite-GPUs per group (the replacement ratio, 4 in the paper).
        group_size: u32,
    },
    /// One flat switching stage over the whole cluster (possible with
    /// high-radix optical circuit switches).
    FlatSwitched {
        /// Switch radix.
        radix: u32,
    },
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
        match self {
            Topology::DirectGroup { group_size } => {
                if *group_size < 2 {
                    return Err(NetError::InvalidParameter {
                        name: "group_size",
                        value: *group_size as f64,
                    });
                }
            }
            Topology::FlatSwitched { radix } => {
                if *radix < 2 {
                    return Err(NetError::InvalidParameter {
                        name: "radix",
                        value: *radix as f64,
                    });
                }
            }
            Topology::Hierarchical {
                leaf_radix,
                spine_radix,
                oversubscription,
            } => {
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
            }
        }
        Ok(())
    }

    /// Maximum endpoints the topology supports in one fabric instance.
    pub fn max_endpoints(&self) -> u32 {
        match self {
            Topology::DirectGroup { group_size } => *group_size,
            Topology::FlatSwitched { radix } => *radix,
            Topology::Hierarchical {
                leaf_radix,
                spine_radix,
                oversubscription,
            } => {
                // Each leaf splits its ports between hosts and uplinks
                // according to the oversubscription ratio; spines connect
                // one port per leaf.
                let down =
                    (*leaf_radix as f64 * oversubscription / (1.0 + oversubscription)).floor();
                (down as u32).saturating_mul(*spine_radix)
            }
        }
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
        Ok(match self {
            Topology::DirectGroup { .. } => 0,
            Topology::FlatSwitched { .. } => 1,
            Topology::Hierarchical {
                leaf_radix,
                oversubscription,
                ..
            } => {
                let down =
                    (*leaf_radix as f64 * oversubscription / (1.0 + oversubscription)).floor();
                let leaves = (endpoints as f64 / down).ceil() as u32;
                let uplinks_per_leaf = *leaf_radix - down as u32;
                leaves + uplinks_per_leaf.min(leaves.max(1))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Topology::DirectGroup { group_size: 1 }.validate().is_err());
        assert!(Topology::FlatSwitched { radix: 1 }.validate().is_err());
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
    fn direct_group_properties() {
        let t = Topology::DirectGroup { group_size: 4 };
        assert_eq!(t.switch_count(4).unwrap(), 0);
        assert_eq!(t.max_endpoints(), 4);
    }

    #[test]
    fn flat_switched_hosts_up_to_radix() {
        let t = Topology::FlatSwitched { radix: 256 };
        assert_eq!(t.max_endpoints(), 256);
        assert_eq!(t.switch_count(256).unwrap(), 1);
        assert!(t.switch_count(257).is_err());
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
    }

    #[test]
    fn high_radix_circuit_switch_flattens_the_lite_cluster() {
        // 32 Lite-GPUs (one H100 8-GPU cluster replaced) fit a single
        // Sirius-class switch: the flat network of §3.
        let ocs = crate::switching::CircuitSwitch::sirius_class();
        let t = Topology::FlatSwitched { radix: ocs.radix };
        assert!(t.max_endpoints() >= 32);
        assert_eq!(t.switch_count(32).unwrap(), 1);
    }
}
