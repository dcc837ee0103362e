//! Interconnect and collective-communication models for the `litegpu`
//! suite.
//!
//! Lite-GPUs move "previously in-silicon traffic to an optical network"
//! (§3), so the quality of the network model decides whether the paper's
//! performance story holds. This crate provides:
//!
//! - [`switching`]: packet vs. circuit switch models; reproduces §3's claim
//!   that circuit switching is >50% more energy-efficient with lower
//!   latency and higher radix.
//! - [`collective`]: cost models for all-reduce / all-gather /
//!   reduce-scatter / all-to-all under ring and tree algorithms, the
//!   traffic generated by tensor parallelism.
//! - [`topology`]: direct-connect groups, flat switched fabrics and
//!   two-tier fabrics; endpoint capacity and switch counts.
//!
//! # Examples
//!
//! ```
//! use litegpu_net::collective::collective_cost;
//! use litegpu_net::{CollectiveAlgorithm, CollectiveOp};
//!
//! // 32-way ring all-reduce of 1 MiB at 112.5 GB/s per direction:
//! let cost = collective_cost(
//!     CollectiveOp::AllReduce,
//!     CollectiveAlgorithm::Ring,
//!     32,
//!     1.0e6,
//!     112.5e9,
//!     500e-9,
//! )
//! .unwrap();
//! assert!(cost.time_s > 0.0 && cost.time_s < 1e-3);
//! ```

pub mod collective;
pub mod cost;
pub mod switching;
pub mod topology;

pub use collective::{CollectiveAlgorithm, CollectiveCost, CollectiveOp};
pub use cost::FabricCostModel;
pub use switching::{CircuitSwitch, PacketSwitch, SwitchComparison};
pub use topology::Topology;

/// Errors produced by network-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A parameter was non-positive or non-finite where required.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A topology cannot host the requested endpoint count.
    TopologyTooSmall {
        /// Requested endpoints.
        endpoints: u32,
        /// Maximum endpoints the topology supports.
        capacity: u32,
    },
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::InvalidParameter { name, value } => {
                write!(f, "invalid network parameter {name} = {value}")
            }
            NetError::TopologyTooSmall {
                endpoints,
                capacity,
            } => write!(
                f,
                "topology supports {capacity} endpoints but {endpoints} were requested"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for network-model operations.
pub type Result<T> = core::result::Result<T, NetError>;

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(NetError::InvalidParameter { name, value })
    }
}

pub(crate) fn check_non_negative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(NetError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = NetError::TopologyTooSmall {
            endpoints: 64,
            capacity: 32,
        };
        assert!(e.to_string().contains("64"));
    }
}
