//! Cluster-management models for the `litegpu` suite: the systems
//! opportunities of §3.
//!
//! The paper argues Lite-GPUs unlock better power proportionality and
//! smaller failure blast radii. This crate makes each argument
//! executable:
//!
//! - [`node`]: node/rack/cluster composition and aggregate budgets.
//! - [`power_mgmt`]: load-following policies — whole-GPU DVFS vs.
//!   per-Lite-GPU gating — evaluated over diurnal load traces.
//! - [`failure`]: Monte-Carlo failure injection with area-dependent
//!   failure rates, blast-radius accounting and hot-spare provisioning.
//! - [`domain`]: correlated failure domains (instance → rack → power
//!   domain) with straddle-collateral blast-radius accounting.
//!
//! # Examples
//!
//! ```
//! use litegpu_cluster::failure::{ClusterReliability, FailureModel};
//! use litegpu_specs::catalog;
//!
//! let model = FailureModel::default_for(&catalog::h100());
//! let rel = ClusterReliability::new(catalog::h100(), 8, model).unwrap();
//! // A single failure in an 8-GPU H100 cluster takes out 1/8 of FLOPS.
//! assert!((rel.blast_radius_fraction() - 0.125).abs() < 1e-12);
//! ```

pub mod domain;
pub mod failure;
pub mod node;
pub mod power_mgmt;

pub use domain::DomainTopology;
pub use failure::{ClusterReliability, FailureModel, MonteCarloAvailability};
pub use node::ClusterSpec;

/// Errors produced by cluster-model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A request exceeds the cluster's total resources.
    InsufficientCapacity {
        /// What was requested (units of GPUs or SMs, see message).
        requested: f64,
        /// What the cluster offers.
        available: f64,
    },
    /// Underlying spec error.
    Spec(litegpu_specs::SpecError),
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::InvalidParameter { name, value } => {
                write!(f, "invalid cluster parameter {name} = {value}")
            }
            ClusterError::InsufficientCapacity {
                requested,
                available,
            } => write!(f, "requested {requested} exceeds available {available}"),
            ClusterError::Spec(e) => write!(f, "spec error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<litegpu_specs::SpecError> for ClusterError {
    fn from(e: litegpu_specs::SpecError) -> Self {
        ClusterError::Spec(e)
    }
}

/// Result alias for cluster operations.
pub type Result<T> = core::result::Result<T, ClusterError>;

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(ClusterError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ClusterError::InsufficientCapacity {
            requested: 100.0,
            available: 32.0,
        };
        assert!(e.to_string().contains("100"));
    }
}
