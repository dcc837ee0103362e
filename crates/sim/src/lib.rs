//! Discrete-event LLM-serving simulator over Lite-GPU clusters.
//!
//! §3 of the paper argues at the level of *serving systems*: phase
//! splitting (Splitwise), hot spares, instance-wide blast radii. The
//! roofline model alone cannot test those — they are dynamic behaviours.
//! This crate provides a deterministic discrete-event simulator whose
//! instance timing comes straight from [`litegpu_roofline`], so serving
//! experiments and the paper's analytical model share one source of
//! truth.
//!
//! - [`des`]: the event queue and clock (integer microseconds; fully
//!   deterministic under a seed).
//! - [`request`]: Poisson request generator with configurable
//!   prompt/output lengths (the paper's 1500-token median prompt).
//! - [`server`]: the timing model — prefill, decode-step and KV
//!   hand-off times of a tensor-parallel GPU group, priced by the
//!   roofline engine once per run.
//! - [`scheduler`]: the event loop — continuous batching, monolithic vs.
//!   Splitwise-style phase-split serving, failures and hot spares.
//! - [`failover`]: failure injection and hot-spare pools.
//! - [`stats`]: latency percentiles, SLO attainment, goodput.
//!
//! # Examples
//!
//! ```
//! use litegpu_sim::scheduler::{simulate, ServingConfig, SchedulerKind};
//!
//! let cfg = ServingConfig::splitwise_h100_demo();
//! let report = simulate(&cfg, 42).unwrap();
//! assert!(report.completed > 0);
//! assert!(report.ttft_p50_s > 0.0);
//! ```

pub mod des;
pub mod failover;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod stats;

pub use scheduler::{simulate, SchedulerKind, ServingConfig, ServingReport};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Underlying roofline error (instance timing).
    Roofline(litegpu_roofline::RooflineError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidParameter { name, value } => {
                write!(f, "invalid simulator parameter {name} = {value}")
            }
            SimError::Roofline(e) => write!(f, "roofline error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<litegpu_roofline::RooflineError> for SimError {
    fn from(e: litegpu_roofline::RooflineError) -> Self {
        SimError::Roofline(e)
    }
}

/// Result alias for simulator operations.
pub type Result<T> = core::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::InvalidParameter {
            name: "rate",
            value: -1.0,
        };
        assert!(e.to_string().contains("rate"));
    }
}
