//! `litegpu-fleet` — a sharded, thread-parallel fleet-scale serving
//! simulator.
//!
//! The paper's serving-system claims (§3) — smaller blast radius, cheaper
//! hot spares, higher available FLOPS — are *fleet-scale, multi-day*
//! dynamics. `litegpu_sim`'s per-event simulator resolves individual
//! decode steps, which is the right tool for minutes of simulated time
//! and a handful of instances, but a thousand instances over days would
//! mean billions of events. This crate trades per-step events for a
//! **tick-based fluid model** that stays faithful where it matters:
//!
//! - **Step costs are exact.** Every prefill/decode step is priced by a
//!   precomputed [`litegpu_roofline::StepCostTable`] — the same roofline
//!   numbers as the small simulator, quantized to integer microseconds,
//!   with no roofline evaluation in the hot loop.
//! - **Failures are event-accurate.** Each instance draws Poisson failure
//!   times from [`litegpu_cluster::failure::FailureModel`]'s
//!   area-dependent AFR (shared unit convention: annualized rates ÷ 8760
//!   → per-hour), takes the whole instance down (the §3 blast radius),
//!   and recovers via a per-cell hot-spare pool or a slow repair.
//! - **Workloads are multi-tenant.** A [`workload::WorkloadSpec`] lists
//!   tenants with their own traffic patterns, rate shares, prompt/output
//!   shapes, priority classes and TTFT/TBT SLO targets; arrivals are
//!   tenant-tagged end to end and the report carries a per-tenant SLO
//!   section ([`report::FleetReport::per_tenant`]).
//! - **Serving can phase-split.** [`engine::ServingMode::PhaseSplit`]
//!   partitions each cell into Splitwise-style prefill and decode pools:
//!   completed prefills stream their KV caches (prompt length ×
//!   bytes-per-token, via `litegpu_workload::kv`) over a per-cell
//!   [`engine::KvLink`] budget whose queueing delay lands in TTFT and
//!   whose saturation back-pressures the prefill pool, while decode TBT
//!   books stay isolated from prefill interference. The control plane is
//!   phase-aware (per-pool autoscaling, prefill-only routing), and the
//!   report grows a [`report::KvTransferReport`] section.
//! - **Failures can correlate.** An [`engine::ChaosSpec`] schedules
//!   rack/power-domain outages, network partitions, thermal clock clamps
//!   and rolling drains over the horizon (compiled from campaigns by the
//!   `litegpu-chaos` crate); finite per-cell repair crews work an
//!   integer-µs repair queue, and the report attributes instance downs by
//!   domain kind ([`report::FailureBreakdown`]) and grows a
//!   [`report::ChaosSection`] on campaign runs.
//! - **Determinism is total.** Every instance and every (cell, tenant)
//!   arrival stream owns its RNG stream, all accumulators are integers,
//!   and shard results merge with associative integer arithmetic — so the
//!   same seed produces a **byte-identical [`report::FleetReport`] at any
//!   shard count and any thread count**.
//!
//! Sharding: instances are grouped into fixed-size *cells* (think rack or
//! pod — each cell owns its hot-spare pool), and cells are partitioned
//! across shards which step in parallel on `std::thread` scope threads.
//! Because cells never interact, the partition is purely a parallelism
//! choice, not a modeling one.
//!
//! ```
//! use litegpu_fleet::engine::{run, FleetConfig};
//!
//! let mut cfg = FleetConfig::lite_demo();
//! cfg.instances = 16;
//! cfg.horizon_s = 600.0;
//! let report = run(&cfg, 42).unwrap();
//! assert!(report.completed > 0);
//! assert!(report.availability > 0.0);
//! ```

mod arrivals;
mod cell;
mod config;
pub mod engine;
pub mod hist;
pub mod provision;
pub mod report;
pub mod state;
pub mod traffic;
mod window;
pub mod workload;

pub use engine::{
    run, run_sharded, run_sharded_full, ChaosSpec, DomainEvent, DomainEventKind, FleetConfig,
    FleetRun, KvLink, ServingMode, TelemetryConfig,
};
pub use hist::LatencyHistogram;
pub use litegpu_ctrl as ctrl;
pub use litegpu_ctrl::Phase;
pub use provision::{spares_for_target, SpareSearch};
pub use report::{
    BalancerSection, ChaosSection, DvfsReport, FailureBreakdown, FleetReport, FlowEntry,
    KvTransferReport, TenantReport,
};
pub use traffic::{LengthDist, TrafficPattern};
pub use workload::{PriorityClass, Tenant, WorkloadSpec};

/// Errors produced by the fleet simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Underlying roofline error (instance timing).
    Roofline(litegpu_roofline::RooflineError),
    /// The control-plane configuration was invalid.
    Ctrl(&'static str),
    /// The workload specification was invalid.
    Workload(&'static str),
    /// A spare-provisioning search exhausted its sweep range without
    /// reaching the availability target.
    TargetUnreachable {
        /// The requested availability target.
        target: f64,
        /// The best availability seen during the sweep.
        best: f64,
    },
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::InvalidParameter { name, value } => {
                write!(f, "invalid fleet parameter {name} = {value}")
            }
            FleetError::Roofline(e) => write!(f, "roofline error: {e}"),
            FleetError::Ctrl(msg) => write!(f, "invalid control-plane config: {msg}"),
            FleetError::Workload(msg) => write!(f, "invalid workload spec: {msg}"),
            FleetError::TargetUnreachable { target, best } => write!(
                f,
                "availability target {target} unreachable (best seen: {best})"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<litegpu_roofline::RooflineError> for FleetError {
    fn from(e: litegpu_roofline::RooflineError) -> Self {
        FleetError::Roofline(e)
    }
}

/// Result alias for fleet operations.
pub type Result<T> = core::result::Result<T, FleetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = FleetError::InvalidParameter {
            name: "instances",
            value: 0.0,
        };
        assert!(e.to_string().contains("instances"));
    }
}
