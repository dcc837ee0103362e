//! The sharded, thread-parallel fleet engine.
//!
//! The fleet is a set of *cells* (fixed groups of
//! [`FleetConfig::cell_size`] instances, each with its own hot-spare
//! pool — think rack or pod). Cells never interact, so any partition of
//! cells into shards, stepped on any number of threads, produces the same
//! merged totals: per-instance and per-(cell, tenant) RNG streams are
//! derived from `(seed, global index)`, all accumulators are integers,
//! and merging is integer addition. That is the engine's core
//! guarantee — **same seed ⇒ byte-identical [`FleetReport`] JSON at any
//! shard and thread count** — and `tests/fleet_determinism.rs` enforces
//! it.
//!
//! Traffic is a multi-tenant [`WorkloadSpec`]: each tenant's arrivals are
//! drawn per *cell* from the tenant's own dedicated RNG stream (demand is
//! exogenous — it does not shrink when instances park or fail) and routed
//! over the cell's instances with exact integer largest-remainder
//! splitting, **in priority order**: `Interactive` tenants claim queue
//! room first, then `Batch`, then `BestEffort`. When the control plane's
//! admission control has revoked best-effort admission
//! ([`litegpu_ctrl::Command::SetAdmission`]), best-effort arrivals are
//! shed at the cell boundary and counted per tenant.
//!
//! When a control plane is configured ([`FleetConfig::ctrl`]), a
//! **control tick** runs between data ticks: each cell's
//! [`litegpu_ctrl::ControllerStack`] observes the cell (including
//! per-priority-class arrival counts) and issues commands — autoscaler
//! parks/activations (with warm/cold boot latency), power-gating of
//! parked instances, routing-weight refreshes, and admission changes.
//! All controller state is per-cell, lives inside the cell, and draws
//! from the cell's own RNG stream, so controlled runs keep the
//! byte-identical guarantee. Without a control plane every instance
//! (live or down — no router means stranded traffic) weighs equally in
//! the split.
//!
//! Every run takes one path (`run_windows`): the horizon is
//! cut into *windows* — one fleet-balancer interval each, or the whole
//! horizon without a balancer — and each worker thread advances its
//! cells window by window. A cell is built on first touch and owns every
//! counter it accumulates; at the horizon it merges into its worker's
//! totals and is dropped, so a balancer-free run holds one cell per
//! worker at a time, with that cell's working set hot in cache. The
//! per-tick arrival means come from one `ArrivalTable` per run that
//! covers only the ticks the current window sweep draws.
//!
//! Within a window the per-cell hot loop (`CellSim::run_until`) is an
//! **event-queue scheduler**, not a per-tick scan. Each processed tick
//! runs seven phase methods in order — chaos, lifecycle, control, kv,
//! route, serve, sample — each a no-op when nothing of its kind is due.
//! All timestamps are integer microseconds quantized to the tick grid,
//! each cell owns a binary-heap event queue (`(tick, instance)` entries,
//! ordered by timestamp then instance index so ties drain in a total
//! order), and the loop only *processes* a tick when something is due
//! there. The event sources are
//!
//! - **step completions** — instances holding queued or running work sit
//!   in a sorted busy list and are served every tick until idle again;
//! - **arrival cohorts** — each (cell, tenant) Poisson stream is drawn
//!   one window ahead (same RNG draws, same order as the old per-tick
//!   engine, so the streams are bit-identical) into a sorted arrival
//!   schedule consumed by a cursor, and cohorts other cells spilled
//!   here wait behind a second cursor; the cell never jumps past the
//!   tick it has drawn up to, so the draw frontier is itself a wakeup;
//! - **KV-transfer deliveries** — the phase-split link wakes the cell
//!   when its FIFO head lands (or every tick while the head is blocked
//!   on a full decode batch);
//! - **control ticks** — the periodic controller cadence, plus boot
//!   completions promoted on their own schedule;
//! - **chaos / lifecycle events** — instance failure and recovery
//!   times, outage starts, partition starts, drain and thermal window
//!   edges, and repair-crew dispatch readiness, all pushed as heap
//!   wakeups when their integer-µs times are computed.
//!
//! Between events, idle instances accrue nothing per tick: idle energy,
//! live-tick and clock-residency counters are billed **lazily** in
//! closed-form spans (`CellSim::accrue`) whenever an instance is next
//! touched — or when a mode/clock transition, series sample, or the
//! horizon end forces the span closed. Spurious wakeups are harmless by
//! construction (every phase is a no-op when nothing is due — exactly
//! what the per-tick engine executed on quiet ticks), so correctness
//! only ever hinges on *never missing* a due event; the equivalence
//! suite (`crates/bench/tests/engine_equivalence.rs`) pins the output
//! bytes. Per-event work does not grow with cell size or campaign
//! length where it need not: routing builds slot eligibility once per
//! tick and splits a batch whose floor shares are all zero in one pass
//! without division, a KV delivery scans only the decode slots gathered
//! for its call, and a chaos tick pops due outages from a cursor and
//! recomputes window state only past a window edge.
//! The hot path evaluates no roofline, allocates nothing beyond queue
//! churn and takes no lock per tick (a cell reads the shared
//! `ArrivalTable` once per window).

use crate::report::{FleetReport, RunMeta, TenantMeta};
use crate::state::{
    CellState, FailureRates, InstanceState, KvLinkState, ServeKnobs, TenantKnobs, TenantTotals,
    Totals, TraceSink,
};
use crate::traffic::PoissonPlan;
use crate::workload::WorkloadSpec;
use crate::{FleetError, Result};
use litegpu_cluster::failure::FailureModel;
use litegpu_cluster::power_mgmt::{self, Policy};
use litegpu_ctrl::{
    apportion_into, BalancerConfig, CellObs, ClockPoint, Command, CtrlConfig, FleetCellObs,
    FleetController, FleetObs, InstanceObs, Mode, Phase, PhaseObs, PriorityClass,
};
use litegpu_roofline::{EngineParams, StepCostTable};
use litegpu_specs::power::{PowerModel, DVFS_EXPONENT};
use litegpu_specs::GpuSpec;
use litegpu_telemetry::profile::{
    PHASE_CHAOS, PHASE_CONTROL, PHASE_KV, PHASE_LIFECYCLE, PHASE_MERGE, PHASE_ROUTE, PHASE_SAMPLE,
    PHASE_SERVE,
};
use litegpu_telemetry::{
    MetricId, MetricKind, PhaseProfile, SeriesRecorder, SpanSampler, TraceEvent,
};
use litegpu_workload::{kv, ModelArch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

/// Per-cell prefill→decode KV bandwidth budget for phase-split serving.
///
/// The budget models the slice of the cell's scale-out fabric that KV
/// streaming may claim: prefill instances inject their completed caches
/// onto one serialized link per cell, and transfers queue FIFO behind
/// each other. Defaults derive from the GPU's own network bandwidth via
/// [`KvLink::for_instance`], which is what makes the H100-vs-Lite trade
/// measurable: the paper's Table 1 scales per-GPU links down 4× while
/// instances carry 4× the GPUs, so the per-instance injection bandwidth
/// (and hence the default budget) only holds if network bandwidth scales
/// with GPU count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLink {
    /// Cell KV bandwidth, GB/s (decimal GB).
    pub bandwidth_gbps: f64,
    /// Outstanding-transfer backlog, in seconds of link time, beyond
    /// which the prefill pool stalls (back-pressure).
    pub max_backlog_s: f64,
}

impl KvLink {
    /// Fraction of one instance's aggregate injection bandwidth the KV
    /// stream may claim by default (the rest stays with tensor-parallel
    /// collectives).
    pub const DEFAULT_INJECTION_SHARE: f64 = 0.1;

    /// Default backlog threshold, seconds of link time.
    pub const DEFAULT_MAX_BACKLOG_S: f64 = 0.25;

    /// Derives the cell budget from the spec: one instance's aggregate
    /// injection bandwidth (`gpus × net_bw`) × the KV share. Both demo
    /// fleets land on the same number (2×450 = 8×112.5 GB/s) — the §2
    /// condition that network bandwidth scale with GPU count, met by
    /// Table 1's Lite design.
    pub fn for_instance(gpu: &GpuSpec, gpus_per_instance: u32) -> Self {
        Self {
            bandwidth_gbps: gpu.net_bw_gbps
                * gpus_per_instance as f64
                * Self::DEFAULT_INJECTION_SHARE,
            max_backlog_s: Self::DEFAULT_MAX_BACKLOG_S,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.bandwidth_gbps.is_finite() && self.bandwidth_gbps > 0.0) {
            return Err(FleetError::InvalidParameter {
                name: "kv_link.bandwidth_gbps",
                value: self.bandwidth_gbps,
            });
        }
        if !(self.max_backlog_s.is_finite() && self.max_backlog_s > 0.0) {
            return Err(FleetError::InvalidParameter {
                name: "kv_link.max_backlog_s",
                value: self.max_backlog_s,
            });
        }
        Ok(())
    }
}

/// The kind of a scheduled correlated-failure (chaos) event, mirroring
/// `litegpu_cluster::domain::DomainKind`'s correlated kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainEventKind {
    /// A whole rack goes dark: every affected instance is forced down
    /// for the event window and queues for a repair crew at window end.
    RackLoss,
    /// A power-domain (breaker group) trip — same mechanics as
    /// [`DomainEventKind::RackLoss`] over a larger instance set.
    PowerDomainLoss,
    /// The affected instances' cells are cut off from the front door:
    /// arrivals to those cells are shed for the window (instances keep
    /// serving already-queued work).
    NetworkPartition,
    /// A cooling excursion clamps the affected instances' clocks to at
    /// most `clamp` (as a fraction of nominal) for the window, priced
    /// through the DVFS operating-point grid.
    ThermalExcursion {
        /// Maximum sustainable clock factor during the excursion.
        clamp: f64,
    },
    /// A planned rolling upgrade: affected instances are drained (no new
    /// routing or KV deliveries; queued work keeps serving) for the
    /// window, then restored.
    RollingDrain,
}

impl DomainEventKind {
    /// Index into the `by_kind` failure-breakdown array (shared with
    /// `litegpu_cluster::domain::DomainKind::index`).
    fn breakdown_index(&self) -> usize {
        match self {
            DomainEventKind::RackLoss => 1,
            DomainEventKind::PowerDomainLoss => 2,
            DomainEventKind::NetworkPartition => 3,
            DomainEventKind::ThermalExcursion { .. } => 4,
            DomainEventKind::RollingDrain => 1, // Unused: drains are not failures.
        }
    }
}

/// One scheduled chaos event over the window `[start_us, end_us)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainEvent {
    /// What happens.
    pub kind: DomainEventKind,
    /// Window start, µs of simulated time.
    pub start_us: u64,
    /// Window end, µs (exclusive).
    pub end_us: u64,
    /// Global instance indices affected. For
    /// [`DomainEventKind::NetworkPartition`] the *cells* containing these
    /// instances are partitioned whole.
    pub instances: Vec<u32>,
}

/// A compiled chaos campaign: the full, deterministic event schedule.
/// Compiled once from `(config, campaign, seed)` before sharding — every
/// shard sees the same schedule, so the byte-identical-report guarantee
/// holds under chaos too. `litegpu-chaos` is the campaign compiler; an
/// empty spec (the default) runs the fleet without correlated events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSpec {
    /// Scheduled events, in any order.
    pub events: Vec<DomainEvent>,
}

impl ChaosSpec {
    /// Whether any event clamps clocks (forces pricing the DVFS grid).
    pub fn has_thermal(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, DomainEventKind::ThermalExcursion { .. }))
    }
}

/// How the fleet divides the two inference phases — the fleet-scale
/// analogue of `litegpu_sim::SchedulerKind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingMode {
    /// Every instance interleaves prefill and decode (continuous
    /// batching), so prefill launches stretch decode token gaps.
    Monolithic,
    /// Splitwise/DistServe-style: each cell partitions its instances
    /// into a prefill pool and a decode pool; completed prefills stream
    /// their KV caches over the cell's [`KvLink`], whose queueing delay
    /// lands in TTFT and whose saturation back-pressures the prefill
    /// pool. Decode TBT books stay isolated from prefill interference.
    PhaseSplit {
        /// Fraction of each cell's instances reserved for prefill, in
        /// `(0, 1)` (at least one slot per pool is always kept). The
        /// phase-aware autoscaler rebalances from this starting split.
        prefill_fraction: f64,
        /// The cell's KV bandwidth budget.
        kv_link: KvLink,
    },
}

impl ServingMode {
    /// Phase-split with demo defaults: a 25% prefill pool and the
    /// spec-derived KV link.
    pub fn split_demo(gpu: &GpuSpec, gpus_per_instance: u32) -> Self {
        ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink::for_instance(gpu, gpus_per_instance),
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            ServingMode::Monolithic => "monolithic".to_string(),
            ServingMode::PhaseSplit {
                prefill_fraction,
                kv_link,
            } => format!(
                "phase-split(prefill={prefill_fraction:.2},kv={:.0}GB/s)",
                kv_link.bandwidth_gbps
            ),
        }
    }
}

/// Observability knobs. All layers default off and none of them may
/// change a single report byte: series and traces are integer records of
/// simulation state merged deterministically ([`run_sharded_full`]
/// returns them beside the report), while the profile measures host
/// wall-clock and is exported only through non-determinism-diffed
/// artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Time-series sample window, integer µs of simulated time (0
    /// disables the series layer). Rounded to a whole number of ticks,
    /// minimum one tick.
    pub series_dt_us: u64,
    /// Also record per-cell copies of the key series metrics
    /// (`cell{i}/...` — fleet-wide metrics are always recorded).
    pub per_cell_series: bool,
    /// Trace 1 in `trace_every` request spans (0 disables request spans
    /// and, together with the control/chaos events, the trace layer).
    pub trace_every: u32,
    /// Record per-phase engine wall-clock into a [`PhaseProfile`].
    pub profile: bool,
}

/// A complete fleet-simulation configuration.
///
/// Start from a preset ([`FleetConfig::lite_demo`] /
/// [`FleetConfig::h100_demo`]) and override fields; `run*` validates on
/// entry.
///
/// # Examples
///
/// ```
/// use litegpu_fleet::engine::{run, FleetConfig};
///
/// let mut cfg = FleetConfig::lite_demo();
/// cfg.instances = 16;
/// cfg.cell_size = 8;      // two cells, each with its own spare pool
/// cfg.horizon_s = 600.0;  // 10 simulated minutes
/// let report = run(&cfg, 42).unwrap();
/// assert_eq!(report.instances, 16);
/// assert!(report.completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// GPU type.
    pub gpu: GpuSpec,
    /// Model served.
    pub arch: ModelArch,
    /// Roofline parameters (timing + default SLOs; tenants may override
    /// their own SLO targets).
    pub params: EngineParams,
    /// Model instances in the fleet.
    pub instances: u32,
    /// GPUs per instance.
    pub gpus_per_instance: u32,
    /// Instances per repair cell (each cell has its own spare pool).
    pub cell_size: u32,
    /// GPU-sized hot spares per cell.
    pub spares_per_cell: u32,
    /// Repair crews per cell: finite workers serving the integer-µs
    /// repair queue (spare replenishment and in-place recoveries). Jobs
    /// beyond the crew count wait, so repair backlog and spare
    /// starvation interact.
    pub repair_crews_per_cell: u32,
    /// Scheduled correlated-failure events (chaos campaign). Empty by
    /// default; compile campaigns with the `litegpu-chaos` crate.
    pub chaos: ChaosSpec,
    /// The multi-tenant workload (tenants, shares, patterns, priorities,
    /// SLOs).
    pub workload: WorkloadSpec,
    /// Per-cell arrival-rate multipliers for skewed load (hot/cold
    /// cells). Empty means uniform (1.0 everywhere); otherwise the
    /// length must equal [`FleetConfig::num_cells`]. Cell `c`'s Poisson
    /// means are scaled by `cell_rate_multipliers[c]` — the knob the
    /// fleet-scope balancer headline experiments turn.
    pub cell_rate_multipliers: Vec<f64>,
    /// Hardware failure model (annualized rates; see
    /// `litegpu_cluster::failure`'s unit convention).
    pub failure: FailureModel,
    /// Failure-rate acceleration (1.0 = real AFR; larger compresses
    /// years of failure behaviour into short horizons).
    pub failure_acceleration: f64,
    /// Largest prompt batch per prefill launch.
    pub max_prefill_batch: u32,
    /// Queue capacity per instance; beyond it requests are shed.
    pub max_queue_per_instance: u32,
    /// Control plane (autoscaling, power gating, routing, admission);
    /// `None` runs the fixed fleet with uniform cell-level splitting.
    pub ctrl: Option<CtrlConfig>,
    /// How instances divide the two inference phases: monolithic
    /// continuous batching, or Splitwise-style prefill/decode pools with
    /// a per-cell KV-transfer budget.
    pub serving: ServingMode,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Simulation tick, seconds.
    pub tick_s: f64,
    /// Observability: time series, trace export, self-profiling (all off
    /// by default; none may change the report bytes).
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A 1000-instance H100 fleet (tensor-parallel pairs serving
    /// Llama3-70B) under single-tenant diurnal traffic with accelerated
    /// failures.
    pub fn h100_demo() -> Self {
        let gpu = litegpu_specs::catalog::h100();
        let failure = FailureModel::default_for(&gpu);
        Self {
            gpu,
            arch: litegpu_workload::models::llama3_70b(),
            params: EngineParams::paper_defaults(),
            instances: 1000,
            gpus_per_instance: 2,
            cell_size: 20,
            spares_per_cell: 1,
            repair_crews_per_cell: 2,
            chaos: ChaosSpec::default(),
            workload: WorkloadSpec::diurnal_demo(1.5),
            cell_rate_multipliers: Vec::new(),
            failure,
            failure_acceleration: 200.0,
            max_prefill_batch: 4,
            max_queue_per_instance: 10_000,
            ctrl: None,
            serving: ServingMode::Monolithic,
            horizon_s: 24.0 * 3600.0,
            tick_s: 1.0,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The Lite-GPU fleet with the same aggregate silicon: instances of
    /// 8 Lite-GPUs (¼-H100 dies). The failure model uses the same
    /// physical calibration (AFR per mm² of silicon), which the
    /// area-scaling default now applies to the Lite package.
    pub fn lite_demo() -> Self {
        let gpu = litegpu_specs::catalog::lite_base();
        let failure = FailureModel::default_for(&gpu);
        Self {
            gpu,
            gpus_per_instance: 8,
            failure,
            ..Self::h100_demo()
        }
    }

    /// The controlled H100 fleet: autoscaler + router, with parked
    /// instances only able to down-clock ([`Policy::DvfsAll`] — the
    /// monolithic-GPU limitation of §3).
    pub fn h100_ctrl_demo() -> Self {
        Self {
            ctrl: Some(CtrlConfig::demo(Policy::DvfsAll)),
            ..Self::h100_demo()
        }
    }

    /// The controlled Lite fleet: same autoscaler + router, but parked
    /// instances power off ([`Policy::GateToEfficiency`] — the per-unit
    /// gating Lite-GPU granularity enables).
    pub fn lite_ctrl_demo() -> Self {
        Self {
            ctrl: Some(CtrlConfig::demo(Policy::GateToEfficiency)),
            ..Self::lite_demo()
        }
    }

    /// Switches this configuration to phase-split serving with demo
    /// defaults (25% prefill pool, spec-derived KV link).
    pub fn with_phase_split(mut self) -> Self {
        self.serving = ServingMode::split_demo(&self.gpu, self.gpus_per_instance);
        self
    }

    /// Cells in the fleet.
    pub fn num_cells(&self) -> u32 {
        self.instances.div_ceil(self.cell_size)
    }

    /// Ticks in the horizon.
    pub fn num_ticks(&self) -> u32 {
        (self.horizon_s / self.tick_s).ceil() as u32
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64, bool); 9] = [
            ("instances", self.instances as f64, self.instances > 0),
            (
                "repair_crews_per_cell",
                self.repair_crews_per_cell as f64,
                self.repair_crews_per_cell > 0,
            ),
            (
                "gpus_per_instance",
                self.gpus_per_instance as f64,
                self.gpus_per_instance > 0,
            ),
            ("cell_size", self.cell_size as f64, self.cell_size > 0),
            (
                "max_prefill_batch",
                self.max_prefill_batch as f64,
                self.max_prefill_batch > 0,
            ),
            (
                "max_queue_per_instance",
                self.max_queue_per_instance as f64,
                self.max_queue_per_instance > 0,
            ),
            (
                "horizon_s",
                self.horizon_s,
                self.horizon_s.is_finite() && self.horizon_s > 0.0,
            ),
            (
                "tick_s",
                self.tick_s,
                self.tick_s.is_finite() && self.tick_s > 0.0 && self.tick_s <= 60.0,
            ),
            (
                "failure_acceleration",
                self.failure_acceleration,
                self.failure_acceleration.is_finite() && self.failure_acceleration >= 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(FleetError::InvalidParameter { name, value });
            }
        }
        if (self.horizon_s / self.tick_s).ceil() > u32::MAX as f64 {
            return Err(FleetError::InvalidParameter {
                name: "horizon_s (tick count must fit in u32)",
                value: self.horizon_s,
            });
        }
        for event in &self.chaos.events {
            if event.end_us <= event.start_us {
                return Err(FleetError::InvalidParameter {
                    name: "chaos event window (end_us must exceed start_us)",
                    value: event.end_us as f64,
                });
            }
            if let Some(&g) = event.instances.iter().find(|&&g| g >= self.instances) {
                return Err(FleetError::InvalidParameter {
                    name: "chaos event instance index",
                    value: g as f64,
                });
            }
            if let DomainEventKind::ThermalExcursion { clamp } = event.kind {
                if !(clamp.is_finite() && clamp > 0.0 && clamp <= 1.0) {
                    return Err(FleetError::InvalidParameter {
                        name: "thermal clamp (must be in (0, 1])",
                        value: clamp,
                    });
                }
            }
        }
        if !self.cell_rate_multipliers.is_empty() {
            if self.cell_rate_multipliers.len() != self.num_cells() as usize {
                return Err(FleetError::InvalidParameter {
                    name: "cell_rate_multipliers (length must equal num_cells)",
                    value: self.cell_rate_multipliers.len() as f64,
                });
            }
            if let Some(&m) = self
                .cell_rate_multipliers
                .iter()
                .find(|m| !(m.is_finite() && **m >= 0.0))
            {
                return Err(FleetError::InvalidParameter {
                    name: "cell_rate_multipliers (entries must be finite and >= 0)",
                    value: m,
                });
            }
        }
        self.workload.validate().map_err(FleetError::Workload)?;
        if let Some(ctrl) = &self.ctrl {
            ctrl.validate().map_err(FleetError::Ctrl)?;
        }
        if let ServingMode::PhaseSplit {
            prefill_fraction,
            kv_link,
        } = &self.serving
        {
            if !(prefill_fraction.is_finite() && *prefill_fraction > 0.0 && *prefill_fraction < 1.0)
            {
                return Err(FleetError::InvalidParameter {
                    name: "prefill_fraction",
                    value: *prefill_fraction,
                });
            }
            kv_link.validate()?;
            // Every cell needs at least one slot per pool: cells of one
            // instance cannot split.
            if self.cell_size < 2 || self.instances % self.cell_size == 1 {
                return Err(FleetError::InvalidParameter {
                    name: "cell_size (phase-split needs ≥ 2 instances per cell)",
                    value: self.cell_size as f64,
                });
            }
        }
        Ok(())
    }

    fn knobs(&self) -> ServeKnobs {
        let default_ttft_us = (self.params.constraints.ttft_max_s * 1e6).round() as u64;
        let default_tbt_us = (self.params.constraints.tbt_max_s * 1e6).round() as u64;
        let default_prompt = self.params.constraints.prompt_len.max(1);
        let kv_bytes_per_token = kv::bytes_per_token(&self.arch, self.params.precision);
        ServeKnobs {
            tick_us: (self.tick_s * 1e6).round() as u64,
            max_prefill_batch: self.max_prefill_batch,
            max_queue: self.max_queue_per_instance,
            tenants: self
                .workload
                .tenants
                .iter()
                .map(|t| {
                    let prompt = t.prompt_len_mean.unwrap_or(default_prompt).max(1);
                    TenantKnobs {
                        ttft_slo_us: t
                            .ttft_slo_s
                            .map_or(default_ttft_us, |s| (s * 1e6).round() as u64),
                        tbt_slo_us: t
                            .tbt_slo_s
                            .map_or(default_tbt_us, |s| (s * 1e6).round() as u64),
                        output_len: t.output_len,
                        prefill_num: prompt,
                        prefill_den: default_prompt,
                        kv_bytes_per_req: (prompt as f64 * kv_bytes_per_token).round() as u64,
                    }
                })
                .collect(),
        }
    }

    fn failure_rates(&self) -> FailureRates {
        let per_hour = self
            .failure
            .failures_per_instance_hour(&self.gpu, self.gpus_per_instance)
            * self.failure_acceleration;
        FailureRates {
            mean_interval_us: if per_hour > 0.0 {
                3600.0e6 / per_hour
            } else {
                0.0
            },
            swap_us: (self.failure.spare_swap_hours * 3600.0e6).round() as u64,
            repair_us: (self.failure.mttr_hours * 3600.0e6).round() as u64,
        }
    }

    /// Whether the control plane runs the serving-time DVFS policy (which
    /// is what makes the engine price a full clock grid).
    pub fn dvfs_enabled(&self) -> bool {
        self.ctrl.as_ref().is_some_and(|c| c.dvfs.is_some())
    }

    /// Integer per-instance power rates (mW), for exact energy
    /// accumulation: `energy_µJ = power_mW × time_µs / 1000`. Dynamic
    /// power is priced per operating point on the same cubic
    /// `P_dyn ∝ clock³` curve `power_mgmt::power_at_load` draws from
    /// ([`PowerModel::power_w`]); the idle floor is clock-independent.
    fn instance_power(&self, clock_points: &[f64]) -> InstancePower {
        let model = PowerModel::for_spec(&self.gpu);
        let g = self.gpus_per_instance as f64;
        InstancePower {
            idle_mw: (model.idle_w * g * 1000.0).round() as u64,
            dyn_mw: clock_points
                .iter()
                .map(|&c| (model.dynamic_w * g * 1000.0 * c.powf(DVFS_EXPONENT)).round() as u64)
                .collect(),
        }
    }

    /// Sustainable request throughput of one instance at clock point
    /// `ci`, requests/s — the capacity estimate the autoscaler sizes
    /// cells against (at nominal) and DVFS scales per point: per-request
    /// cost is an amortized prefill launch (scaled by the workload's
    /// share-weighted mean prompt length, matching what
    /// `TenantKnobs::prefill_cost_us` actually charges) plus the
    /// share-weighted mean output length in decode steps at full batch.
    fn capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let b = self
            .max_prefill_batch
            .min(lut.max_prefill_batch)
            .min(lut.max_batch)
            .max(1);
        let prompt_scale = self
            .workload
            .mean_prompt_scale(self.params.constraints.prompt_len);
        let per_req_us = lut.prefill_us_at(ci, b) as f64 * prompt_scale / b as f64
            + self.workload.mean_output_len() * lut.decode_step_us_at(ci, lut.max_batch) as f64
                / lut.max_batch as f64;
        1e6 / per_req_us.max(1.0)
    }

    /// [`Self::capacity_rps_at`] at the nominal clock.
    fn capacity_rps(&self, lut: &StepCostTable) -> f64 {
        self.capacity_rps_at(lut, lut.nominal_clock_idx())
    }

    /// Sustainable request throughput of one *dedicated prefill* instance
    /// at clock point `ci`, requests/s — the prefill half of
    /// [`Self::capacity_rps_at`].
    fn prefill_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let b = self.max_prefill_batch.min(lut.max_prefill_batch).max(1);
        let prompt_scale = self
            .workload
            .mean_prompt_scale(self.params.constraints.prompt_len);
        1e6 / (lut.prefill_us_at(ci, b) as f64 * prompt_scale / b as f64).max(1.0)
    }

    /// Sustainable request throughput of one *dedicated decode* instance
    /// at clock point `ci`, requests/s — the decode half of
    /// [`Self::capacity_rps_at`].
    fn decode_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let per_req_us = self.workload.mean_output_len()
            * lut.decode_step_us_at(ci, lut.max_batch) as f64
            / lut.max_batch as f64;
        1e6 / per_req_us.max(1.0)
    }

    /// The DVFS operating points as controllers observe them: per-point
    /// throughput scales per serving role (exactly the capacity model
    /// above, so policy and pricing cannot disagree) and SLO-feasibility
    /// guards against the tightest per-tenant targets. A decode point is
    /// feasible while a full-batch step still meets every tenant's TBT
    /// SLO; a prefill point while every tenant's prompt-scaled launch
    /// fits half its TTFT budget (the other half stays reserved for
    /// queueing). Empty on nominal-only tables.
    fn clock_obs(&self, lut: &StepCostTable, knobs: &ServeKnobs) -> Vec<ClockPoint> {
        if lut.num_clocks() < 2 {
            return Vec::new();
        }
        let nom = lut.nominal_clock_idx();
        let pb = self
            .max_prefill_batch
            .min(lut.max_prefill_batch)
            .min(lut.max_batch)
            .max(1);
        let mixed_nom = self.capacity_rps_at(lut, nom);
        let prefill_nom = self.prefill_capacity_rps_at(lut, nom);
        let decode_nom = self.decode_capacity_rps_at(lut, nom);
        lut.clock_points()
            .iter()
            .enumerate()
            .map(|(ci, &clock)| ClockPoint {
                clock,
                mixed_scale: self.capacity_rps_at(lut, ci) / mixed_nom,
                prefill_scale: self.prefill_capacity_rps_at(lut, ci) / prefill_nom,
                decode_scale: self.decode_capacity_rps_at(lut, ci) / decode_nom,
                prefill_slo_ok: knobs
                    .tenants
                    .iter()
                    .all(|t| t.prefill_cost_us(lut.prefill_us_at(ci, pb)) <= t.ttft_slo_us / 2),
                decode_slo_ok: knobs
                    .tenants
                    .iter()
                    .all(|t| lut.decode_step_us_at(ci, lut.max_batch) <= t.tbt_slo_us),
            })
            .collect()
    }

    fn tenant_meta(&self, knobs: &ServeKnobs) -> Vec<TenantMeta> {
        self.workload
            .tenants
            .iter()
            .zip(&knobs.tenants)
            .map(|(t, k)| TenantMeta {
                name: t.name.clone(),
                priority: t.priority,
                ttft_slo_s: k.ttft_slo_us as f64 / 1e6,
                tbt_slo_s: k.tbt_slo_us as f64 / 1e6,
            })
            .collect()
    }
}

/// Per-instance power rates in integer milliwatts. Dynamic power is one
/// rate per DVFS operating point (cubic in clock); nominal is the last.
#[derive(Debug, Clone)]
struct InstancePower {
    idle_mw: u64,
    dyn_mw: Vec<u64>,
}

/// Phase-split context derived once per run (integer link parameters +
/// per-phase capacities for the phase-aware autoscaler).
#[derive(Debug, Clone, Copy)]
struct SplitShared {
    prefill_fraction: f64,
    /// Cell link bandwidth, integer bytes/second.
    kv_bytes_per_s: u64,
    /// Back-pressure threshold, µs of link time.
    kv_max_backlog_us: u64,
    prefill_capacity_rps: f64,
    decode_capacity_rps: f64,
}

impl SplitShared {
    /// The static per-cell pool split: at least one slot per pool.
    fn prefill_slots(&self, cell_slots: usize) -> usize {
        ((cell_slots as f64 * self.prefill_fraction).round() as usize).clamp(1, cell_slots - 1)
    }
}

/// Read-only per-run context shared by every shard.
struct Shared<'a> {
    cfg: &'a FleetConfig,
    lut: &'a StepCostTable,
    /// Ticks in the horizon.
    ticks: u32,
    /// Ticks per series window (0 disables the series layer).
    series_every: u32,
    knobs: ServeKnobs,
    rates: FailureRates,
    power: InstancePower,
    cap_rps: f64,
    /// DVFS operating points as controllers observe them (empty on
    /// nominal-only runs).
    clock_points: Vec<ClockPoint>,
    /// Index of the nominal clock point in the step-cost table.
    nominal_ci: u8,
    /// Phase-split parameters (`None` for monolithic serving).
    split: Option<SplitShared>,
    /// Tenant indices in admission order (priority class, then
    /// declaration order).
    priority_order: Vec<u16>,
    /// Tenant priority classes, indexed by tenant id.
    classes: Vec<PriorityClass>,
    /// Per-tenant arrival mean per instance and tick before the tenant's
    /// traffic pattern applies; [`ArrivalTable`] modulates it per tick.
    arrival_base: Vec<f64>,
    /// Per-cell slices of the compiled chaos schedule (empty when the
    /// config has no chaos events).
    chaos: Vec<CellChaos>,
}

/// One cell's slice of the compiled chaos schedule. Computed from the
/// global [`ChaosSpec`] before sharding, so domain membership never
/// depends on the shard/thread layout; instance indices are cell-local.
#[derive(Debug, Clone, Default)]
struct CellChaos {
    /// Outage events: (breakdown kind index, start_us, end_us, locals).
    outages: Vec<(usize, u64, u64, Vec<u32>)>,
    /// Partition windows covering this cell (partitions cut whole cells).
    partitions: Vec<(u64, u64)>,
    /// Thermal events: (start_us, end_us, clamp clock index, locals).
    thermals: Vec<(u64, u64, u8, Vec<u32>)>,
    /// Drain windows: (start_us, end_us, locals).
    drains: Vec<(u64, u64, Vec<u32>)>,
    /// `(start_us / tick_us, index into outages)`, stably sorted by tick:
    /// the firing order. Same-tick outages keep schedule order, which
    /// decides which of them takes the cell's spare.
    outage_ticks: Vec<(u64, usize)>,
    /// The first tick at or after every window edge (outages included),
    /// sorted and deduplicated: the only ticks at which the windowed
    /// state of [`CellSim::windows`] can change.
    edges: Vec<u64>,
}

impl CellChaos {
    fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.partitions.is_empty()
            && self.thermals.is_empty()
            && self.drains.is_empty()
    }
}

/// Splits the global chaos schedule into per-cell slices, each with its
/// outage firing order and window edges on the `tick_us` grid.
fn compile_cell_chaos(cfg: &FleetConfig, clock_points: &[f64], tick_us: u64) -> Vec<CellChaos> {
    if cfg.chaos.events.is_empty() {
        return Vec::new();
    }
    let cells = cfg.num_cells() as usize;
    let mut out = vec![CellChaos::default(); cells];
    for event in &cfg.chaos.events {
        let mut by_cell: Vec<Vec<u32>> = vec![Vec::new(); cells];
        for &g in &event.instances {
            let c = (g / cfg.cell_size) as usize;
            by_cell[c].push(g - c as u32 * cfg.cell_size);
        }
        for (c, locals) in by_cell.into_iter().enumerate() {
            if locals.is_empty() {
                continue;
            }
            let (s, e) = (event.start_us, event.end_us);
            match event.kind {
                DomainEventKind::RackLoss | DomainEventKind::PowerDomainLoss => {
                    out[c]
                        .outages
                        .push((event.kind.breakdown_index(), s, e, locals));
                }
                DomainEventKind::NetworkPartition => out[c].partitions.push((s, e)),
                DomainEventKind::ThermalExcursion { clamp } => {
                    out[c]
                        .thermals
                        .push((s, e, clamp_clock_idx(clock_points, clamp), locals));
                }
                DomainEventKind::RollingDrain => out[c].drains.push((s, e, locals)),
            }
        }
    }
    for ch in &mut out {
        let starts = ch.outages.iter().map(|o| o.1 / tick_us);
        ch.outage_ticks = starts.zip(0..).collect();
        // Stable: same-tick outages keep schedule order.
        ch.outage_ticks.sort_by_key(|&(t, _)| t);
        let windows = ch.outages.iter().map(|o| (o.1, o.2));
        let windows = windows
            .chain(ch.partitions.iter().copied())
            .chain(ch.thermals.iter().map(|t| (t.0, t.1)))
            .chain(ch.drains.iter().map(|d| (d.0, d.1)));
        ch.edges = windows
            .flat_map(|(s, e)| [s.div_ceil(tick_us), e.div_ceil(tick_us)])
            .collect();
        ch.edges.sort_unstable();
        ch.edges.dedup();
    }
    out
}

/// The clock-grid index a thermal clamp pins affected slots to: the
/// highest operating point not above the clamp, or the grid's lowest
/// point when the clamp undercuts the whole grid.
fn clamp_clock_idx(clock_points: &[f64], clamp: f64) -> u8 {
    let mut lowest = 0;
    let mut best: Option<usize> = None;
    for (i, &c) in clock_points.iter().enumerate() {
        if c < clock_points[lowest] {
            lowest = i;
        }
        if c <= clamp + 1e-9 && best.is_none_or(|b: usize| c > clock_points[b]) {
            best = Some(i);
        }
    }
    best.unwrap_or(lowest) as u8
}

/// Administrative state of one instance slot (orthogonal to the failure
/// lifecycle's up/down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotMode {
    Live,
    Warm,
    Cold,
    Booting { until_us: u64 },
}

/// The per-tick arrival means of the ticks the current window sweep
/// draws, from `lo` on, shared read-only by every cell of the run.
///
/// A one-window run builds it once for the whole horizon; under a fleet
/// balancer the planner refills it for each sweep, so a balanced run
/// never holds more than two windows of it.
struct ArrivalTable {
    /// First tick covered.
    lo: u32,
    /// Per-instance arrival mean per tenant and tick
    /// (`lambda[tenant][tick - lo]`).
    lambda: Vec<Vec<f64>>,
    /// Pre-resolved Poisson draws (`full[tenant][tick - lo]`) for a
    /// full-size cell at rate multiplier 1: the λ ≤ 0 sentinel and the
    /// `e^-λ` thresholds are computed once per tick instead of once per
    /// (cell, tick). `None` when no cell has that shape.
    full: Option<Vec<Vec<PoissonPlan>>>,
    /// Tenant ids grouped by equal traffic pattern, so that each distinct
    /// pattern is evaluated once per tick.
    by_pattern: Vec<Vec<usize>>,
}

impl ArrivalTable {
    fn new(shared: &Shared<'_>, lo: u32, hi: u32) -> Self {
        let cfg = shared.cfg;
        let tenants = &cfg.workload.tenants;
        let any_full = (0..cfg.num_cells()).any(|c| arrival_scale(cfg, c).is_none());
        let mut by_pattern: Vec<Vec<usize>> = Vec::new();
        for (t, tenant) in tenants.iter().enumerate() {
            match by_pattern
                .iter_mut()
                .find(|g| tenants[g[0]].pattern == tenant.pattern)
            {
                Some(g) => g.push(t),
                None => by_pattern.push(vec![t]),
            }
        }
        let mut table = Self {
            lo,
            lambda: vec![Vec::new(); tenants.len()],
            full: any_full.then(|| vec![Vec::new(); tenants.len()]),
            by_pattern,
        };
        table.fill(shared, lo, hi);
        table
    }

    /// Re-targets the table at the ticks `[lo, hi)`, reusing its buffers.
    fn fill(&mut self, shared: &Shared<'_>, lo: u32, hi: u32) {
        let cfg = shared.cfg;
        self.lo = lo;
        for group in &self.by_pattern {
            let pattern = &cfg.workload.tenants[group[0]].pattern;
            for &t in group {
                self.lambda[t].clear();
            }
            for k in lo..hi {
                let m = pattern.multiplier_at((k as f64 + 0.5) * cfg.tick_s);
                for &t in group {
                    self.lambda[t].push(shared.arrival_base[t] * m);
                }
            }
        }
        if let Some(full) = self.full.as_mut() {
            for (plans, lambda) in full.iter_mut().zip(&self.lambda) {
                plans.clear();
                plans.extend(
                    lambda
                        .iter()
                        .map(|&l| PoissonPlan::new(l * cfg.cell_size as f64)),
                );
            }
        }
    }
}

/// [`PoissonPlan::new`], reusing the previous plan while λ repeats bit
/// for bit (tick after tick under a flat pattern), for a cell's inline
/// draws: a plan is a function of λ alone, and building one costs an
/// `exp`.
fn reuse_plan(last: &mut Option<(u64, PoissonPlan)>, lambda: f64) -> PoissonPlan {
    match *last {
        Some((bits, plan)) if bits == lambda.to_bits() => plan,
        _ => {
            let plan = PoissonPlan::new(lambda);
            *last = Some((lambda.to_bits(), plan));
            plan
        }
    }
}

/// How cell `c` scales the per-instance arrival mean: `None` for a
/// full-size cell at rate multiplier 1, which draws from the shared
/// [`ArrivalTable::full`] plans; otherwise `instances × multiplier`,
/// multiplied out before it meets λ (`λ · n · m` rounds differently,
/// which would shift every draw).
fn arrival_scale(cfg: &FleetConfig, c: u32) -> Option<f64> {
    let n = (cfg.instances - c * cfg.cell_size).min(cfg.cell_size);
    let m = cfg
        .cell_rate_multipliers
        .get(c as usize)
        .copied()
        .unwrap_or(1.0);
    (n != cfg.cell_size || m != 1.0).then_some(n as f64 * m)
}

/// One cell's arrival streams: a dedicated RNG stream per tenant
/// (inside the shard partition, so draws never depend on shard or
/// thread layout) and the frontier up to which they are drawn.
struct CellTraffic {
    rngs: Vec<StdRng>,
    /// See [`arrival_scale`].
    scale: Option<f64>,
    /// Every tick before this one has been drawn.
    drawn: u32,
}

impl CellTraffic {
    /// Distinct stream constant so per-(cell, tenant) arrival streams
    /// never alias the per-instance or cell-control streams.
    const STREAM: u64 = 0x7E4A_4D7A_11C0_FFEE;

    fn new(seed: u64, cell_idx: u32, cfg: &FleetConfig) -> Self {
        Self {
            rngs: (0..cfg.workload.tenants.len())
                .map(|t| {
                    StdRng::seed_from_u64(
                        seed ^ Self::STREAM
                            ^ (cell_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                            ^ (t as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB),
                    )
                })
                .collect(),
            scale: arrival_scale(cfg, cell_idx),
            drawn: 0,
        }
    }

    /// Draws every tenant's exogenous arrivals for the ticks
    /// `[drawn, hi)` and appends the non-empty batches to `out` as
    /// `(tick, tenant, count)`, sorted by tick and, within a tick, by
    /// admission (priority) order.
    ///
    /// The per-(cell, tenant) RNG streams are independent and each is
    /// consumed in tick order, window after window, so drawing
    /// tenant-major one window at a time consumes each stream exactly as
    /// the tick-major per-tick draws did — the counts are bit-identical.
    /// Zero-count draws touched no simulation state in the tick loop
    /// (arrivals, admission and routing counters all moved only for
    /// `n > 0`), so dropping them here is also exact; it is what lets
    /// the event engine skip ticks in which no tenant's draw produced
    /// work.
    fn draw(
        &mut self,
        shared: &Shared<'_>,
        table: &ArrivalTable,
        hi: u32,
        out: &mut Vec<(u32, u16, u64)>,
    ) {
        let lo = self.drawn;
        let ks = (lo - table.lo) as usize..(hi - table.lo) as usize;
        let mut evs: Vec<(u32, u16, u16, u64)> = Vec::new();
        for (pos, &ti) in shared.priority_order.iter().enumerate() {
            let t = ti as usize;
            let rng = &mut self.rngs[t];
            let mut push = |k: u32, n: u64| {
                if n > 0 {
                    evs.push((k, pos as u16, ti, n));
                }
            };
            match self.scale {
                None => {
                    let full = table
                        .full
                        .as_ref()
                        .expect("a full-size cell has shared plans");
                    for (k, plan) in (lo..).zip(&full[t][ks.clone()]) {
                        push(k, plan.draw(rng));
                    }
                }
                Some(scale) => {
                    let mut last = None;
                    for (k, &l) in (lo..).zip(&table.lambda[t][ks.clone()]) {
                        push(k, reuse_plan(&mut last, l * scale).draw(rng));
                    }
                }
            }
        }
        evs.sort_unstable_by_key(|&(k, pos, _, _)| (k, pos));
        let batches = evs.into_iter().map(|(k, _, ti, n)| (k, ti, n));
        if out.is_empty() {
            // Collects in place, into the allocation `evs` already holds.
            *out = batches.collect();
        } else {
            out.extend(batches);
        }
        self.drawn = hi;
    }
}

/// One cell's control-plane runtime: the policy stack, the cell's own
/// RNG stream, and the administrative state the stack manages. Lives
/// entirely inside the shard partition.
struct CellCtl {
    stack: litegpu_ctrl::ControllerStack,
    rng: StdRng,
    modes: Vec<SlotMode>,
    weights: Vec<u64>,
    /// Per-slot DVFS operating point (index into the table's clock grid;
    /// all-nominal without a DVFS policy).
    clocks: Vec<u8>,
    arrived_since: u64,
    arrived_by_class: [u64; 3],
    allow_best_effort: bool,
    interval_ticks: u32,
    warm_up_us: u64,
    cold_up_us: u64,
}

impl CellCtl {
    /// Distinct stream constant so cell-control RNG streams never alias
    /// the per-instance streams (which mix with a different odd constant).
    const STREAM: u64 = 0x5EED_C311_0C7A_11E5;

    fn new(
        ctrl: &CtrlConfig,
        seed: u64,
        cell_idx: u32,
        n_slots: usize,
        tick_s: f64,
        nominal_ci: u8,
    ) -> Self {
        let rng = StdRng::seed_from_u64(
            seed ^ Self::STREAM ^ (cell_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let (warm_s, cold_s) = ctrl
            .autoscaler
            .map(|a| (a.warm_start_s, a.cold_start_s))
            .unwrap_or((0.0, 0.0));
        Self {
            stack: ctrl.build(),
            rng,
            modes: vec![SlotMode::Live; n_slots],
            weights: vec![1; n_slots],
            clocks: vec![nominal_ci; n_slots],
            arrived_since: 0,
            arrived_by_class: [0; 3],
            allow_best_effort: true,
            interval_ticks: ((ctrl.control_interval_s / tick_s).round() as u32).max(1),
            warm_up_us: (warm_s * 1e6).round() as u64,
            cold_up_us: (cold_s * 1e6).round() as u64,
        }
    }

    /// Promotes slots whose activation completed by `now_us`.
    fn finish_boots(&mut self, now_us: u64) {
        for m in &mut self.modes {
            if matches!(m, SlotMode::Booting { until_us } if *until_us <= now_us) {
                *m = SlotMode::Live;
            }
        }
    }
}

/// Wall-clock phase timer; each `mark` attributes the time since the
/// previous mark (or `reset`) to a phase. A disabled timer never reads
/// the clock, so profiling-off runs pay nothing.
struct ProfTimer {
    p: Option<PhaseProfile>,
    last: Instant,
}

impl ProfTimer {
    fn new(enabled: bool) -> Self {
        Self {
            p: enabled.then(PhaseProfile::new),
            last: Instant::now(),
        }
    }

    /// Restarts the interval without attributing the elapsed time.
    fn reset(&mut self) {
        if self.p.is_some() {
            self.last = Instant::now();
        }
    }

    fn mark(&mut self, phase: usize) {
        if let Some(p) = self.p.as_mut() {
            let now = Instant::now();
            p.record(phase, now.duration_since(self.last).as_nanos() as u64);
            self.last = now;
        }
    }
}

/// A series counter: its metric name and how to read its monotone
/// total.
type Counter<T> = (&'static str, fn(&T) -> u64);

/// The series counters of a cell's [`Totals`], recorded as deltas
/// per window. The cell owns its totals, so a delta counts exactly the
/// cell's own work in the window. `ttft_sum_us` reads the 128-bit sum
/// truncated to 64 bits; deltas wrap, which truncates the 128-bit delta.
const COUNTERS: [Counter<Totals>; 13] = [
    ("arrived", |a| a.arrived),
    ("completed", |a| a.completed),
    ("rejected", |a| a.rejected),
    ("admission_shed", |a| a.admission_shed),
    ("routing_shed", |a| a.routing_shed),
    ("tokens", |a| a.generated_tokens),
    ("energy_uj", |a| a.energy_uj),
    ("failures", |a| a.failures),
    ("restores", |a| a.restores),
    ("repairs", |a| a.repairs_dispatched),
    ("kv_stalls", |a| a.kv_backpressure_stalls),
    ("ttft_count", |a| a.ttft.total()),
    ("ttft_sum_us", |a| a.ttft.sum_us() as u64),
];

/// The per-tenant series counters, recorded as `tenant{t}/{name}`.
const TENANT_COUNTERS: [Counter<TenantTotals>; 3] = [
    ("arrived", |t| t.arrived),
    ("completed", |t| t.completed),
    ("shed", |t| t.shed),
];

/// Every series counter's current value in [`SeriesIds::counters`]
/// order: [`COUNTERS`], then [`TENANT_COUNTERS`] for each tenant.
fn counter_values(acc: &Totals) -> impl Iterator<Item = u64> + '_ {
    let tenants = acc.per_tenant.iter();
    let tenants = tenants.flat_map(|t| TENANT_COUNTERS.iter().map(move |(_, get)| get(t)));
    COUNTERS.iter().map(|(_, get)| get(acc)).chain(tenants)
}

/// Pre-resolved metric ids for one cell's sampling: every name is
/// formatted and resolved once per cell, so each sample instant is pure
/// array accumulation (no string formatting or map lookups in the tick
/// loop). Registration happens at cell setup, which also gives the
/// export a stable schema — e.g. every DVFS grid rung appears even in
/// windows (or runs) that never touch it.
struct SeriesIds {
    /// One id per [`counter_values`] entry.
    counters: Vec<MetricId>,
    /// Per-tenant queued gauges.
    tenant_queued: Vec<MetricId>,
    queued: MetricId,
    active: MetricId,
    up: MetricId,
    draining: MetricId,
    repair_pending: MetricId,
    spares_free: MetricId,
    /// KV-link backlog µs and in-flight bytes (phase-split cells).
    kv: Option<(MetricId, MetricId)>,
    /// Prefill / decode pool sizes (phase-split cells).
    pools: Option<(MetricId, MetricId)>,
    ctl: Option<CtlSeriesIds>,
    /// Per-cell queued, up gauges and arrived, completed counters.
    per_cell: Option<[MetricId; 4]>,
}

/// Control-plane slot-mode gauges plus one gauge per DVFS grid rung.
struct CtlSeriesIds {
    live: MetricId,
    warm: MetricId,
    cold: MetricId,
    booting: MetricId,
    clock_live: Vec<MetricId>,
}

impl SeriesIds {
    fn new(
        s: &mut SeriesRecorder,
        n_tenants: usize,
        clocks: Option<usize>,
        has_split: bool,
        per_cell: Option<u32>,
    ) -> Self {
        use MetricKind::{Counter, Gauge};
        let mut counters: Vec<MetricId> = COUNTERS.iter().map(|c| s.id(c.0, Counter)).collect();
        for t in 0..n_tenants {
            for c in &TENANT_COUNTERS {
                counters.push(s.id(&format!("tenant{t}/{}", c.0), Counter));
            }
        }
        Self {
            counters,
            tenant_queued: (0..n_tenants)
                .map(|t| s.id(&format!("tenant{t}/queued"), Gauge))
                .collect(),
            queued: s.id("queued", Gauge),
            active: s.id("active", Gauge),
            up: s.id("up", Gauge),
            draining: s.id("draining", Gauge),
            repair_pending: s.id("repair_pending", Gauge),
            spares_free: s.id("spares_free", Gauge),
            kv: has_split.then(|| {
                (
                    s.id("kv_backlog_us", Gauge),
                    s.id("kv_inflight_bytes", Gauge),
                )
            }),
            pools: has_split.then(|| (s.id("pool_prefill", Gauge), s.id("pool_decode", Gauge))),
            ctl: clocks.map(|n| CtlSeriesIds {
                live: s.id("live", Gauge),
                warm: s.id("warm", Gauge),
                cold: s.id("cold", Gauge),
                booting: s.id("booting", Gauge),
                clock_live: (0..n)
                    .map(|ci| s.id(&format!("clock{ci}/live"), Gauge))
                    .collect(),
            }),
            per_cell: per_cell.map(|c| {
                [
                    s.id(&format!("cell{c}/queued"), Gauge),
                    s.id(&format!("cell{c}/up"), Gauge),
                    s.id(&format!("cell{c}/{}", COUNTERS[0].0), Counter),
                    s.id(&format!("cell{c}/{}", COUNTERS[1].0), Counter),
                ]
            }),
        }
    }
}

/// The cell's busy set: slots holding queued or running work. The list
/// stays sorted: busy slots must serve in index order, because
/// concurrent prefill completions share one FIFO KV link per cell and
/// the enqueue order is part of the deterministic byte contract.
struct BusySet {
    member: Vec<bool>,
    list: Vec<u32>,
}

impl BusySet {
    /// Inserts `i` (idempotent).
    fn add(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            let p = self.list.partition_point(|&x| (x as usize) < i);
            self.list.insert(p, i as u32);
        }
    }

    /// Drops `i` if present.
    fn remove(&mut self, i: usize) {
        if self.member[i] {
            self.member[i] = false;
            if let Ok(p) = self.list.binary_search(&(i as u32)) {
                self.list.remove(p);
            }
        }
    }
}

/// The first tick at or after `us`, or `u32::MAX` when that tick lies
/// at or past the horizon of `ticks` — how a wakeup channel says never.
fn tick_or_never(us: u64, tick_us: u64, ticks: u32) -> u32 {
    let t = us.div_ceil(tick_us);
    if t < ticks as u64 {
        t as u32
    } else {
        u32::MAX
    }
}

/// The earliest tick at which a booting slot finishes (`u32::MAX` when
/// nothing completes inside the horizon): the boot-promotion wakeup
/// channel, rescanned after every control tick and promotion.
fn next_boot_tick(modes: &[SlotMode], tick_us: u64, ticks: u32) -> u32 {
    modes
        .iter()
        .filter_map(|m| match m {
            SlotMode::Booting { until_us } => Some(*until_us),
            _ => None,
        })
        .min()
        .map_or(u32::MAX, |us| tick_or_never(us, tick_us, ticks))
}

/// One cell's read-only state published at a fleet-tick boundary: the
/// fleet-scope observation row plus the cell's own upcoming-window
/// arrival batches `(tick, tenant, count)` that the planner may spill.
struct CellSnapshot {
    obs: FleetCellObs,
    window: Vec<(u32, u16, u64)>,
}

/// The per-cell outcome of one fleet plan, applied between windows.
/// Everything in here was computed by the pure planner from published
/// snapshots only, so applying it is deterministic for any thread count.
#[derive(Default)]
struct CellPlan {
    /// Admission budget for the coming window (`None` = unlimited).
    quota: Option<u64>,
    /// Arrival batches to shrink at the source: `(index relative to the
    /// cell's arrival cursor, requests to remove)`.
    deduct: Vec<(usize, u64)>,
    /// Per-destination spill totals booked at the source: `(dst, requests)`.
    outflow: Vec<(u32, u64)>,
    /// Redirected cohorts arriving here: `(tick, tenant, count)`, sorted
    /// by `(tick, admission order, source cell)`.
    inflow: Vec<(u32, u16, u64)>,
}

/// One cell's complete simulation state, stepped through the horizon in
/// resumable windows.
///
/// The cell owns everything it accumulates — its [`Totals`], its
/// trace events, its wakeup heap, its accrual clocks, its routing and
/// admission state and every periodic channel — so it can stop at any
/// window edge and resume exactly, and its series deltas count only its
/// own work. Every per-cell mechanism (routing, KV delivery, the failure
/// lifecycle and decode retries, control, serving and billing) is a
/// method on that state. [`run_windows`] builds a
/// cell on first touch, runs it window by window
/// ([`CellSim::run_until`]), applies the fleet plan between windows
/// ([`CellSim::publish`] / [`CellSim::apply_plan`]), and at the horizon
/// merges it into its worker ([`CellSim::finalize`]) and drops it.
struct CellSim<'a> {
    shared: &'a Shared<'a>,
    cell_idx: u32,
    /// Everything this cell has accumulated so far.
    acc: Totals,
    cell: CellState,
    insts: Vec<InstanceState>,
    phases: Vec<Phase>,
    kv: Option<KvLinkState>,
    traffic: CellTraffic,
    ctl: Option<CellCtl>,
    chaos: Option<&'a CellChaos>,
    /// Per slot at the current tick: drained, thermal clock clamp (grid
    /// index, `u8::MAX` when unclamped) and inside an outage window.
    drained: Vec<bool>,
    clamp: Vec<u8>,
    chaos_outed: Vec<bool>,
    clamp_scratch: Vec<u8>,
    /// The cell is inside a partition window (windowed state, like the
    /// per-slot vectors above).
    partitioned: bool,
    /// Some slot was forced down this tick (which makes decode retries
    /// due).
    forced_down: bool,
    /// Cursors into the cell's [`CellChaos::outage_ticks`] (the next
    /// outage to fire) and [`CellChaos::edges`] (the next window edge).
    outage_ptr: usize,
    edge_ptr: usize,
    trace: Option<TraceSink>,
    series_ids: Option<SeriesIds>,
    /// [`counter_values`] at the last series sample.
    snap: Vec<u64>,
    tenant_scratch: Vec<u64>,
    /// The wakeup heap over `(tick, local idx)`: `idx == u32::MAX` is a
    /// generic "process this tick" entry (chaos window edges,
    /// repair-dispatch readiness); `idx < n` requests that slot's
    /// failure lifecycle at that tick.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Per slot: the tick up to which idle time is billed.
    accrued: Vec<u32>,
    busy: BusySet,
    lifecycle_now: Vec<u32>,
    /// The cell's own arrival batches `(tick, tenant, count)` drawn so
    /// far, up to [`CellTraffic::drawn`], consumed through a cursor.
    arrivals: Vec<(u32, u16, u64)>,
    arr_ptr: usize,
    /// Spilled-in cohorts from other cells, sorted by tick (each window's
    /// plan is tick-sorted); consumed through a cursor like `arrivals`.
    inflow: Vec<(u32, u16, u64)>,
    inflow_ptr: usize,
    /// Routing buffers of [`Self::route`]: per-slot routing weights,
    /// per-slot shares of one batch, and [`apportion_into`]'s scratch.
    eff: Vec<u64>,
    shares: Vec<u64>,
    scratch: Vec<(u128, u32)>,
    /// The fleet admission quota left for the current fleet window
    /// (`u64::MAX`, unlimited, without a quota directive) and the
    /// arrivals counted toward the next [`FleetCellObs`] snapshot.
    quota_left: u64,
    window_arrived: u64,
    next_ctrl: u32,
    next_boot: u32,
    next_sample: u32,
    kv_next: u32,
    kv_blocked: bool,
    /// Reusable `(batch, slot)` buffer of [`Self::kv`].
    kv_cands: Vec<(u32, u32)>,
    decode_retry: bool,
    /// The next tick to process.
    tick: u32,
}

impl<'a> CellSim<'a> {
    fn new(
        shared: &'a Shared<'a>,
        seed: u64,
        cell_idx: u32,
        table: &ArrivalTable,
        hi: u32,
        series: Option<&mut SeriesRecorder>,
        prof: &mut ProfTimer,
    ) -> Self {
        let cfg = shared.cfg;
        let n_tenants = cfg.workload.tenants.len();
        let tick_us = shared.knobs.tick_us;
        let tel = &cfg.telemetry;
        let first = cell_idx * cfg.cell_size;
        let last = (first + cfg.cell_size).min(cfg.instances);
        let insts: Vec<InstanceState> = (first..last)
            .map(|g| InstanceState::new(seed, g as u64, &shared.rates, n_tenants))
            .collect();
        let n = insts.len();
        // Phase roles: monolithic cells are all-Mixed; split cells start
        // at the configured fraction (prefill pool on the low-indexed
        // stable primaries) and the phase-aware autoscaler rebalances.
        let phases: Vec<Phase> = match &shared.split {
            None => vec![Phase::Mixed; n],
            Some(s) => {
                let np = s.prefill_slots(n);
                (0..n)
                    .map(|i| {
                        if i < np {
                            Phase::Prefill
                        } else {
                            Phase::Decode
                        }
                    })
                    .collect()
            }
        };
        let ctl = cfg
            .ctrl
            .as_ref()
            .map(|c| CellCtl::new(c, seed, cell_idx, n, cfg.tick_s, shared.nominal_ci));
        let chaos = shared
            .chaos
            .get(cell_idx as usize)
            .filter(|c| !c.is_empty());
        // Resolve this cell's metric ids once: re-resolution across
        // cells is idempotent, and the tick loop then samples by index.
        let series_ids = series.map(|s| {
            SeriesIds::new(
                s,
                n_tenants,
                ctl.is_some().then(|| shared.lut.num_clocks()),
                shared.split.is_some(),
                tel.per_cell_series.then_some(cell_idx),
            )
        });
        // The first window of arrivals, drawn as the cell is built and
        // before its remaining buffers: drawing it after them measurably
        // raised the peak RSS of one-window runs (heap placement). Later
        // windows come from `Self::draw`.
        let mut traffic = CellTraffic::new(seed, cell_idx, cfg);
        let mut arrivals = Vec::new();
        prof.reset();
        traffic.draw(shared, table, hi, &mut arrivals);
        prof.mark(PHASE_ROUTE);
        let acc = Totals::new(n_tenants, shared.lut.num_clocks());
        let mut sim = Self {
            shared,
            cell_idx,
            snap: counter_values(&acc).collect(),
            acc,
            cell: CellState::new(cfg.spares_per_cell, cfg.repair_crews_per_cell),
            insts,
            phases,
            kv: shared
                .split
                .as_ref()
                .map(|s| KvLinkState::new(s.kv_bytes_per_s, s.kv_max_backlog_us)),
            traffic,
            next_ctrl: ctl.as_ref().map_or(u32::MAX, |c| c.interval_ticks),
            ctl,
            chaos,
            drained: vec![false; n],
            clamp: vec![u8::MAX; n],
            chaos_outed: vec![false; n],
            clamp_scratch: vec![u8::MAX; n],
            partitioned: false,
            forced_down: false,
            outage_ptr: 0,
            edge_ptr: 0,
            trace: (tel.trace_every > 0).then(|| TraceSink {
                buf: Vec::new(),
                sampler: SpanSampler::new(tel.trace_every),
                cell: cell_idx,
            }),
            series_ids,
            tenant_scratch: vec![0; n_tenants],
            heap: BinaryHeap::new(),
            accrued: vec![0; n],
            busy: BusySet {
                member: vec![false; n],
                list: Vec::new(),
            },
            lifecycle_now: Vec::new(),
            arrivals,
            arr_ptr: 0,
            inflow: Vec::new(),
            inflow_ptr: 0,
            eff: Vec::with_capacity(n),
            shares: Vec::with_capacity(n),
            scratch: Vec::with_capacity(n),
            quota_left: u64::MAX,
            window_arrived: 0,
            next_boot: u32::MAX,
            next_sample: shared.series_every.checked_sub(1).unwrap_or(u32::MAX),
            kv_next: u32::MAX,
            kv_blocked: false,
            kv_cands: Vec::new(),
            decode_retry: false,
            tick: 0,
        };
        for i in 0..n {
            sim.wake(sim.insts[i].next_failure_at_us() / tick_us, i as u32);
        }
        if let Some(ch) = chaos {
            // Chaos window edges are static: schedule every edge that
            // must be observed at its exact tick. Outages fire at the
            // tick containing their start; the other windows matter
            // from the first tick at or after each edge.
            for &(t, _) in &ch.outage_ticks {
                sim.wake(t, u32::MAX);
            }
            for &(start, _) in &ch.partitions {
                sim.wake(start.div_ceil(tick_us), u32::MAX);
            }
            for (start, end, _) in &ch.drains {
                sim.wake(start.div_ceil(tick_us), u32::MAX);
                sim.wake(end.div_ceil(tick_us), u32::MAX);
            }
            for (start, end, _, _) in &ch.thermals {
                sim.wake(start.div_ceil(tick_us), u32::MAX);
                sim.wake(end.div_ceil(tick_us), u32::MAX);
            }
        }
        sim
    }

    /// Schedules tick `t` — for slot `idx`'s failure lifecycle, or just
    /// to process the tick when `idx == u32::MAX`. Ticks at or past the
    /// horizon are dropped.
    fn wake(&mut self, t: u64, idx: u32) {
        if t < self.shared.ticks as u64 {
            self.heap.push(Reverse((t as u32, idx)));
        }
    }

    /// Slot `i`'s administrative mode (always live without a control
    /// plane).
    fn mode(&self, i: usize) -> SlotMode {
        self.ctl.as_ref().map_or(SlotMode::Live, |c| c.modes[i])
    }

    /// Slot `i`'s operating point: its DVFS clock (nominal without a
    /// control plane) capped by any thermal clamp. The grid is priced
    /// whenever any thermal event exists.
    fn clock(&self, i: usize) -> usize {
        self.ctl
            .as_ref()
            .map_or(self.shared.nominal_ci, |c| c.clocks[i])
            .min(self.clamp[i]) as usize
    }

    /// Slots out of service by announced chaos: drained or inside an
    /// outage window.
    fn chaos_down(&self) -> u32 {
        self.drained
            .iter()
            .zip(&self.chaos_outed)
            .filter(|(&d, &o)| d || o)
            .count() as u32
    }

    /// Appends `ev` to the cell's trace when tracing is on.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(ts) = self.trace.as_mut() {
            ts.buf.push(ev);
        }
    }

    /// Lazily bills slot `i`'s idle ticks `[accrued[i], to)` at its
    /// current administrative mode — the event engine's replacement for
    /// the tick loop's per-tick energy walk over every instance, and the
    /// only code that prices a tick per slot mode ([`Self::serve`] bills
    /// busy ticks through it too).
    ///
    /// Exactness rests on two facts. First, an idle instance's serve was
    /// a pure no-op (`spent == 0`, no RNG draw, `carry_us` already zero),
    /// so a Live idle tick billed exactly the static floor plus one
    /// live/clock/phase tick and a Warm or Booting tick exactly the
    /// floor. Second, every input of that per-tick amount (`up`, mode,
    /// clock, clamp, phase) is constant across the span, because each
    /// mutation site runs behind an accrual barrier: the failure
    /// lifecycle and chaos outages accrue the instance first, control
    /// ticks, boot promotions and thermal-clamp changes accrue the whole
    /// cell first, and the serve path closes its own span every busy
    /// tick (serving itself changes none of these inputs).
    fn accrue(&mut self, i: usize, to: u32) {
        let from = self.accrued[i];
        if to <= from {
            return;
        }
        self.accrued[i] = to;
        // A down instance draws nothing (its unit is out for swap or
        // repair), and neither does a gated (cold) one — the §3 win.
        if !self.insts[i].up {
            return;
        }
        let k = (to - from) as u64;
        let e = self.shared.power.idle_mw * self.shared.knobs.tick_us / 1000;
        let (mode, ci) = (self.mode(i), self.clock(i));
        let acc = &mut self.acc;
        match mode {
            SlotMode::Live => {
                acc.energy_uj += e * k;
                acc.idle_energy_uj += e * k;
                acc.live_ticks += k;
                acc.clock_ticks[ci] += k;
                match self.phases[i] {
                    Phase::Prefill => acc.prefill_live_ticks += k,
                    Phase::Decode => acc.decode_live_ticks += k,
                    Phase::Mixed => {}
                }
            }
            SlotMode::Warm | SlotMode::Booting { .. } => {
                acc.energy_uj += e * k;
                acc.idle_energy_uj += e * k;
            }
            SlotMode::Cold => {}
        }
    }

    /// Closes every slot's open idle span at `to`.
    fn accrue_all(&mut self, to: u32) {
        for i in 0..self.insts.len() {
            self.accrue(i, to);
        }
    }

    /// Steps this cell until its clock reaches `until`. Each processed
    /// tick runs the seven phases in order — [`Self::chaos`],
    /// [`Self::lifecycle`], [`Self::control`], [`Self::kv`],
    /// [`Self::route`], [`Self::serve`], [`Self::sample`] — each a no-op
    /// when nothing of its kind is due, then jumps to the next tick with
    /// work ([`Self::next_tick`]). The cell may stop *past* `until` after
    /// an idle jump; the next window resumes from there.
    fn run_until(
        &mut self,
        until: u32,
        mut series: Option<&mut SeriesRecorder>,
        prof: &mut ProfTimer,
    ) {
        while self.tick < until {
            prof.reset();
            self.chaos();
            prof.mark(PHASE_CHAOS);
            self.lifecycle();
            prof.mark(PHASE_LIFECYCLE);
            self.control();
            prof.mark(PHASE_CONTROL);
            self.kv();
            prof.mark(PHASE_KV);
            self.route();
            prof.mark(PHASE_ROUTE);
            self.serve();
            prof.mark(PHASE_SERVE);
            self.sample(series.as_deref_mut());
            prof.mark(PHASE_SAMPLE);
            self.tick = self.next_tick();
        }
    }

    /// Chaos phase: returns repaired units to the spare pool, hands every
    /// ready repair job to a crew, then applies the campaign at this
    /// tick ([`Self::outages`], [`Self::windows`]).
    fn chaos(&mut self) {
        let tick_us = self.shared.knobs.tick_us;
        let t_start = self.tick as u64 * tick_us;
        self.cell.reclaim_repaired(t_start);
        for job in self
            .cell
            .dispatch_repairs(t_start, self.shared.rates.repair_us)
        {
            self.acc.repairs_dispatched += 1;
            self.acc.repair_wait_us += job.wait_us;
            if !job.replenish {
                self.insts[job.local_idx as usize].schedule_recovery(job.done_us);
                // The recovery can already be due this tick (a
                // zero-length repair); the lifecycle phase drains the
                // heap after this one, so a same-tick wakeup still runs.
                let rt = job.done_us.div_ceil(tick_us).max(self.tick as u64);
                self.wake(rt, job.local_idx);
            }
            self.emit(TraceEvent::complete(
                "chaos",
                "repair",
                t_start,
                job.done_us.saturating_sub(t_start),
                self.cell_idx,
                job.local_idx,
                job.wait_us,
            ));
        }
        self.forced_down = false;
        if let Some(ch) = self.chaos {
            self.outages(ch);
            self.windows(ch, t_start);
        }
    }

    /// Correlated outages fire once, at the tick containing their window
    /// start (a wakeup, and processed ticks only move forward, so the
    /// tick is exact), popped in firing order from the cell's outage
    /// cursor: every affected up instance goes down for the window.
    /// Spares apply, but the swap can only run once the domain is back,
    /// so spare recovery lands at window end + swap; either way the
    /// repair crew is requested for window end.
    fn outages(&mut self, ch: &CellChaos) {
        let tick_us = self.shared.knobs.tick_us;
        let tick = self.tick;
        while let Some(&(t, oi)) = ch.outage_ticks.get(self.outage_ptr) {
            if t > tick as u64 {
                break;
            }
            debug_assert_eq!(t, tick as u64, "every outage start tick is a wakeup");
            self.outage_ptr += 1;
            let (kind, start, end, locals) = &ch.outages[oi];
            self.emit(TraceEvent::complete(
                "chaos",
                if *kind == 2 {
                    "power_outage"
                } else {
                    "rack_outage"
                },
                *start,
                end - start,
                self.cell_idx,
                locals.first().copied().unwrap_or(0),
                locals.len() as u64,
            ));
            for &li in locals {
                let iu = li as usize;
                if !self.insts[iu].up {
                    continue;
                }
                self.accrue(iu, tick);
                self.acc.failures += 1;
                self.acc.by_kind[*kind] += 1;
                let spare = self.cell.try_take_spare();
                let until = if spare {
                    self.acc.spare_hits += 1;
                    end.saturating_add(self.shared.rates.swap_us.max(1))
                } else {
                    self.acc.spare_misses += 1;
                    u64::MAX
                };
                self.insts[iu].force_down(*start, until, &mut self.acc);
                self.cell.enqueue_repair(*end, li, spare);
                self.wake(self.insts[iu].down_until_at_us().div_ceil(tick_us), li);
                // The repair job becomes dispatchable at the first tick
                // whose start reaches the window end.
                self.wake(end.div_ceil(tick_us).max(tick as u64 + 1), u32::MAX);
                self.forced_down = true;
                self.busy.remove(iu);
            }
        }
    }

    /// The windowed campaign state at this tick: partitions, drains and
    /// thermal clamps, plus which slots sit inside an outage window. A
    /// window is active while `start <= t_start < end`, so the state is
    /// a step function of the tick that only changes at the cell's
    /// [`CellChaos::edges`]: it is recomputed on the first processed tick
    /// at or past an edge and otherwise left as it is. Partition starts
    /// and drain and thermal edges are wakeups and processed ticks only
    /// move forward, so a window's first active tick is
    /// `start.div_ceil(tick_us)` — where its event is counted and traced
    /// — and a drain that was ever active restores at
    /// `end.div_ceil(tick_us)`. A partition end needs no wakeup: nothing
    /// is counted or traced there, and the next processed tick's
    /// recompute clears `partitioned`.
    fn windows(&mut self, ch: &CellChaos, t_start: u64) {
        let tick_us = self.shared.knobs.tick_us;
        let tick = self.tick as u64;
        if ch.edges.get(self.edge_ptr).is_none_or(|&e| e > tick) {
            return;
        }
        self.edge_ptr += ch.edges[self.edge_ptr..].partition_point(|&e| e <= tick);
        let active = |s: u64, e: u64| s <= t_start && t_start < e;
        let first = |edge: u64| edge.div_ceil(tick_us) == tick;
        self.partitioned = false;
        for &(start, end) in &ch.partitions {
            if active(start, end) {
                self.partitioned = true;
                if first(start) {
                    self.acc.by_kind[3] += 1; // DomainKind::Partition.
                    self.emit(TraceEvent::complete(
                        "chaos",
                        "partition",
                        start,
                        end - start,
                        self.cell_idx,
                        0,
                        self.insts.len() as u64,
                    ));
                }
            }
        }
        self.drained.fill(false);
        for &(start, end, ref locals) in &ch.drains {
            let lead = locals.first().copied().unwrap_or(0);
            if active(start, end) {
                if first(start) {
                    self.acc.drains += locals.len() as u64;
                    self.emit(TraceEvent::complete(
                        "chaos",
                        "drain",
                        start,
                        end - start,
                        self.cell_idx,
                        lead,
                        locals.len() as u64,
                    ));
                }
                for &li in locals {
                    self.drained[li as usize] = true;
                }
            } else if first(end) && start.div_ceil(tick_us) < end.div_ceil(tick_us) {
                self.acc.drain_restores += locals.len() as u64;
                self.emit(TraceEvent::instant(
                    "chaos",
                    "drain_restore",
                    end,
                    self.cell_idx,
                    lead,
                    locals.len() as u64,
                ));
            }
        }
        self.clamp_scratch.fill(u8::MAX);
        for &(start, end, cci, ref locals) in &ch.thermals {
            if active(start, end) {
                if first(start) {
                    self.acc.by_kind[4] += 1; // DomainKind::Thermal.
                    self.emit(TraceEvent::complete(
                        "chaos",
                        "thermal",
                        start,
                        end - start,
                        self.cell_idx,
                        locals.first().copied().unwrap_or(0),
                        locals.len() as u64,
                    ));
                }
                for &li in locals {
                    let c = &mut self.clamp_scratch[li as usize];
                    *c = (*c).min(cci);
                }
            }
        }
        if self.clamp_scratch != self.clamp {
            // A clamp change re-prices Live idle ticks (the clock-tick
            // attribution): close every open accrual span at the old
            // operating points before committing the new clamps.
            self.accrue_all(self.tick);
            self.clamp.copy_from_slice(&self.clamp_scratch);
        }
        self.chaos_outed.fill(false);
        for (_, start, end, locals) in &ch.outages {
            if active(*start, *end) {
                for &li in locals {
                    self.chaos_outed[li as usize] = true;
                }
            }
        }
    }

    /// Lifecycle phase: runs the failure lifecycle of every slot with a
    /// wakeup due at this tick, schedules each state change's follow-up
    /// wakeups, then re-routes work failed decode slots left queued.
    fn lifecycle(&mut self) {
        let tick = self.tick;
        let tick_us = self.shared.knobs.tick_us;
        let t_start = tick as u64 * tick_us;
        self.lifecycle_now.clear();
        while let Some(&Reverse((t, i))) = self.heap.peek() {
            if t > tick {
                break;
            }
            self.heap.pop();
            // Dedup duplicate instance wakeups: equal entries pop
            // adjacently, and a doubled lifecycle call could
            // recover-and-refail within one tick where the tick loop
            // called it exactly once.
            if i != u32::MAX && self.lifecycle_now.last() != Some(&i) {
                self.lifecycle_now.push(i);
            }
        }
        for k in 0..self.lifecycle_now.len() {
            let i = self.lifecycle_now[k];
            let iu = i as usize;
            let was_up = self.insts[iu].up;
            self.accrue(iu, tick);
            self.insts[iu].lifecycle(
                i,
                t_start,
                tick_us,
                &self.shared.rates,
                &mut self.cell,
                &mut self.acc,
            );
            let up = self.insts[iu].up;
            if was_up && !up {
                self.forced_down = true;
                self.wake(self.insts[iu].down_until_at_us().div_ceil(tick_us), i);
                // The failure enqueued a repair job, dispatchable at the
                // next tick at the earliest (this tick's dispatch already
                // ran).
                self.wake(tick as u64 + 1, u32::MAX);
                self.busy.remove(iu);
            } else if !was_up && up {
                // Recovered. The lifecycle returns after a recovery, so a
                // next-failure time already in the past still fails no
                // earlier than the next tick.
                let nf = self.insts[iu].next_failure_at_us() / tick_us;
                self.wake(nf.max(tick as u64 + 1), i);
                if !self.insts[iu].is_idle() {
                    self.busy.add(iu);
                }
            }
        }
        // A failed decode instance's requeued work (KV lost) must go
        // back through the prefill pool — decode slots never prefill, so
        // anything the lifecycle parked on their queue re-routes.
        // Decode-side queues only ever appear through a force-down flush,
        // so the sweep is due exactly on force-down ticks and while a
        // previous sweep left work unplaced (`decode_retry` then forces
        // every tick until the pool can take it).
        //
        // Target: the least-queued prefill slot that is up and actually
        // serving, ties to the lowest index; parking the work behind a
        // down or parked "prefill" slot would strand it for the whole
        // repair. With no such slot (rebalance in flight, pool down) the
        // runs stay on the source and re-route on a later tick — admitted
        // work is never dropped. The runs were admitted once already, so
        // the queue cap does not re-apply and no routing counters move.
        if self.shared.split.is_some() && (self.forced_down || self.decode_retry) {
            self.decode_retry = false;
            for i in 0..self.insts.len() {
                if self.phases[i] != Phase::Decode || self.insts[i].queued() == 0 {
                    continue;
                }
                let target = (0..self.insts.len())
                    .filter(|&j| {
                        self.phases[j] == Phase::Prefill
                            && self.insts[j].up
                            && self.mode(j) == SlotMode::Live
                    })
                    .min_by_key(|&j| (self.insts[j].queued(), j));
                match target {
                    Some(j) => {
                        let runs = self.insts[i].take_queued_runs();
                        self.insts[j].accept_requeued_runs(runs);
                        self.busy.add(j);
                    }
                    None => self.decode_retry = true,
                }
            }
        }
    }

    /// Control phase: promotes finished boots, and on control ticks runs
    /// the cell's controller stack ([`Self::control_tick`]). Both change
    /// accrual inputs (modes, clocks, phases), so every open idle span
    /// closes first. Without a control plane `next_boot`/`next_ctrl` stay
    /// at `u32::MAX` and neither fires.
    fn control(&mut self) {
        let tick = self.tick;
        let tick_us = self.shared.knobs.tick_us;
        if tick >= self.next_boot {
            self.accrue_all(tick);
            if let Some(c) = self.ctl.as_mut() {
                c.finish_boots(tick as u64 * tick_us);
                self.next_boot = next_boot_tick(&c.modes, tick_us, self.shared.ticks);
            }
        }
        if tick == self.next_ctrl {
            self.accrue_all(tick);
            self.control_tick();
        }
    }

    /// Runs one control tick: observes the cell, consults the policy
    /// stack, applies its commands, and re-arms the control and boot
    /// wakeups.
    fn control_tick(&mut self) {
        let shared = self.shared;
        let tick = self.tick;
        let t_start_us = tick as u64 * shared.knobs.tick_us;
        // The control plane observes announced chaos state (active
        // outage windows + drains) so the autoscaler can hold
        // replacement capacity live instead of parking it into the
        // blast radius.
        let chaos_down = self.chaos_down();
        let Some(c) = self.ctl.as_mut() else {
            return;
        };
        let mut obs = CellObs::new(tick, c.interval_ticks as f64 * shared.cfg.tick_s);
        obs.arrived_since_last = core::mem::take(&mut c.arrived_since);
        obs.arrived_by_class = core::mem::take(&mut c.arrived_by_class);
        obs.capacity_rps_per_instance = shared.cap_rps;
        obs.max_queue = shared.knobs.max_queue;
        obs.chaos_down = chaos_down;
        obs.phase_split = shared.split.as_ref().map(|s| PhaseObs {
            prefill_capacity_rps: s.prefill_capacity_rps,
            decode_capacity_rps: s.decode_capacity_rps,
            kv_backlog_us: self.kv.as_ref().map_or(0, |k| k.backlog_us(t_start_us)),
        });
        obs.clock_points = shared.clock_points.clone();
        obs.slots = c
            .modes
            .iter()
            .zip(&self.insts)
            .zip(&self.phases)
            .zip(&c.clocks)
            .map(|(((m, inst), &phase), &clock)| InstanceObs {
                mode: if !inst.up {
                    Mode::Down
                } else {
                    match m {
                        SlotMode::Live => Mode::Live,
                        SlotMode::Warm => Mode::Warm,
                        SlotMode::Cold => Mode::Cold,
                        SlotMode::Booting { .. } => Mode::Booting,
                    }
                },
                phase,
                clock,
                queued: inst.queued(),
                active: inst.active(),
            })
            .collect();
        // Every state-*changing* command becomes one control-plane trace
        // instant, emitted by the arm that applies it (so tracing costs
        // nothing on the no-op path). Policies re-assert idempotent
        // state each tick (the gater paints every parked slot cold, the
        // router re-sends unchanged weights); tracing only transitions
        // keeps every state change in the timeline without drowning it
        // — or the hot loop — in no-op re-assertions. Effectiveness is
        // pure cell-local sim state, so the filter stays shard-invariant.
        let (cell, tick_arg) = (self.cell_idx, tick as u64);
        let trace_cmd = |trace: &mut Option<TraceSink>, kind: &'static str, slot: u32| {
            if let Some(ts) = trace {
                ts.buf.push(TraceEvent::instant(
                    "ctrl", kind, t_start_us, cell, slot, tick_arg,
                ));
            }
        };
        let (insts, acc, trace) = (&self.insts, &mut self.acc, &mut self.trace);
        for cmd in c.stack.control(&obs, &mut c.rng) {
            match cmd {
                Command::Activate { slot } => {
                    let s = slot as usize;
                    if s >= c.modes.len() {
                        continue;
                    }
                    let boot_us = match c.modes[s] {
                        SlotMode::Warm => c.warm_up_us,
                        SlotMode::Cold => c.cold_up_us,
                        _ => continue,
                    };
                    c.modes[s] = if boot_us == 0 {
                        SlotMode::Live
                    } else {
                        SlotMode::Booting {
                            until_us: t_start_us.saturating_add(boot_us),
                        }
                    };
                    acc.scale_ups += 1;
                    trace_cmd(trace, "activate", slot);
                }
                Command::Park { slot } => {
                    let s = slot as usize;
                    if s < insts.len()
                        && c.modes[s] == SlotMode::Live
                        && insts[s].up
                        && insts[s].is_idle()
                    {
                        // Parking alone keeps the instance powered at its
                        // idle floor; only a power-gating policy's SetCold
                        // (issued later in this same command batch) may
                        // drop it to zero draw. Without a gater, parked
                        // capacity correctly keeps paying the floor.
                        c.modes[s] = SlotMode::Warm;
                        acc.scale_downs += 1;
                        trace_cmd(trace, "park", slot);
                    }
                }
                Command::SetWarm { slot } => {
                    if let Some(m @ SlotMode::Cold) = c.modes.get_mut(slot as usize) {
                        *m = SlotMode::Warm;
                        trace_cmd(trace, "set_warm", slot);
                    }
                }
                Command::SetCold { slot } => {
                    if let Some(m @ SlotMode::Warm) = c.modes.get_mut(slot as usize) {
                        *m = SlotMode::Cold;
                        trace_cmd(trace, "set_cold", slot);
                    }
                }
                Command::SetWeights { weights } if weights.len() == c.modes.len() => {
                    if trace.is_some() && weights != c.weights {
                        trace_cmd(trace, "set_weights", u32::MAX);
                    }
                    c.weights = weights;
                }
                Command::SetAdmission { allow_best_effort } => {
                    if trace.is_some() && allow_best_effort != c.allow_best_effort {
                        trace_cmd(trace, "set_admission", u32::MAX);
                    }
                    c.allow_best_effort = allow_best_effort;
                }
                Command::SetPhase { slot, phase } => {
                    // Phase moves apply only to idle slots: migrating a
                    // live KV batch or queued prompts between pools is
                    // not modeled, so busy slots converge as they drain.
                    let s = slot as usize;
                    if s < insts.len()
                        && shared.split.is_some()
                        && self.phases[s] != phase
                        && phase != Phase::Mixed
                        && insts[s].is_idle()
                    {
                        self.phases[s] = phase;
                        acc.phase_rebalances += 1;
                        trace_cmd(trace, "set_phase", slot);
                    }
                }
                Command::SetClock { slot, clock } => {
                    // Retunes take effect at the next data tick; an
                    // out-of-grid index is a controller bug and ignored.
                    let s = slot as usize;
                    if s < insts.len()
                        && (clock as usize) < shared.lut.num_clocks()
                        && c.clocks[s] != clock
                    {
                        c.clocks[s] = clock;
                        acc.clock_retunes += 1;
                        trace_cmd(trace, "set_clock", slot);
                    }
                }
                // `Command` is #[non_exhaustive]; a variant this engine
                // doesn't know is ignored (commands are advisory).
                _ => {}
            }
        }
        self.next_ctrl = self.next_ctrl.saturating_add(c.interval_ticks);
        self.next_boot = next_boot_tick(&c.modes, shared.knobs.tick_us, shared.ticks);
    }

    /// KV phase: delivers landed KV transfers into the decode pool, FIFO.
    /// A transfer waits (head-of-line) until some live decode instance
    /// has batch room; the target is the least-loaded live decode slot,
    /// ties to the lowest index — a deterministic choice from cell-local
    /// state only. TTFT is recorded here, so the wait for decode batch
    /// room lands in it. Without a KV link `kv_next` stays at `u32::MAX`
    /// and `kv_blocked` false, so this never fires.
    ///
    /// The eligible slots (decode phase, up, serving, not drained) are
    /// gathered once per call into `kv_cands` as `(batch, slot)`: nothing
    /// in here changes eligibility, and a delivery only grows its
    /// target's batch, so each transfer scans the candidates alone.
    fn kv(&mut self) {
        let now_us = self.tick as u64 * self.shared.knobs.tick_us;
        let due = self.kv_blocked || self.tick >= self.kv_next;
        let Some(link) = self.kv.as_mut().filter(|_| due) else {
            return;
        };
        if link.peek_landed(now_us).is_some() {
            let ctl = self.ctl.as_ref();
            self.kv_cands.clear();
            self.kv_cands.extend(
                (self.insts.iter().enumerate())
                    .filter(|&(i, s)| {
                        self.phases[i] == Phase::Decode
                            && s.up
                            && ctl.is_none_or(|c| c.modes[i] == SlotMode::Live)
                            && !self.drained[i]
                    })
                    .map(|(i, s)| (s.active(), i as u32)),
            );
            let max_batch = self.shared.lut.max_batch;
            while let Some(job) = link.peek_landed(now_us) {
                let room = self
                    .kv_cands
                    .iter_mut()
                    .filter(|c| c.0 + job.count <= max_batch);
                let Some(c) = room.min() else {
                    break;
                };
                c.0 += job.count;
                let i = c.1 as usize;
                let job = link.pop().expect("peeked");
                let tk = &self.shared.knobs.tenants[job.tenant as usize];
                KvLinkState::record_delivery(&job, now_us, tk, &mut self.acc);
                if let Some(ts) = self.trace.as_mut() {
                    if ts.sampler.sampled(job.span) {
                        let tid = self.insts[i].global_index();
                        ts.buf.push(TraceEvent::async_end(
                            "req",
                            "kv_transfer",
                            now_us,
                            ts.cell,
                            tid,
                            job.span,
                            job.bytes,
                        ));
                        ts.buf.push(TraceEvent::async_begin(
                            "req",
                            "decode",
                            now_us,
                            ts.cell,
                            tid,
                            job.span,
                            job.count as u64,
                        ));
                    }
                }
                self.insts[i].admit_decode_cohort(&job);
                self.busy.add(i);
            }
        }
        // A landed head with no decode room blocks FIFO: the next tick
        // must process another delivery attempt.
        self.kv_blocked = link.peek_landed(now_us).is_some();
    }

    /// Route phase: routes this tick's arrival batches, the cell's own
    /// first and then the cohorts other cells spilled here — a fixed,
    /// deterministic admission order — in priority order with exact
    /// largest-remainder splits.
    ///
    /// Controlled cells route over live instances by the
    /// (control-tick-stale) weights and apply admission control;
    /// uncontrolled cells split uniformly over **all** instances — no
    /// router means a down instance's share queues behind it (stranded
    /// traffic, exactly what the router exists to fix). Under
    /// phase-split serving, queue room is granted to the prefill pool
    /// only: decode instances receive their work over the KV link, never
    /// the front door. Chaos: a partitioned cell sheds every arrival at
    /// the front door (attributed to `partition_shed`), and drained
    /// slots take no new routing regardless of controller presence — a
    /// drain is a planned, announced exclusion, unlike a silent failure.
    /// Once a fleet window's admission quota is spent, further
    /// guaranteed-class arrivals are shed at the boundary (counted as
    /// `quota_clamped` inside `admission_shed`); an unlimited quota is
    /// byte-inert.
    ///
    /// Eligibility is built once per tick: routing only queues work, and
    /// nothing it reads (slot modes, `up`, weights, phases, drains,
    /// admission, partition) changes while a tick routes.
    fn route(&mut self) {
        let tick = self.tick;
        let due = |batches: &[(u32, u16, u64)], from: usize| {
            from + batches[from..].iter().take_while(|b| b.0 == tick).count()
        };
        let (own, spilled) = (self.arr_ptr, self.inflow_ptr);
        self.arr_ptr = due(&self.arrivals, own);
        self.inflow_ptr = due(&self.inflow, spilled);
        if self.arr_ptr == own && self.inflow_ptr == spilled {
            return;
        }
        self.eff.clear();
        match self.ctl.as_ref() {
            Some(c) => self.eff.extend(
                c.modes
                    .iter()
                    .zip(&self.insts)
                    .zip(&c.weights)
                    .zip(&self.phases)
                    .zip(&self.drained)
                    .map(|((((m, inst), &w), &p), &d)| {
                        if *m == SlotMode::Live && inst.up && p != Phase::Decode && !d {
                            w
                        } else {
                            0
                        }
                    }),
            ),
            None => self.eff.extend(
                self.phases
                    .iter()
                    .zip(&self.drained)
                    .map(|(&p, &d)| u64::from(p != Phase::Decode && !d)),
            ),
        }
        let allow_be = self.ctl.as_ref().is_none_or(|c| c.allow_best_effort);
        let any_target = !self.partitioned && self.eff.iter().any(|&w| w > 0);
        let batches = self.arrivals[own..self.arr_ptr].iter();
        let acc = &mut self.acc;
        for &(_, ti, n) in batches.chain(&self.inflow[spilled..self.inflow_ptr]) {
            let t = ti as usize;
            acc.arrived += n;
            acc.per_tenant[t].arrived += n;
            self.window_arrived += n;
            let class = self.shared.classes[t];
            if let Some(c) = self.ctl.as_mut() {
                c.arrived_since += n;
                c.arrived_by_class[class.index()] += n;
            }
            if class == PriorityClass::BestEffort && !allow_be {
                acc.rejected += n;
                acc.admission_shed += n;
                acc.per_tenant[t].shed += n;
                continue;
            }
            // Fleet admission quota: shed whatever exceeds the window's
            // remaining budget at the boundary. `u64::MAX` (no balancer,
            // or no quota directive) never sheds.
            let n = if self.quota_left >= n {
                self.quota_left -= n;
                n
            } else {
                let shed = n - self.quota_left;
                self.quota_left = 0;
                acc.rejected += shed;
                acc.admission_shed += shed;
                acc.quota_clamped += shed;
                acc.per_tenant[t].shed += shed;
                n - shed
            };
            if n == 0 {
                continue;
            }
            if !any_target {
                acc.rejected += n;
                acc.routing_shed += n;
                if self.partitioned {
                    acc.partition_shed += n;
                }
                acc.per_tenant[t].shed += n;
                continue;
            }
            apportion_into(n, &self.eff, &mut self.shares, &mut self.scratch);
            for (i, &share) in self.shares.iter().enumerate() {
                if share > 0 {
                    let inst = &mut self.insts[i];
                    let admitted = inst.push_arrivals(tick, share, ti, &self.shared.knobs, acc);
                    acc.routed += admitted;
                    acc.per_tenant[t].routed += admitted;
                    if admitted > 0 && inst.up {
                        self.busy.add(i);
                    }
                }
            }
        }
    }

    /// Serve phase: steps every busy slot in index order, bills its tick
    /// of energy, and drops slots that went idle (or down) from the busy
    /// set; then re-arms the KV wakeup at the link's new head.
    ///
    /// [`Self::accrue`] bills the tick as an idle one (serving changes
    /// none of its inputs); a live slot that is up then adds what its
    /// served time changes. Dynamic power bills at the slot's operating
    /// point, and the nominal-clock counterfactual of the same served
    /// work accumulates beside it, so the report can state exactly what
    /// serving-time DVFS saved. The served part of the idle floor moves
    /// out of idle energy: `e` minus the floor of the unserved time,
    /// never more than the `e` just billed.
    fn serve(&mut self) {
        let tick = self.tick;
        let shared = self.shared;
        let (power, tick_us) = (&shared.power, shared.knobs.tick_us);
        let mut keep = 0usize;
        for r in 0..self.busy.list.len() {
            let iu = self.busy.list[r] as usize;
            let (mode, ci) = (self.mode(iu), self.clock(iu));
            let (spent, nominal_spent) = if mode == SlotMode::Live {
                self.insts[iu].serve(
                    tick,
                    shared.lut,
                    &shared.knobs,
                    self.phases[iu],
                    ci as u8,
                    self.kv.as_mut(),
                    self.trace.as_mut(),
                    &mut self.acc,
                )
            } else {
                (0, 0)
            };
            self.accrue(iu, tick + 1);
            if mode == SlotMode::Live && self.insts[iu].up {
                let acc = &mut self.acc;
                let dyn_uj = power.dyn_mw[ci] * spent / 1000;
                acc.energy_uj += dyn_uj;
                acc.dvfs_dyn_uj += dyn_uj;
                acc.dvfs_nominal_dyn_uj +=
                    power.dyn_mw[shared.nominal_ci as usize] * nominal_spent / 1000;
                let e = power.idle_mw * tick_us / 1000;
                acc.idle_energy_uj -= e - power.idle_mw * (tick_us - spent.min(tick_us)) / 1000;
            }
            if self.insts[iu].up && !self.insts[iu].is_idle() {
                self.busy.list[keep] = iu as u32;
                keep += 1;
            } else {
                self.busy.member[iu] = false;
            }
        }
        self.busy.list.truncate(keep);
        if let Some(link) = self.kv.as_ref() {
            self.kv_next = link
                .head_complete_us()
                .map_or(u32::MAX, |c| tick_or_never(c, tick_us, shared.ticks));
        }
    }

    /// Sample phase: at the last tick of each series window, bills every
    /// slot through the window end (sampling reads the energy counter)
    /// and records the window.
    fn sample(&mut self, series: Option<&mut SeriesRecorder>) {
        if self.tick != self.next_sample {
            return;
        }
        let end = self.tick + 1;
        self.accrue_all(end);
        let every = self.shared.series_every;
        if let Some(s) = series {
            let now_us = end as u64 * self.shared.knobs.tick_us;
            self.record_window(s, (end / every - 1) as usize, now_us);
        }
        self.next_sample = self.next_sample.saturating_add(every);
    }

    /// Records one series window for this cell: counter deltas since the
    /// last sample plus gauges of the state at `now_us` (summing the
    /// per-cell gauges gives the fleet-wide value).
    fn record_window(&mut self, series: &mut SeriesRecorder, w: usize, now_us: u64) {
        let ids = self
            .series_ids
            .as_ref()
            .expect("ids resolved with the recorder");
        for (k, (v, prev)) in counter_values(&self.acc).zip(&mut self.snap).enumerate() {
            let delta = v.wrapping_sub(*prev);
            *prev = v;
            series.add_at(ids.counters[k], w, delta);
            // The per-cell arrived and completed counters.
            if let (Some(cell), 0 | 1) = (ids.per_cell, k) {
                series.add_at(cell[2 + k], w, delta);
            }
        }
        let mut queued = 0u64;
        let mut active = 0u64;
        let mut up = 0u64;
        self.tenant_scratch.fill(0);
        for inst in &self.insts {
            queued += inst.queued();
            active += inst.active() as u64;
            up += u64::from(inst.up);
            inst.queued_by_tenant(&mut self.tenant_scratch);
        }
        series.add_at(ids.queued, w, queued);
        series.add_at(ids.active, w, active);
        series.add_at(ids.up, w, up);
        for (t, &q) in self.tenant_scratch.iter().enumerate() {
            series.add_at(ids.tenant_queued[t], w, q);
        }
        let draining = self.drained.iter().map(|&d| u64::from(d)).sum();
        series.add_at(ids.draining, w, draining);
        series.add_at(ids.repair_pending, w, self.cell.pending_len());
        series.add_at(ids.spares_free, w, self.cell.spares_free as u64);
        if let (Some(link), Some((backlog, inflight))) = (self.kv.as_ref(), ids.kv) {
            series.add_at(backlog, w, link.backlog_us(now_us));
            series.add_at(inflight, w, link.inflight_bytes());
        }
        if let Some((pp, pd)) = ids.pools {
            let (mut prefill, mut decode) = (0u64, 0u64);
            for &p in &self.phases {
                match p {
                    Phase::Prefill => prefill += 1,
                    Phase::Decode => decode += 1,
                    Phase::Mixed => {}
                }
            }
            series.add_at(pp, w, prefill);
            series.add_at(pd, w, decode);
        }
        if let (Some(ctl), Some(ci_ids)) = (self.ctl.as_ref(), &ids.ctl) {
            let (mut live, mut warm, mut cold, mut booting) = (0u64, 0u64, 0u64, 0u64);
            for m in &ctl.modes {
                match m {
                    SlotMode::Live => live += 1,
                    SlotMode::Warm => warm += 1,
                    SlotMode::Cold => cold += 1,
                    SlotMode::Booting { .. } => booting += 1,
                }
            }
            series.add_at(ci_ids.live, w, live);
            series.add_at(ci_ids.warm, w, warm);
            series.add_at(ci_ids.cold, w, cold);
            series.add_at(ci_ids.booting, w, booting);
            // DVFS operating-point distribution over live, up slots.
            for (i, &ci) in ctl.clocks.iter().enumerate() {
                if ctl.modes[i] == SlotMode::Live && self.insts[i].up {
                    series.add_at(ci_ids.clock_live[ci as usize], w, 1);
                }
            }
        }
        if let Some([cq, cu, ..]) = ids.per_cell {
            series.add_at(cq, w, queued);
            series.add_at(cu, w, up);
        }
    }

    /// The next tick to process: the very next one while any slot holds
    /// work (or a KV head is blocked, or decode retries are unplaced);
    /// otherwise the earliest due channel, never before the next tick
    /// (channel values may be stale, already-passed ticks) and never past
    /// the arrival frontier, where the next draw may land work.
    fn next_tick(&self) -> u32 {
        if !self.busy.list.is_empty() || self.kv_blocked || self.decode_retry {
            return self.tick + 1;
        }
        let due =
            |batches: &[(u32, u16, u64)], ptr: usize| batches.get(ptr).map_or(u32::MAX, |b| b.0);
        [
            self.heap.peek().map_or(u32::MAX, |Reverse((t, _))| *t),
            due(&self.arrivals, self.arr_ptr),
            due(&self.inflow, self.inflow_ptr),
            self.next_ctrl,
            self.next_boot,
            self.next_sample,
            self.kv_next,
        ]
        .into_iter()
        .fold(self.traffic.drawn, u32::min)
        .max(self.tick + 1)
    }

    /// Draws this cell's own arrivals up to tick `hi` from `table`
    /// (booked under the route phase), after dropping the batches, own
    /// and spilled-in, that are already routed.
    fn draw(&mut self, table: &ArrivalTable, hi: u32, prof: &mut ProfTimer) {
        prof.reset();
        self.arrivals.drain(..self.arr_ptr);
        self.inflow.drain(..self.inflow_ptr);
        (self.arr_ptr, self.inflow_ptr) = (0, 0);
        self.traffic
            .draw(self.shared, table, hi, &mut self.arrivals);
        prof.mark(PHASE_ROUTE);
    }

    /// Publishes this cell's fleet-scope observation at the window edge
    /// `b`, together with the next window's arrival batches the planner
    /// may spill: everything drawn and not yet routed, since
    /// [`Self::draw`] has just drawn exactly that window.
    fn publish(&mut self, b: u32) -> CellSnapshot {
        let mut obs = FleetCellObs::new();
        for inst in &self.insts {
            obs.queued += inst.queued();
            obs.active += inst.active() as u64;
            obs.up += u32::from(inst.up);
        }
        obs.live = match self.ctl.as_ref() {
            Some(c) => c
                .modes
                .iter()
                .zip(&self.insts)
                .filter(|(m, inst)| **m == SlotMode::Live && inst.up)
                .count() as u32,
            None => obs.up,
        };
        obs.arrived_window = core::mem::take(&mut self.window_arrived);
        let now_us = b as u64 * self.shared.knobs.tick_us;
        obs.kv_backlog_us = self.kv.as_ref().map_or(0, |k| k.backlog_us(now_us));
        obs.chaos_down = self.chaos_down();
        CellSnapshot {
            obs,
            window: self.arrivals[self.arr_ptr..].to_vec(),
        }
    }

    /// Applies one window's fleet directives: resets the admission
    /// quota, removes spilled requests from this cell's pending
    /// arrivals, and lands cohorts other cells redirected here. Spill
    /// accounting books the outflow at the source and the inflow at the
    /// destination, each in its own cell's totals, so the merged flow
    /// matrix conserves exactly.
    fn apply_plan(&mut self, plan: CellPlan) {
        self.quota_left = plan.quota.unwrap_or(u64::MAX);
        for &(rel, n) in &plan.deduct {
            self.arrivals[self.arr_ptr + rel].2 -= n;
        }
        for &(dst, n) in &plan.outflow {
            self.acc.spill_out += n;
            *self.acc.spill_flow.entry((self.cell_idx, dst)).or_insert(0) += n;
        }
        if !plan.inflow.is_empty() {
            self.acc.spilled_cohorts += plan.inflow.len() as u64;
            for &(_, _, n) in &plan.inflow {
                self.acc.spill_in += n;
            }
            // The cell stands at the window edge (it never jumps past its
            // arrival frontier), and every cohort is due at or after it.
            debug_assert!(self.tick <= plan.inflow[0].0);
            self.inflow.extend_from_slice(&plan.inflow);
        }
    }

    /// End-of-horizon accounting: closes every remaining idle span,
    /// books pending downtime and in-flight KV bytes, and hands back the
    /// cell's totals and trace events.
    fn finalize(mut self) -> (Totals, Vec<TraceEvent>) {
        let ticks = self.shared.ticks;
        self.accrue_all(ticks);
        let horizon_us = ticks as u64 * self.shared.knobs.tick_us;
        for inst in &self.insts {
            self.acc.downtime_us += inst.pending_downtime_us(horizon_us);
        }
        if let Some(link) = &self.kv {
            self.acc.kv_bytes_inflight_end += link.inflight_bytes();
        }
        (self.acc, self.trace.map_or_else(Vec::new, |ts| ts.buf))
    }
}

/// The pure fleet planner: turns the published snapshots into one
/// [`CellPlan`] per cell. Runs on exactly one thread per window, reads
/// only the snapshots, and is deterministic in them — which is what
/// keeps balanced runs byte-identical at any `(shards, threads)`.
///
/// Spill split: for each source directive the planner walks the source's
/// window events with a cumulative permille floor
/// (`take_j = ⌊cum_j·p/1000⌋ − ⌊cum_{j−1}·p/1000⌋`, so the total spilled
/// is exactly `⌊total·p/1000⌋` regardless of how arrivals batch), and
/// assigns each taken cohort to the destination whose share of the
/// spill so far lags its weight the most (largest `w·spilled − given·Σw`,
/// ties to the lowest index).
fn plan_fleet(
    shared: &Shared<'_>,
    controller: &mut (dyn FleetController + Send),
    bal_window_s: f64,
    b: u32,
    snaps: Vec<CellSnapshot>,
) -> Vec<CellPlan> {
    let cells = snaps.len();
    let mut obs = FleetObs::new(b, bal_window_s);
    obs.phase_split = shared.split.is_some();
    obs.capacity_rps_per_instance = shared.cap_rps;
    obs.max_queue = shared.knobs.max_queue;
    let mut windows: Vec<Vec<(u32, u16, u64)>> = Vec::with_capacity(cells);
    for s in snaps {
        obs.cells.push(s.obs);
        windows.push(s.window);
    }
    let directives = controller.plan(&obs);
    let mut plans: Vec<CellPlan> = (0..cells).map(|_| CellPlan::default()).collect();
    // Admission-order position per tenant, for the destination-side sort.
    let mut pos_of = vec![0u16; shared.classes.len()];
    for (pos, &ti) in shared.priority_order.iter().enumerate() {
        pos_of[ti as usize] = pos as u16;
    }
    // Directives are sanitized here, not trusted: unknown cells are
    // dropped, the last directive per cell wins, self/unknown spill
    // targets are filtered, and the permille is capped at 1000.
    let mut chosen: Vec<Option<usize>> = vec![None; cells];
    for (i, d) in directives.iter().enumerate() {
        if (d.cell as usize) < cells {
            chosen[d.cell as usize] = Some(i);
        }
    }
    let mut staged: Vec<(u32, u16, u32, u32, u16, u64)> = Vec::new();
    for (src, pick) in chosen.iter().enumerate() {
        let Some(di) = pick else { continue };
        let d = &directives[*di];
        plans[src].quota = d.admission_quota;
        let p = u64::from(d.spill_permille.min(1000));
        if p == 0 {
            continue;
        }
        let targets: Vec<(u32, u64)> = d
            .spill_to
            .iter()
            .copied()
            .filter(|&(dst, w)| (dst as usize) < cells && dst != d.cell && w > 0)
            .collect();
        if targets.is_empty() {
            continue;
        }
        let wsum: u64 = targets.iter().map(|&(_, w)| w).sum();
        let mut given = vec![0u64; targets.len()];
        let mut spilled = 0u64;
        let mut cum = 0u64;
        for (rel, &(t, ti, c)) in windows[src].iter().enumerate() {
            let prev = cum * p / 1000;
            cum += c;
            let take = cum * p / 1000 - prev;
            if take == 0 {
                continue;
            }
            spilled += take;
            let mut best = 0usize;
            let mut best_score = i128::MIN;
            for (j, &(_, w)) in targets.iter().enumerate() {
                let score = w as i128 * spilled as i128 - given[j] as i128 * wsum as i128;
                if score > best_score {
                    best_score = score;
                    best = j;
                }
            }
            given[best] += take;
            plans[src].deduct.push((rel, take));
            staged.push((t, pos_of[ti as usize], d.cell, targets[best].0, ti, take));
        }
        for (j, &(dst, _)) in targets.iter().enumerate() {
            if given[j] > 0 {
                plans[src].outflow.push((dst, given[j]));
            }
        }
    }
    // Destination inflow in `(tick, admission order, source)` order: a
    // fixed total order, so every dest routes its spilled cohorts
    // identically at any thread count.
    staged.sort_unstable();
    for (t, _, _, dst, ti, n) in staged {
        plans[dst as usize].inflow.push((t, ti, n));
    }
    plans
}

/// Why a planner lock can fail: another worker panicked holding it.
const POISONED: &str = "a fleet worker panicked holding a planner lock";

/// The fleet-tick rendezvous of a balanced run: the fleet controller,
/// one snapshot slot and one plan slot per cell, and the barrier the
/// workers meet at. Each cell's slots are written and read by its owning
/// worker and the leader only, so the locks are uncontended; they make
/// the hand-off race-free.
struct Planner {
    controller: Mutex<Box<dyn FleetController + Send>>,
    window_s: f64,
    barrier: Barrier,
    snaps: Vec<Mutex<Option<CellSnapshot>>>,
    plans: Vec<Mutex<Option<CellPlan>>>,
}

impl Planner {
    fn new(bal: &BalancerConfig, cells: u32, threads: u32, window_s: f64) -> Self {
        Self {
            controller: Mutex::new(bal.build()),
            window_s,
            barrier: Barrier::new(threads as usize),
            snaps: (0..cells).map(|_| Mutex::new(None)).collect(),
            plans: (0..cells).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn publish(&self, cell: u32, snap: CellSnapshot) {
        *self.snaps[cell as usize].lock().expect(POISONED) = Some(snap);
    }

    /// Waits until every worker has published at the window edge `b`;
    /// one thread then plans the next window for every cell and refills
    /// `table` with the ticks `draw` that the next sweep's cells draw.
    fn plan(&self, shared: &Shared<'_>, b: u32, table: &RwLock<ArrivalTable>, draw: Range<u32>) {
        if self.barrier.wait().is_leader() {
            let published: Vec<CellSnapshot> = self
                .snaps
                .iter()
                .map(|m| {
                    m.lock()
                        .expect(POISONED)
                        .take()
                        .expect("every cell published")
                })
                .collect();
            let mut ctl = self.controller.lock().expect(POISONED);
            let plans = plan_fleet(shared, ctl.as_mut(), self.window_s, b, published);
            for (slot, plan) in self.plans.iter().zip(plans) {
                *slot.lock().expect(POISONED) = Some(plan);
            }
            let mut table = table.write().expect(POISONED);
            table.fill(shared, draw.start, draw.end);
        }
        self.barrier.wait();
    }

    fn take(&self, cell: u32) -> CellPlan {
        self.plans[cell as usize]
            .lock()
            .expect(POISONED)
            .take()
            .expect("leader planned every cell")
    }
}

/// One worker thread's share of a run: the merged totals of every cell
/// it finished plus its telemetry layers (deterministic series and trace,
/// wall-clock profile).
struct Worker {
    acc: Totals,
    series: Option<SeriesRecorder>,
    trace: Vec<TraceEvent>,
    prof: ProfTimer,
}

impl Worker {
    fn new(shared: &Shared<'_>) -> Self {
        let every = shared.series_every;
        Self {
            acc: Totals::new(shared.cfg.workload.tenants.len(), shared.lut.num_clocks()),
            series: (every > 0).then(|| {
                SeriesRecorder::new(
                    every as u64 * shared.knobs.tick_us,
                    (shared.ticks / every) as usize,
                )
            }),
            trace: Vec::new(),
            prof: ProfTimer::new(shared.cfg.telemetry.profile),
        }
    }

    /// Runs `sim` to the window edge `b`. Short of the horizon the cell
    /// draws its arrivals up to `b_next` from `table`, publishes its
    /// snapshot for the planner and comes back to stay live; at the
    /// horizon it is finalized, merged into this worker and dropped.
    fn step<'a>(
        &mut self,
        mut sim: CellSim<'a>,
        b: u32,
        b_next: u32,
        planner: Option<&Planner>,
        table: &RwLock<ArrivalTable>,
    ) -> Option<CellSim<'a>> {
        sim.run_until(b, self.series.as_mut(), &mut self.prof);
        if b < sim.shared.ticks {
            let p = planner.expect("only a balancer cuts the horizon into windows");
            sim.draw(&table.read().expect(POISONED), b_next, &mut self.prof);
            p.publish(sim.cell_idx, sim.publish(b));
            return Some(sim);
        }
        self.prof.reset();
        let (acc, trace) = sim.finalize();
        self.acc.merge(&acc);
        self.trace.extend(trace);
        self.prof.mark(PHASE_MERGE);
        None
    }
}

/// Runs every cell through the horizon, window by window, on `threads`
/// workers; returns each worker's result.
///
/// A window is one balancer interval, or the whole horizon without a
/// fleet balancer — then there is no planner and no barrier, and each
/// cell runs start to finish in one go. Worker `w` owns shards
/// `w, w + threads, …`; shard `s` holds cells
/// `[s·cells/shards, (s+1)·cells/shards)`. A worker builds each of its
/// cells on first touch and, once a cell reaches the horizon, merges its
/// totals into the worker's and drops it, so a one-window run holds one
/// cell per worker at a time.
///
/// Under a balancer every window edge is a snapshot → pure function →
/// commands cycle: each cell runs to the edge and publishes a read-only
/// snapshot, exactly one thread runs the [`FleetController`] over the
/// assembled [`FleetObs`] (cells never read each other's state — only
/// the planner sees the fleet), and each cell applies its own plan at
/// the start of the next window. Apply, run, draw and publish happen in
/// one sweep per window, while the cell's state is hot in cache; that
/// keeps the balancer's overhead small at 100k-instance scale, where a
/// full pass over cell state is memory-bound.
///
/// Every cell draws its arrivals one window ahead from the run's one
/// [`ArrivalTable`]: its first window when it is built and the next one
/// before it publishes, so the first sweep's table covers two windows.
/// The leader refills it for the coming sweep while every worker waits
/// at the barrier, so workers only ever read it.
///
/// Cells only meet in integer additions (totals, series) and a
/// total-order sort (trace), so the merged result is byte-identical for
/// any `(shards, threads)` and any window length that moves no work
/// between cells.
fn run_windows(shared: &Shared<'_>, seed: u64, shards: u32, threads: u32) -> Vec<Worker> {
    let cfg = shared.cfg;
    let (cells, ticks) = (cfg.num_cells(), shared.ticks);
    let bal = cfg.ctrl.as_ref().and_then(|c| c.balancer.as_ref());
    let window = bal.map_or(ticks, |b| {
        ((b.interval_s / cfg.tick_s).round() as u32).max(1)
    });
    let next = |b: u32| b.saturating_add(window).min(ticks);
    let planner = bal.map(|b| Planner::new(b, cells, threads, window as f64 * cfg.tick_s));
    let planner = planner.as_ref();
    let table = RwLock::new(ArrivalTable::new(shared, 0, next(next(0))));
    let table = &table;
    let bounds = |s: u32| (s as u64 * cells as u64 / shards as u64) as u32;
    let worker = |w: u32| -> Worker {
        let mut wk = Worker::new(shared);
        let mut live = Vec::new();
        let mut b = next(0);
        for s in (w..shards).step_by(threads as usize) {
            for c in bounds(s)..bounds(s + 1) {
                let sim = CellSim::new(
                    shared,
                    seed,
                    c,
                    &table.read().expect(POISONED),
                    b,
                    wk.series.as_mut(),
                    &mut wk.prof,
                );
                live.extend(wk.step(sim, b, next(b), planner, table));
            }
        }
        while b < ticks {
            let p = planner.expect("only a balancer cuts the horizon into windows");
            p.plan(shared, b, table, next(b)..next(next(b)));
            b = next(b);
            for mut sim in std::mem::take(&mut live) {
                sim.apply_plan(p.take(sim.cell_idx));
                live.extend(wk.step(sim, b, next(b), planner, table));
            }
        }
        // Pre-sort this worker's events on its own thread: the merge then
        // sees one sorted run per worker, which the stable sort there
        // merges in O(n log workers) instead of a full re-sort.
        wk.trace.sort_unstable();
        wk
    };
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    })
}

/// A fleet run together with whatever telemetry the config asked for.
///
/// The `report` is byte-identical for any `(shards, threads)` and for
/// any [`TelemetryConfig`]; `series` and `trace` are themselves
/// shard/thread-invariant (deterministic merges over deterministic
/// cell-local recordings). Only `profile` is wall-clock and varies
/// between runs — it must never feed back into simulation state.
#[derive(Debug)]
pub struct FleetRun {
    /// The deterministic fleet report.
    pub report: FleetReport,
    /// Merged time-series recorder (present when `series_dt_us > 0`).
    pub series: Option<SeriesRecorder>,
    /// Merged, totally-ordered trace events (present when `trace_every > 0`).
    pub trace: Option<Vec<TraceEvent>>,
    /// Engine self-profile (present when `profile` was requested).
    pub profile: Option<PhaseProfile>,
}

/// Runs the fleet partitioned into `shards` shards on up to `threads`
/// OS threads. The partition affects wall-clock only: the report is
/// byte-identical for any `(shards, threads)`.
///
/// # Examples
///
/// ```
/// use litegpu_fleet::engine::{run_sharded, FleetConfig};
///
/// let mut cfg = FleetConfig::lite_demo();
/// cfg.instances = 16;
/// cfg.cell_size = 8;
/// cfg.horizon_s = 600.0;
/// // Same seed ⇒ the same report for any shard/thread partition.
/// let serial = run_sharded(&cfg, 42, 1, 1).unwrap();
/// let sharded = run_sharded(&cfg, 42, 4, 2).unwrap();
/// assert_eq!(serial.to_json(), sharded.to_json());
/// ```
pub fn run_sharded(cfg: &FleetConfig, seed: u64, shards: u32, threads: u32) -> Result<FleetReport> {
    Ok(run_sharded_full(cfg, seed, shards, threads)?.report)
}

/// [`run_sharded`] plus the telemetry artefacts requested by
/// `cfg.telemetry`: merged series, merged trace, and the engine
/// self-profile.
pub fn run_sharded_full(
    cfg: &FleetConfig,
    seed: u64,
    shards: u32,
    threads: u32,
) -> Result<FleetRun> {
    cfg.validate()?;
    // A DVFS-controlled fleet prices the full SLO_MIN_CLOCK..=1.0
    // operating-point grid; so does any run with thermal-excursion chaos
    // (the clamp needs sub-nominal rows to land on). Everything else
    // prices nominal only (same table, one clock row).
    let clocks: Vec<f64> = if cfg.dvfs_enabled() || cfg.chaos.has_thermal() {
        power_mgmt::operating_points()
    } else {
        vec![1.0]
    };
    let lut = StepCostTable::build_with_clocks(
        &cfg.gpu,
        &cfg.arch,
        cfg.gpus_per_instance,
        &cfg.params,
        &clocks,
    )?;
    let ticks = cfg.num_ticks();
    let knobs = cfg.knobs();
    let tenants_meta = cfg.tenant_meta(&knobs);
    let tel = &cfg.telemetry;
    let shared = Shared {
        cfg,
        lut: &lut,
        ticks,
        // The series grid: whole ticks per window, trailing partial
        // window dropped. Integer-derived once, so every worker agrees
        // on the grid; a window longer than `u32::MAX` ticks saturates
        // (and then records none).
        series_every: if tel.series_dt_us > 0 {
            let every = tel.series_dt_us.saturating_add(knobs.tick_us / 2) / knobs.tick_us;
            u32::try_from(every).unwrap_or(u32::MAX).max(1)
        } else {
            0
        },
        rates: cfg.failure_rates(),
        power: cfg.instance_power(lut.clock_points()),
        cap_rps: cfg.capacity_rps(&lut),
        clock_points: cfg.clock_obs(&lut, &knobs),
        nominal_ci: lut.nominal_clock_idx() as u8,
        split: match &cfg.serving {
            ServingMode::Monolithic => None,
            ServingMode::PhaseSplit {
                prefill_fraction,
                kv_link,
            } => Some(SplitShared {
                prefill_fraction: *prefill_fraction,
                kv_bytes_per_s: (kv_link.bandwidth_gbps * 1e9).round() as u64,
                kv_max_backlog_us: (kv_link.max_backlog_s * 1e6).round() as u64,
                prefill_capacity_rps: cfg.prefill_capacity_rps_at(&lut, lut.nominal_clock_idx()),
                decode_capacity_rps: cfg.decode_capacity_rps_at(&lut, lut.nominal_clock_idx()),
            }),
        },
        priority_order: cfg.workload.priority_order(),
        classes: cfg.workload.tenants.iter().map(|t| t.priority).collect(),
        arrival_base: cfg
            .workload
            .share_fractions()
            .iter()
            .map(|share| cfg.workload.rate_per_instance_s * share * cfg.tick_s)
            .collect(),
        chaos: compile_cell_chaos(cfg, lut.clock_points(), knobs.tick_us),
        knobs,
    };
    let cells = cfg.num_cells();
    let shards = shards.clamp(1, cells);
    let threads = threads.clamp(1, shards);
    let workers = run_windows(&shared, seed, shards, threads);

    // Merge in fixed worker order. Totals and series merge by integer
    // addition and the trace gets a total-order sort afterwards, so the
    // bytes do not depend on which worker stepped which cell.
    let merge_start = Instant::now();
    let mut totals = Totals::new(cfg.workload.tenants.len(), lut.num_clocks());
    let mut series: Option<SeriesRecorder> = None;
    let mut trace: Option<Vec<TraceEvent>> = (tel.trace_every > 0).then(Vec::new);
    let mut profile: Option<PhaseProfile> = tel.profile.then(PhaseProfile::new);
    for wk in workers {
        totals.merge(&wk.acc);
        if let Some(s) = wk.series {
            match series.as_mut() {
                Some(m) => m.merge(&s),
                None => series = Some(s),
            }
        }
        if let Some(t) = trace.as_mut() {
            t.extend(wk.trace);
        }
        if let (Some(p), Some(wp)) = (profile.as_mut(), wk.prof.p.as_ref()) {
            p.merge(wp);
        }
    }
    // Sort into the schema's total order (field order is the sort key),
    // making the byte stream independent of worker boundaries. Each
    // worker arrives pre-sorted, so the stable (run-merging) sort only
    // pays the k-way merge of the per-worker runs.
    if let Some(t) = trace.as_mut() {
        t.sort();
    }
    if let Some(p) = profile.as_mut() {
        p.record(PHASE_MERGE, merge_start.elapsed().as_nanos() as u64);
    }
    let horizon_s_eff = ticks as f64 * cfg.tick_s;
    let report = FleetReport::finalize(
        &totals,
        RunMeta {
            gpu: cfg.gpu.name.clone(),
            model: cfg.arch.name.clone(),
            controller: cfg
                .ctrl
                .as_ref()
                .map_or_else(|| "none".to_string(), |c| c.label()),
            serving: cfg.serving.label(),
            phase_split: !matches!(cfg.serving, ServingMode::Monolithic),
            clock_points: if cfg.dvfs_enabled() {
                lut.clock_points().to_vec()
            } else {
                Vec::new()
            },
            instances: cfg.instances,
            gpus_per_instance: cfg.gpus_per_instance,
            cells,
            spares: cells * cfg.spares_per_cell,
            crews_per_cell: cfg.repair_crews_per_cell,
            chaos: !cfg.chaos.events.is_empty(),
            balancer: cfg.ctrl.as_ref().is_some_and(|c| c.balancer.is_some()),
            horizon_s: horizon_s_eff,
            tick_s: cfg.tick_s,
            tenants: tenants_meta,
        },
    );
    Ok(FleetRun {
        report,
        series,
        trace,
        profile,
    })
}

/// Runs the fleet with maximum parallelism (one shard per cell, one
/// thread per available core). Same result as any other sharding.
pub fn run(cfg: &FleetConfig, seed: u64) -> Result<FleetReport> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    run_sharded(cfg, seed, cfg.num_cells(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficPattern;

    fn small_cfg() -> FleetConfig {
        let mut c = FleetConfig::h100_demo();
        c.instances = 24;
        c.cell_size = 4;
        c.horizon_s = 900.0;
        c.failure_acceleration = 100_000.0;
        c
    }

    fn small_ctrl_cfg() -> FleetConfig {
        let mut c = FleetConfig::lite_ctrl_demo();
        c.instances = 24;
        c.cell_size = 4;
        c.horizon_s = 900.0;
        c.failure_acceleration = 100_000.0;
        c
    }

    #[test]
    fn small_fleet_serves_and_fails() {
        let r = run_sharded(&small_cfg(), 7, 1, 1).unwrap();
        assert!(r.arrived > 0);
        assert!(r.completed > 0);
        assert!(r.generated_tokens > r.completed);
        assert!(r.failures > 0, "acceleration should inject failures");
        assert!(r.availability < 1.0 && r.availability > 0.5);
        assert!(r.ttft_p50_s > 0.0);
        assert_eq!(r.controller, "none");
        // Energy is first-class even without a controller.
        assert!(r.energy_j > 0);
        assert!(r.idle_energy_j > 0);
        assert!(r.energy_per_token_j > 0.0);
        assert!(r.avg_live_instances > 0.0 && r.avg_live_instances <= 24.0);
        // Arrivals route at the cell level even without a control plane;
        // only scaling stays off.
        assert_eq!(r.scale_ups + r.scale_downs, 0);
        assert_eq!(r.routed + r.rejected, r.arrived);
        // The single default tenant owns the whole fleet's numbers.
        assert_eq!(r.per_tenant.len(), 1);
        let t = &r.per_tenant[0];
        assert_eq!(t.name, "default");
        assert_eq!(t.priority, "interactive");
        assert_eq!(t.arrived, r.arrived);
        assert_eq!(t.completed, r.completed);
        assert_eq!(t.generated_tokens, r.generated_tokens);
        assert!((t.ttft_attainment - r.ttft_attainment).abs() < 1e-12);
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_the_report() {
        let cfg = small_cfg();
        let base = run_sharded(&cfg, 42, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (6, 4), (6, 8)] {
            let r = run_sharded(&cfg, 42, shards, threads).unwrap();
            assert_eq!(r, base, "shards={shards} threads={threads}");
            assert_eq!(r.to_json(), base.to_json());
        }
        let auto = run(&cfg, 42).unwrap();
        assert_eq!(auto, base);
    }

    #[test]
    fn controlled_fleet_scales_routes_and_stays_deterministic() {
        let cfg = small_ctrl_cfg();
        let base = run_sharded(&cfg, 11, 1, 1).unwrap();
        assert_eq!(base.controller, "autoscale+gate(GateToEfficiency)+route");
        assert!(base.completed > 0);
        assert!(base.routed > 0, "arrivals must flow through the router");
        assert!(base.scale_downs > 0, "quiet midnight load must park");
        assert!(base.energy_j > 0);
        for (shards, threads) in [(3, 1), (6, 4)] {
            let r = run_sharded(&cfg, 11, shards, threads).unwrap();
            assert_eq!(r.to_json(), base.to_json(), "shards={shards}");
        }
    }

    #[test]
    fn parking_reduces_idle_energy() {
        // Gated autoscaling at low load must burn less idle energy than
        // the same fleet pinned fully live.
        let mut quiet = small_ctrl_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.1;
        let controlled = run_sharded(&quiet, 3, 2, 2).unwrap();
        let mut fixed = quiet.clone();
        fixed.ctrl = None;
        let uncontrolled = run_sharded(&fixed, 3, 2, 2).unwrap();
        assert!(
            controlled.idle_energy_j < uncontrolled.idle_energy_j / 2,
            "controlled {} vs uncontrolled {}",
            controlled.idle_energy_j,
            uncontrolled.idle_energy_j
        );
        assert!(controlled.avg_live_instances < uncontrolled.avg_live_instances);
    }

    #[test]
    fn parking_without_a_gater_keeps_paying_the_idle_floor() {
        // An autoscaler with no power module must not grant zero-draw
        // parking: parked slots stay warm (idle floor, warm boots), so
        // idle energy sits well above the gated fleet's.
        let mut quiet = small_ctrl_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.1;
        let gated = run_sharded(&quiet, 3, 2, 2).unwrap();
        let mut ungated = quiet.clone();
        ungated.ctrl.as_mut().unwrap().power = None;
        let warm_parked = run_sharded(&ungated, 3, 2, 2).unwrap();
        assert_eq!(warm_parked.controller, "autoscale+route");
        assert!(warm_parked.scale_downs > 0);
        assert!(
            warm_parked.idle_energy_j > 2 * gated.idle_energy_j,
            "ungated parking {} J should pay the floor vs gated {} J",
            warm_parked.idle_energy_j,
            gated.idle_energy_j
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_cfg();
        let a = run_sharded(&cfg, 1, 2, 2).unwrap();
        let b = run_sharded(&cfg, 2, 2, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn overload_sheds_best_effort_and_shields_interactive() {
        // A controlled multi-tenant fleet driven well past its capacity:
        // admission control must shed best-effort arrivals (and only
        // those), leaving the interactive tenant a far larger served
        // fraction than the scavenger.
        let mut cfg = small_ctrl_cfg();
        cfg.failure_acceleration = 0.0;
        cfg.workload = WorkloadSpec::multi_tenant_demo(12.0);
        let r = run_sharded(&cfg, 5, 2, 2).unwrap();
        assert_eq!(r.per_tenant.len(), 3);
        assert!(r.admission_shed > 0, "overload must trigger admission shed");
        let by_name = |n: &str| r.per_tenant.iter().find(|t| t.name == n).unwrap();
        let (chat, scavenge) = (by_name("chat"), by_name("scavenge"));
        assert_eq!(chat.priority, "interactive");
        assert_eq!(scavenge.priority, "best-effort");
        // Admission control never touches the guaranteed classes.
        assert_eq!(chat.shed, 0);
        assert!(scavenge.shed > 0);
        let served = |t: &crate::report::TenantReport| t.completed as f64 / t.arrived as f64;
        assert!(
            served(chat) > 4.0 * served(scavenge),
            "chat {} vs scavenge {}",
            served(chat),
            served(scavenge)
        );
        // Conservation: every arrival is routed or rejected, and the
        // rejects decompose into the two shed kinds plus queue overflow.
        assert_eq!(r.routed + r.rejected, r.arrived);
        assert!(r.rejected >= r.routing_shed + r.admission_shed);
        for t in &r.per_tenant {
            assert_eq!(t.routed + t.rejected + t.shed, t.arrived, "{}", t.name);
        }
    }

    fn small_split_cfg() -> FleetConfig {
        let mut c = FleetConfig::h100_demo().with_phase_split();
        c.instances = 24;
        c.cell_size = 8;
        c.horizon_s = 900.0;
        c.failure_acceleration = 0.0;
        c.workload.rate_per_instance_s = 3.0;
        c
    }

    #[test]
    fn phase_split_serves_and_accounts_kv() {
        let split = run_sharded(&small_split_cfg(), 7, 1, 1).unwrap();
        assert!(split.serving.starts_with("phase-split"));
        assert!(split.completed > 0);
        let kv = split
            .kv_transfer
            .as_ref()
            .expect("split run has kv section");
        assert!(kv.transfers > 0);
        assert_eq!(
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end,
            "KV byte conservation"
        );
        assert!(kv.link_utilization > 0.0 && kv.link_utilization < 1.0);
        assert!(kv.delay_p99_s > 0.0, "transfer delay must be visible");
        assert_eq!(kv.backpressure_stalls, 0, "default link must not saturate");
        // 8-slot cells at the 25% demo fraction: 2 prefill + 6 decode.
        assert!((kv.prefill_pool_mean - 6.0).abs() < 1e-9);
        assert!((kv.decode_pool_mean - 18.0).abs() < 1e-9);
        // Transfer delay lands in TTFT: the split fleet pays more than
        // the monolithic twin on first-token latency...
        let mut mono_cfg = small_split_cfg();
        mono_cfg.serving = ServingMode::Monolithic;
        let mono = run_sharded(&mono_cfg, 7, 1, 1).unwrap();
        assert!(mono.kv_transfer.is_none());
        assert!(split.ttft_p50_s > mono.ttft_p50_s);
        // ...but decode books are isolated from prefill interference:
        // the monolithic twin's p99 token gap carries whole prefills.
        assert!(
            split.tbt_p99_s < mono.tbt_p99_s * 0.5,
            "split p99 TBT {} vs mono {}",
            split.tbt_p99_s,
            mono.tbt_p99_s
        );
        // Phase splitting reshuffles work, not volume.
        assert!(split.completed as f64 > 0.99 * mono.completed as f64);
    }

    #[test]
    fn phase_split_report_is_sharding_invariant() {
        let cfg = small_split_cfg();
        let base = run_sharded(&cfg, 42, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (3, 8)] {
            let r = run_sharded(&cfg, 42, shards, threads).unwrap();
            assert_eq!(
                r.to_json(),
                base.to_json(),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn saturated_kv_link_backpressures_ttft_not_tbt() {
        let generous = run_sharded(&small_split_cfg(), 9, 3, 2).unwrap();
        let mut starved_cfg = small_split_cfg();
        starved_cfg.serving = ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink {
                bandwidth_gbps: 2.0,
                max_backlog_s: 0.25,
            },
        };
        let starved = run_sharded(&starved_cfg, 9, 3, 2).unwrap();
        let kv = starved.kv_transfer.as_ref().unwrap();
        assert!(
            kv.backpressure_stalls > 0,
            "starved link must stall prefill"
        );
        assert!(kv.link_utilization > generous.kv_transfer.as_ref().unwrap().link_utilization);
        // The stall queues prompts, so TTFT explodes...
        assert!(
            starved.ttft_p99_s > 10.0 * generous.ttft_p99_s,
            "starved {} vs generous {}",
            starved.ttft_p99_s,
            generous.ttft_p99_s
        );
        // ...while the decode pool's token gaps stay tight (isolation).
        assert!(starved.tbt_p99_s < generous.tbt_p99_s * 1.5);
    }

    #[test]
    fn oversized_prefill_batch_configs_still_deliver() {
        // A prefill launch cap beyond the decode batch limit must not
        // produce undeliverable cohorts that would wedge the KV FIFO:
        // the prefill-phase cap clamps to lut.max_batch.
        let mut cfg = small_split_cfg();
        cfg.max_prefill_batch = 10_000;
        let r = run_sharded(&cfg, 3, 2, 2).unwrap();
        let kv = r.kv_transfer.as_ref().unwrap();
        assert!(r.completed > 0);
        assert!(kv.transfers > 0);
        assert!(
            kv.bytes_delivered > kv.bytes_queued / 2,
            "cohorts must keep fitting decode batches: {} delivered of {}",
            kv.bytes_delivered,
            kv.bytes_queued
        );
    }

    #[test]
    fn phase_split_survives_failures_and_conserves_arrivals() {
        let mut cfg = small_split_cfg();
        cfg.failure_acceleration = 100_000.0;
        let r = run_sharded(&cfg, 5, 3, 2).unwrap();
        assert!(r.failures > 0);
        assert!(r.completed > 0);
        assert!(r.retried > 0, "decode failures must requeue work");
        assert_eq!(r.routed + r.rejected, r.arrived);
        for t in &r.per_tenant {
            assert_eq!(t.routed + t.rejected + t.shed, t.arrived, "{}", t.name);
        }
        let kv = r.kv_transfer.as_ref().unwrap();
        assert_eq!(
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end
        );
    }

    #[test]
    fn controlled_phase_split_is_phase_aware_and_deterministic() {
        let mut cfg = FleetConfig::lite_ctrl_demo().with_phase_split();
        cfg.instances = 24;
        cfg.cell_size = 8;
        cfg.horizon_s = 900.0;
        cfg.failure_acceleration = 50_000.0;
        cfg.workload.rate_per_instance_s = 3.0;
        let base = run_sharded(&cfg, 11, 1, 1).unwrap();
        assert_eq!(base.controller, "autoscale+gate(GateToEfficiency)+route");
        assert!(base.serving.starts_with("phase-split"));
        assert!(base.completed > 0);
        assert!(base.routed > 0);
        let kv = base.kv_transfer.as_ref().unwrap();
        assert!(kv.transfers > 0);
        assert!(kv.prefill_pool_mean > 0.0 && kv.decode_pool_mean > 0.0);
        for (shards, threads) in [(3, 1), (3, 4)] {
            let r = run_sharded(&cfg, 11, shards, threads).unwrap();
            assert_eq!(r.to_json(), base.to_json(), "shards={shards}");
        }
    }

    #[test]
    fn invalid_phase_split_configs_rejected() {
        let bad_fraction = |f: f64| {
            let mut c = small_split_cfg();
            c.serving = ServingMode::PhaseSplit {
                prefill_fraction: f,
                kv_link: KvLink::for_instance(&c.gpu, c.gpus_per_instance),
            };
            run_sharded(&c, 1, 1, 1)
        };
        assert!(bad_fraction(0.0).is_err());
        assert!(bad_fraction(1.0).is_err());
        assert!(bad_fraction(f64::NAN).is_err());
        let mut c = small_split_cfg();
        c.serving = ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink {
                bandwidth_gbps: 0.0,
                max_backlog_s: 0.25,
            },
        };
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        // A one-instance cell cannot hold both pools.
        let mut c = small_split_cfg();
        c.instances = 25; // 3 cells of 8 + 1 cell of 1
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_split_cfg();
        c.cell_size = 1;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
    }

    fn small_dvfs_cfg() -> FleetConfig {
        let mut c = small_ctrl_cfg();
        c.ctrl = c.ctrl.map(|ctrl| ctrl.with_dvfs());
        c
    }

    #[test]
    fn dvfs_fleet_saves_energy_and_reports_its_clocks() {
        let nominal = run_sharded(&small_ctrl_cfg(), 9, 2, 2).unwrap();
        assert!(nominal.dvfs.is_none(), "no dvfs policy, no dvfs section");
        let dvfs = run_sharded(&small_dvfs_cfg(), 9, 2, 2).unwrap();
        assert_eq!(
            dvfs.controller,
            "autoscale+dvfs+gate(GateToEfficiency)+route"
        );
        let d = dvfs.dvfs.as_ref().expect("dvfs run has a dvfs section");
        // The grid spans SLO_MIN_CLOCK..=1.0 and the quiet demo fleet
        // spends real time below nominal.
        assert_eq!(d.clock_points.last(), Some(&1.0));
        assert!(d.clock_points.len() >= 3);
        assert!((d.clock_tick_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(d.downclocked_share > 0.5, "share {}", d.downclocked_share);
        assert!(d.mean_clock < 1.0 && d.mean_clock >= d.clock_points[0]);
        assert!(d.retunes > 0);
        // Down-clocking buys real energy at near-equal served volume...
        assert!(d.energy_saved_j > 0);
        assert_eq!(d.nominal_dyn_energy_j, d.dyn_energy_j + d.energy_saved_j);
        assert!(
            dvfs.energy_per_token_j < 0.9 * nominal.energy_per_token_j,
            "dvfs {} vs nominal {}",
            dvfs.energy_per_token_j,
            nominal.energy_per_token_j
        );
        assert!(dvfs.completed as f64 > 0.99 * nominal.completed as f64);
        // ...without giving up interactive SLO attainment.
        assert!(dvfs.ttft_attainment > nominal.ttft_attainment - 0.005);
    }

    #[test]
    fn dvfs_report_is_sharding_invariant() {
        let cfg = small_dvfs_cfg();
        let base = run_sharded(&cfg, 17, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (6, 8)] {
            let r = run_sharded(&cfg, 17, shards, threads).unwrap();
            assert_eq!(
                r.to_json(),
                base.to_json(),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn dvfs_composes_with_phase_split_pools() {
        let mut cfg = small_dvfs_cfg();
        cfg.instances = 24;
        cfg.cell_size = 8;
        cfg.failure_acceleration = 0.0;
        cfg.workload.rate_per_instance_s = 3.0;
        cfg = cfg.with_phase_split();
        let r = run_sharded(&cfg, 13, 3, 2).unwrap();
        assert!(r.serving.starts_with("phase-split"));
        let d = r.dvfs.as_ref().expect("dvfs section");
        assert!(d.downclocked_share > 0.0);
        assert!(r.kv_transfer.is_some());
        assert!(r.completed > 0);
        let base = run_sharded(&cfg, 13, 1, 1).unwrap();
        assert_eq!(r.to_json(), base.to_json());
    }

    #[test]
    fn dvfs_demand_pressure_raises_clocks() {
        // The same fleet under crushing demand must serve closer to
        // nominal than the quiet fleet: the EWMA + backlog guard refuses
        // operating points whose throughput cannot cover demand.
        let mut quiet = small_dvfs_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.5;
        let mut busy = quiet.clone();
        busy.workload.rate_per_instance_s = 20.0;
        let q = run_sharded(&quiet, 7, 2, 2).unwrap();
        let b = run_sharded(&busy, 7, 2, 2).unwrap();
        let (qd, bd) = (q.dvfs.unwrap(), b.dvfs.unwrap());
        assert!(
            bd.mean_clock > qd.mean_clock + 0.05,
            "busy {} vs quiet {}",
            bd.mean_clock,
            qd.mean_clock
        );
    }

    #[test]
    fn spares_absorb_failures_and_raise_availability() {
        let mut cfg = small_cfg();
        cfg.spares_per_cell = 0;
        let none = run_sharded(&cfg, 5, 2, 2).unwrap();
        cfg.spares_per_cell = 2;
        let some = run_sharded(&cfg, 5, 2, 2).unwrap();
        assert_eq!(none.spare_hits, 0);
        assert!(some.spare_hits > 0);
        assert!(
            some.availability > none.availability,
            "with spares {} vs without {}",
            some.availability,
            none.availability
        );
    }

    #[test]
    fn lite_fleet_spare_overhead_is_quarter_of_h100() {
        // Same spare-unit count per cell; Lite spare units are ¼-size
        // dies, so the fleet-fraction cost is 4x smaller — §3's cheap
        // hot spares.
        let h = FleetConfig::h100_demo();
        let l = FleetConfig::lite_demo();
        let oh = h.spares_per_cell as f64 * h.num_cells() as f64
            / (h.instances * h.gpus_per_instance) as f64;
        let ol = l.spares_per_cell as f64 * l.num_cells() as f64
            / (l.instances * l.gpus_per_instance) as f64;
        assert!((oh / ol - 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_failures_means_full_availability() {
        let mut cfg = small_cfg();
        cfg.failure_acceleration = 0.0;
        let r = run_sharded(&cfg, 3, 2, 2).unwrap();
        assert_eq!(r.failures, 0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.retried, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = small_cfg();
        c.instances = 0;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_cfg();
        c.tick_s = 0.0;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_cfg();
        c.horizon_s = f64::NAN;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        // Workload validation is wired through.
        let mut c = small_cfg();
        c.workload.rate_per_instance_s = f64::NAN;
        let err = run_sharded(&c, 1, 1, 1).unwrap_err();
        assert!(matches!(err, FleetError::Workload(_)));
        let mut c = small_cfg();
        c.workload.tenants[0].pattern = TrafficPattern::Trace(vec![(9.0, 1.0), (1.0, 1.0)]);
        assert!(matches!(
            run_sharded(&c, 1, 1, 1).unwrap_err(),
            FleetError::Workload(_)
        ));
        // Control-plane validation is wired through too.
        let mut c = small_ctrl_cfg();
        c.ctrl.as_mut().unwrap().router = None;
        let err = run_sharded(&c, 1, 1, 1).unwrap_err();
        assert!(matches!(err, FleetError::Ctrl(_)));
    }

    /// A horizon whose tick count does not fit in `u32` is rejected
    /// instead of silently truncated to `u32::MAX` ticks.
    #[test]
    fn horizons_past_u32_ticks_rejected() {
        let mut c = small_cfg();
        c.tick_s = 1.0;
        c.horizon_s = u32::MAX as f64;
        assert!(c.validate().is_ok(), "u32::MAX ticks fit");
        assert_eq!(c.num_ticks(), u32::MAX);
        c.horizon_s = u32::MAX as f64 + 1.0;
        assert!(matches!(
            c.validate().unwrap_err(),
            FleetError::InvalidParameter {
                name: "horizon_s (tick count must fit in u32)",
                ..
            }
        ));
        // The rejection comes before any per-tick allocation.
        assert!(run_sharded(&c, 1, 1, 1).is_err());
    }
}
