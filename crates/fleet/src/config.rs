//! Fleet configuration: the [`FleetConfig`] a run starts from — its
//! serving mode and KV link, chaos schedule and telemetry knobs — and
//! the per-run quantities derived from it: serve knobs, failure rates,
//! integer power rates, capacity estimates and the DVFS grid as the
//! controllers observe it. [`FleetConfig::validate`] checks every range
//! before a run starts.

use crate::report::TenantMeta;
use crate::state::{FailureRates, ServeKnobs, TenantKnobs};
use crate::workload::WorkloadSpec;
use crate::{FleetError, Result};
use litegpu_cluster::failure::FailureModel;
use litegpu_cluster::power_mgmt::Policy;
use litegpu_ctrl::{ClockPoint, CtrlConfig};
use litegpu_roofline::{EngineParams, StepCostTable};
use litegpu_specs::power::{PowerModel, DVFS_EXPONENT};
use litegpu_specs::GpuSpec;
use litegpu_workload::{kv, ModelArch};

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

/// The kind of a scheduled correlated-failure (chaos) event.
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
    /// Index into the `by_kind` failure-breakdown array (see
    /// `Totals::by_kind`).
    pub(crate) fn breakdown_index(&self) -> usize {
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
/// simulation state merged deterministically
/// ([`run_sharded_full`](crate::engine::run_sharded_full) returns them
/// beside the report), while the profile measures host wall-clock and is
/// exported only through non-determinism-diffed artifacts.
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
    /// Record per-phase engine wall-clock into a
    /// [`PhaseProfile`](litegpu_telemetry::PhaseProfile).
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

    pub(crate) fn knobs(&self) -> ServeKnobs {
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

    pub(crate) fn failure_rates(&self) -> FailureRates {
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
        self.ctrl.as_ref().is_some_and(|c| c.dvfs)
    }

    /// Integer per-instance power rates (mW), for exact energy
    /// accumulation: `energy_µJ = power_mW × time_µs / 1000`. Dynamic
    /// power is priced per operating point on the same cubic
    /// `P_dyn ∝ clock³` curve `power_mgmt::power_at_load` draws from
    /// ([`PowerModel::power_w`]); the idle floor is clock-independent.
    pub(crate) fn instance_power(&self, clock_points: &[f64]) -> InstancePower {
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
    pub(crate) fn capacity_rps(&self, lut: &StepCostTable) -> f64 {
        self.capacity_rps_at(lut, lut.nominal_clock_idx())
    }

    /// Sustainable request throughput of one *dedicated prefill* instance
    /// at clock point `ci`, requests/s — the prefill half of
    /// [`Self::capacity_rps_at`].
    pub(crate) fn prefill_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let b = self.max_prefill_batch.min(lut.max_prefill_batch).max(1);
        let prompt_scale = self
            .workload
            .mean_prompt_scale(self.params.constraints.prompt_len);
        1e6 / (lut.prefill_us_at(ci, b) as f64 * prompt_scale / b as f64).max(1.0)
    }

    /// Sustainable request throughput of one *dedicated decode* instance
    /// at clock point `ci`, requests/s — the decode half of
    /// [`Self::capacity_rps_at`].
    pub(crate) fn decode_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
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
    pub(crate) fn clock_obs(&self, lut: &StepCostTable, knobs: &ServeKnobs) -> Vec<ClockPoint> {
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

    pub(crate) fn tenant_meta(&self, knobs: &ServeKnobs) -> Vec<TenantMeta> {
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
pub(crate) struct InstancePower {
    pub(crate) idle_mw: u64,
    pub(crate) dyn_mw: Vec<u64>,
}
