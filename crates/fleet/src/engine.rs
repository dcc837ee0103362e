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
//! Traffic is a multi-tenant [`WorkloadSpec`](crate::WorkloadSpec): each
//! tenant's arrivals are drawn per *cell* from the tenant's own dedicated
//! RNG stream (demand is exogenous — it does not shrink when instances
//! park or fail) and routed over the cell's instances with exact integer
//! largest-remainder splitting, **in priority order**: `Interactive`
//! tenants claim queue room first, then `Batch`, then `BestEffort`. When the control plane's
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
//! All controller state is per-cell and lives inside the cell, and no
//! policy draws randomness, so controlled runs keep the byte-identical
//! guarantee. A cell without a control plane runs the same
//! code with default slot state — every slot live, at weight 1 and the
//! nominal clock — except that a down instance keeps its equal share of
//! the split: no router means stranded traffic.
//!
//! Every run takes one path (`run_windows`): the horizon is
//! cut into *windows* — one fleet-balancer interval each, or the whole
//! horizon without a balancer — and each worker thread advances its
//! cells window by window. A cell is built on first touch and owns every
//! counter it accumulates; at the horizon it merges into its worker's
//! totals and stays with the worker as its spare, whose buffers the
//! worker's next cell is rebuilt from. So a balancer-free run holds one
//! cell per worker, with that cell's working set hot in cache, and
//! allocates its buffers once per worker. The per-tick arrival means
//! come from one `ArrivalTable` per run that covers only the ticks the
//! current window sweep draws.
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
//!   engine, so the streams are bit-identical) into one sorted arrival
//!   schedule consumed by a cursor, which the cohorts other cells spill
//!   here join at each window edge; the cell never jumps past the tick
//!   it has drawn up to, so the draw frontier is itself a wakeup;
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
//! The hot path evaluates no roofline and takes no lock per tick (a cell
//! reads the shared `ArrivalTable` once per window). Nor does it
//! allocate: cells, their histograms and their control ticks reuse their
//! buffers, which grow only when a cell needs more room than the
//! worker's earlier cells did. What allocates is the run's setup (the
//! step-cost table build above all), a series run's per-cell metric-id
//! resolution, each repair dispatch and, under a balancer, the
//! snapshots and plans of every window.
//!
//! # Where the code lives
//!
//! This module keeps the per-run setup (`Shared`, derived once from the
//! [`FleetConfig`] before any worker starts), [`FleetRun`] and the three
//! entry points: [`run`], [`run_sharded`] and [`run_sharded_full`]. The
//! rest of the engine sits in crate-private modules:
//!
//! - `config.rs` — [`FleetConfig`] and the types it holds (re-exported
//!   here), their validation and the per-run quantities derived from
//!   them;
//! - `arrivals.rs` — the run's `ArrivalTable` and each cell's
//!   `CellTraffic` streams;
//! - `cell.rs` — `CellSim`, one cell stepped through the seven phases,
//!   with its slot table, its slice of the chaos schedule and its
//!   control-plane runtime;
//! - `window.rs` — `run_windows`: the worker threads, and the
//!   balancer's snapshot → plan rendezvous at each window edge.

use crate::cell::{compile_cell_chaos, CellChaos};
use crate::config::InstancePower;
pub use crate::config::{
    ChaosSpec, DomainEvent, DomainEventKind, FleetConfig, KvLink, ServingMode, TelemetryConfig,
};
use crate::report::{FleetReport, RunMeta};
use crate::state::{FailureRates, ServeKnobs, Totals};
use crate::window::run_windows;
use crate::Result;
use litegpu_cluster::power_mgmt;
use litegpu_ctrl::{ClockPoint, PriorityClass, COLD_START_S, WARM_START_S};
use litegpu_roofline::StepCostTable;
use litegpu_telemetry::profile::PHASE_MERGE;
use litegpu_telemetry::{PhaseProfile, SeriesRecorder, TraceEvent};
use std::time::Instant;

/// Phase-split context derived once per run (integer link parameters +
/// per-phase capacities for the phase-aware autoscaler).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitShared {
    prefill_fraction: f64,
    /// Cell link bandwidth, integer bytes/second.
    pub(crate) kv_bytes_per_s: u64,
    /// Back-pressure threshold, µs of link time.
    pub(crate) kv_max_backlog_us: u64,
    pub(crate) prefill_capacity_rps: f64,
    pub(crate) decode_capacity_rps: f64,
}

impl SplitShared {
    /// The static per-cell pool split: at least one slot per pool.
    pub(crate) fn prefill_slots(&self, cell_slots: usize) -> usize {
        ((cell_slots as f64 * self.prefill_fraction).round() as usize).clamp(1, cell_slots - 1)
    }
}

/// Read-only per-run context shared by every shard.
pub(crate) struct Shared<'a> {
    pub(crate) cfg: &'a FleetConfig,
    /// The run seed: every RNG stream derives from it and a global index.
    pub(crate) seed: u64,
    pub(crate) lut: &'a StepCostTable,
    /// Ticks in the horizon.
    pub(crate) ticks: u32,
    /// Ticks per series window (0 disables the series layer).
    pub(crate) series_every: u32,
    pub(crate) knobs: ServeKnobs,
    pub(crate) rates: FailureRates,
    pub(crate) power: InstancePower,
    pub(crate) cap_rps: f64,
    /// DVFS operating points as controllers observe them (empty on
    /// nominal-only runs).
    pub(crate) clock_points: Vec<ClockPoint>,
    /// Index of the nominal clock point in the step-cost table.
    pub(crate) nominal_ci: u8,
    /// Ticks between control ticks (`u32::MAX`, never, without a control
    /// plane) and the warm and cold activation latencies, µs.
    pub(crate) ctrl_every: u32,
    pub(crate) boot_us: (u64, u64),
    /// Phase-split parameters (`None` for monolithic serving).
    pub(crate) split: Option<SplitShared>,
    /// Tenant indices in admission order (priority class, then
    /// declaration order).
    pub(crate) priority_order: Vec<u16>,
    /// Tenant priority classes, indexed by tenant id.
    pub(crate) classes: Vec<PriorityClass>,
    /// Per-tenant arrival mean per instance and tick before the tenant's
    /// traffic pattern applies; the
    /// [`ArrivalTable`](crate::arrivals::ArrivalTable) modulates it per
    /// tick.
    pub(crate) arrival_base: Vec<f64>,
    /// Per-cell slices of the compiled chaos schedule (empty when the
    /// config has no chaos events).
    pub(crate) chaos: Vec<CellChaos>,
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
    let us = |s: f64| (s * 1e6).round() as u64;
    let shared = Shared {
        cfg,
        seed,
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
        ctrl_every: cfg.ctrl.as_ref().map_or(u32::MAX, |c| {
            ((c.control_interval_s / cfg.tick_s).round() as u32).max(1)
        }),
        // Read only by `Activate`, which only the autoscaler issues.
        boot_us: (us(WARM_START_S), us(COLD_START_S)),
        split: match &cfg.serving {
            ServingMode::Monolithic => None,
            ServingMode::PhaseSplit {
                prefill_fraction,
                kv_link,
            } => Some(SplitShared {
                prefill_fraction: *prefill_fraction,
                kv_bytes_per_s: (kv_link.bandwidth_gbps * 1e9).round() as u64,
                kv_max_backlog_us: us(kv_link.max_backlog_s),
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
    let workers = run_windows(&shared, shards, threads);

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
    use crate::{FleetError, TrafficPattern, WorkloadSpec};

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
        c.ctrl.as_mut().unwrap().router = false;
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
