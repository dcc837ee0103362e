//! Fleet-run reporting: integer shard totals finalized into one
//! `FleetReport`, including a per-tenant SLO section.
//!
//! Every derived metric is computed *once*, from the merged integer
//! totals — never per shard and averaged — so the report is bit-identical
//! for any shard/thread partition of the same simulation. JSON rendering
//! goes through the workspace's deterministic serializer, making the
//! serialized report byte-identical too.
//!
//! The event-queue engine feeds the same totals the per-tick engine
//! did: counters accumulate at processed ticks, and idle-span billing
//! (energy, live ticks, clock residency) lands lazily in closed form —
//! the merge and finalization here are agnostic to *when* a shard
//! accrued a number, only to the integer sums, which is what keeps the
//! report byte-identical across engines and partitions.

use crate::state::{TenantTotals, Totals};
use litegpu_ctrl::PriorityClass;

/// Per-tenant metadata threaded from the config into the report.
#[derive(Debug, Clone)]
pub(crate) struct TenantMeta {
    /// Tenant name.
    pub name: String,
    /// Scheduling class.
    pub priority: PriorityClass,
    /// Effective TTFT SLO target, seconds (after engine-default
    /// fallback).
    pub ttft_slo_s: f64,
    /// Effective TBT SLO target, seconds.
    pub tbt_slo_s: f64,
}

/// Run-level metadata threaded from the config into the report.
#[derive(Debug, Clone)]
pub(crate) struct RunMeta {
    /// GPU configuration name.
    pub gpu: String,
    /// Model name.
    pub model: String,
    /// Control-plane label (`"none"` when no controller ran).
    pub controller: String,
    /// Serving-mode label (`monolithic` or `phase-split(...)`).
    pub serving: String,
    /// Whether the run served phase-split (gates the `kv_transfer`
    /// report section).
    pub phase_split: bool,
    /// The DVFS operating-point grid the run priced (empty on
    /// nominal-only runs; gates the `dvfs` report section).
    pub clock_points: Vec<f64>,
    /// Model instances simulated.
    pub instances: u32,
    /// GPUs per instance.
    pub gpus_per_instance: u32,
    /// Repair cells.
    pub cells: u32,
    /// GPU-sized hot spares across the fleet.
    pub spares: u32,
    /// Repair crews per cell.
    pub crews_per_cell: u32,
    /// Whether the run carried a chaos campaign (gates the `chaos`
    /// report section).
    pub chaos: bool,
    /// Whether the fleet-scope balancer ran (gates the `balancer`
    /// report section).
    pub balancer: bool,
    /// Effective simulated horizon, seconds.
    pub horizon_s: f64,
    /// Simulation tick, seconds.
    pub tick_s: f64,
    /// One entry per workload tenant, in tenant-id order.
    pub tenants: Vec<TenantMeta>,
}

/// One tenant's slice of a fleet run: volumes, shed counts, latency
/// percentiles and SLO attainment against the tenant's *own* targets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Scheduling class label (`interactive` / `batch` / `best-effort`).
    pub priority: String,
    /// Effective TTFT SLO target, seconds.
    pub ttft_slo_s: f64,
    /// Effective TBT SLO target, seconds.
    pub tbt_slo_s: f64,
    /// Requests that arrived for this tenant.
    pub arrived: u64,
    /// Arrivals placed on an instance queue.
    pub routed: u64,
    /// Arrivals dropped at a full instance queue.
    pub rejected: u64,
    /// Arrivals shed at the cell boundary (admission control or no live
    /// routing target).
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Output tokens generated.
    pub generated_tokens: u64,
    /// Median time to first token, seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub ttft_p99_s: f64,
    /// Fraction of first tokens meeting this tenant's TTFT SLO.
    pub ttft_attainment: f64,
    /// Fraction of this tenant's tokens produced by decode steps meeting
    /// its TBT SLO.
    pub tbt_attainment: f64,
    /// Median end-to-end request latency, seconds.
    pub e2e_p50_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub e2e_p99_s: f64,
}

impl TenantReport {
    fn finalize(totals: &TenantTotals, meta: &TenantMeta) -> Self {
        Self {
            name: meta.name.clone(),
            priority: meta.priority.label().to_string(),
            ttft_slo_s: meta.ttft_slo_s,
            tbt_slo_s: meta.tbt_slo_s,
            arrived: totals.arrived,
            routed: totals.routed,
            rejected: totals.rejected,
            shed: totals.shed,
            completed: totals.completed,
            generated_tokens: totals.generated_tokens,
            ttft_p50_s: totals.ttft.percentile_s(50.0),
            ttft_p99_s: totals.ttft.percentile_s(99.0),
            ttft_attainment: frac(totals.ttft_slo_ok, totals.ttft_recorded),
            tbt_attainment: frac(totals.tbt_slo_ok_tokens, totals.generated_tokens),
            e2e_p50_s: totals.e2e.percentile_s(50.0),
            e2e_p99_s: totals.e2e.percentile_s(99.0),
        }
    }
}

/// `num / den`, defined as 1 when the denominator is empty (no demand ⇒
/// vacuous attainment).
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// The KV-transfer section of a phase-split fleet run: what the
/// prefill→decode hand-off cost on the cell links, and how the two pools
/// were occupied. Present only under
/// [`crate::engine::ServingMode::PhaseSplit`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KvTransferReport {
    /// KV hand-off cohorts enqueued on cell links.
    pub transfers: u64,
    /// KV bytes enqueued (prompt length × bytes-per-token, exact).
    pub bytes_queued: u64,
    /// KV bytes delivered into the decode pool.
    pub bytes_delivered: u64,
    /// KV bytes still in flight (or awaiting decode capacity) at the end
    /// of the horizon. Conservation: `queued = delivered + inflight`.
    pub bytes_inflight_at_end: u64,
    /// Decimal gigabytes moved over the horizon.
    pub gb_moved: f64,
    /// Fraction of total cell-link time spent serializing transfers.
    pub link_utilization: f64,
    /// Median transfer delay (queueing + serialization), seconds.
    pub delay_p50_s: f64,
    /// 99th-percentile transfer delay, seconds.
    pub delay_p99_s: f64,
    /// Prefill launches deferred because the link was backlogged
    /// (back-pressure events).
    pub backpressure_stalls: u64,
    /// `SetPhase` pool rebalances the data plane applied.
    pub phase_rebalances: u64,
    /// Mean instances live in the prefill pool over the run.
    pub prefill_pool_mean: f64,
    /// Mean instances live in the decode pool over the run.
    pub decode_pool_mean: f64,
}

/// The DVFS section of a clock-aware fleet run: where the live pool
/// actually served on the operating-point grid, and what that bought
/// against the nominal-clock counterfactual of the same served work.
/// Present only when the control plane ran the DVFS policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DvfsReport {
    /// The priced operating points (clock factors), ascending, last
    /// nominal.
    pub clock_points: Vec<f64>,
    /// Fraction of live instance-ticks served at each point (the clock
    /// histogram; sums to 1 over a run with any live time).
    pub clock_tick_share: Vec<f64>,
    /// Live-tick-weighted mean clock factor.
    pub mean_clock: f64,
    /// Fraction of live instance-ticks spent below the nominal clock.
    pub downclocked_share: f64,
    /// `SetClock` retunes applied by the data plane.
    pub retunes: u64,
    /// Dynamic serving energy actually drawn, joules.
    pub dyn_energy_j: u64,
    /// Dynamic energy the same served work would have drawn at the
    /// nominal clock, joules.
    pub nominal_dyn_energy_j: u64,
    /// Energy saved versus the nominal-clock counterfactual, joules
    /// (the idle floor is identical in both worlds, so this is exactly
    /// `nominal_dyn − dyn`).
    pub energy_saved_j: u64,
    /// Saved fraction of the counterfactual total
    /// (`saved / (energy + saved)`).
    pub energy_saved_frac: f64,
}

/// Instance-down attribution by failure-domain kind, in the order of
/// `Totals::by_kind`. Always present, so
/// availability claims are attributable even on chaos-free runs (where
/// everything lands in `independent`).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailureBreakdown {
    /// I.i.d. per-instance AFR failures.
    pub independent: u64,
    /// Instances downed by rack-loss events (incl. straddle collateral).
    pub rack: u64,
    /// Instances downed by power-domain trips.
    pub power: u64,
    /// Network-partition windows observed (per affected cell).
    pub partition_events: u64,
    /// Thermal-excursion windows observed (per affected cell).
    pub thermal_events: u64,
}

/// The chaos section of a fleet run under a correlated-failure campaign:
/// lifecycle events, front-door shed attribution, and the repair-crew
/// queue's behaviour. Present only when the config carried a
/// [`crate::engine::ChaosSpec`] with events.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosSection {
    /// Instances drained by rolling-drain waves.
    pub drains: u64,
    /// Drained instances restored within the horizon.
    pub drain_restores: u64,
    /// Arrivals shed at the front door of partitioned cells (a subset of
    /// `routing_shed`).
    pub partition_shed: u64,
    /// Repair jobs a crew started within the horizon.
    pub repairs_dispatched: u64,
    /// Mean wait for a free crew across dispatched jobs, seconds — the
    /// repair backlog the finite-crew model makes visible.
    pub repair_wait_mean_s: f64,
    /// Down instances restored to service within the horizon.
    pub restores: u64,
    /// Mean time to restore across those restores, seconds (spare swaps
    /// and crew repairs alike).
    pub mttr_s: f64,
    /// Repair crews per cell.
    pub crews_per_cell: u32,
}

/// One directed edge of the cross-cell spill-over flow matrix.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlowEntry {
    /// Source cell (the hot cell the cohort was deducted from).
    pub src: u32,
    /// Destination cell (the under-loaded cell that admitted it).
    pub dst: u32,
    /// Requests redirected along this edge over the run.
    pub requests: u64,
}

/// The fleet-scope balancer section: spill-over volumes, admission-quota
/// clamps, and the per-cell flow matrix. Present only when the control
/// plane carried a [`litegpu_ctrl::BalancerConfig`]. Conservation holds
/// exactly on the reported integers: `spilled_out == spilled_in ==
/// sum(flow[].requests)`, and every spilled request is counted arrived
/// exactly once (at its destination), so fleet arrival totals match the
/// balancer-off run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BalancerSection {
    /// Requests deducted from hot cells' arrival schedules (source side
    /// of the flow matrix).
    pub spilled_out: u64,
    /// Requests admitted at destination cells via spill-over routing
    /// (destination side; equals `spilled_out` by construction).
    pub spilled_in: u64,
    /// Redirected cohorts (tick-grouped arrival batches) delivered to
    /// destination cells.
    pub spilled_cohorts: u64,
    /// Requests shed by fleet-issued admission quotas (a subset of
    /// `admission_shed`).
    pub quota_clamped: u64,
    /// Directed `src -> dst` spill volumes, in canonical `(src, dst)`
    /// order — the exact-conservation ledger.
    pub flow: Vec<FlowEntry>,
}

/// Aggregated results of a fleet run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// GPU configuration name.
    pub gpu: String,
    /// Model name.
    pub model: String,
    /// Control-plane policies that ran (e.g.
    /// `autoscale+gate(GateToEfficiency)+route`), or `none`.
    pub controller: String,
    /// Serving mode (`monolithic`, or `phase-split(...)` with the
    /// prefill fraction and cell KV-link budget).
    pub serving: String,
    /// Model instances simulated.
    pub instances: u32,
    /// GPUs per instance.
    pub gpus_per_instance: u32,
    /// Repair cells (each with its own hot-spare pool).
    pub cells: u32,
    /// GPU-sized hot spares across the fleet (a failure consumes one
    /// spare unit — this is where Lite-GPU spares get cheap, §3).
    pub spares: u32,
    /// Fleet-cost overhead of the spare pool (spare GPUs / serving GPUs).
    pub spare_overhead: f64,
    /// Simulated horizon, hours.
    pub simulated_hours: f64,
    /// Simulation tick, seconds.
    pub tick_s: f64,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests not admitted to any queue: full-queue drops plus both
    /// shed kinds (`routing_shed`, `admission_shed`).
    pub rejected: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests requeued by instance failures (KV lost, prefill redone).
    pub retried: u64,
    /// Output tokens generated.
    pub generated_tokens: u64,
    /// Decode steps executed fleet-wide.
    pub decode_steps: u64,
    /// Output tokens per second over the horizon (the goodput the §3
    /// available-FLOPS claim cashes out as).
    pub goodput_tps: f64,
    /// Fraction of instance-time up.
    pub availability: f64,
    /// Failures injected (independent + correlated instance-downs).
    pub failures: u64,
    /// Instance-down attribution by failure-domain kind.
    pub failure_breakdown: FailureBreakdown,
    /// Failures absorbed by a hot spare.
    pub spare_hits: u64,
    /// Failures that had to wait for a full repair.
    pub spare_misses: u64,
    /// Total fleet energy over the horizon, joules (integer accumulators;
    /// static floors plus utilization-proportional dynamic power; powered
    /// states only — gated and failed instances draw nothing).
    pub energy_j: u64,
    /// Energy drawn while powered but not serving, joules: live
    /// instances' static floor during unutilized time plus warm-parked
    /// and booting instances. The §3 elasticity waste per-unit power
    /// gating attacks.
    pub idle_energy_j: u64,
    /// Total energy per generated token, joules/token.
    pub energy_per_token_j: f64,
    /// Mean instances live (serving-eligible) over the run — under an
    /// autoscaler this is the fleet's effective size.
    pub avg_live_instances: f64,
    /// Autoscaler activations applied (warm or cold).
    pub scale_ups: u64,
    /// Autoscaler parks applied.
    pub scale_downs: u64,
    /// Arrivals placed on an instance by the cell-level split.
    pub routed: u64,
    /// Arrivals shed because no live instance was routable.
    pub routing_shed: u64,
    /// Best-effort arrivals shed by priority-aware admission control.
    pub admission_shed: u64,
    /// Median time to first token, seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub ttft_p99_s: f64,
    /// Fraction of first tokens meeting each tenant's own TTFT SLO
    /// (tenant-weighted aggregate of the per-tenant attainments).
    pub ttft_attainment: f64,
    /// Median decode-step time, seconds.
    pub tbt_p50_s: f64,
    /// 99th-percentile decode-step time, seconds.
    pub tbt_p99_s: f64,
    /// Fraction of generated tokens produced by decode steps meeting
    /// their tenant's TBT SLO (token-weighted across tenants).
    pub tbt_attainment: f64,
    /// Median end-to-end request latency, seconds.
    pub e2e_p50_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub e2e_p99_s: f64,
    /// Per-tenant volumes, latency and SLO attainment, in tenant-id
    /// order.
    pub per_tenant: Vec<TenantReport>,
    /// KV-transfer accounting (phase-split runs only; `null` under
    /// monolithic serving).
    pub kv_transfer: Option<KvTransferReport>,
    /// DVFS accounting (clock histogram + energy saved vs nominal;
    /// `null` unless the control plane ran the DVFS policy).
    pub dvfs: Option<DvfsReport>,
    /// Chaos-campaign accounting (drains, partition shed, repair-crew
    /// queue, MTTR; `null` on campaign-free runs).
    pub chaos: Option<ChaosSection>,
    /// Fleet-scope balancer accounting (spill-over flow matrix + quota
    /// clamps; `null` unless the control plane ran the balancer).
    pub balancer: Option<BalancerSection>,
}

impl FleetReport {
    /// Finalizes merged totals into the public report.
    pub(crate) fn finalize(totals: &Totals, meta: RunMeta) -> Self {
        let instance_time_us = meta.instances as u128 * (meta.horizon_s * 1e6) as u128;
        let availability = if instance_time_us == 0 {
            1.0
        } else {
            1.0 - (totals.downtime_us as f64 / instance_time_us as f64).min(1.0)
        };
        let ticks = (meta.horizon_s / meta.tick_s).round().max(1.0);
        let per_tenant: Vec<TenantReport> = totals
            .per_tenant
            .iter()
            .zip(&meta.tenants)
            .map(|(t, m)| TenantReport::finalize(t, m))
            .collect();
        // Fleet-level attainments aggregate the per-tenant books (each
        // against its own SLO target).
        let sum = |f: fn(&TenantTotals) -> u64| totals.per_tenant.iter().map(f).sum::<u64>();
        let dvfs = (!meta.clock_points.is_empty()).then(|| {
            let live = totals.live_ticks.max(1) as f64;
            let nominal_idx = meta.clock_points.len() - 1;
            // Round to joules first so `saved = nominal − dyn` holds
            // exactly on the reported integers.
            let dyn_j = totals.dvfs_dyn_uj / 1_000_000;
            let nominal_dyn_j = totals.dvfs_nominal_dyn_uj / 1_000_000;
            let saved_j = nominal_dyn_j.saturating_sub(dyn_j);
            let counterfactual_j = totals.energy_uj / 1_000_000 + saved_j;
            DvfsReport {
                clock_points: meta.clock_points.clone(),
                clock_tick_share: totals
                    .clock_ticks
                    .iter()
                    .map(|&t| t as f64 / live)
                    .collect(),
                mean_clock: meta
                    .clock_points
                    .iter()
                    .zip(&totals.clock_ticks)
                    .map(|(c, &t)| c * t as f64)
                    .sum::<f64>()
                    / live,
                downclocked_share: totals.clock_ticks[..nominal_idx]
                    .iter()
                    .map(|&t| t as f64 / live)
                    .sum(),
                retunes: totals.clock_retunes,
                dyn_energy_j: dyn_j,
                nominal_dyn_energy_j: nominal_dyn_j,
                energy_saved_j: saved_j,
                energy_saved_frac: if counterfactual_j == 0 {
                    0.0
                } else {
                    saved_j as f64 / counterfactual_j as f64
                },
            }
        });
        let chaos = meta.chaos.then(|| ChaosSection {
            drains: totals.drains,
            drain_restores: totals.drain_restores,
            partition_shed: totals.partition_shed,
            repairs_dispatched: totals.repairs_dispatched,
            repair_wait_mean_s: if totals.repairs_dispatched == 0 {
                0.0
            } else {
                totals.repair_wait_us as f64 / totals.repairs_dispatched as f64 / 1e6
            },
            restores: totals.restores,
            mttr_s: if totals.restores == 0 {
                0.0
            } else {
                totals.restore_us as f64 / totals.restores as f64 / 1e6
            },
            crews_per_cell: meta.crews_per_cell,
        });
        let balancer = meta.balancer.then(|| BalancerSection {
            spilled_out: totals.spill_out,
            spilled_in: totals.spill_in,
            spilled_cohorts: totals.spilled_cohorts,
            quota_clamped: totals.quota_clamped,
            flow: totals
                .spill_flow
                .iter()
                .map(|(&(src, dst), &requests)| FlowEntry { src, dst, requests })
                .collect(),
        });
        let kv_transfer = meta.phase_split.then(|| {
            let link_time_us = meta.cells as u128 * (meta.horizon_s * 1e6) as u128;
            KvTransferReport {
                transfers: totals.kv_transfers,
                bytes_queued: totals.kv_bytes_queued,
                bytes_delivered: totals.kv_bytes_delivered,
                bytes_inflight_at_end: totals.kv_bytes_inflight_end,
                gb_moved: totals.kv_bytes_queued as f64 / 1e9,
                link_utilization: if link_time_us == 0 {
                    0.0
                } else {
                    totals.kv_link_busy_us as f64 / link_time_us as f64
                },
                delay_p50_s: totals.kv_delay.percentile_s(50.0),
                delay_p99_s: totals.kv_delay.percentile_s(99.0),
                backpressure_stalls: totals.kv_backpressure_stalls,
                phase_rebalances: totals.phase_rebalances,
                prefill_pool_mean: totals.prefill_live_ticks as f64 / ticks,
                decode_pool_mean: totals.decode_live_ticks as f64 / ticks,
            }
        });
        Self {
            gpu: meta.gpu,
            model: meta.model,
            controller: meta.controller,
            serving: meta.serving,
            instances: meta.instances,
            gpus_per_instance: meta.gpus_per_instance,
            cells: meta.cells,
            spares: meta.spares,
            spare_overhead: meta.spares as f64
                / (meta.instances as f64 * meta.gpus_per_instance as f64),
            simulated_hours: meta.horizon_s / 3600.0,
            tick_s: meta.tick_s,
            arrived: totals.arrived,
            rejected: totals.rejected,
            completed: totals.completed,
            retried: totals.retried,
            generated_tokens: totals.generated_tokens,
            decode_steps: totals.decode_steps,
            goodput_tps: totals.generated_tokens as f64 / meta.horizon_s,
            availability,
            failures: totals.failures,
            failure_breakdown: FailureBreakdown {
                independent: totals.by_kind[0],
                rack: totals.by_kind[1],
                power: totals.by_kind[2],
                partition_events: totals.by_kind[3],
                thermal_events: totals.by_kind[4],
            },
            spare_hits: totals.spare_hits,
            spare_misses: totals.spare_misses,
            energy_j: totals.energy_uj / 1_000_000,
            idle_energy_j: totals.idle_energy_uj / 1_000_000,
            energy_per_token_j: if totals.generated_tokens == 0 {
                0.0
            } else {
                (totals.energy_uj / 1_000_000) as f64 / totals.generated_tokens as f64
            },
            avg_live_instances: totals.live_ticks as f64 / ticks,
            scale_ups: totals.scale_ups,
            scale_downs: totals.scale_downs,
            routed: totals.routed,
            routing_shed: totals.routing_shed,
            admission_shed: totals.admission_shed,
            ttft_p50_s: totals.ttft.percentile_s(50.0),
            ttft_p99_s: totals.ttft.percentile_s(99.0),
            ttft_attainment: frac(sum(|t| t.ttft_slo_ok), sum(|t| t.ttft_recorded)),
            tbt_p50_s: totals.tbt.percentile_s(50.0),
            tbt_p99_s: totals.tbt.percentile_s(99.0),
            tbt_attainment: frac(sum(|t| t.tbt_slo_ok_tokens), sum(|t| t.generated_tokens)),
            e2e_p50_s: totals.e2e.percentile_s(50.0),
            e2e_p99_s: totals.e2e.percentile_s(99.0),
            per_tenant,
            kv_transfer,
            dvfs,
            chaos,
            balancer,
        }
    }

    /// Deterministic pretty-JSON rendering (byte-identical for identical
    /// reports).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} x{} ({} GPUs/inst, ctrl {}, {}): {:.1} h, {} tenants, {} arrived, {} completed, \
             goodput {:.0} tok/s, availability {:.4}, TTFT p99 {:.3} s, \
             {} failures ({} spare hits), {:.1} MJ ({:.0}% idle)",
            self.gpu,
            self.instances,
            self.gpus_per_instance,
            self.controller,
            self.serving,
            self.simulated_hours,
            self.per_tenant.len(),
            self.arrived,
            self.completed,
            self.goodput_tps,
            self.availability,
            self.ttft_p99_s,
            self.failures,
            self.spare_hits,
            self.energy_j as f64 / 1e6,
            if self.energy_j == 0 {
                0.0
            } else {
                100.0 * self.idle_energy_j as f64 / self.energy_j as f64
            },
        )
    }

    /// One-line KV-transfer summary (phase-split runs), or a note that
    /// the run was monolithic.
    pub fn kv_summary(&self) -> String {
        match &self.kv_transfer {
            None => "kv: n/a (monolithic serving)".to_string(),
            Some(kv) => format!(
                "kv: {} transfers, {:.1} GB moved, link util {:.2}%, delay p50/p99 \
                 {:.1}/{:.1} ms, {} back-pressure stalls, pools {:.1} prefill / {:.1} decode",
                kv.transfers,
                kv.gb_moved,
                100.0 * kv.link_utilization,
                kv.delay_p50_s * 1e3,
                kv.delay_p99_s * 1e3,
                kv.backpressure_stalls,
                kv.prefill_pool_mean,
                kv.decode_pool_mean,
            ),
        }
    }

    /// One-line balancer summary (two-level control-plane runs), or a
    /// note that cells ran isolated.
    pub fn balancer_summary(&self) -> String {
        match &self.balancer {
            None => "balancer: n/a (isolated cells)".to_string(),
            Some(b) => format!(
                "balancer: {} requests spilled cross-cell in {} cohorts over {} flow edges \
                 ({:.2}% of arrivals), {} quota-clamped",
                b.spilled_out,
                b.spilled_cohorts,
                b.flow.len(),
                if self.arrived == 0 {
                    0.0
                } else {
                    100.0 * b.spilled_out as f64 / self.arrived as f64
                },
                b.quota_clamped,
            ),
        }
    }

    /// `(TTFT, TBT)` attainment of the first [`PriorityClass::Interactive`]
    /// tenant — the pair the DVFS energy-vs-latency headlines compare at —
    /// or `None` when the workload has no interactive tenant (callers must
    /// not fabricate a vacuous 1.0).
    pub fn interactive_attainment(&self) -> Option<(f64, f64)> {
        self.per_tenant
            .iter()
            .find(|t| t.priority == PriorityClass::Interactive.label())
            .map(|t| (t.ttft_attainment, t.tbt_attainment))
    }

    /// One-line DVFS summary (clock-aware runs), or a note that the run
    /// served at the nominal clock only.
    pub fn dvfs_summary(&self) -> String {
        match &self.dvfs {
            None => "dvfs: n/a (nominal clock)".to_string(),
            Some(d) => format!(
                "dvfs: mean clock {:.3}, {:.1}% of live ticks down-clocked, {} retunes, \
                 saved {:.2} MJ vs nominal ({:.1}%)",
                d.mean_clock,
                100.0 * d.downclocked_share,
                d.retunes,
                d.energy_saved_j as f64 / 1e6,
                100.0 * d.energy_saved_frac,
            ),
        }
    }

    /// Multi-line per-tenant SLO table (name, class, volumes, shed and
    /// attainment), for binaries and examples.
    pub fn tenant_summary(&self) -> String {
        let mut out = String::from(
            "tenant          class        arrived   completed   shed      TTFT-SLO  TBT-SLO\n",
        );
        for t in &self.per_tenant {
            out.push_str(&format!(
                "{:<15} {:<12} {:<9} {:<11} {:<9} {:<9.4} {:.4}\n",
                t.name,
                t.priority,
                t.arrived,
                t.completed,
                t.shed,
                t.ttft_attainment,
                t.tbt_attainment,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals() -> Totals {
        let mut t = Totals::new(2, 1);
        t.arrived = 100;
        t.completed = 90;
        t.generated_tokens = 45_000;
        t.decode_steps = 1000;
        t.failures = 3;
        t.by_kind = [3, 0, 0, 0, 0];
        t.spare_hits = 2;
        t.spare_misses = 1;
        t.downtime_us = 3_600_000_000; // One instance-hour.
        t.energy_uj = 9_000_000_000; // 9 kJ.
        t.idle_energy_uj = 3_000_000_000;
        t.live_ticks = 18_000_000; // 500 instances mean over 36 000 ticks.
        t.scale_ups = 12;
        t.scale_downs = 15;
        t.routed = 95;
        t.routing_shed = 1;
        t.admission_shed = 4;
        t.rejected = 5;
        t.ttft.record(200_000, 95);
        t.tbt.record(30_000, 1000);
        t.e2e.record(5_000_000, 90);
        // Tenant 0: interactive, meets SLOs on 80/95 firsts and 90% of
        // tokens; tenant 1: best effort, sheds.
        let a = &mut t.per_tenant[0];
        a.arrived = 70;
        a.routed = 70;
        a.completed = 65;
        a.generated_tokens = 30_000;
        a.tbt_slo_ok_tokens = 27_000;
        a.ttft_recorded = 70;
        a.ttft_slo_ok = 60;
        a.ttft.record(150_000, 70);
        a.e2e.record(4_000_000, 65);
        let b = &mut t.per_tenant[1];
        b.arrived = 30;
        b.routed = 25;
        b.shed = 5;
        b.completed = 25;
        b.generated_tokens = 15_000;
        b.tbt_slo_ok_tokens = 13_500;
        b.ttft_recorded = 25;
        b.ttft_slo_ok = 20;
        b.ttft.record(400_000, 25);
        b.e2e.record(8_000_000, 25);
        t
    }

    fn meta() -> RunMeta {
        RunMeta {
            gpu: "H100".into(),
            model: "llama3-70b".into(),
            controller: "autoscale+gate(DvfsAll)+route".into(),
            serving: "monolithic".into(),
            phase_split: false,
            clock_points: Vec::new(),
            instances: 100,
            gpus_per_instance: 2,
            cells: 10,
            spares: 10,
            crews_per_cell: 2,
            chaos: false,
            balancer: false,
            horizon_s: 36_000.0,
            tick_s: 1.0,
            tenants: vec![
                TenantMeta {
                    name: "chat".into(),
                    priority: PriorityClass::Interactive,
                    ttft_slo_s: 2.0,
                    tbt_slo_s: 0.05,
                },
                TenantMeta {
                    name: "scavenge".into(),
                    priority: PriorityClass::BestEffort,
                    ttft_slo_s: 60.0,
                    tbt_slo_s: 0.2,
                },
            ],
        }
    }

    #[test]
    fn finalize_derives_metrics_from_integers() {
        let r = FleetReport::finalize(&totals(), meta());
        assert_eq!(r.arrived, 100);
        assert!((r.goodput_tps - 1.25).abs() < 1e-12);
        // 1 instance-hour down out of 1000 instance-hours.
        assert!((r.availability - 0.999).abs() < 1e-9);
        assert!((r.spare_overhead - 0.05).abs() < 1e-12);
        assert!(r.ttft_p50_s > 0.1 && r.ttft_p50_s < 0.3);
        assert_eq!(r.energy_j, 9_000);
        assert_eq!(r.idle_energy_j, 3_000);
        assert!((r.energy_per_token_j - 0.2).abs() < 1e-12);
        assert!((r.avg_live_instances - 500.0).abs() < 1e-9);
        assert_eq!(r.scale_ups, 12);
        assert_eq!(r.scale_downs, 15);
        assert_eq!((r.routed, r.routing_shed, r.admission_shed), (95, 1, 4));
        // Fleet attainments aggregate the per-tenant books: TTFT
        // (60+20)/(70+25), TBT (27000+13500)/45000.
        assert!((r.ttft_attainment - 80.0 / 95.0).abs() < 1e-12);
        assert!((r.tbt_attainment - 0.9).abs() < 1e-12);
    }

    #[test]
    fn per_tenant_section_reports_each_tenants_own_slo() {
        let r = FleetReport::finalize(&totals(), meta());
        assert_eq!(r.per_tenant.len(), 2);
        let a = &r.per_tenant[0];
        assert_eq!(a.name, "chat");
        assert_eq!(a.priority, "interactive");
        assert_eq!(a.ttft_slo_s, 2.0);
        assert_eq!((a.arrived, a.completed, a.shed), (70, 65, 0));
        assert!((a.ttft_attainment - 60.0 / 70.0).abs() < 1e-12);
        assert!((a.tbt_attainment - 0.9).abs() < 1e-12);
        assert!(a.ttft_p50_s > 0.1 && a.ttft_p50_s < 0.2);
        let b = &r.per_tenant[1];
        assert_eq!(b.priority, "best-effort");
        assert_eq!(b.shed, 5);
        assert!(b.e2e_p99_s > a.e2e_p99_s);
        // The headline helper resolves the interactive tenant's pair —
        // and refuses to fabricate one when no interactive tenant exists.
        assert_eq!(
            r.interactive_attainment(),
            Some((a.ttft_attainment, a.tbt_attainment))
        );
        let mut no_interactive = r.clone();
        no_interactive.per_tenant.remove(0);
        assert_eq!(no_interactive.interactive_attainment(), None);
    }

    #[test]
    fn monolithic_runs_have_no_kv_section() {
        let r = FleetReport::finalize(&totals(), meta());
        assert_eq!(r.serving, "monolithic");
        assert!(r.kv_transfer.is_none());
        assert!(r.to_json().contains("\"kv_transfer\": null"));
    }

    #[test]
    fn kv_section_derives_from_integer_totals() {
        let mut t = totals();
        t.kv_transfers = 50;
        t.kv_bytes_queued = 10_000_000_000;
        t.kv_bytes_delivered = 9_000_000_000;
        t.kv_bytes_inflight_end = 1_000_000_000;
        // 10% of 10 cells × 36 000 s of link time.
        t.kv_link_busy_us = 36_000_000_000;
        t.kv_backpressure_stalls = 7;
        t.phase_rebalances = 3;
        t.prefill_live_ticks = 9_000_000; // 250 mean over 36 000 ticks.
        t.decode_live_ticks = 18_000_000;
        t.kv_delay.record(5_000, 50);
        let mut m = meta();
        m.serving = "phase-split(prefill=0.25,kv=90GB/s)".into();
        m.phase_split = true;
        let r = FleetReport::finalize(&t, m);
        let kv = r.kv_transfer.as_ref().expect("phase-split has kv section");
        assert_eq!(kv.transfers, 50);
        assert_eq!(
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end
        );
        assert!((kv.gb_moved - 10.0).abs() < 1e-9);
        assert!((kv.link_utilization - 0.1).abs() < 1e-9);
        assert!(kv.delay_p50_s > 0.004 && kv.delay_p50_s < 0.006);
        assert_eq!(kv.backpressure_stalls, 7);
        assert_eq!(kv.phase_rebalances, 3);
        assert!((kv.prefill_pool_mean - 250.0).abs() < 1e-9);
        assert!((kv.decode_pool_mean - 500.0).abs() < 1e-9);
        let json = r.to_json();
        for key in [
            "kv_transfer",
            "link_utilization",
            "delay_p99_s",
            "phase-split",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(r.kv_summary().contains("GB moved"));
    }

    #[test]
    fn nominal_runs_have_no_dvfs_section() {
        let r = FleetReport::finalize(&totals(), meta());
        assert!(r.dvfs.is_none());
        assert!(r.to_json().contains("\"dvfs\": null"));
        assert_eq!(r.dvfs_summary(), "dvfs: n/a (nominal clock)");
    }

    #[test]
    fn campaign_free_runs_have_breakdown_but_no_chaos_section() {
        let r = FleetReport::finalize(&totals(), meta());
        // The breakdown is always present and conserves the failure
        // count on chaos-free runs (everything independent).
        assert_eq!(r.failure_breakdown.independent, 3);
        assert_eq!(
            r.failure_breakdown.independent + r.failure_breakdown.rack + r.failure_breakdown.power,
            r.failures
        );
        assert!(r.chaos.is_none());
        let json = r.to_json();
        assert!(json.contains("\"chaos\": null"));
        assert!(json.contains("failure_breakdown"));
    }

    #[test]
    fn chaos_section_derives_from_integer_totals() {
        let mut t = totals();
        t.failures = 9;
        t.by_kind = [3, 4, 2, 5, 1];
        t.drains = 12;
        t.drain_restores = 10;
        t.partition_shed = 7;
        t.repairs_dispatched = 4;
        t.repair_wait_us = 8_000_000; // 2 s mean over 4 jobs.
        t.restores = 5;
        t.restore_us = 30_000_000; // 6 s mean.
        let mut m = meta();
        m.chaos = true;
        let r = FleetReport::finalize(&t, m);
        assert_eq!(r.failure_breakdown.rack, 4);
        assert_eq!(r.failure_breakdown.power, 2);
        assert_eq!(r.failure_breakdown.partition_events, 5);
        assert_eq!(r.failure_breakdown.thermal_events, 1);
        let c = r.chaos.as_ref().expect("campaign run has chaos section");
        assert_eq!((c.drains, c.drain_restores), (12, 10));
        assert_eq!(c.partition_shed, 7);
        assert_eq!(c.repairs_dispatched, 4);
        assert!((c.repair_wait_mean_s - 2.0).abs() < 1e-12);
        assert_eq!(c.restores, 5);
        assert!((c.mttr_s - 6.0).abs() < 1e-12);
        assert_eq!(c.crews_per_cell, 2);
        for key in ["partition_shed", "repair_wait_mean_s", "mttr_s"] {
            assert!(r.to_json().contains(key), "missing {key}");
        }
    }

    #[test]
    fn dvfs_section_derives_from_integer_totals() {
        let mut t = totals();
        t.clock_ticks = vec![9_000_000, 3_000_000, 6_000_000];
        t.live_ticks = 18_000_000;
        t.clock_retunes = 40;
        t.dvfs_dyn_uj = 4_000_000_000; // 4 kJ drawn...
        t.dvfs_nominal_dyn_uj = 7_000_000_000; // ...vs 7 kJ at nominal.
        let mut m = meta();
        m.clock_points = vec![0.75, 0.9, 1.0];
        let r = FleetReport::finalize(&t, m);
        let d = r.dvfs.as_ref().expect("clock-aware run has dvfs section");
        assert_eq!(d.clock_points, vec![0.75, 0.9, 1.0]);
        assert_eq!(d.clock_tick_share, vec![0.5, 1.0 / 6.0, 1.0 / 3.0]);
        // 0.5×0.75 + (1/6)×0.9 + (1/3)×1.0.
        assert!((d.mean_clock - (0.375 + 0.15 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((d.downclocked_share - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.retunes, 40);
        assert_eq!(d.dyn_energy_j, 4_000);
        assert_eq!(d.nominal_dyn_energy_j, 7_000);
        assert_eq!(d.energy_saved_j, 3_000);
        // Counterfactual total = 9 kJ actual + 3 kJ saved.
        assert!((d.energy_saved_frac - 0.25).abs() < 1e-12);
        assert!(r.dvfs_summary().contains("saved"));
        for key in ["clock_tick_share", "mean_clock", "energy_saved_frac"] {
            assert!(r.to_json().contains(key), "missing {key}");
        }
    }

    #[test]
    fn json_rendering_is_deterministic_and_complete() {
        let r = FleetReport::finalize(&totals(), meta());
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        for key in [
            "goodput_tps",
            "availability",
            "ttft_p99_s",
            "spare_hits",
            "generated_tokens",
            "energy_j",
            "idle_energy_j",
            "energy_per_token_j",
            "scale_ups",
            "scale_downs",
            "routed",
            "admission_shed",
            "controller",
            "avg_live_instances",
            "per_tenant",
            "ttft_attainment",
            "best-effort",
            "scavenge",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn summary_mentions_controller_energy_and_tenants() {
        let r = FleetReport::finalize(&totals(), meta());
        let s = r.summary();
        assert!(s.contains("autoscale"));
        assert!(s.contains("MJ"));
        assert!(s.contains("2 tenants"));
        let t = r.tenant_summary();
        assert!(t.contains("chat"));
        assert!(t.contains("best-effort"));
        assert!(t.contains("scavenge"));
    }
}
