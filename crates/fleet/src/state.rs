//! Per-instance fleet state: a tick-based fluid serving model with exact
//! roofline step costs, plus the per-cell hot-spare pool.
//!
//! Each instance tracks its request queue as run-length-encoded,
//! tenant-tagged arrival cohorts and its running batch as completion
//! cohorts ordered by the decode step at which they finish. A processed
//! tick advances an instance by: failure lifecycle → arrivals (routed in
//! by the cell) → serving (prefill prioritized, then decode steps until
//! the tick's time budget runs out). The engine's event loop invokes
//! these stages only when they are due — `lifecycle` at precomputed
//! integer-µs failure/recovery times, `serve` only while the instance
//! holds work — and exposes the next-event times
//! (`next_failure_at_us`, `down_until_at_us`) so the scheduler can
//! enqueue exact wakeups instead of polling. All state is integer
//! microseconds / counts, and every random draw comes from the
//! instance's own RNG stream — the two properties that make sharded
//! results independent of shard and thread counts.
//!
//! Tenancy is first-class: every queued run and running cohort carries
//! its tenant index, prefill cost scales with the tenant's prompt length,
//! output lengths come from the tenant's own [`LengthDist`], and all
//! SLO accounting (TTFT, TBT, e2e) lands in per-tenant accumulators
//! alongside the fleet totals.

use crate::hist::LatencyHistogram;
use crate::traffic::LengthDist;
use litegpu_ctrl::Phase;
use litegpu_roofline::StepCostTable;
use litegpu_telemetry::{SpanSampler, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// A cell's trace: the buffer its ticks append sampled events to. Span
/// ids are computed unconditionally (they are part of simulation state),
/// but events are emitted only for spans in the 1-in-`every` sample — so
/// a trace never perturbs the simulation, only observes it.
pub(crate) struct TraceSink {
    pub buf: Vec<TraceEvent>,
    /// Division-free 1-in-`every` request-span sampler (0 disables
    /// request spans).
    pub sampler: SpanSampler,
    /// Owning cell (rendered as the trace `pid`).
    pub cell: u32,
}

/// A run of same-tenant requests that arrived in the same tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueRun {
    arrival_tick: u32,
    count: u32,
    /// Owning tenant (index into the workload's tenant list).
    tenant: u16,
    /// Requeued after a failure: the first token was already delivered,
    /// so TTFT is not recorded again.
    retry: bool,
}

/// Per-tenant serving knobs (derived from the workload + engine params
/// once).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantKnobs {
    pub ttft_slo_us: u64,
    pub tbt_slo_us: u64,
    /// Output-length distribution, sampled per prefill cohort.
    pub output_len: LengthDist,
    /// Prefill-cost scaling as an exact rational: the step-cost table is
    /// priced at the engine's default prompt length, and prefill time is
    /// ~linear in prompt tokens, so a tenant with a different mean prompt
    /// pays `cost × prefill_num / prefill_den` (integer arithmetic, ≥ 1).
    pub prefill_num: u32,
    pub prefill_den: u32,
    /// KV-cache bytes one of this tenant's requests hands from prefill to
    /// decode under phase-split serving: mean prompt length ×
    /// bytes-per-token at the engine precision (integer, so link
    /// accounting stays exact).
    pub kv_bytes_per_req: u64,
}

impl TenantKnobs {
    /// Scales a table prefill cost to this tenant's prompt length.
    pub fn prefill_cost_us(&self, table_us: u64) -> u64 {
        if self.prefill_num == self.prefill_den {
            return table_us.max(1);
        }
        (table_us as u128 * self.prefill_num as u128 / self.prefill_den.max(1) as u128).max(1)
            as u64
    }
}

/// Serving knobs shared by every instance (derived from the fleet
/// config once).
#[derive(Debug, Clone)]
pub(crate) struct ServeKnobs {
    pub tick_us: u64,
    pub max_prefill_batch: u32,
    pub max_queue: u32,
    /// One entry per workload tenant, indexed by tenant id.
    pub tenants: Vec<TenantKnobs>,
}

/// Failure/repair timing shared by every instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FailureRates {
    /// Mean microseconds between failures of one instance (0 disables
    /// failure injection).
    pub mean_interval_us: f64,
    pub swap_us: u64,
    pub repair_us: u64,
}

impl FailureRates {
    /// Exponential inter-failure draw; `u64::MAX` when disabled.
    fn next_interval_us(&self, rng: &mut StdRng) -> u64 {
        if self.mean_interval_us <= 0.0 {
            return u64::MAX;
        }
        let u: f64 = rng.random::<f64>().max(1e-300);
        let dt = -u.ln() * self.mean_interval_us;
        if dt >= u64::MAX as f64 {
            u64::MAX
        } else {
            (dt as u64).max(1)
        }
    }
}

/// One tenant's integer accumulators within a [`Totals`]. Merging
/// is plain addition, so the merge order cannot affect the result.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TenantTotals {
    /// Requests that arrived for this tenant.
    pub arrived: u64,
    /// Arrivals placed on an instance queue.
    pub routed: u64,
    /// Arrivals dropped at a full instance queue.
    pub rejected: u64,
    /// Arrivals shed at the cell boundary: admission control (best-effort
    /// revoked) or no live instance to route to.
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Output tokens generated for this tenant.
    pub generated_tokens: u64,
    /// Of those, tokens produced by decode steps meeting the tenant's
    /// TBT SLO.
    pub tbt_slo_ok_tokens: u64,
    /// First tokens with a recorded TTFT.
    pub ttft_recorded: u64,
    /// Of those, within the tenant's TTFT SLO.
    pub ttft_slo_ok: u64,
    pub ttft: LatencyHistogram,
    pub e2e: LatencyHistogram,
}

impl TenantTotals {
    /// Zeroes every accumulator in place, keeping the histograms'
    /// buckets.
    fn clear(&mut self) {
        *self = Self {
            ttft: cleared(&mut self.ttft),
            e2e: cleared(&mut self.e2e),
            ..Default::default()
        };
    }

    /// Adds `other` into `self` (associative, commutative).
    pub fn merge(&mut self, other: &Self) {
        self.arrived += other.arrived;
        self.routed += other.routed;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.completed += other.completed;
        self.generated_tokens += other.generated_tokens;
        self.tbt_slo_ok_tokens += other.tbt_slo_ok_tokens;
        self.ttft_recorded += other.ttft_recorded;
        self.ttft_slo_ok += other.ttft_slo_ok;
        self.ttft.merge(&other.ttft);
        self.e2e.merge(&other.e2e);
    }
}

/// One prefill launch's cohort. On a phase-split cell it is the
/// prefill→decode KV-cache hand-off in flight on the cell's KV link,
/// priced at prompt length × bytes-per-token and waiting out its
/// serialization and queueing delay before the decode pool may pick it
/// up. On a monolithic cell the launching instance admits it into its own
/// decode batch at once ([`InstanceState::admit_decode_cohort`]).
#[derive(Debug, Clone)]
pub(crate) struct KvTransfer {
    /// Link time at which the transfer lands, µs (set by
    /// [`KvLinkState::enqueue`]).
    pub complete_us: u64,
    /// Time the hand-off entered the link, µs (TTFT measures from here
    /// until actual delivery into the decode pool).
    pub ready_us: u64,
    /// Owning tenant.
    pub tenant: u16,
    /// Requests in the cohort.
    pub count: u32,
    /// Output length sampled at prefill (decode steps to run).
    pub out_len: u64,
    /// Oldest member's arrival tick (starts the e2e clock).
    pub oldest_arrival_tick: u32,
    /// KV bytes moved.
    pub bytes: u64,
    /// Trace span id of the cohort (`(prefill instance global index
    /// << 32) | launch counter`; RNG-free, shard-invariant).
    pub span: u64,
    /// The cohort's entries in the link's TTFT FIFO
    /// ([`KvLinkState::record_delivery`] drains them): one per non-retry
    /// queue run.
    pub ttft_runs: u32,
}

/// One cell's prefill→decode KV link: a serialized bandwidth budget with
/// FIFO queueing in exact integer microseconds. Transfer delay (queueing
/// plus serialization) lands in TTFT — the first decode token cannot
/// exist before the KV cache arrives — and a backlog past the configured
/// threshold back-pressures the cell's prefill pool.
#[derive(Debug)]
pub(crate) struct KvLinkState {
    /// Link bandwidth, bytes/second.
    bytes_per_s: u64,
    /// Backlog threshold (µs of link time) beyond which prefill launches
    /// stall.
    max_backlog_us: u64,
    /// Time at which the link next frees, µs.
    free_us: u64,
    /// Transfers in flight or awaiting decode capacity, completion-ordered
    /// (a single serialized link keeps FIFO = completion order).
    queue: VecDeque<KvTransfer>,
    /// One `(queue+prefill wait µs, weight)` entry per non-retry queue
    /// run of every queued transfer, in queue order: TTFT is recorded
    /// from these at delivery. Deliveries pop the queue head, whose
    /// entries are therefore always at the front.
    ttfts: VecDeque<(u64, u64)>,
}

impl KvLinkState {
    /// An idle link. `spare`, a finished cell's link, lends its queues
    /// (emptied, capacity kept).
    pub fn new(bytes_per_s: u64, max_backlog_us: u64, spare: Option<&mut Self>) -> Self {
        let (mut queue, mut ttfts) = spare.map_or_else(Default::default, |s| {
            (std::mem::take(&mut s.queue), std::mem::take(&mut s.ttfts))
        });
        queue.clear();
        ttfts.clear();
        Self {
            bytes_per_s: bytes_per_s.max(1),
            max_backlog_us,
            free_us: 0,
            queue,
            ttfts,
        }
    }

    /// Outstanding link backlog at `now_us`, µs of link time.
    pub fn backlog_us(&self, now_us: u64) -> u64 {
        self.free_us.saturating_sub(now_us)
    }

    /// Whether the prefill pool must stall (backlog past the threshold).
    pub fn backlogged(&self, now_us: u64) -> bool {
        self.backlog_us(now_us) > self.max_backlog_us
    }

    /// Prices and enqueues one cohort's KV hand-off, setting its
    /// `complete_us` and recording the link accounting (bytes, busy time,
    /// queueing + serialization delay). TTFT is *not* recorded here: it
    /// waits for [`KvLinkState::record_delivery`], so time spent
    /// head-of-line for decode batch room lands in it too. The cohort's
    /// `ttft_runs` TTFT entries are already pushed onto the link's TTFT
    /// FIFO.
    pub fn enqueue(&mut self, mut job: KvTransfer, acc: &mut Totals) {
        let service =
            ((job.bytes as u128 * 1_000_000).div_ceil(self.bytes_per_s as u128) as u64).max(1);
        job.complete_us = self.free_us.max(job.ready_us) + service;
        self.free_us = job.complete_us;
        acc.kv_transfers += 1;
        acc.kv_bytes_queued += job.bytes;
        acc.kv_link_busy_us += service;
        acc.kv_delay
            .record(job.complete_us - job.ready_us, job.count as u64);
        self.queue.push_back(job);
    }

    /// Records the delivery into the decode pool, at `now_us`, of the
    /// transfer just popped off the queue head: delivered bytes, and the
    /// cohort's TTFTs, drained from the front of the TTFT FIFO — queue
    /// wait + prefill cost + the full hand-off delay (link queueing,
    /// serialization, and any ticks spent head-of-line waiting for
    /// decode batch room) — against the tenant's SLO.
    pub fn record_delivery(
        &mut self,
        job: &KvTransfer,
        now_us: u64,
        tk: &TenantKnobs,
        acc: &mut Totals,
    ) {
        acc.kv_bytes_delivered += job.bytes;
        let delay = now_us.saturating_sub(job.ready_us);
        for (wait_us, w) in self.ttfts.drain(..job.ttft_runs as usize) {
            acc.record_ttft(job.tenant, wait_us + delay, w, tk.ttft_slo_us);
        }
    }

    /// The next transfer already landed by `now_us`, if any (FIFO head).
    pub fn peek_landed(&self, now_us: u64) -> Option<&KvTransfer> {
        self.queue.front().filter(|t| t.complete_us <= now_us)
    }

    /// Removes the FIFO head (after a successful delivery).
    pub fn pop(&mut self) -> Option<KvTransfer> {
        self.queue.pop_front()
    }

    /// Completion time of the FIFO head, if any transfer is in flight.
    /// The event engine's next-delivery wakeup derives from this.
    pub fn head_complete_us(&self) -> Option<u64> {
        self.queue.front().map(|t| t.complete_us)
    }

    /// Bytes queued or awaiting decode capacity (conservation checks).
    pub fn inflight_bytes(&self) -> u64 {
        self.queue.iter().map(|t| t.bytes).sum()
    }
}

/// Integer accumulators for one cell, and for the merged totals of many
/// cells. Merging is plain addition, so the merge order cannot affect
/// the result.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Totals {
    pub arrived: u64,
    /// Arrivals not admitted to any queue: queue-full rejections plus
    /// both shed kinds (`routing_shed`, `admission_shed`).
    pub rejected: u64,
    pub completed: u64,
    pub retried: u64,
    pub generated_tokens: u64,
    pub decode_steps: u64,
    pub failures: u64,
    pub spare_hits: u64,
    pub spare_misses: u64,
    pub downtime_us: u64,
    /// Total energy drawn by powered instances, microjoules.
    pub energy_uj: u64,
    /// Energy drawn while powered but not serving (static floors of live
    /// instances' unutilized time, warm-parked and booting instances),
    /// microjoules — the elasticity waste power gating attacks.
    pub idle_energy_uj: u64,
    /// Instance-ticks spent live and up (for mean live-pool size).
    pub live_ticks: u64,
    /// Autoscaler activations applied.
    pub scale_ups: u64,
    /// Autoscaler parks applied.
    pub scale_downs: u64,
    /// Arrivals placed on an instance by the cell router.
    pub routed: u64,
    /// Arrivals shed by the router because no live instance existed.
    pub routing_shed: u64,
    /// Best-effort arrivals shed by admission control under pressure.
    pub admission_shed: u64,
    /// Failure breakdown by domain kind, in the order independent, rack,
    /// power, partition, thermal: the independent / rack / power slots
    /// count instance-downs (they sum to `failures`); the partition and
    /// thermal slots count chaos events observed (those degrade service
    /// without downing instances).
    pub by_kind: [u64; 5],
    /// Of `routing_shed`, arrivals shed because the cell was partitioned.
    pub partition_shed: u64,
    /// Instances entering a rolling-drain wave.
    pub drains: u64,
    /// Drained instances restored to rotation.
    pub drain_restores: u64,
    /// Repair jobs handed to a cell repair crew.
    pub repairs_dispatched: u64,
    /// Total µs repair jobs waited for a free crew past their ready time.
    pub repair_wait_us: u64,
    /// Completed down→up restorations.
    pub restores: u64,
    /// Total µs of completed restorations (mean-time-to-restore
    /// numerator; unlike `downtime_us` it excludes still-down tail time).
    pub restore_us: u64,
    /// KV hand-off cohorts enqueued on cell links (phase-split serving).
    pub kv_transfers: u64,
    /// KV bytes enqueued on cell links.
    pub kv_bytes_queued: u64,
    /// KV bytes delivered into the decode pool.
    pub kv_bytes_delivered: u64,
    /// KV bytes still in flight (or awaiting decode capacity) at the end
    /// of the horizon. Conservation: `queued = delivered + inflight_end`.
    pub kv_bytes_inflight_end: u64,
    /// Total link time spent serializing transfers, µs (utilization).
    pub kv_link_busy_us: u64,
    /// Prefill launches deferred because the KV link was backlogged.
    pub kv_backpressure_stalls: u64,
    /// `SetPhase` rebalances the data plane actually applied.
    pub phase_rebalances: u64,
    /// Instance-ticks spent live in the prefill pool.
    pub prefill_live_ticks: u64,
    /// Instance-ticks spent live in the decode pool.
    pub decode_live_ticks: u64,
    /// Live instance-ticks spent at each DVFS operating point, indexed by
    /// clock-grid index (one slot per priced point; a single-slot vector
    /// on nominal-only runs). Sums to `live_ticks`.
    pub clock_ticks: Vec<u64>,
    /// `SetClock` retunes the data plane actually applied (commands that
    /// changed a slot's operating point).
    pub clock_retunes: u64,
    /// Dynamic serving energy actually drawn, microjoules (at each
    /// slot's operating point).
    pub dvfs_dyn_uj: u64,
    /// Counterfactual dynamic energy had the same served work run at the
    /// nominal clock, microjoules. `nominal − actual` is the energy DVFS
    /// saved; the idle floor is identical in both worlds.
    pub dvfs_nominal_dyn_uj: u64,
    /// Requests the fleet balancer redirected out of these cells
    /// (deducted from their arrival schedules before routing).
    pub spill_out: u64,
    /// Requests the fleet balancer redirected *into* these cells.
    /// Fleet-wide, `spill_in == spill_out` exactly (cohort conservation).
    pub spill_in: u64,
    /// Redirected cohorts (batches) received; each appears exactly once.
    pub spilled_cohorts: u64,
    /// Arrivals shed at the cell boundary by a fleet admission quota.
    pub quota_clamped: u64,
    /// The balancer flow matrix: `(src cell, dst cell) → requests`
    /// redirected, booked at the source. A `BTreeMap` so the report's
    /// flow listing has one canonical order.
    pub spill_flow: BTreeMap<(u32, u32), u64>,
    pub ttft: LatencyHistogram,
    pub tbt: LatencyHistogram,
    pub e2e: LatencyHistogram,
    /// KV transfer delay (queueing + serialization) per request.
    pub kv_delay: LatencyHistogram,
    /// One slot per workload tenant, indexed by tenant id.
    pub per_tenant: Vec<TenantTotals>,
}

/// `h` moved out and emptied, its buckets kept.
fn cleared(h: &mut LatencyHistogram) -> LatencyHistogram {
    let mut h = std::mem::take(h);
    h.clear();
    h
}

impl Totals {
    pub fn new(n_tenants: usize, n_clocks: usize) -> Self {
        Self {
            clock_ticks: vec![0; n_clocks.max(1)],
            per_tenant: vec![TenantTotals::default(); n_tenants],
            ..Default::default()
        }
    }

    /// Zeroes every accumulator in place, keeping the heap buffers: the
    /// clock-tick counts, the per-tenant slots and the histograms'
    /// buckets. Every other field comes from `Default`, so a field added
    /// later is zeroed too.
    pub fn clear(&mut self) {
        let mut clock_ticks = std::mem::take(&mut self.clock_ticks);
        clock_ticks.fill(0);
        let mut per_tenant = std::mem::take(&mut self.per_tenant);
        per_tenant.iter_mut().for_each(TenantTotals::clear);
        *self = Self {
            clock_ticks,
            per_tenant,
            ttft: cleared(&mut self.ttft),
            tbt: cleared(&mut self.tbt),
            e2e: cleared(&mut self.e2e),
            kv_delay: cleared(&mut self.kv_delay),
            ..Default::default()
        };
    }

    /// Records `weight` first tokens of `tenant`, each `us` µs after its
    /// arrival: into the fleet and tenant TTFT histograms, and into the
    /// tenant's TTFT count and, within `slo_us`, its SLO count.
    pub fn record_ttft(&mut self, tenant: u16, us: u64, weight: u64, slo_us: u64) {
        self.ttft.record(us, weight);
        let tt = &mut self.per_tenant[tenant as usize];
        tt.ttft.record(us, weight);
        tt.ttft_recorded += weight;
        if us <= slo_us {
            tt.ttft_slo_ok += weight;
        }
    }

    /// Adds `other` into `self` (associative, commutative).
    pub fn merge(&mut self, other: &Self) {
        self.arrived += other.arrived;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.retried += other.retried;
        self.generated_tokens += other.generated_tokens;
        self.decode_steps += other.decode_steps;
        self.failures += other.failures;
        self.spare_hits += other.spare_hits;
        self.spare_misses += other.spare_misses;
        self.downtime_us += other.downtime_us;
        self.energy_uj += other.energy_uj;
        self.idle_energy_uj += other.idle_energy_uj;
        self.live_ticks += other.live_ticks;
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.routed += other.routed;
        self.routing_shed += other.routing_shed;
        self.admission_shed += other.admission_shed;
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            *a += b;
        }
        self.partition_shed += other.partition_shed;
        self.drains += other.drains;
        self.drain_restores += other.drain_restores;
        self.repairs_dispatched += other.repairs_dispatched;
        self.repair_wait_us += other.repair_wait_us;
        self.restores += other.restores;
        self.restore_us += other.restore_us;
        self.kv_transfers += other.kv_transfers;
        self.kv_bytes_queued += other.kv_bytes_queued;
        self.kv_bytes_delivered += other.kv_bytes_delivered;
        self.kv_bytes_inflight_end += other.kv_bytes_inflight_end;
        self.kv_link_busy_us += other.kv_link_busy_us;
        self.kv_backpressure_stalls += other.kv_backpressure_stalls;
        self.phase_rebalances += other.phase_rebalances;
        self.prefill_live_ticks += other.prefill_live_ticks;
        self.decode_live_ticks += other.decode_live_ticks;
        debug_assert_eq!(self.clock_ticks.len(), other.clock_ticks.len());
        for (a, b) in self.clock_ticks.iter_mut().zip(&other.clock_ticks) {
            *a += b;
        }
        self.clock_retunes += other.clock_retunes;
        self.dvfs_dyn_uj += other.dvfs_dyn_uj;
        self.dvfs_nominal_dyn_uj += other.dvfs_nominal_dyn_uj;
        self.spill_out += other.spill_out;
        self.spill_in += other.spill_in;
        self.spilled_cohorts += other.spilled_cohorts;
        self.quota_clamped += other.quota_clamped;
        for (&k, v) in &other.spill_flow {
            *self.spill_flow.entry(k).or_insert(0) += v;
        }
        self.ttft.merge(&other.ttft);
        self.tbt.merge(&other.tbt);
        self.e2e.merge(&other.e2e);
        self.kv_delay.merge(&other.kv_delay);
        debug_assert_eq!(self.per_tenant.len(), other.per_tenant.len());
        for (a, b) in self.per_tenant.iter_mut().zip(&other.per_tenant) {
            a.merge(b);
        }
    }
}

/// A repair job finished by [`CellState::dispatch_repairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RepairDispatch {
    /// Cell-local instance index the job belongs to.
    pub local_idx: u32,
    /// Time the assigned crew finishes the repair, µs.
    pub done_us: u64,
    /// Whether the repaired unit returns to the spare pool (a spare
    /// already replaced it) rather than restoring the instance itself.
    pub replenish: bool,
    /// Time the job waited for a free crew past its ready time, µs.
    pub wait_us: u64,
}

/// The hot-spare pool and repair-crew queue of one cell (a fixed group
/// of instances — think rack or pod). Spares are GPU-sized units, as in
/// `litegpu_cluster::failure`: a failure consumes one spare (the spare
/// replaces the failed GPU, bringing the instance back after the swap
/// delay), and the failed unit rejoins the pool once a *finite* repair
/// crew works through it. With no spare free the instance itself waits
/// on a crew, so spare starvation and repair backlog compound — the
/// interaction chaos campaigns are built to expose. This is what makes
/// Lite-GPU spare pools proportionally cheaper (§3) —
/// `FleetReport::spare_overhead` divides by total fleet GPUs.
#[derive(Debug)]
pub(crate) struct CellState {
    pub spares_free: u32,
    /// Finished-repair completion times (units en route to the pool).
    repairs: BinaryHeap<Reverse<u64>>,
    /// Each crew's next-free time; always exactly `crews` entries.
    crews: BinaryHeap<Reverse<u64>>,
    /// Repair jobs awaiting a crew: `(ready_us, seq, local_idx,
    /// replenish)`, dispatched FIFO by ready time (`seq` breaks ties
    /// deterministically in enqueue order).
    pending: BinaryHeap<Reverse<(u64, u32, u32, bool)>>,
    seq: u32,
}

impl CellState {
    /// A cell with every spare free and every crew idle. `spare`, a
    /// finished cell's state, lends its heaps (emptied, capacity kept).
    pub fn new(spares: u32, crews: u32, spare: Option<&mut Self>) -> Self {
        let (mut repairs, mut crew_free, mut pending) = spare.map_or_else(Default::default, |s| {
            (
                std::mem::take(&mut s.repairs),
                std::mem::take(&mut s.crews),
                std::mem::take(&mut s.pending),
            )
        });
        repairs.clear();
        crew_free.clear();
        crew_free.extend((0..crews.max(1)).map(|_| Reverse(0)));
        pending.clear();
        Self {
            spares_free: spares,
            repairs,
            crews: crew_free,
            pending,
            seq: 0,
        }
    }

    /// Returns repaired units whose repair finished by `now_us` to the
    /// pool.
    pub fn reclaim_repaired(&mut self, now_us: u64) {
        while let Some(&Reverse(done)) = self.repairs.peek() {
            if done <= now_us {
                self.repairs.pop();
                self.spares_free += 1;
            } else {
                break;
            }
        }
    }

    /// Takes a spare if one is free. The failed unit's repair must be
    /// queued separately via [`CellState::enqueue_repair`] — crews, not
    /// the swap itself, bring units back.
    pub fn try_take_spare(&mut self) -> bool {
        if self.spares_free > 0 {
            self.spares_free -= 1;
            true
        } else {
            false
        }
    }

    /// Queues a repair job that becomes workable at `ready_us` (for an
    /// outage, the event's end — crews cannot enter a dark rack).
    pub fn enqueue_repair(&mut self, ready_us: u64, local_idx: u32, replenish: bool) {
        self.pending
            .push(Reverse((ready_us, self.seq, local_idx, replenish)));
        self.seq += 1;
    }

    /// Assigns every pending job that is ready by `now_us` to the
    /// earliest-available crew, FIFO by ready time. Each job starts at
    /// `max(ready, crew free)` — so a busy-crew backlog shows up as wait
    /// time — and finishes `repair_us` later. Replenish jobs feed the
    /// spare pool via [`CellState::reclaim_repaired`]; for the rest the
    /// caller must schedule the instance's own recovery at `done_us`.
    pub fn dispatch_repairs(&mut self, now_us: u64, repair_us: u64) -> Vec<RepairDispatch> {
        let mut out = Vec::new();
        while let Some(&Reverse((ready_us, _, local_idx, replenish))) = self.pending.peek() {
            if ready_us > now_us {
                break;
            }
            self.pending.pop();
            let Reverse(crew_free) = self.crews.pop().expect("crew set is never empty");
            let start_us = ready_us.max(crew_free);
            let done_us = start_us.saturating_add(repair_us);
            self.crews.push(Reverse(done_us));
            if replenish {
                self.repairs.push(Reverse(done_us));
            }
            out.push(RepairDispatch {
                local_idx,
                done_us,
                replenish,
                wait_us: start_us - ready_us,
            });
        }
        out
    }

    /// Repair jobs still waiting for a crew (telemetry gauge).
    pub fn pending_len(&self) -> u64 {
        self.pending.len() as u64
    }
}

/// `(finish_at_step, arrival_tick, tenant, count, span)` — the min-heap
/// key for running cohorts.
type CohortKey = (u64, u32, u16, u32, u64);

/// One [`InstanceState::serve`] call, shared by its prefill and decode
/// halves.
struct ServeTick<'a> {
    tick: u32,
    /// The tick's start, µs.
    t_start_us: u64,
    lut: &'a StepCostTable,
    knobs: &'a ServeKnobs,
    /// The operating point: an index into the table's clock grid.
    ci: usize,
    /// Serving time left this tick, µs.
    budget: u64,
    /// What the work served so far would have taken at the nominal
    /// clock, µs.
    nominal_us: u64,
    trace: Option<&'a mut TraceSink>,
    acc: &'a mut Totals,
}

/// One model instance's simulation state.
#[derive(Debug)]
pub(crate) struct InstanceState {
    rng: StdRng,
    queue: VecDeque<QueueRun>,
    /// Total requests across `queue`.
    queued: u64,
    /// Running cohorts keyed by the decode step at which they finish:
    /// `(finish_at_step, arrival_tick, tenant, count, span)`. The span
    /// id rides last: it only orders cohorts whose observable fields are
    /// already equal, so adding it cannot change any report byte.
    cohorts: BinaryHeap<Reverse<CohortKey>>,
    /// Total sequences across `cohorts` (the decode batch).
    active: u32,
    /// Decoding sequences per tenant (for per-tenant token attribution).
    active_by_tenant: Vec<u32>,
    /// Monotone decode-step counter.
    steps_done: u64,
    /// Unspent serving time carried into the next tick, µs.
    carry_us: u64,
    pub up: bool,
    down_since_us: u64,
    down_until_us: u64,
    next_failure_us: u64,
    /// Global instance index (trace `tid`, high half of span ids).
    g: u32,
    /// Prefill launches so far: the low half of span ids. Incremented on
    /// every launch whether or not tracing is on, so span identity is a
    /// function of simulation state alone.
    launches: u32,
}

impl InstanceState {
    /// Builds an instance with its own RNG stream derived from
    /// `(seed, global_index)` — the derivation must not depend on the
    /// shard layout. `spare`, an instance of a finished cell, lends its
    /// queue, cohort heap and per-tenant counts (emptied, capacity kept).
    pub fn new(
        seed: u64,
        global_index: u64,
        rates: &FailureRates,
        n_tenants: usize,
        spare: Option<&mut Self>,
    ) -> Self {
        let mut rng =
            StdRng::seed_from_u64(seed ^ global_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let next_failure_us = rates.next_interval_us(&mut rng);
        let (mut queue, mut cohorts, mut active_by_tenant) =
            spare.map_or_else(Default::default, |s| {
                (
                    std::mem::take(&mut s.queue),
                    std::mem::take(&mut s.cohorts),
                    std::mem::take(&mut s.active_by_tenant),
                )
            });
        queue.clear();
        cohorts.clear();
        active_by_tenant.clear();
        active_by_tenant.resize(n_tenants, 0);
        Self {
            rng,
            queue,
            queued: 0,
            cohorts,
            active: 0,
            active_by_tenant,
            steps_done: 0,
            carry_us: 0,
            up: true,
            down_since_us: 0,
            down_until_us: 0,
            next_failure_us,
            g: global_index as u32,
            launches: 0,
        }
    }

    /// Global instance index (the trace `tid`).
    pub fn global_index(&self) -> u32 {
        self.g
    }

    /// Adds this instance's queued request counts into `out` (one slot
    /// per tenant). The telemetry series samples per-tenant queue depth
    /// through this — the queue itself stays module-private.
    pub fn queued_by_tenant(&self, out: &mut [u64]) {
        for run in &self.queue {
            out[run.tenant as usize] += run.count as u64;
        }
    }

    /// Failure/repair lifecycle for the tick starting at `tick_start_us`:
    /// a recovery due by the tick's start, or an independent failure
    /// within the tick ([`Self::fail`]). `local_idx` is the instance's
    /// cell-local index (the handle crew dispatches use to schedule its
    /// recovery).
    pub fn lifecycle(
        &mut self,
        local_idx: u32,
        tick_start_us: u64,
        tick_us: u64,
        rates: &FailureRates,
        cell: &mut CellState,
        acc: &mut Totals,
    ) {
        if !self.up {
            if tick_start_us >= self.down_until_us {
                // Recovered: account downtime, restart the failure clock.
                acc.downtime_us += self.down_until_us - self.down_since_us;
                acc.restores += 1;
                acc.restore_us += self.down_until_us - self.down_since_us;
                self.up = true;
                self.next_failure_us = self
                    .down_until_us
                    .saturating_add(rates.next_interval_us(&mut self.rng));
            }
            return;
        }
        let tick_end_us = tick_start_us + tick_us;
        if self.next_failure_us >= tick_end_us {
            return;
        }
        let fail_at = self.next_failure_us.max(tick_start_us);
        acc.by_kind[0] += 1; // Independent.
        self.fail(local_idx, fail_at, fail_at, rates, cell, acc);
    }

    /// Takes the instance down at `fail_at`, its repair job workable from
    /// `ready_us`: the failure time itself for an independent failure,
    /// the window end for a correlated outage (crews cannot enter a dark
    /// rack). The whole instance goes down — the paper's instance-wide
    /// blast radius — and its KV caches die with it: running cohorts
    /// requeue for a fresh prefill. With a spare free the instance
    /// returns a swap delay after `ready_us` and the failed unit joins the
    /// crew queue as pool replenishment; with none, the instance itself
    /// waits for a repair crew (recovery time is set when a crew picks the
    /// job up). The caller books the failure's kind in `by_kind`.
    pub fn fail(
        &mut self,
        local_idx: u32,
        fail_at: u64,
        ready_us: u64,
        rates: &FailureRates,
        cell: &mut CellState,
        acc: &mut Totals,
    ) {
        acc.failures += 1;
        let spare = cell.try_take_spare();
        self.down_until_us = if spare {
            acc.spare_hits += 1;
            ready_us.saturating_add(rates.swap_us.max(1))
        } else {
            acc.spare_misses += 1;
            u64::MAX
        };
        cell.enqueue_repair(ready_us, local_idx, spare);
        self.up = false;
        self.down_since_us = fail_at;
        self.carry_us = 0;
        let mut flushed = 0u64;
        // Keep the original arrival tick (and tenant) so end-to-end
        // latency still measures from arrival; `retry` only suppresses
        // re-recording TTFT (the first token was already delivered once).
        for Reverse((_, arrival_tick, tenant, count, _span)) in self.cohorts.drain() {
            flushed += count as u64;
            self.queue.push_back(QueueRun {
                arrival_tick,
                count,
                tenant,
                retry: true,
            });
        }
        self.queued += flushed;
        acc.retried += flushed;
        self.active = 0;
        self.active_by_tenant.fill(0);
    }

    /// Sets the recovery time of a downed instance whose repair a crew
    /// just picked up (the spare-miss path leaves it at `u64::MAX`).
    pub fn schedule_recovery(&mut self, done_us: u64) {
        self.down_until_us = done_us;
    }

    /// Admits up to `n` routed requests of `tenant` against the queue
    /// cap, shedding the rest. Returns the admitted count. Does **not**
    /// count `arrived` — the cell-level router owns that.
    pub fn push_arrivals(
        &mut self,
        tick: u32,
        n: u64,
        tenant: u16,
        knobs: &ServeKnobs,
        acc: &mut Totals,
    ) -> u64 {
        let room = (knobs.max_queue as u64).saturating_sub(self.queued);
        let admitted = n.min(room);
        acc.rejected += n - admitted;
        acc.per_tenant[tenant as usize].rejected += n - admitted;
        if admitted > 0 {
            self.queue.push_back(QueueRun {
                arrival_tick: tick,
                count: admitted as u32,
                tenant,
                retry: false,
            });
            self.queued += admitted;
        }
        admitted
    }

    /// Requests waiting in the queue.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Sequences currently decoding.
    pub fn active(&self) -> u32 {
        self.active
    }

    /// Absolute time of the next scheduled failure, µs (`u64::MAX` when
    /// failures are disabled). The event engine schedules the failure
    /// wakeup from this instead of polling `lifecycle` every tick.
    pub(crate) fn next_failure_at_us(&self) -> u64 {
        self.next_failure_us
    }

    /// Scheduled recovery time while down, µs (`u64::MAX` while waiting
    /// on a repair crew). Drives the event engine's recovery wakeup.
    pub(crate) fn down_until_at_us(&self) -> u64 {
        self.down_until_us
    }

    /// Whether the instance holds no work (parkable).
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.active == 0
    }

    /// Serves one tick according to the instance's phase role, spending
    /// `tick_us` plus any carried budget — with every step priced at the
    /// instance's current DVFS operating point `clock` (an index into the
    /// table's clock grid; down-clocked steps take longer, which is
    /// exactly how the energy-vs-latency trade reaches TTFT/TBT).
    /// Returns `(spent, nominal_spent)`, µs: the serving time actually
    /// spent this tick (what dynamic energy accounting bills at the
    /// operating point's power) and the time the same served work would
    /// have taken at the nominal clock (the counterfactual the
    /// energy-saved accounting is measured against).
    ///
    /// The tick runs the prefill half ([`Self::prefill`]) unless the
    /// instance only decodes, then the decode half ([`Self::decode`])
    /// unless it only prefills. `kv`, the cell's KV link, is `Some`
    /// exactly on phase-split cells, whose slots are Prefill or Decode; a
    /// monolithic cell's slots are all Mixed.
    ///
    /// - [`Phase::Mixed`] interleaves prefill (prioritized) and decode,
    ///   as a conventional continuous-batching server does; the tick's
    ///   prefill time stretches the first following decode step's token
    ///   gap (prefill interference — the Splitwise p99-TBT motivation).
    /// - [`Phase::Prefill`] runs prefill only and hands each completed
    ///   cohort to the cell's KV link; a backlogged link back-pressures
    ///   the launch loop.
    /// - [`Phase::Decode`] runs pure decode steps over cohorts delivered
    ///   via [`InstanceState::admit_decode_cohort`], with no prefill
    ///   interference ever.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        tick: u32,
        lut: &StepCostTable,
        knobs: &ServeKnobs,
        phase: Phase,
        clock: u8,
        kv: Option<&mut KvLinkState>,
        trace: Option<&mut TraceSink>,
        acc: &mut Totals,
    ) -> (u64, u64) {
        if !self.up {
            return (0, 0);
        }
        if self.is_idle() {
            self.carry_us = 0;
            return (0, 0);
        }
        let budget0 = knobs.tick_us + self.carry_us;
        let mut cx = ServeTick {
            tick,
            t_start_us: tick as u64 * knobs.tick_us,
            lut,
            knobs,
            ci: clock as usize,
            budget: budget0,
            nominal_us: 0,
            trace,
            acc,
        };
        let mut stalled = false;
        if phase != Phase::Decode {
            debug_assert_eq!(kv.is_some(), phase == Phase::Prefill);
            stalled = self.prefill(&mut cx, kv);
        }
        if phase != Phase::Prefill {
            // What prefill spent: 0 unless this is a Mixed instance.
            let stall_us = budget0 - cx.budget;
            self.decode(&mut cx, stall_us);
        }
        self.carry_us = if self.is_idle() || stalled {
            0
        } else {
            cx.budget
        };
        (budget0 - cx.budget, cx.nominal_us)
    }

    /// The prefill half of [`Self::serve`], which runs first, as in the
    /// small simulator: it launches while requests wait, the decode batch
    /// has room and the budget covers the next launch. One launch serves
    /// one tenant (so it prices that tenant's prompts and samples its
    /// output-length distribution) but batches across *adjacent*
    /// same-tenant queue runs — without that, low-rate traffic whose
    /// per-tick runs are 1-2 requests would never amortize a prefill
    /// launch the way the engine's capacity estimate assumes. Each
    /// launch's cohort goes to the KV link `kv` when there is one, and
    /// into this instance's own decode batch otherwise. Returns whether a
    /// backlogged link stalled the launches.
    fn prefill(&mut self, cx: &mut ServeTick<'_>, mut kv: Option<&mut KvLinkState>) -> bool {
        let (lut, knobs) = (cx.lut, cx.knobs);
        let at_nominal = cx.ci == lut.nominal_clock_idx();
        // A slot changes phase only while idle, the link delivers only to
        // decode slots, and a failure empties the batch: a prefill-pool
        // instance never holds a decode batch.
        debug_assert!(kv.is_none() || self.active == 0);
        while self.queued > 0 && self.active < lut.max_batch {
            // A saturated KV link back-pressures the prefill pool: the
            // prompts stay queued, their wait grows, and the eventual
            // TTFT absorbs it. Stalled time is wasted, not banked.
            if kv.as_deref().is_some_and(|l| l.backlogged(cx.t_start_us)) {
                cx.acc.kv_backpressure_stalls += 1;
                return true;
            }
            let tenant = self.queue.front().expect("queued > 0 implies a run").tenant;
            let tk = knobs.tenants[tenant as usize];
            // Admission is bounded by the table's prefill capacity too:
            // charging a larger batch at a clamped (smaller-batch) price
            // would undercount prefill time. A prefill-pool instance's
            // cohorts must still fit a decode instance's batch limit — a
            // larger cohort could never be delivered and would wedge the
            // cell's KV FIFO behind it forever.
            let cap = knobs
                .max_prefill_batch
                .min(lut.max_prefill_batch)
                .min(lut.max_batch - self.active);
            let mut b = 0u32;
            for run in &self.queue {
                if run.tenant != tenant || b >= cap {
                    break;
                }
                b += run.count.min(cap - b);
            }
            let cost = tk.prefill_cost_us(lut.prefill_us_at(cx.ci, b));
            if cx.budget < cost {
                break;
            }
            cx.budget -= cost;
            // At the nominal clock the counterfactual is the cost itself.
            cx.nominal_us += if at_nominal {
                cost
            } else {
                tk.prefill_cost_us(lut.prefill_us(b))
            };
            // Pop b across the runs. Each non-retry run keeps its own
            // queueing delay for TTFT: recorded now without a link, and
            // queued on the link's TTFT FIFO with one, so that the
            // hand-off delay lands in it at delivery. The cohort's e2e
            // clock starts at the oldest popped run's arrival.
            let (mut oldest, mut ttft_runs, mut remaining) = (cx.tick, 0u32, b);
            while remaining > 0 {
                let front = self.queue.front_mut().expect("b covers queued");
                let take = front.count.min(remaining);
                oldest = oldest.min(front.arrival_tick);
                if !front.retry {
                    let wait_us =
                        (cx.tick as u64 - front.arrival_tick as u64) * knobs.tick_us + cost;
                    match kv.as_deref_mut() {
                        Some(link) => {
                            link.ttfts.push_back((wait_us, take as u64));
                            ttft_runs += 1;
                        }
                        None => cx
                            .acc
                            .record_ttft(tenant, wait_us, take as u64, tk.ttft_slo_us),
                    }
                }
                front.count -= take;
                remaining -= take;
                self.queued -= take as u64;
                if front.count == 0 {
                    self.queue.pop_front();
                }
            }
            // Span identity is pure simulation state: every launch gets
            // `(global index << 32) | launch counter` whether or not a
            // trace sink is attached (so traced and untraced runs step
            // through identical states).
            let span = ((self.g as u64) << 32) | self.launches as u64;
            self.launches = self.launches.wrapping_add(1);
            // Hand-offs enter the link at tick-start resolution: the
            // link's backlog then measures genuine transfer queueing
            // only, never the instance's own within-tick serving
            // progression (which would spuriously trip back-pressure on
            // an idle link).
            let job = KvTransfer {
                complete_us: 0,
                ready_us: cx.t_start_us,
                tenant,
                count: b,
                out_len: tk.output_len.sample(&mut self.rng) as u64,
                oldest_arrival_tick: oldest,
                bytes: tk.kv_bytes_per_req * b as u64,
                span,
                ttft_runs,
            };
            if let Some(ts) = cx
                .trace
                .as_deref_mut()
                .filter(|ts| ts.sampler.sampled(span))
            {
                let queued_since_us = oldest as u64 * knobs.tick_us;
                let (t0, g) = (cx.t_start_us, self.g);
                ts.buf.push(TraceEvent::complete(
                    "req",
                    "queue",
                    queued_since_us,
                    t0 - queued_since_us,
                    ts.cell,
                    g,
                    tenant as u64,
                ));
                ts.buf.push(TraceEvent::complete(
                    "req", "prefill", t0, cost, ts.cell, g, b as u64,
                ));
                // The async leg: the hand-off from tick start, or the
                // local decode from the launch's end.
                let (leg, at, arg) = if kv.is_some() {
                    ("kv_transfer", t0, job.bytes)
                } else {
                    ("decode", t0 + cost, b as u64)
                };
                ts.buf.push(TraceEvent::async_begin(
                    "req", leg, at, ts.cell, g, span, arg,
                ));
            }
            match kv.as_deref_mut() {
                Some(link) => link.enqueue(job, cx.acc),
                None => self.admit_decode_cohort(&job),
            }
        }
        false
    }

    /// The decode half of [`Self::serve`]: runs whole steps until the
    /// budget or the batch runs out, popping cohorts as they finish so
    /// the batch (and so the step time) stays current. Step time is
    /// shared by the whole batch; token attribution and TBT-SLO
    /// accounting are per tenant. `stall_us`, the tick's prefill time,
    /// stretches the first step's token gap: on a Mixed instance the
    /// launches sat between decode steps, and a Decode instance passes 0.
    fn decode(&mut self, cx: &mut ServeTick<'_>, mut stall_us: u64) {
        let (lut, knobs) = (cx.lut, cx.knobs);
        let at_nominal = cx.ci == lut.nominal_clock_idx();
        while self.active > 0 {
            let d = lut.decode_step_us_at(cx.ci, self.active);
            let affordable = cx.budget / d;
            if affordable == 0 {
                break;
            }
            let next_finish = self
                .cohorts
                .peek()
                .map(|Reverse((f, ..))| *f)
                .expect("active > 0 implies cohorts");
            let run = affordable.min(next_finish - self.steps_done).max(1);
            self.steps_done += run;
            cx.budget -= run * d;
            cx.nominal_us += run
                * if at_nominal {
                    d
                } else {
                    lut.decode_step_us(self.active)
                };
            let acc = &mut *cx.acc;
            acc.generated_tokens += run * self.active as u64;
            acc.decode_steps += run;
            // The steps the stall stretches: the run's first, if any.
            let stalled = u64::from(stall_us > 0);
            acc.tbt.record(d + stall_us, stalled);
            acc.tbt.record(d, run - stalled);
            for (t, &a) in self.active_by_tenant.iter().enumerate() {
                let tt = &mut acc.per_tenant[t];
                tt.generated_tokens += run * a as u64;
                let slo = knobs.tenants[t].tbt_slo_us;
                if d + stall_us <= slo {
                    tt.tbt_slo_ok_tokens += stalled * a as u64;
                }
                if d <= slo {
                    tt.tbt_slo_ok_tokens += (run - stalled) * a as u64;
                }
            }
            stall_us = 0;
            while let Some(&Reverse((finish, arrival_tick, tenant, count, span))) =
                self.cohorts.peek()
            {
                if finish > self.steps_done {
                    break;
                }
                self.cohorts.pop();
                self.active -= count;
                self.active_by_tenant[tenant as usize] -= count;
                acc.completed += count as u64;
                let e2e_us = (cx.tick as u64 + 1)
                    .saturating_sub(arrival_tick as u64)
                    .saturating_mul(knobs.tick_us);
                acc.e2e.record(e2e_us, count as u64);
                let tt = &mut acc.per_tenant[tenant as usize];
                tt.completed += count as u64;
                tt.e2e.record(e2e_us, count as u64);
                if let Some(ts) = cx
                    .trace
                    .as_deref_mut()
                    .filter(|ts| ts.sampler.sampled(span))
                {
                    ts.buf.push(TraceEvent::async_end(
                        "req",
                        "decode",
                        (cx.tick as u64 + 1) * knobs.tick_us,
                        ts.cell,
                        self.g,
                        span,
                        count as u64,
                    ));
                }
            }
        }
    }

    /// Admits a transferred cohort into this (decode-phase) instance's
    /// running batch. The caller checked batch capacity.
    pub fn admit_decode_cohort(&mut self, t: &KvTransfer) {
        self.cohorts.push(Reverse((
            self.steps_done + t.out_len,
            t.oldest_arrival_tick,
            t.tenant,
            t.count,
            t.span,
        )));
        self.active += t.count;
        self.active_by_tenant[t.tenant as usize] += t.count;
    }

    /// Removes and returns every queued run. The phase-split engine uses
    /// this to re-route a failed decode instance's requeued work to the
    /// prefill pool, where it can actually re-prefill.
    pub fn take_queued_runs(&mut self) -> VecDeque<QueueRun> {
        self.queued = 0;
        core::mem::take(&mut self.queue)
    }

    /// Appends runs directly (failure re-route path: these requests were
    /// already admitted once, so the queue cap does not re-apply).
    pub fn accept_requeued_runs(&mut self, runs: impl IntoIterator<Item = QueueRun>) {
        for r in runs {
            self.queued += r.count as u64;
            self.queue.push_back(r);
        }
    }

    /// Downtime not yet accounted at the end of the run (instance still
    /// down at `horizon_us`).
    pub fn pending_downtime_us(&self, horizon_us: u64) -> u64 {
        if self.up {
            0
        } else {
            horizon_us.saturating_sub(self.down_since_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::poisson;

    fn knobs() -> ServeKnobs {
        ServeKnobs {
            tick_us: 1_000_000,
            max_prefill_batch: 4,
            max_queue: 10_000,
            tenants: vec![TenantKnobs {
                ttft_slo_us: 1_000_000,
                tbt_slo_us: 50_000,
                output_len: LengthDist::geometric(100),
                prefill_num: 1,
                prefill_den: 1,
                kv_bytes_per_req: 1_000_000,
            }],
        }
    }

    fn lut() -> StepCostTable {
        StepCostTable::build(
            &litegpu_specs::catalog::h100(),
            &litegpu_workload::models::llama3_70b(),
            2,
            &litegpu_roofline::EngineParams::paper_defaults(),
        )
        .unwrap()
    }

    fn no_failures() -> FailureRates {
        FailureRates {
            mean_interval_us: 0.0,
            swap_us: 1,
            repair_us: 1,
        }
    }

    /// A tenant-0 cohort ready at time 0, as a launch builds it.
    fn cohort(count: u32, out_len: u64, bytes: u64, ttft_runs: u32) -> KvTransfer {
        KvTransfer {
            complete_us: 0,
            ready_us: 0,
            tenant: 0,
            count,
            out_len,
            oldest_arrival_tick: 0,
            bytes,
            span: 0,
            ttft_runs,
        }
    }

    /// Draws Poisson arrivals from the instance's own RNG and pushes
    /// them, the way pre-router tests drove instances directly.
    fn poisson_arrivals(
        inst: &mut InstanceState,
        tick: u32,
        lambda: f64,
        knobs: &ServeKnobs,
        acc: &mut Totals,
    ) {
        let n = poisson(&mut inst.rng, lambda);
        if n == 0 {
            return;
        }
        acc.arrived += n;
        acc.per_tenant[0].arrived += n;
        inst.push_arrivals(tick, n, 0, knobs, acc);
    }

    #[test]
    fn requests_flow_to_completion() {
        let lut = lut();
        let knobs = knobs();
        let mut acc = Totals::new(1, 1);
        let mut inst = InstanceState::new(1, 0, &no_failures(), 1, None);
        for tick in 0..120u32 {
            poisson_arrivals(&mut inst, tick, 2.0, &knobs, &mut acc);
            inst.serve(tick, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        }
        assert!(acc.arrived > 150, "arrived = {}", acc.arrived);
        assert!(acc.completed > 0, "completed = {}", acc.completed);
        assert!(acc.generated_tokens > acc.completed);
        assert_eq!(acc.rejected, 0);
        assert!(acc.ttft.total() > 0 && acc.tbt.total() > 0);
        // The single tenant owns everything the fleet served.
        let t = &acc.per_tenant[0];
        assert_eq!(t.completed, acc.completed);
        assert_eq!(t.generated_tokens, acc.generated_tokens);
        assert!(t.ttft_recorded >= t.completed);
        assert_eq!(t.ttft.total(), acc.ttft.total());
    }

    #[test]
    fn queue_cap_sheds_load() {
        let lut = lut();
        let mut knobs = knobs();
        knobs.max_queue = 5;
        let mut acc = Totals::new(1, 1);
        let mut inst = InstanceState::new(2, 0, &no_failures(), 1, None);
        // Down instance: arrivals accumulate, nothing serves.
        inst.up = false;
        inst.down_until_us = u64::MAX;
        for tick in 0..50u32 {
            poisson_arrivals(&mut inst, tick, 5.0, &knobs, &mut acc);
            inst.serve(tick, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        }
        assert!(acc.rejected > 0);
        assert_eq!(acc.per_tenant[0].rejected, acc.rejected);
        assert!(inst.queued <= 5);
    }

    #[test]
    fn tenants_keep_separate_books() {
        // Two tenants with different SLOs and output means sharing one
        // instance: arrivals, tokens and SLO accounting stay separated,
        // and fleet totals equal the tenant sums.
        let lut = lut();
        let knobs = ServeKnobs {
            tick_us: 1_000_000,
            max_prefill_batch: 4,
            max_queue: 10_000,
            tenants: vec![
                TenantKnobs {
                    ttft_slo_us: 1_000_000,
                    tbt_slo_us: 50_000,
                    output_len: LengthDist::geometric(50),
                    prefill_num: 1,
                    prefill_den: 1,
                    kv_bytes_per_req: 1_000_000,
                },
                TenantKnobs {
                    ttft_slo_us: 30_000_000,
                    tbt_slo_us: 200_000,
                    output_len: LengthDist::geometric(400),
                    prefill_num: 2,
                    prefill_den: 1,
                    kv_bytes_per_req: 2_000_000,
                },
            ],
        };
        let mut acc = Totals::new(2, 1);
        let mut inst = InstanceState::new(3, 0, &no_failures(), 2, None);
        for tick in 0..200u32 {
            for tenant in 0..2u16 {
                acc.arrived += 1;
                acc.per_tenant[tenant as usize].arrived += 1;
                inst.push_arrivals(tick, 1, tenant, &knobs, &mut acc);
            }
            inst.serve(tick, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        }
        let (a, b) = (&acc.per_tenant[0], &acc.per_tenant[1]);
        assert!(a.completed > 0 && b.completed > 0);
        assert_eq!(a.completed + b.completed, acc.completed);
        assert_eq!(
            a.generated_tokens + b.generated_tokens,
            acc.generated_tokens
        );
        // Tenant 1's outputs are ~8x longer on the same completion rate.
        assert!(b.generated_tokens > 2 * a.generated_tokens);
        // SLO books are per tenant.
        assert!(a.ttft_recorded > 0 && b.ttft_recorded > 0);
        assert!(a.ttft_slo_ok <= a.ttft_recorded);
        assert!(b.tbt_slo_ok_tokens <= b.generated_tokens);
    }

    #[test]
    fn prefill_batches_across_adjacent_same_tenant_runs() {
        // Two 1-request runs of the same tenant (e.g. arrivals from two
        // ticks) must share one prefill launch: with a budget of exactly
        // prefill_us(2), both prefill this tick. Unmerged launches would
        // cost 2·prefill_us(1) > prefill_us(2) (per-launch overhead) and
        // strand the second request.
        let lut = lut();
        let mut knobs = knobs();
        assert!(
            2 * lut.prefill_us(1) > lut.prefill_us(2),
            "precondition: launches carry overhead"
        );
        knobs.tenants[0].output_len = LengthDist::geometric(5000);
        knobs.tick_us = lut.prefill_us(2);
        let mut acc = Totals::new(1, 1);
        let mut inst = InstanceState::new(8, 0, &no_failures(), 1, None);
        inst.push_arrivals(0, 1, 0, &knobs, &mut acc);
        inst.push_arrivals(0, 1, 0, &knobs, &mut acc);
        inst.serve(0, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        assert_eq!(inst.active(), 2, "both runs must prefill in one launch");
        assert_eq!(acc.per_tenant[0].ttft_recorded, 2);

        // A different-tenant run in between is a batching boundary: the
        // same budget only covers the first tenant's launch.
        let knobs2 = ServeKnobs {
            tenants: vec![knobs.tenants[0]; 2],
            ..knobs.clone()
        };
        let mut acc = Totals::new(2, 1);
        let mut inst = InstanceState::new(8, 0, &no_failures(), 2, None);
        inst.push_arrivals(0, 1, 0, &knobs2, &mut acc);
        inst.push_arrivals(0, 1, 1, &knobs2, &mut acc);
        inst.serve(0, &lut, &knobs2, Phase::Mixed, 0, None, None, &mut acc);
        assert_eq!(inst.active(), 1, "tenant boundary splits the launch");
        assert_eq!(inst.queued(), 1);
    }

    #[test]
    fn prefill_cost_scales_with_tenant_prompt_length() {
        let tk = TenantKnobs {
            ttft_slo_us: 1,
            tbt_slo_us: 1,
            output_len: LengthDist::geometric(10),
            prefill_num: 3,
            prefill_den: 2,
            kv_bytes_per_req: 1_000_000,
        };
        assert_eq!(tk.prefill_cost_us(1000), 1500);
        let same = TenantKnobs {
            prefill_num: 7,
            prefill_den: 7,
            ..tk
        };
        assert_eq!(same.prefill_cost_us(1000), 1000);
        // Floors at 1 µs.
        let tiny = TenantKnobs {
            prefill_num: 1,
            prefill_den: 1000,
            ..tk
        };
        assert_eq!(tiny.prefill_cost_us(10), 1);
    }

    #[test]
    fn spare_pool_accounting_hits_then_misses_then_reclaims() {
        let mut cell = CellState::new(1, 1, None);
        // First failure takes the only spare; the dead unit joins the
        // crew queue as pool replenishment.
        assert!(cell.try_take_spare());
        cell.enqueue_repair(1_000, 0, true);
        assert_eq!(cell.spares_free, 0);
        // Second failure while the unit repairs: miss.
        assert!(!cell.try_take_spare());
        // A crew picks the job up at the next dispatch.
        let jobs = cell.dispatch_repairs(2_000, 500_000);
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].replenish);
        assert_eq!(jobs[0].done_us, 501_000);
        // Before the repair completes nothing returns.
        cell.reclaim_repaired(400_000);
        assert_eq!(cell.spares_free, 0);
        // After repair the unit is a spare again.
        cell.reclaim_repaired(501_000);
        assert_eq!(cell.spares_free, 1);
        assert!(cell.try_take_spare());
    }

    #[test]
    fn finite_crews_serialize_repairs_fifo_by_ready_time() {
        // One crew, two jobs: the later-ready job (even if enqueued
        // first) waits for the crew to finish the earlier-ready one.
        let mut cell = CellState::new(0, 1, None);
        cell.enqueue_repair(5_000, 1, false);
        cell.enqueue_repair(1_000, 0, false);
        let jobs = cell.dispatch_repairs(10_000, 100_000);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].local_idx, 0);
        assert_eq!(jobs[0].done_us, 101_000);
        assert_eq!(jobs[0].wait_us, 0);
        // Job 1 was ready at 5 000 but the crew frees at 101 000.
        assert_eq!(jobs[1].local_idx, 1);
        assert_eq!(jobs[1].wait_us, 96_000);
        assert_eq!(jobs[1].done_us, 201_000);
        // Jobs not yet ready stay queued.
        cell.enqueue_repair(999_000, 2, false);
        assert!(cell.dispatch_repairs(500_000, 100_000).is_empty());
        // With two crews the same two jobs run in parallel.
        let mut wide = CellState::new(0, 2, None);
        wide.enqueue_repair(5_000, 1, false);
        wide.enqueue_repair(1_000, 0, false);
        let jobs = wide.dispatch_repairs(10_000, 100_000);
        assert_eq!(jobs[0].done_us, 101_000);
        assert_eq!(jobs[1].done_us, 105_000);
        assert_eq!(jobs[1].wait_us, 0);
    }

    #[test]
    fn failure_uses_spare_and_requeues_running_work() {
        let lut = lut();
        let knobs = knobs();
        let rates = FailureRates {
            mean_interval_us: 1.0, // Fail essentially immediately.
            swap_us: 1_500_000,    // 1.5 ticks.
            repair_us: 3_600_000_000,
        };
        let mut acc = Totals::new(1, 1);
        let mut cell = CellState::new(1, 1, None);
        let mut inst = InstanceState::new(3, 0, &rates, 1, None);
        // Long outputs so the cohorts are still decoding when the
        // failure fires.
        let mut knobs = knobs;
        knobs.tenants[0].output_len = LengthDist::geometric(5000);
        // Get some work running before any failure fires.
        inst.next_failure_us = u64::MAX;
        acc.arrived += 8;
        acc.per_tenant[0].arrived += 8;
        inst.push_arrivals(0, 8, 0, &knobs, &mut acc);
        inst.serve(0, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        assert!(inst.active > 0);
        let active_before = inst.active as u64;
        // Force the failure into tick 1.
        inst.next_failure_us = 1_200_000;
        inst.lifecycle(0, 1_000_000, 1_000_000, &rates, &mut cell, &mut acc);
        assert_eq!(acc.failures, 1);
        assert_eq!(acc.by_kind[0], 1, "an independent (AFR) failure");
        assert_eq!(acc.spare_hits, 1);
        assert_eq!(acc.spare_misses, 0);
        assert_eq!(cell.spares_free, 0);
        assert!(!inst.up);
        assert_eq!(inst.active, 0);
        assert_eq!(inst.active_by_tenant[0], 0);
        assert_eq!(acc.retried, active_before);
        assert_eq!(inst.queued, active_before);
        // Swap delay: down for 1.5 ticks, up again at tick 3.
        inst.lifecycle(0, 2_000_000, 1_000_000, &rates, &mut cell, &mut acc);
        assert!(!inst.up);
        inst.lifecycle(0, 3_000_000, 1_000_000, &rates, &mut cell, &mut acc);
        assert!(inst.up);
        assert_eq!(acc.downtime_us, 1_500_000);
        assert_eq!(acc.restores, 1);
        assert_eq!(acc.restore_us, 1_500_000);
    }

    #[test]
    fn without_spares_a_crew_repair_dominates_downtime() {
        let rates = FailureRates {
            mean_interval_us: 1.0,
            swap_us: 1_000_000,
            repair_us: 10_000_000,
        };
        let mut acc = Totals::new(1, 1);
        let mut cell = CellState::new(0, 1, None);
        let mut inst = InstanceState::new(4, 0, &rates, 1, None);
        inst.next_failure_us = 500_000;
        inst.lifecycle(0, 0, 1_000_000, &rates, &mut cell, &mut acc);
        assert_eq!(acc.spare_misses, 1);
        assert!(!inst.up);
        // No recovery time exists until a crew picks the job up.
        assert_eq!(inst.pending_downtime_us(10_000_000), 9_500_000);
        let jobs = cell.dispatch_repairs(1_000_000, rates.repair_us);
        assert_eq!(jobs.len(), 1);
        assert!(!jobs[0].replenish);
        assert_eq!(jobs[0].done_us, 10_500_000, "repair ran from fail time");
        inst.schedule_recovery(jobs[0].done_us);
        // Still down until the crew finishes at 10.5 s.
        inst.lifecycle(0, 10_000_000, 1_000_000, &rates, &mut cell, &mut acc);
        assert!(!inst.up);
        inst.lifecycle(0, 11_000_000, 1_000_000, &rates, &mut cell, &mut acc);
        assert!(inst.up);
        assert_eq!(acc.downtime_us, 10_000_000);
    }

    #[test]
    fn kv_link_prices_queues_and_backpressures() {
        // 1 MB/s link: a 1 MB transfer takes exactly 1 s of link time.
        let mut link = KvLinkState::new(1_000_000, 1_500_000, None);
        let mut acc = Totals::new(1, 1);
        let tk = knobs().tenants[0];
        link.ttfts.push_back((200_000, 1));
        link.enqueue(cohort(1, 100, 1_000_000, 1), &mut acc);
        assert_eq!(acc.kv_transfers, 1);
        assert_eq!(acc.kv_bytes_queued, 1_000_000);
        assert_eq!(acc.kv_link_busy_us, 1_000_000);
        // TTFT is deferred to delivery (so decode-pool head-of-line
        // waits land in it too).
        assert_eq!(acc.per_tenant[0].ttft_recorded, 0);
        // Second transfer queues behind the first: delay 2 s.
        link.enqueue(cohort(1, 100, 1_000_000, 0), &mut acc);
        assert_eq!(link.backlog_us(0), 2_000_000);
        assert!(link.backlogged(0), "2 s backlog > 1.5 s threshold");
        assert!(!link.backlogged(1_000_000));
        // Nothing lands before its completion time; FIFO after.
        assert!(link.peek_landed(999_999).is_none());
        assert!(link.peek_landed(1_000_000).is_some());
        assert_eq!(link.inflight_bytes(), 2_000_000);
        let first = link.pop().unwrap();
        assert_eq!(first.complete_us, 1_000_000);
        assert_eq!(link.inflight_bytes(), 1_000_000);
        // Delivery one tick after landing: TTFT = queue+prefill wait
        // (0.2 s) + hand-off delay (2 s incl. the decode-room wait).
        link.record_delivery(&first, 2_000_000, &tk, &mut acc);
        assert_eq!(acc.kv_bytes_delivered, 1_000_000);
        assert_eq!(acc.per_tenant[0].ttft_recorded, 1);
        assert_eq!(acc.per_tenant[0].ttft_slo_ok, 0, "2.2 s misses the 1 s SLO");
    }

    #[test]
    fn prefill_phase_hands_off_instead_of_decoding() {
        let lut = lut();
        let knobs = knobs();
        let mut acc = Totals::new(1, 1);
        let mut link = KvLinkState::new(1_000_000_000_000, 1_000_000, None);
        let mut inst = InstanceState::new(5, 0, &no_failures(), 1, None);
        acc.arrived += 4;
        acc.per_tenant[0].arrived += 4;
        inst.push_arrivals(0, 4, 0, &knobs, &mut acc);
        let (spent, nominal_spent) = inst.serve(
            0,
            &lut,
            &knobs,
            Phase::Prefill,
            0,
            Some(&mut link),
            None,
            &mut acc,
        );
        assert!(spent > 0);
        // A nominal-only table prices both worlds identically.
        assert_eq!(spent, nominal_spent);
        // The cohort left for the link: nothing decodes locally...
        assert_eq!(inst.active(), 0);
        assert_eq!(acc.kv_transfers, 1);
        assert_eq!(acc.kv_bytes_queued, 4_000_000, "4 requests × 1 MB");
        // ...TTFT is deferred to delivery (transfer + decode-room
        // waits must land in it)...
        assert_eq!(acc.per_tenant[0].ttft_recorded, 0);
        assert_eq!(link.ttfts.len(), 1, "one non-retry run");
        assert_eq!(link.pop().unwrap().ttft_runs, 1);
        // ...and no tokens were generated by the prefill instance.
        assert_eq!(acc.generated_tokens, 0);
    }

    #[test]
    fn decode_phase_admits_cohorts_and_never_prefills() {
        let lut = lut();
        let knobs = knobs();
        let mut acc = Totals::new(1, 1);
        let mut inst = InstanceState::new(6, 0, &no_failures(), 1, None);
        // Queued prompts on a decode instance must not prefill.
        inst.push_arrivals(0, 2, 0, &knobs, &mut acc);
        inst.serve(0, &lut, &knobs, Phase::Decode, 0, None, None, &mut acc);
        assert_eq!(inst.active(), 0);
        assert_eq!(inst.queued(), 2);
        // Delivered cohorts decode to completion.
        inst.admit_decode_cohort(&cohort(3, 10, 3_000_000, 0));
        assert_eq!(inst.active(), 3);
        inst.serve(1, &lut, &knobs, Phase::Decode, 0, None, None, &mut acc);
        assert_eq!(acc.completed, 3);
        assert_eq!(acc.generated_tokens, 30);
        assert_eq!(acc.per_tenant[0].completed, 3);
    }

    #[test]
    fn requeued_runs_move_between_instances_without_recounting() {
        let lut = lut();
        let knobs = knobs();
        let mut acc = Totals::new(1, 1);
        let mut decode = InstanceState::new(7, 0, &no_failures(), 1, None);
        let mut prefill = InstanceState::new(7, 1, &no_failures(), 1, None);
        // Failure-requeued runs sit on the decode instance's queue.
        acc.arrived += 5;
        acc.per_tenant[0].arrived += 5;
        decode.push_arrivals(3, 5, 0, &knobs, &mut acc);
        let routed_before = acc.routed;
        let runs = decode.take_queued_runs();
        assert_eq!(decode.queued(), 0);
        prefill.accept_requeued_runs(runs);
        assert_eq!(prefill.queued(), 5);
        // The move is pure plumbing: no routing counters change.
        assert_eq!(acc.routed, routed_before);
        // And the work still serves (e2e clock kept the arrival tick).
        prefill.serve(4, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        assert!(prefill.active() > 0);
    }

    #[test]
    fn monolithic_prefill_stretches_first_decode_gap() {
        // A Mixed instance that prefills and decodes in one tick records
        // one stretched token gap (prefill interference), so exactly that
        // step's tokens miss a TBT SLO of one unstretched step; a Decode
        // instance running the same batch stretches nothing.
        let lut = lut();
        let mut knobs = knobs();
        knobs.tick_us = 2_000_000;
        knobs.tenants[0].output_len = LengthDist::geometric(5000);
        let d = lut.decode_step_us(12);
        knobs.tenants[0].tbt_slo_us = d;
        let serve = |phase, running| {
            let mut acc = Totals::new(1, 1);
            let mut inst = InstanceState::new(8, 0, &no_failures(), 1, None);
            inst.admit_decode_cohort(&cohort(running, 1_000, 0, 0));
            inst.push_arrivals(0, 4, 0, &knobs, &mut acc);
            inst.serve(0, &lut, &knobs, phase, 0, None, None, &mut acc);
            acc
        };
        // 8 running sequences plus the 4 prefilled this tick.
        let mixed = serve(Phase::Mixed, 8);
        assert!(mixed.decode_steps > 1);
        assert_eq!(mixed.tbt.total(), mixed.decode_steps);
        assert!(mixed.tbt.percentile_us(100.0) >= lut.prefill_us(4) + d - d / 8);
        let t = &mixed.per_tenant[0];
        assert_eq!(t.tbt_slo_ok_tokens, t.generated_tokens - 12);
        // The same 12 sequences delivered to a Decode instance.
        let decode = serve(Phase::Decode, 12);
        assert!(decode.decode_steps > 1);
        assert_eq!(decode.tbt.total(), decode.decode_steps);
        let t = &decode.per_tenant[0];
        assert_eq!(t.tbt_slo_ok_tokens, t.generated_tokens);
    }

    #[test]
    fn outage_failures_wait_for_the_window_end() {
        // Two instances go down in an outage from 1 000 µs to 5 000 µs,
        // with one spare and one crew: the swap and both repairs wait for
        // the window to close.
        let rates = FailureRates {
            mean_interval_us: 0.0,
            swap_us: 100,
            repair_us: 1_000,
        };
        let mut acc = Totals::new(1, 1);
        let mut cell = CellState::new(1, 1, None);
        let mut insts: Vec<_> = (0..2)
            .map(|g| InstanceState::new(9, g, &rates, 1, None))
            .collect();
        for (li, inst) in insts.iter_mut().enumerate() {
            inst.fail(li as u32, 1_000, 5_000, &rates, &mut cell, &mut acc);
            assert!(!inst.up);
        }
        assert_eq!((acc.failures, acc.spare_hits, acc.spare_misses), (2, 1, 1));
        assert_eq!(
            insts[0].down_until_at_us(),
            5_100,
            "swapped after the window"
        );
        assert_eq!(insts[1].down_until_at_us(), u64::MAX, "waits for a crew");
        assert_eq!(
            insts[1].pending_downtime_us(10_000),
            9_000,
            "down from 1 000"
        );
        assert!(cell.dispatch_repairs(4_999, rates.repair_us).is_empty());
        let jobs = cell.dispatch_repairs(5_000, rates.repair_us);
        let jobs: Vec<_> = jobs
            .iter()
            .map(|j| (j.local_idx, j.done_us, j.replenish))
            .collect();
        assert_eq!(jobs, [(0, 6_000, true), (1, 7_000, false)]);
        cell.reclaim_repaired(6_000);
        assert_eq!(cell.spares_free, 1);
    }

    #[test]
    fn totals_merge_is_addition() {
        let mut a = Totals::new(2, 1);
        let mut b = Totals::new(2, 1);
        a.arrived = 5;
        a.ttft.record(1000, 5);
        a.per_tenant[0].arrived = 3;
        a.per_tenant[1].ttft.record(500, 2);
        b.arrived = 7;
        b.ttft.record(2000, 7);
        b.per_tenant[0].arrived = 4;
        b.per_tenant[1].ttft.record(900, 1);
        let mut ab = Totals::new(2, 1);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Totals::new(2, 1);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.arrived, 12);
        assert_eq!(ab.ttft.total(), 12);
        assert_eq!(ab.per_tenant[0].arrived, 7);
        assert_eq!(ab.per_tenant[1].ttft.total(), 3);
    }

    #[test]
    fn cleared_totals_equal_fresh_ones() {
        let mut t = Totals::new(2, 3);
        t.arrived = 5;
        t.by_kind[2] = 1;
        t.clock_ticks[1] = 9;
        t.spill_flow.insert((0, 1), 4);
        t.e2e.record(1000, 5);
        t.kv_delay.record(7, 1);
        t.per_tenant[1].completed = 2;
        t.per_tenant[1].ttft.record(500, 2);
        t.clear();
        assert_eq!(t, Totals::new(2, 3));
        // The histograms start over: a merge sees only new samples.
        t.e2e.record(2000, 1);
        let mut fresh = Totals::new(2, 3);
        fresh.merge(&t);
        assert_eq!(fresh.e2e.total(), 1);
        assert_eq!(fresh.e2e.percentile_us(0.0), t.e2e.percentile_us(0.0));
    }

    #[test]
    fn rebuilt_instances_and_cells_start_like_new_ones() {
        let lut = lut();
        let knobs = knobs();
        let mut acc = Totals::new(1, 1);
        let mut used = InstanceState::new(5, 3, &no_failures(), 1, None);
        used.push_arrivals(0, 6, 0, &knobs, &mut acc);
        used.serve(0, &lut, &knobs, Phase::Mixed, 0, None, None, &mut acc);
        assert!(!used.is_idle());
        let rebuilt = InstanceState::new(9, 4, &no_failures(), 1, Some(&mut used));
        let fresh = InstanceState::new(9, 4, &no_failures(), 1, None);
        assert_eq!(format!("{rebuilt:?}"), format!("{fresh:?}"));
        let mut cell = CellState::new(1, 2, None);
        cell.enqueue_repair(0, 0, false);
        assert!(cell.try_take_spare());
        let rebuilt = CellState::new(1, 2, Some(&mut cell));
        assert_eq!(
            format!("{rebuilt:?}"),
            format!("{:?}", CellState::new(1, 2, None))
        );
    }
}
