//! One cell of the fleet: [`CellSim`], the cell's complete simulation
//! state, stepped through the horizon in resumable windows by a per-cell
//! event-queue scheduler. Each processed tick runs seven phase methods
//! in order — chaos, lifecycle, control, kv, route, serve, sample — and
//! the cell then jumps to the next tick with work. Also here: the cell's
//! slice of the chaos schedule, its control-plane runtime, the phase
//! profiler's timer and the series counters a cell records.

use crate::arrivals::{ArrivalTable, CellTraffic};
use crate::config::{DomainEventKind, FleetConfig};
use crate::engine::Shared;
use crate::state::{CellState, InstanceState, KvLinkState, TenantTotals, Totals, TraceSink};
use crate::window::{CellPlan, CellSnapshot};
use litegpu_ctrl::{
    apportion_into, CellObs, Command, ControllerStack, CtrlConfig, FleetCellObs, InstanceObs, Mode,
    Phase, PhaseObs, PriorityClass,
};
use litegpu_telemetry::profile::{
    PHASE_CHAOS, PHASE_CONTROL, PHASE_KV, PHASE_LIFECYCLE, PHASE_ROUTE, PHASE_SAMPLE, PHASE_SERVE,
};
use litegpu_telemetry::{
    MetricId, MetricKind, PhaseProfile, SeriesRecorder, SpanSampler, TraceEvent,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One cell's slice of the compiled chaos schedule. Computed from the
/// global [`ChaosSpec`](crate::ChaosSpec) before sharding, so domain membership never
/// depends on the shard/thread layout; instance indices are cell-local.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellChaos {
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

/// Splits the global chaos schedule into per-cell slices, each with its
/// outage firing order and window edges on the `tick_us` grid.
pub(crate) fn compile_cell_chaos(
    cfg: &FleetConfig,
    clock_points: &[f64],
    tick_us: u64,
) -> Vec<CellChaos> {
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
/// point when the clamp undercuts the whole grid. The grid is strictly
/// ascending (`StepCostTable::build_with_clocks` rejects any other).
fn clamp_clock_idx(clock_points: &[f64], clamp: f64) -> u8 {
    (clock_points.iter())
        .rposition(|&c| c <= clamp + 1e-9)
        .unwrap_or(0) as u8
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

/// One instance slot's state beside its [`InstanceState`]: the serving
/// role and the administrative state the control plane manages (a cell
/// without a control plane keeps the defaults: live, weight 1, nominal
/// clock), the campaign's windowed state at the current tick, and the
/// tick up to which its idle time is billed.
#[derive(Debug, Clone, Copy)]
struct Slot {
    phase: Phase,
    mode: SlotMode,
    /// Routing weight.
    weight: u64,
    /// DVFS operating point (index into the table's clock grid).
    clock: u8,
    /// Drained, thermal clock clamp (grid index, `u8::MAX` when
    /// unclamped) and inside an outage window.
    drained: bool,
    clamp: u8,
    chaos_outed: bool,
    accrued: u32,
}

impl Slot {
    /// The operating point the slot serves at: its DVFS clock capped by
    /// any thermal clamp. The grid is priced whenever any thermal event
    /// exists.
    fn clock_idx(&self) -> usize {
        self.clock.min(self.clamp) as usize
    }
}

/// Wall-clock phase timer; each `mark` attributes the time since the
/// previous mark (or `reset`) to a phase. A disabled timer never reads
/// the clock, so profiling-off runs pay nothing.
pub(crate) struct ProfTimer {
    pub(crate) p: Option<PhaseProfile>,
    last: Instant,
}

impl ProfTimer {
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            p: enabled.then(PhaseProfile::new),
            last: Instant::now(),
        }
    }

    /// Restarts the interval without attributing the elapsed time.
    pub(crate) fn reset(&mut self) {
        if self.p.is_some() {
            self.last = Instant::now();
        }
    }

    pub(crate) fn mark(&mut self, phase: usize) {
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
fn next_boot_tick(slots: &[Slot], tick_us: u64, ticks: u32) -> u32 {
    slots
        .iter()
        .filter_map(|s| match s.mode {
            SlotMode::Booting { until_us } => Some(until_us),
            _ => None,
        })
        .min()
        .map_or(u32::MAX, |us| tick_or_never(us, tick_us, ticks))
}

/// A heap buffer a cell takes over from its worker's finished cell.
trait Buffer: Default {
    /// Drops the contents, keeping the capacity.
    fn empty(&mut self);
}

impl<T> Buffer for Vec<T> {
    fn empty(&mut self) {
        self.clear();
    }
}

impl<T: Ord> Buffer for BinaryHeap<T> {
    fn empty(&mut self) {
        self.clear();
    }
}

/// The buffer `field` picks out of the worker's finished cell, emptied
/// with its capacity kept; a new, empty one before the worker's first
/// cell.
fn reused<'a, B: Buffer>(
    spare: &mut Option<CellSim<'a>>,
    field: for<'s> fn(&'s mut CellSim<'a>) -> &'s mut B,
) -> B {
    let mut b = spare
        .as_mut()
        .map_or_else(B::default, |s| std::mem::take(field(s)));
    b.empty();
    b
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
/// method on that state. [`run_windows`](crate::window::run_windows)
/// builds a cell on first touch, runs it window by window
/// ([`CellSim::run_until`]), applies the fleet plan between windows
/// ([`CellSim::publish`] / [`CellSim::apply_plan`]), and at the horizon
/// merges it into its worker ([`CellSim::finalize`]). The finished cell
/// then lends its heap buffers to the worker's next cell, which
/// [`CellSim::new`] builds in its place, so a worker allocates them once
/// however many cells it runs.
pub(crate) struct CellSim<'a> {
    pub(crate) shared: &'a Shared<'a>,
    pub(crate) cell_idx: u32,
    /// Everything this cell has accumulated so far.
    acc: Totals,
    cell: CellState,
    insts: Vec<InstanceState>,
    /// One [`Slot`] per instance, indexed like `insts`.
    slots: Vec<Slot>,
    /// Arrivals since the last control tick, in total and per priority
    /// class (read only by [`Self::control_tick`]), and the best-effort
    /// admission the last control tick set.
    arrived_since: u64,
    arrived_by_class: [u64; 3],
    allow_best_effort: bool,
    kv: Option<KvLinkState>,
    traffic: CellTraffic,
    /// The policy stack (`None` without a control plane), the
    /// observation each control tick refreshes and the command buffer it
    /// refills and drains.
    ctl: Option<ControllerStack>,
    obs: CellObs,
    cmds: Vec<Command>,
    chaos: Option<&'a CellChaos>,
    /// The thermal clamps [`Self::windows`] recomputes, before they
    /// commit to the slots.
    clamp_scratch: Vec<u8>,
    /// The cell is inside a partition window (windowed state, like the
    /// slots' drain, clamp and outage flags).
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
    busy: BusySet,
    lifecycle_now: Vec<u32>,
    /// The cell's arrival schedule `(tick, tenant, count)`, sorted by
    /// tick and consumed through a cursor: its own batches drawn up to
    /// [`CellTraffic::drawn`], and the cohorts other cells spilled here
    /// ([`Self::apply_plan`]).
    arrivals: Vec<(u32, u16, u64)>,
    arr_ptr: usize,
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
    /// Builds cell `cell_idx` at tick 0 and draws its arrivals up to `hi`
    /// from `table`. `spare`, the worker's finished cell, lends every
    /// heap buffer it holds, emptied. Nothing else carries over, and the
    /// RNG streams are seeded from global indices, so reuse cannot move a
    /// draw.
    pub(crate) fn new(
        shared: &'a Shared<'a>,
        cell_idx: u32,
        table: &ArrivalTable,
        hi: u32,
        series: Option<&mut SeriesRecorder>,
        prof: &mut ProfTimer,
        mut spare: Option<Self>,
    ) -> Self {
        let (cfg, seed) = (shared.cfg, shared.seed);
        let n_tenants = cfg.workload.tenants.len();
        let tick_us = shared.knobs.tick_us;
        let tel = &cfg.telemetry;
        let first = cell_idx * cfg.cell_size;
        let last = (first + cfg.cell_size).min(cfg.instances);
        let mut insts = (spare.as_mut()).map_or_else(Vec::new, |s| std::mem::take(&mut s.insts));
        insts.truncate((last - first) as usize);
        for (inst, g) in insts.iter_mut().zip(first..) {
            *inst = InstanceState::new(seed, g as u64, &shared.rates, n_tenants, Some(&mut *inst));
        }
        let built = first + insts.len() as u32;
        insts.extend(
            (built..last)
                .map(|g| InstanceState::new(seed, g as u64, &shared.rates, n_tenants, None)),
        );
        let n = insts.len();
        // Phase roles: monolithic cells are all-Mixed; split cells start
        // at the configured fraction (prefill pool on the low-indexed
        // stable primaries) and the phase-aware autoscaler rebalances.
        let np = shared.split.map(|s| s.prefill_slots(n));
        let mut slots = reused(&mut spare, |s| &mut s.slots);
        slots.extend((0..n).map(|i| Slot {
            phase: match np {
                None => Phase::Mixed,
                Some(np) if i < np => Phase::Prefill,
                Some(_) => Phase::Decode,
            },
            mode: SlotMode::Live,
            weight: 1,
            clock: shared.nominal_ci,
            drained: false,
            clamp: u8::MAX,
            chaos_outed: false,
            accrued: 0,
        }));
        // A finished cell's stack ran the same policies: reset, it is a
        // fresh build that keeps its scratch buffers.
        let ctl = match spare.as_mut().and_then(|s| s.ctl.take()) {
            Some(mut stack) => {
                stack.reset();
                Some(stack)
            }
            None => cfg.ctrl.as_ref().map(CtrlConfig::build),
        };
        let chaos = shared.chaos.get(cell_idx as usize);
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
        // The first window of arrivals. Later windows come from
        // `Self::draw`.
        let mut traffic =
            CellTraffic::new(seed, cell_idx, cfg, spare.as_mut().map(|s| &mut s.traffic));
        let mut arrivals = reused(&mut spare, |s| &mut s.arrivals);
        prof.reset();
        traffic.draw(shared, table, hi, &mut arrivals);
        prof.mark(PHASE_ROUTE);
        let acc = match spare.as_mut() {
            Some(s) => {
                let mut acc = std::mem::take(&mut s.acc);
                acc.clear();
                acc
            }
            None => Totals::new(n_tenants, shared.lut.num_clocks()),
        };
        let mut snap = reused(&mut spare, |s| &mut s.snap);
        snap.extend(counter_values(&acc));
        let mut clock_points = reused(&mut spare, |s| &mut s.obs.clock_points);
        clock_points.extend_from_slice(&shared.clock_points);
        let mut clamp_scratch = reused(&mut spare, |s| &mut s.clamp_scratch);
        clamp_scratch.resize(n, u8::MAX);
        let mut tenant_scratch = reused(&mut spare, |s| &mut s.tenant_scratch);
        tenant_scratch.resize(n_tenants, 0);
        let mut member = reused(&mut spare, |s| &mut s.busy.member);
        member.resize(n, false);
        let mut sim = Self {
            shared,
            cell_idx,
            snap,
            acc,
            cell: CellState::new(
                cfg.spares_per_cell,
                cfg.repair_crews_per_cell,
                spare.as_mut().map(|s| &mut s.cell),
            ),
            insts,
            slots,
            arrived_since: 0,
            arrived_by_class: [0; 3],
            allow_best_effort: true,
            kv: shared.split.as_ref().map(|s| {
                let link = spare.as_mut().and_then(|s| s.kv.as_mut());
                KvLinkState::new(s.kv_bytes_per_s, s.kv_max_backlog_us, link)
            }),
            traffic,
            next_ctrl: shared.ctrl_every,
            ctl,
            obs: CellObs {
                clock_points,
                slots: reused(&mut spare, |s| &mut s.obs.slots),
                ..CellObs::default()
            },
            cmds: reused(&mut spare, |s| &mut s.cmds),
            chaos,
            clamp_scratch,
            partitioned: false,
            forced_down: false,
            outage_ptr: 0,
            edge_ptr: 0,
            trace: (tel.trace_every > 0).then(|| {
                let old = spare.as_mut().and_then(|s| s.trace.as_mut());
                let mut buf = old.map_or_else(Vec::new, |ts| std::mem::take(&mut ts.buf));
                buf.clear();
                TraceSink {
                    buf,
                    sampler: SpanSampler::new(tel.trace_every),
                    cell: cell_idx,
                }
            }),
            series_ids,
            tenant_scratch,
            heap: reused(&mut spare, |s| &mut s.heap),
            busy: BusySet {
                member,
                list: reused(&mut spare, |s| &mut s.busy.list),
            },
            lifecycle_now: reused(&mut spare, |s| &mut s.lifecycle_now),
            arrivals,
            arr_ptr: 0,
            eff: reused(&mut spare, |s| &mut s.eff),
            shares: reused(&mut spare, |s| &mut s.shares),
            scratch: reused(&mut spare, |s| &mut s.scratch),
            quota_left: u64::MAX,
            window_arrived: 0,
            next_boot: u32::MAX,
            next_sample: shared.series_every.checked_sub(1).unwrap_or(u32::MAX),
            kv_next: u32::MAX,
            kv_blocked: false,
            kv_cands: reused(&mut spare, |s| &mut s.kv_cands),
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
            // from the first tick at or after each edge: partition
            // starts, and drain and thermal starts and ends.
            let edges = (ch.drains.iter().map(|d| (d.0, d.1)))
                .chain(ch.thermals.iter().map(|t| (t.0, t.1)))
                .flat_map(|(start, end)| [start, end])
                .chain(ch.partitions.iter().map(|p| p.0))
                .map(|us| us.div_ceil(tick_us));
            for t in ch.outage_ticks.iter().map(|o| o.0).chain(edges) {
                sim.wake(t, u32::MAX);
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

    /// Slots out of service by announced chaos: drained or inside an
    /// outage window.
    fn chaos_down(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.drained || s.chaos_outed)
            .count() as u32
    }

    /// Appends `ev` to the cell's trace when tracing is on.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(ts) = self.trace.as_mut() {
            ts.buf.push(ev);
        }
    }

    /// Traces the chaos window `[start, end)` `name` over `n` slots,
    /// the first of them local slot `lead`.
    fn emit_window(&mut self, name: &'static str, start: u64, end: u64, lead: u32, n: u64) {
        let ev = TraceEvent::complete("chaos", name, start, end - start, self.cell_idx, lead, n);
        self.emit(ev);
    }

    /// Lazily bills slot `i`'s idle ticks `[accrued, to)` at its
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
        let slot = &mut self.slots[i];
        let from = slot.accrued;
        if to <= from {
            return;
        }
        slot.accrued = to;
        // A down instance draws nothing (its unit is out for swap or
        // repair), and neither does a gated (cold) one — the §3 win.
        if !self.insts[i].up {
            return;
        }
        let k = (to - from) as u64;
        let e = self.shared.power.idle_mw * self.shared.knobs.tick_us / 1000;
        let acc = &mut self.acc;
        match slot.mode {
            SlotMode::Live => {
                acc.energy_uj += e * k;
                acc.idle_energy_uj += e * k;
                acc.live_ticks += k;
                acc.clock_ticks[slot.clock_idx()] += k;
                match slot.phase {
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
    pub(crate) fn run_until(
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
        let tick = self.tick;
        while let Some(&(t, oi)) = ch.outage_ticks.get(self.outage_ptr) {
            if t > tick as u64 {
                break;
            }
            debug_assert_eq!(t, tick as u64, "every outage start tick is a wakeup");
            self.outage_ptr += 1;
            let (kind, start, end, locals) = &ch.outages[oi];
            let power = *kind == 2; // The power-domain slot of `by_kind`.
            let name = if power { "power_outage" } else { "rack_outage" };
            let lead = locals.first().copied().unwrap_or(0);
            self.emit_window(name, *start, *end, lead, locals.len() as u64);
            for &li in locals {
                let iu = li as usize;
                if !self.insts[iu].up {
                    continue;
                }
                self.accrue(iu, tick);
                self.acc.by_kind[*kind] += 1;
                let rates = &self.shared.rates;
                self.insts[iu].fail(li, *start, *end, rates, &mut self.cell, &mut self.acc);
                self.downed(iu, *end);
            }
        }
    }

    /// Follow-ups of slot `iu` going down at this tick with its repair
    /// job workable from `ready_us`: wakes the slot at its recovery and
    /// the crew dispatch at the first tick whose start reaches `ready_us`
    /// (the next tick at the earliest: this tick's dispatch already ran),
    /// flags the tick for the decode re-route sweep, and drops the slot
    /// from the busy set.
    fn downed(&mut self, iu: usize, ready_us: u64) {
        let tick_us = self.shared.knobs.tick_us;
        let recovery = self.insts[iu].down_until_at_us().div_ceil(tick_us);
        let dispatch = ready_us.div_ceil(tick_us).max(self.tick as u64 + 1);
        self.wake(recovery, iu as u32);
        self.wake(dispatch, u32::MAX);
        self.forced_down = true;
        self.busy.remove(iu);
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
                    self.acc.by_kind[3] += 1; // Partition.
                    self.emit_window("partition", start, end, 0, self.insts.len() as u64);
                }
            }
        }
        for s in &mut self.slots {
            s.drained = false;
            s.chaos_outed = false;
        }
        for &(start, end, ref locals) in &ch.drains {
            let lead = locals.first().copied().unwrap_or(0);
            if active(start, end) {
                if first(start) {
                    self.acc.drains += locals.len() as u64;
                    self.emit_window("drain", start, end, lead, locals.len() as u64);
                }
                for &li in locals {
                    self.slots[li as usize].drained = true;
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
                    self.acc.by_kind[4] += 1; // Thermal.
                    let lead = locals.first().copied().unwrap_or(0);
                    self.emit_window("thermal", start, end, lead, locals.len() as u64);
                }
                for &li in locals {
                    let c = &mut self.clamp_scratch[li as usize];
                    *c = (*c).min(cci);
                }
            }
        }
        let clamps = self.slots.iter().map(|s| s.clamp);
        if !clamps.eq(self.clamp_scratch.iter().copied()) {
            // A clamp change re-prices Live idle ticks (the clock-tick
            // attribution): close every open accrual span at the old
            // operating points before committing the new clamps.
            self.accrue_all(self.tick);
            for (s, &c) in self.slots.iter_mut().zip(&self.clamp_scratch) {
                s.clamp = c;
            }
        }
        for (_, start, end, locals) in &ch.outages {
            if active(*start, *end) {
                for &li in locals {
                    self.slots[li as usize].chaos_outed = true;
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
                // The repair job is workable within this tick.
                self.downed(iu, t_start);
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
        // Decode-side queues only ever appear through the flush in
        // `InstanceState::fail`, so the sweep is due exactly on ticks
        // with a failure (`forced_down`) and while a previous sweep left
        // work unplaced (`decode_retry` then forces every tick until the
        // pool can take it).
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
                if self.slots[i].phase != Phase::Decode || self.insts[i].queued() == 0 {
                    continue;
                }
                let target = (0..self.insts.len())
                    .filter(|&j| {
                        let s = &self.slots[j];
                        s.phase == Phase::Prefill && self.insts[j].up && s.mode == SlotMode::Live
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
            let now_us = tick as u64 * tick_us;
            for s in &mut self.slots {
                if matches!(s.mode, SlotMode::Booting { until_us } if until_us <= now_us) {
                    s.mode = SlotMode::Live;
                }
            }
            self.next_boot = next_boot_tick(&self.slots, tick_us, self.shared.ticks);
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
        let Some(stack) = self.ctl.as_mut() else {
            return;
        };
        // Refresh the cell's one observation in place: its two lists keep
        // their buffers, and the clock grid is the run's.
        let mut slots = core::mem::take(&mut self.obs.slots);
        slots.clear();
        slots.extend(
            (self.slots.iter().zip(&self.insts)).map(|(s, inst)| InstanceObs {
                mode: if !inst.up {
                    Mode::Down
                } else {
                    match s.mode {
                        SlotMode::Live => Mode::Live,
                        SlotMode::Warm => Mode::Warm,
                        SlotMode::Cold => Mode::Cold,
                        SlotMode::Booting { .. } => Mode::Booting,
                    }
                },
                phase: s.phase,
                clock: s.clock,
                queued: inst.queued(),
                active: inst.active(),
            }),
        );
        self.obs = CellObs {
            tick,
            interval_s: shared.ctrl_every as f64 * shared.cfg.tick_s,
            arrived_since_last: core::mem::take(&mut self.arrived_since),
            arrived_by_class: core::mem::take(&mut self.arrived_by_class),
            capacity_rps_per_instance: shared.cap_rps,
            max_queue: shared.knobs.max_queue,
            chaos_down,
            phase_split: shared.split.as_ref().map(|s| PhaseObs {
                prefill_capacity_rps: s.prefill_capacity_rps,
                decode_capacity_rps: s.decode_capacity_rps,
                kv_backlog_us: self.kv.as_ref().map_or(0, |k| k.backlog_us(t_start_us)),
            }),
            clock_points: core::mem::take(&mut self.obs.clock_points),
            slots,
        };
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
        stack.control(&self.obs, &mut self.cmds);
        let (insts, acc, trace) = (&self.insts, &mut self.acc, &mut self.trace);
        // Whether any `SetWeight` changed a weight: the router re-sends
        // every slot's weight, traced as one instant when the snapshot
        // changed.
        let mut reweighted = false;
        for cmd in self.cmds.drain(..) {
            match cmd {
                Command::Activate { slot } => {
                    let s = slot as usize;
                    let boot_us = match self.slots.get(s).map(|s| s.mode) {
                        Some(SlotMode::Warm) => shared.boot_us.0,
                        Some(SlotMode::Cold) => shared.boot_us.1,
                        _ => continue,
                    };
                    self.slots[s].mode = SlotMode::Booting {
                        until_us: t_start_us.saturating_add(boot_us),
                    };
                    acc.scale_ups += 1;
                    trace_cmd(trace, "activate", slot);
                }
                Command::Park { slot } => {
                    let s = slot as usize;
                    if s < insts.len()
                        && self.slots[s].mode == SlotMode::Live
                        && insts[s].up
                        && insts[s].is_idle()
                    {
                        // Parking alone keeps the instance powered at its
                        // idle floor; only a power-gating policy's SetCold
                        // (issued later in this same command batch) may
                        // drop it to zero draw. Without a gater, parked
                        // capacity correctly keeps paying the floor.
                        self.slots[s].mode = SlotMode::Warm;
                        acc.scale_downs += 1;
                        trace_cmd(trace, "park", slot);
                    }
                }
                Command::SetWarm { slot } => {
                    let mode = self.slots.get_mut(slot as usize).map(|s| &mut s.mode);
                    if let Some(m @ SlotMode::Cold) = mode {
                        *m = SlotMode::Warm;
                        trace_cmd(trace, "set_warm", slot);
                    }
                }
                Command::SetCold { slot } => {
                    let mode = self.slots.get_mut(slot as usize).map(|s| &mut s.mode);
                    if let Some(m @ SlotMode::Warm) = mode {
                        *m = SlotMode::Cold;
                        trace_cmd(trace, "set_cold", slot);
                    }
                }
                Command::SetWeight { slot, weight } => {
                    if let Some(s) = self.slots.get_mut(slot as usize) {
                        reweighted |= s.weight != weight;
                        s.weight = weight;
                    }
                }
                Command::SetAdmission { allow_best_effort } => {
                    if trace.is_some() && allow_best_effort != self.allow_best_effort {
                        trace_cmd(trace, "set_admission", u32::MAX);
                    }
                    self.allow_best_effort = allow_best_effort;
                }
                Command::SetPhase { slot, phase } => {
                    // Phase moves apply only to idle slots: migrating a
                    // live KV batch or queued prompts between pools is
                    // not modeled, so busy slots converge as they drain.
                    let s = slot as usize;
                    if s < insts.len()
                        && shared.split.is_some()
                        && self.slots[s].phase != phase
                        && phase != Phase::Mixed
                        && insts[s].is_idle()
                    {
                        self.slots[s].phase = phase;
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
                        && self.slots[s].clock != clock
                    {
                        self.slots[s].clock = clock;
                        acc.clock_retunes += 1;
                        trace_cmd(trace, "set_clock", slot);
                    }
                }
            }
        }
        if reweighted {
            trace_cmd(trace, "set_weights", u32::MAX);
        }
        self.next_ctrl = self.next_ctrl.saturating_add(shared.ctrl_every);
        self.next_boot = next_boot_tick(&self.slots, shared.knobs.tick_us, shared.ticks);
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
            self.kv_cands.clear();
            self.kv_cands.extend(
                (self.insts.iter().zip(&self.slots).enumerate())
                    .filter(|(_, (inst, s))| {
                        s.phase == Phase::Decode
                            && inst.up
                            && s.mode == SlotMode::Live
                            && !s.drained
                    })
                    .map(|(i, (inst, _))| (inst.active(), i as u32)),
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
                link.record_delivery(&job, now_us, tk, &mut self.acc);
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
        let from = self.arr_ptr;
        let due = self.arrivals[from..].iter().take_while(|b| b.0 == tick);
        self.arr_ptr += due.count();
        if self.arr_ptr == from {
            return;
        }
        let uncontrolled = self.ctl.is_none();
        self.eff.clear();
        self.eff
            .extend(self.slots.iter().zip(&self.insts).map(|(s, inst)| {
                let up = inst.up || uncontrolled;
                if s.mode == SlotMode::Live && up && s.phase != Phase::Decode && !s.drained {
                    s.weight
                } else {
                    0
                }
            }));
        let any_target = !self.partitioned && self.eff.iter().any(|&w| w > 0);
        let acc = &mut self.acc;
        for &(_, ti, n) in &self.arrivals[from..self.arr_ptr] {
            let t = ti as usize;
            acc.arrived += n;
            acc.per_tenant[t].arrived += n;
            self.window_arrived += n;
            let class = self.shared.classes[t];
            self.arrived_since += n;
            self.arrived_by_class[class.index()] += n;
            if class == PriorityClass::BestEffort && !self.allow_best_effort {
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
            let slot = self.slots[iu];
            let (mode, ci) = (slot.mode, slot.clock_idx());
            let (spent, nominal_spent) = if mode == SlotMode::Live {
                self.insts[iu].serve(
                    tick,
                    shared.lut,
                    &shared.knobs,
                    slot.phase,
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
        let draining = self.slots.iter().map(|s| u64::from(s.drained)).sum();
        series.add_at(ids.draining, w, draining);
        series.add_at(ids.repair_pending, w, self.cell.pending_len());
        series.add_at(ids.spares_free, w, self.cell.spares_free as u64);
        if let (Some(link), Some((backlog, inflight))) = (self.kv.as_ref(), ids.kv) {
            series.add_at(backlog, w, link.backlog_us(now_us));
            series.add_at(inflight, w, link.inflight_bytes());
        }
        if let Some((pp, pd)) = ids.pools {
            let pool = |p| self.slots.iter().filter(|s| s.phase == p).count() as u64;
            series.add_at(pp, w, pool(Phase::Prefill));
            series.add_at(pd, w, pool(Phase::Decode));
        }
        if let Some(ci_ids) = &ids.ctl {
            let (mut live, mut warm, mut cold, mut booting) = (0u64, 0u64, 0u64, 0u64);
            for s in &self.slots {
                match s.mode {
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
            for (s, inst) in self.slots.iter().zip(&self.insts) {
                if s.mode == SlotMode::Live && inst.up {
                    series.add_at(ci_ids.clock_live[s.clock as usize], w, 1);
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
        [
            self.heap.peek().map_or(u32::MAX, |Reverse((t, _))| *t),
            self.arrivals.get(self.arr_ptr).map_or(u32::MAX, |b| b.0),
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
    /// (booked under the route phase), after dropping the batches that
    /// are already routed.
    pub(crate) fn draw(&mut self, table: &ArrivalTable, hi: u32, prof: &mut ProfTimer) {
        prof.reset();
        self.arrivals.drain(..self.arr_ptr);
        self.arr_ptr = 0;
        self.traffic
            .draw(self.shared, table, hi, &mut self.arrivals);
        prof.mark(PHASE_ROUTE);
    }

    /// Publishes this cell's fleet-scope observation at the window edge
    /// `b`, together with the next window's arrival batches the planner
    /// may spill: everything drawn and not yet routed, since
    /// [`Self::draw`] has just drawn exactly that window.
    pub(crate) fn publish(&mut self, b: u32) -> CellSnapshot {
        let mut obs = FleetCellObs::default();
        for inst in &self.insts {
            obs.queued += inst.queued();
            obs.active += inst.active() as u64;
            obs.up += u32::from(inst.up);
        }
        obs.live = (self.slots.iter().zip(&self.insts))
            .filter(|(s, inst)| s.mode == SlotMode::Live && inst.up)
            .count() as u32;
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
    /// arrivals, and lands cohorts other cells redirected here in the
    /// arrival schedule. Spill accounting books the outflow at the source
    /// and the inflow at the destination, each in its own cell's totals,
    /// so the merged flow matrix conserves exactly.
    ///
    /// The cell stands at the window edge (it never jumps past its
    /// arrival frontier) with nothing routed since [`Self::draw`], and
    /// every cohort is due in the coming window, so all of them route
    /// before the next [`Self::publish`], which therefore offers the
    /// planner only the cell's own batches. A stable sort by tick keeps a
    /// tick's own batches ahead of the cohorts spilled into it.
    pub(crate) fn apply_plan(&mut self, plan: CellPlan) {
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
            debug_assert!(self.tick <= plan.inflow[0].0);
            self.arrivals.extend_from_slice(&plan.inflow);
            self.arrivals[self.arr_ptr..].sort_by_key(|b| b.0);
        }
    }

    /// End-of-horizon accounting: closes every remaining idle span,
    /// books pending downtime and in-flight KV bytes, merges the cell's
    /// totals into `acc` and moves its trace events to `trace`. The cell
    /// is finished then; its buffers can serve the worker's next cell.
    pub(crate) fn finalize(&mut self, acc: &mut Totals, trace: &mut Vec<TraceEvent>) {
        let ticks = self.shared.ticks;
        self.accrue_all(ticks);
        let horizon_us = ticks as u64 * self.shared.knobs.tick_us;
        for inst in &self.insts {
            self.acc.downtime_us += inst.pending_downtime_us(horizon_us);
        }
        if let Some(link) = &self.kv {
            self.acc.kv_bytes_inflight_end += link.inflight_bytes();
        }
        acc.merge(&self.acc);
        if let Some(ts) = self.trace.as_mut() {
            trace.append(&mut ts.buf);
        }
    }
}
