//! The window loop. [`run_windows`] cuts the horizon into windows — one
//! fleet-balancer interval each, or the whole horizon without a
//! balancer — and each worker thread advances its cells window by
//! window. Under a balancer every window edge is a snapshot → pure
//! planner → plan cycle: each cell publishes a [`CellSnapshot`], one
//! thread runs [`plan_fleet`] at the [`Planner`]'s barrier, and each cell
//! applies its own [`CellPlan`] before the next window starts.

use crate::arrivals::ArrivalTable;
use crate::cell::{CellSim, ProfTimer};
use crate::engine::Shared;
use crate::state::Totals;
use litegpu_ctrl::{BalancerConfig, FleetCellObs, FleetObs};
use litegpu_telemetry::profile::PHASE_MERGE;
use litegpu_telemetry::{SeriesRecorder, TraceEvent};
use std::ops::Range;
use std::sync::{Barrier, Mutex, RwLock};

/// One cell's read-only state published at a fleet-tick boundary: the
/// fleet-scope observation row plus the cell's own upcoming-window
/// arrival batches `(tick, tenant, count)` that the planner may spill.
pub(crate) struct CellSnapshot {
    pub(crate) obs: FleetCellObs,
    pub(crate) window: Vec<(u32, u16, u64)>,
}

/// The per-cell outcome of one fleet plan, applied between windows.
/// Everything in here was computed by the pure planner from published
/// snapshots only, so applying it is deterministic for any thread count.
#[derive(Default)]
pub(crate) struct CellPlan {
    /// Admission budget for the coming window (`None` = unlimited).
    pub(crate) quota: Option<u64>,
    /// Arrival batches to shrink at the source: `(index relative to the
    /// cell's arrival cursor, requests to remove)`.
    pub(crate) deduct: Vec<(usize, u64)>,
    /// Per-destination spill totals booked at the source: `(dst, requests)`.
    pub(crate) outflow: Vec<(u32, u64)>,
    /// Redirected cohorts arriving here: `(tick, tenant, count)`, sorted
    /// by `(tick, admission order, source cell)`.
    pub(crate) inflow: Vec<(u32, u16, u64)>,
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
    bal: &BalancerConfig,
    bal_window_s: f64,
    b: u32,
    snaps: Vec<CellSnapshot>,
) -> Vec<CellPlan> {
    let cells = snaps.len();
    let mut obs = FleetObs {
        tick: b,
        interval_s: bal_window_s,
        phase_split: shared.split.is_some(),
        capacity_rps_per_instance: shared.cap_rps,
        max_queue: shared.knobs.max_queue,
        cells: Vec::new(),
    };
    let mut windows: Vec<Vec<(u32, u16, u64)>> = Vec::with_capacity(cells);
    for s in snaps {
        obs.cells.push(s.obs);
        windows.push(s.window);
    }
    let directives = bal.plan(&obs);
    let mut plans: Vec<CellPlan> = (0..cells).map(|_| CellPlan::default()).collect();
    // Admission-order position per tenant, for the destination-side sort.
    let mut pos_of = vec![0u16; shared.classes.len()];
    for (pos, &ti) in shared.priority_order.iter().enumerate() {
        pos_of[ti as usize] = pos as u16;
    }
    // The directives apply as issued: `plan` issues at most one per
    // cell, in cell order; it spills only to other cells, each at weight
    // ≥ 1, and sets a nonzero permille exactly when it spills; and
    // `validate`, which every run passes first, bounds the permille by
    // 1000.
    let mut staged: Vec<(u32, u16, u32, u32, u16, u64)> = Vec::new();
    for d in &directives {
        let src = d.cell as usize;
        plans[src].quota = d.admission_quota;
        let p = u64::from(d.spill_permille);
        if p == 0 {
            continue;
        }
        let targets = &d.spill_to;
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

/// The fleet-tick rendezvous of a balanced run: the balancer, one
/// snapshot slot and one plan slot per cell, and the barrier the workers
/// meet at. Each cell's slots are written and read by its owning worker
/// and the leader only, so the locks are uncontended; they make the
/// hand-off race-free.
struct Planner {
    bal: BalancerConfig,
    window_s: f64,
    barrier: Barrier,
    snaps: Vec<Mutex<Option<CellSnapshot>>>,
    plans: Vec<Mutex<Option<CellPlan>>>,
}

impl Planner {
    fn new(bal: &BalancerConfig, cells: u32, threads: u32, window_s: f64) -> Self {
        Self {
            bal: *bal,
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
            let plans = plan_fleet(shared, &self.bal, self.window_s, b, published);
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
pub(crate) struct Worker {
    pub(crate) acc: Totals,
    pub(crate) series: Option<SeriesRecorder>,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) prof: ProfTimer,
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
    /// snapshot for the planner and stays live (`true`); at the horizon
    /// it is finalized and merged into this worker (`false`), and its
    /// buffers are free for the worker's next cell.
    fn step(
        &mut self,
        sim: &mut CellSim<'_>,
        b: u32,
        b_next: u32,
        planner: Option<&Planner>,
        table: &RwLock<ArrivalTable>,
    ) -> bool {
        sim.run_until(b, self.series.as_mut(), &mut self.prof);
        if b < sim.shared.ticks {
            let p = planner.expect("only a balancer cuts the horizon into windows");
            sim.draw(&table.read().expect(POISONED), b_next, &mut self.prof);
            p.publish(sim.cell_idx, sim.publish(b));
            return true;
        }
        self.prof.reset();
        sim.finalize(&mut self.acc, &mut self.trace);
        self.prof.mark(PHASE_MERGE);
        false
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
/// totals into the worker's and keeps it as its spare: the worker's next
/// cell is rebuilt from the spare's buffers ([`CellSim::new`]). So a
/// one-window run holds one cell per worker and allocates its buffers
/// once per worker; a balanced run keeps every cell live until the last
/// window.
///
/// Under a balancer every window edge is a snapshot → pure function →
/// commands cycle: each cell runs to the edge and publishes a read-only
/// snapshot, exactly one thread runs [`BalancerConfig::plan`] over the
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
pub(crate) fn run_windows(shared: &Shared<'_>, shards: u32, threads: u32) -> Vec<Worker> {
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
        let mut spare = None;
        let mut b = next(0);
        for s in (w..shards).step_by(threads as usize) {
            for c in bounds(s)..bounds(s + 1) {
                let mut sim = CellSim::new(
                    shared,
                    c,
                    &table.read().expect(POISONED),
                    b,
                    wk.series.as_mut(),
                    &mut wk.prof,
                    spare.take(),
                );
                if wk.step(&mut sim, b, next(b), planner, table) {
                    live.push(sim);
                } else {
                    spare = Some(sim);
                }
            }
        }
        while b < ticks {
            let p = planner.expect("only a balancer cuts the horizon into windows");
            p.plan(shared, b, table, next(b)..next(next(b)));
            b = next(b);
            live.retain_mut(|sim| {
                sim.apply_plan(p.take(sim.cell_idx));
                wk.step(sim, b, next(b), planner, table)
            });
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
