//! Arrivals: every (cell, tenant) Poisson stream, drawn one window at a
//! time. The run's one [`ArrivalTable`] holds the per-tick arrival means
//! of the ticks the current window sweep draws; each cell's
//! [`CellTraffic`] owns its per-tenant RNG streams and draws its batches
//! from that table into a tick-sorted schedule.

use crate::config::FleetConfig;
use crate::engine::Shared;
use crate::traffic::PoissonPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-tick arrival means of the ticks the current window sweep
/// draws, from `lo` on, shared read-only by every cell of the run.
///
/// A one-window run builds it once for the whole horizon; under a fleet
/// balancer the planner refills it for each sweep, so a balanced run
/// never holds more than two windows of it.
pub(crate) struct ArrivalTable {
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
    pub(crate) fn new(shared: &Shared<'_>, lo: u32, hi: u32) -> Self {
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
    pub(crate) fn fill(&mut self, shared: &Shared<'_>, lo: u32, hi: u32) {
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
pub(crate) struct CellTraffic {
    rngs: Vec<StdRng>,
    /// See [`arrival_scale`].
    scale: Option<f64>,
    /// Every tick before this one has been drawn.
    pub(crate) drawn: u32,
    /// [`Self::draw`]'s `(tick, admission position, tenant, count)`
    /// scratch.
    evs: Vec<(u32, u16, u16, u64)>,
}

impl CellTraffic {
    /// Distinct stream constant so per-(cell, tenant) arrival streams
    /// never alias the per-instance streams.
    const STREAM: u64 = 0x7E4A_4D7A_11C0_FFEE;

    /// Cell `cell_idx`'s streams, nothing drawn yet. `spare`, a finished
    /// cell's traffic, lends its stream and scratch buffers: the streams
    /// are re-seeded in place.
    pub(crate) fn new(
        seed: u64,
        cell_idx: u32,
        cfg: &FleetConfig,
        spare: Option<&mut Self>,
    ) -> Self {
        let (mut rngs, mut evs) = spare.map_or_else(Default::default, |s| {
            (std::mem::take(&mut s.rngs), std::mem::take(&mut s.evs))
        });
        rngs.clear();
        rngs.extend((0..cfg.workload.tenants.len()).map(|t| {
            StdRng::seed_from_u64(
                seed ^ Self::STREAM
                    ^ (cell_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                    ^ (t as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB),
            )
        }));
        evs.clear();
        Self {
            rngs,
            scale: arrival_scale(cfg, cell_idx),
            drawn: 0,
            evs,
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
    pub(crate) fn draw(
        &mut self,
        shared: &Shared<'_>,
        table: &ArrivalTable,
        hi: u32,
        out: &mut Vec<(u32, u16, u64)>,
    ) {
        let lo = self.drawn;
        let ks = (lo - table.lo) as usize..(hi - table.lo) as usize;
        let evs = &mut self.evs;
        evs.clear();
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
        out.extend(evs.iter().map(|&(k, _, ti, n)| (k, ti, n)));
        self.drawn = hi;
    }
}
