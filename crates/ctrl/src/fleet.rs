//! The fleet-scope half of the two-level control plane: cross-cell
//! observations, per-cell directives, and the spill-over balancer that
//! turns the one into the other ([`BalancerConfig::plan`]).
//!
//! The cell-scope [`ControllerStack`](crate::ControllerStack) is strictly
//! cell-local — that locality is what lets the engine shard cells across
//! threads and stay byte-identical at any thread count. A fleet, though,
//! serves one user population: a hot cell sheds best-effort load while
//! its neighbor idles, and no cell-local policy can see that. The
//! fleet-scope layer closes the gap without giving up the invariant:
//!
//! 1. **Snapshot** — at each fleet tick the engine pauses every cell at
//!    the same data-tick boundary and takes a read-only [`FleetObs`]
//!    (per-cell queue depth, up/live slots, KV-link backlog, chaos
//!    state). Cells in the same data tick still never see each other.
//! 2. **Pure function** — [`BalancerConfig::plan`] turns the snapshot
//!    into per-cell [`CellDirective`]s. The function is deterministic
//!    (no RNG, no clocks, no state beyond the configuration), so the
//!    same snapshot always yields the same directives regardless of
//!    which worker thread computes them.
//! 3. **Commands** — the engine applies the directives to the *next*
//!    fleet window: admission quotas clamp what each cell admits, and
//!    spill-over routes redirect a bounded fraction of a hot cell's
//!    arrivals to under-loaded cells (deducted at the source schedule,
//!    injected into the destination schedule, conserving every cohort
//!    exactly).
//!
//! Because the snapshot is taken at a barrier, the planner is pure, and
//! the directives are applied identically no matter how cells are
//! sharded, reports stay byte-identical at 1, 2 or 8 threads with the
//! balancer enabled.

/// One cell's state in a fleet-tick snapshot.
///
/// A deliberately small aggregate of what the cell-scope plane already
/// observes — enough to rank cells by load and KV slack, cheap enough to
/// publish at every fleet tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetCellObs {
    /// Requests queued across the cell's slots.
    pub queued: u64,
    /// Sequences currently decoding across the cell.
    pub active: u64,
    /// Slots not down (live + parked + booting).
    pub up: u32,
    /// Slots currently live (serving).
    pub live: u32,
    /// Requests that arrived at the cell during the elapsed fleet window
    /// (after any spill-over redirection).
    pub arrived_window: u64,
    /// Outstanding KV-transfer backlog on the cell's link, microseconds
    /// of link time (zero on monolithic fleets).
    pub kv_backlog_us: u64,
    /// Slots inside an announced chaos window (correlated outage or
    /// drain).
    pub chaos_down: u32,
}

/// A read-only snapshot of the whole fleet at a fleet-tick boundary.
///
/// Built by the engine with every cell paused at the same data tick;
/// `cells` is indexed by cell id, so the same fleet always produces the
/// same snapshot bytes regardless of shard or thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetObs {
    /// Data tick at which this fleet tick runs.
    pub tick: u32,
    /// Seconds covered by the elapsed fleet window.
    pub interval_s: f64,
    /// Whether the fleet serves in phase-split mode (KV links exist).
    pub phase_split: bool,
    /// Sustainable request throughput of one live instance, requests/s
    /// (fleet-wide constant: every cell runs the same GPU and model).
    pub capacity_rps_per_instance: f64,
    /// Queue capacity per instance.
    pub max_queue: u32,
    /// Per-cell observations, indexed by cell id.
    pub cells: Vec<FleetCellObs>,
}

impl FleetObs {
    /// Total queued requests across the fleet.
    pub fn queued_total(&self) -> u64 {
        self.cells.iter().map(|c| c.queued).sum()
    }

    /// Mean queued requests per cell, rounded down (0 on empty fleets).
    pub fn queued_mean(&self) -> u64 {
        if self.cells.is_empty() {
            0
        } else {
            self.queued_total() / self.cells.len() as u64
        }
    }
}

/// What the fleet scope asks one cell to do for the next fleet window.
///
/// A cell with no directive behaves exactly as an isolated cell would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellDirective {
    /// Cell id this directive targets.
    pub cell: u32,
    /// Admission quota for the next fleet window: after this many
    /// requests the cell sheds further arrivals (counted against
    /// admission shed, per tenant). `None` = unlimited.
    pub admission_quota: Option<u64>,
    /// Fraction of the cell's next-window arrivals to redirect to other
    /// cells, in permille (0..=1000). Applied per arrival event with a
    /// cumulative-floor rule, so the redirected count is exact over the
    /// window and independent of event batching.
    pub spill_permille: u16,
    /// Spill destinations as `(cell, weight)` pairs; redirected cohorts
    /// are apportioned by weighted deficit (largest weighted shortfall
    /// first), which is deterministic and starvation-free.
    pub spill_to: Vec<(u32, u64)>,
}

/// Configuration of the built-in spill-over balancer (and the fleet-tick
/// cadence it runs at).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct BalancerConfig {
    /// Seconds between fleet ticks. Fleet ticks quantize the engine's
    /// cell interleaving, so a shorter interval reacts faster but costs
    /// more synchronization.
    pub interval_s: f64,
    /// Upper bound on the fraction of a hot cell's arrivals redirected
    /// per window, in permille (0..=1000).
    pub spill_permille: u16,
    /// A cell is *hot* when its queue depth exceeds `hot_factor` times
    /// the fleet-mean queue depth (and is strictly above the mean).
    pub hot_factor: f64,
    /// Admission-quota headroom as a multiple of a cell's sustainable
    /// window throughput (`live × capacity_rps × interval_s`). Infinite
    /// (the default) disables quotas; `1.5` means "admit at most 150% of
    /// what you can serve this window, shed the rest at the boundary".
    pub quota_headroom: f64,
    /// On phase-split fleets, a cell only receives spill when its
    /// KV-link backlog is at most this many microseconds (prefill spill
    /// lands on the destination's KV link; spilling into a congested
    /// link would just move the queue).
    pub kv_slack_us: u64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            interval_s: 60.0,
            spill_permille: 300,
            hot_factor: 1.5,
            quota_headroom: f64::INFINITY,
            kv_slack_us: 100_000,
        }
    }
}

impl BalancerConfig {
    /// Validates the configuration (the engine calls this as part of
    /// `CtrlConfig::validate`).
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.interval_s.is_finite() || self.interval_s <= 0.0 {
            return Err("balancer interval_s must be finite and positive");
        }
        if self.spill_permille > 1000 {
            return Err("balancer spill_permille must be <= 1000");
        }
        if !self.hot_factor.is_finite() || self.hot_factor <= 0.0 {
            return Err("balancer hot_factor must be finite and positive");
        }
        if self.quota_headroom.is_nan() || self.quota_headroom <= 0.0 {
            return Err("balancer quota_headroom must be positive (may be infinite)");
        }
        Ok(())
    }

    /// The built-in fleet policy, queue-deficit spill-over with optional
    /// admission quotas: per-cell directives for the next fleet window.
    ///
    /// Per fleet tick it classifies cells against the fleet-mean queue
    /// depth: cells above `hot_factor ×` mean spill up to
    /// `spill_permille` of their next-window arrivals; cells at or below
    /// the mean with live capacity, no active chaos window, and (on
    /// phase-split fleets) KV-link slack receive it, weighted by free
    /// queue room. With finite `quota_headroom` every cell also gets an
    /// admission quota proportional to its live serving capacity.
    ///
    /// ```
    /// use litegpu_ctrl::{BalancerConfig, FleetCellObs, FleetObs};
    ///
    /// let cell = |queued| FleetCellObs {
    ///     queued,
    ///     live: 4,
    ///     ..FleetCellObs::default()
    /// };
    /// let obs = FleetObs {
    ///     interval_s: 60.0,
    ///     max_queue: 8,
    ///     cells: vec![cell(100), cell(0)],
    ///     ..FleetObs::default()
    /// };
    ///
    /// // Queue 100 against a mean of 50 is hot: the cell spills 300‰ of
    /// // its next-window arrivals to the cold one, weighted by that
    /// // cell's free queue room (4 live × 8).
    /// let plan = BalancerConfig::default().plan(&obs);
    /// assert_eq!(plan.len(), 1);
    /// assert_eq!((plan[0].cell, plan[0].spill_permille), (0, 300));
    /// assert_eq!(plan[0].spill_to, vec![(1, 32)]);
    /// ```
    pub fn plan(&self, obs: &FleetObs) -> Vec<CellDirective> {
        let mean = obs.queued_mean();
        // Hot threshold in integer arithmetic: queued > hot_factor × mean,
        // computed as queued × 1000 > mean × round(hot_factor × 1000) so
        // the comparison is exact and platform-independent.
        let hot_factor_mill = (self.hot_factor * 1000.0).round() as u128;
        let receivers: Vec<(u32, u64)> = obs
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.queued <= mean
                    && c.live > 0
                    && c.chaos_down == 0
                    && (!obs.phase_split || c.kv_backlog_us <= self.kv_slack_us)
            })
            .map(|(i, c)| {
                let room = (c.live as u64 * obs.max_queue as u64).saturating_sub(c.queued);
                (i as u32, room.max(1))
            })
            .collect();
        let mut out = Vec::new();
        for (i, c) in obs.cells.iter().enumerate() {
            let hot = self.spill_permille > 0
                && c.queued > mean
                && (c.queued as u128) * 1000 > (mean as u128) * hot_factor_mill;
            let spill_to: Vec<(u32, u64)> = if hot {
                receivers
                    .iter()
                    .copied()
                    .filter(|&(d, _)| d != i as u32)
                    .collect()
            } else {
                Vec::new()
            };
            let quota = if self.quota_headroom.is_finite() {
                let cap = obs.capacity_rps_per_instance * c.live as f64 * obs.interval_s;
                Some((cap * self.quota_headroom).ceil() as u64)
            } else {
                None
            };
            if quota.is_none() && spill_to.is_empty() {
                continue;
            }
            out.push(CellDirective {
                cell: i as u32,
                admission_quota: quota,
                spill_permille: if spill_to.is_empty() {
                    0
                } else {
                    self.spill_permille
                },
                spill_to,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(queues: &[u64]) -> FleetObs {
        FleetObs {
            interval_s: 60.0,
            capacity_rps_per_instance: 2.0,
            max_queue: 100,
            cells: queues
                .iter()
                .map(|&queued| FleetCellObs {
                    queued,
                    up: 8,
                    live: 8,
                    ..FleetCellObs::default()
                })
                .collect(),
            ..FleetObs::default()
        }
    }

    #[test]
    fn balancer_config_default_validates() {
        assert!(BalancerConfig::default().validate().is_ok());
    }

    #[test]
    fn balancer_config_rejects_bad_fields() {
        let c = BalancerConfig {
            interval_s: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = BalancerConfig {
            spill_permille: 1001,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = BalancerConfig {
            hot_factor: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = BalancerConfig {
            quota_headroom: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn spill_balancer_targets_hot_cells_only() {
        // Mean queue = (900 + 0×7) / 8 = 112; hot threshold 1.5× = 168.
        let plan = BalancerConfig::default().plan(&obs(&[900, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].cell, 0);
        assert_eq!(plan[0].spill_permille, 300);
        // All seven cold cells receive, none is the source.
        assert_eq!(plan[0].spill_to.len(), 7);
        assert!(plan[0].spill_to.iter().all(|&(d, _)| d != 0));
        // Quotas are off by default (infinite headroom).
        assert!(plan[0].admission_quota.is_none());
    }

    #[test]
    fn spill_balancer_is_quiet_on_balanced_fleets() {
        assert!(BalancerConfig::default()
            .plan(&obs(&[50, 50, 50, 50]))
            .is_empty());
    }

    #[test]
    fn spill_balancer_skips_chaos_and_kv_congested_receivers() {
        let cfg = BalancerConfig::default();
        let mut o = obs(&[900, 0, 0, 0]);
        o.phase_split = true;
        o.cells[1].chaos_down = 2;
        o.cells[2].kv_backlog_us = cfg.kv_slack_us + 1;
        let plan = cfg.plan(&o);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].spill_to, vec![(3, 800)]);
    }

    #[test]
    fn spill_balancer_emits_quotas_with_finite_headroom() {
        let cfg = BalancerConfig {
            quota_headroom: 1.5,
            ..Default::default()
        };
        let plan = cfg.plan(&obs(&[50, 50]));
        // Balanced fleet: no spill, but every cell gets a quota of
        // 2 rps × 8 live × 60 s × 1.5 = 1440.
        assert_eq!(plan.len(), 2);
        for (i, d) in plan.iter().enumerate() {
            assert_eq!(d.cell, i as u32);
            assert_eq!(d.admission_quota, Some(1440));
            assert!(d.spill_to.is_empty());
        }
    }

    #[test]
    fn spill_balancer_receiver_weight_is_free_queue_room() {
        let mut o = obs(&[900, 100, 0]);
        o.cells[1].queued = 100;
        // Mean = 333; cell 1 (queued 100) and cell 2 (queued 0) are both
        // receivers, weighted by 8×100 − queued.
        let plan = BalancerConfig::default().plan(&o);
        assert_eq!(plan[0].spill_to, vec![(1, 700), (2, 800)]);
    }
}
