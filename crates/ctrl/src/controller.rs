//! The control-plane contract: per-cell observations and the commands
//! every policy module issues.
//!
//! The data plane (the fleet engine) builds a [`CellObs`] snapshot of one
//! cell at each control tick, hands it to the cell's policy stack, and
//! applies the [`Command`]s it issues. Everything a controller can see and
//! do is strictly cell-local, which is what lets controlled fleets keep
//! the engine's byte-identical-at-any-shard-count guarantee: per-cell
//! controller state lives inside the shard partition, and every policy
//! is a deterministic function of its observations and its own state.

/// EWMA smoothing factor per control tick (1 would be no smoothing).
const EWMA_ALPHA: f64 = 0.4;

/// One control tick of the demand EWMA every smoothing policy keeps:
/// the first observed `rate` seeds it (`prev` is `None`), then each tick
/// moves it to `α·rate + (1−α)·prev`.
pub(crate) fn ewma(prev: Option<f64>, rate: f64) -> f64 {
    match prev {
        None => rate,
        Some(p) => EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * p,
    }
}

/// Scheduling class of a traffic source, ordered from most to least
/// protected.
///
/// The control plane treats classes asymmetrically: routing admits
/// arrivals in class order (so queue room goes to `Interactive` first),
/// and under pressure the autoscaler sheds `BestEffort` load entirely
/// before any higher class feels the squeeze — the fleet-granularity
/// consolidation the paper's §3 elasticity argument assumes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum PriorityClass {
    /// Latency-sensitive user traffic; never shed by admission control.
    Interactive,
    /// Throughput-oriented jobs with relaxed SLOs; protected from
    /// admission shedding but queued behind `Interactive`.
    Batch,
    /// Scavenger load: first to be shed when demand outruns capacity.
    BestEffort,
}

impl PriorityClass {
    /// Dense index for per-class arrays (`Interactive` = 0).
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Batch => 1,
            PriorityClass::BestEffort => 2,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Batch => "batch",
            PriorityClass::BestEffort => "best-effort",
        }
    }
}

/// Inference-phase role of one instance slot under Splitwise-style
/// phase-split serving.
///
/// A monolithic fleet runs every slot as [`Phase::Mixed`]. A phase-split
/// fleet partitions each cell into a prefill pool ([`Phase::Prefill`] —
/// receives routed arrivals, runs prompt prefills, streams the resulting
/// KV caches over the cell's KV link) and a decode pool
/// ([`Phase::Decode`] — receives transferred KV caches and runs pure
/// decode steps, isolated from prefill interference). The phase-aware
/// autoscaler rebalances the partition with [`Command::SetPhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Interleaves prefill and decode (monolithic serving).
    Mixed,
    /// Dedicated prefill instance: owns arrival queue room, never decodes.
    Prefill,
    /// Dedicated decode instance: receives KV transfers, never prefills.
    Decode,
}

/// Administrative and health state of one instance slot, as observed by
/// controllers at a control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Powered and serving; eligible for routed arrivals.
    Live,
    /// Parked but powered (pays the idle floor); activates at the warm
    /// latency. Under a DVFS-only policy every parked instance is warm —
    /// a monolithic GPU can only down-clock, not power off (§3).
    Warm,
    /// Parked and power-gated (zero draw); activates at the cold latency.
    Cold,
    /// Activation in flight: powered but not yet serving.
    Booting,
    /// Down for a spare swap or repair; controllers cannot act on it.
    Down,
}

/// One slot's observed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceObs {
    /// Current mode.
    pub mode: Mode,
    /// Inference-phase role ([`Phase::Mixed`] on monolithic fleets).
    pub phase: Phase,
    /// Current DVFS operating point, as an index into
    /// [`CellObs::clock_points`] (the nominal index on fleets without a
    /// clock grid).
    pub clock: u8,
    /// Requests waiting in the slot's queue.
    pub queued: u64,
    /// Sequences currently decoding on the slot.
    pub active: u32,
}

/// One DVFS operating point of a cell's instances, as observed by
/// controllers: the clock factor, how much sustained throughput survives
/// at that clock per serving role (`1.0` at nominal; the roofline
/// compute/bandwidth split decides how much a down-clock really costs),
/// and whether step times at that clock still leave the tightest
/// per-tenant TTFT/TBT SLO targets reachable. The data plane derives all
/// of it from the same `StepCostTable` that prices serving, so policy
/// decisions and step costs can never disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockPoint {
    /// Clock factor (nominal = 1.0).
    pub clock: f64,
    /// Throughput retained by a mixed (monolithic) instance at this
    /// clock, relative to nominal.
    pub mixed_scale: f64,
    /// Throughput retained by a dedicated prefill instance.
    pub prefill_scale: f64,
    /// Throughput retained by a dedicated decode instance.
    pub decode_scale: f64,
    /// Whether prefill at this clock keeps every tenant's TTFT target
    /// reachable.
    pub prefill_slo_ok: bool,
    /// Whether decode steps at this clock meet every tenant's TBT target.
    pub decode_slo_ok: bool,
}

impl ClockPoint {
    /// Throughput retained at this point by an instance serving `phase`.
    pub fn scale(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Mixed => self.mixed_scale,
            Phase::Prefill => self.prefill_scale,
            Phase::Decode => self.decode_scale,
        }
    }

    /// Whether this point is SLO-feasible for an instance serving
    /// `phase` (a mixed instance needs both phases to hold).
    pub fn slo_ok(&self, phase: Phase) -> bool {
        match phase {
            Phase::Mixed => self.prefill_slo_ok && self.decode_slo_ok,
            Phase::Prefill => self.prefill_slo_ok,
            Phase::Decode => self.decode_slo_ok,
        }
    }
}

/// Phase-split context of a cell at a control tick, present only when the
/// data plane serves in phase-split mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseObs {
    /// Sustainable request throughput of one dedicated prefill instance,
    /// requests/s.
    pub prefill_capacity_rps: f64,
    /// Sustainable request throughput of one dedicated decode instance,
    /// requests/s.
    pub decode_capacity_rps: f64,
    /// Outstanding KV-transfer backlog on the cell's link, microseconds
    /// of link time (the quantity back-pressure is keyed on).
    pub kv_backlog_us: u64,
}

/// A cell's state at a control-tick boundary.
///
/// Built by the data plane from cell-local state only; controllers must
/// not assume anything about other cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellObs {
    /// Data tick at which this control tick runs.
    pub tick: u32,
    /// Seconds covered by the elapsed control interval.
    pub interval_s: f64,
    /// Requests that arrived at the cell during the elapsed interval.
    pub arrived_since_last: u64,
    /// The same arrivals broken down by [`PriorityClass`], indexed by
    /// [`PriorityClass::index`]. Sums to `arrived_since_last` when every
    /// tenant is tagged (the multi-tenant engine always tags).
    pub arrived_by_class: [u64; 3],
    /// Sustainable request throughput of one live instance, requests/s.
    pub capacity_rps_per_instance: f64,
    /// Queue capacity per instance.
    pub max_queue: u32,
    /// Slots currently inside an announced chaos window (active
    /// correlated-outage or drain) — domain-loss state the data plane
    /// knows about, as opposed to silently failed slots. Zero on
    /// campaign-free fleets.
    pub chaos_down: u32,
    /// Phase-split context (`None` on monolithic fleets).
    pub phase_split: Option<PhaseObs>,
    /// The DVFS operating-point grid the cell's instances may serve at,
    /// ascending, last entry nominal. Empty when the data plane prices a
    /// single (nominal) clock — DVFS policies must then stand down.
    pub clock_points: Vec<ClockPoint>,
    /// Per-slot observations, indexed by cell-local slot id.
    pub slots: Vec<InstanceObs>,
}

impl CellObs {
    /// Slots currently live (serving).
    pub fn live(&self) -> u32 {
        self.slots.iter().filter(|s| s.mode == Mode::Live).count() as u32
    }

    /// Slots with an activation in flight.
    pub fn booting(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.mode == Mode::Booting)
            .count() as u32
    }

    /// Slots not down (actionable by controllers).
    pub fn healthy(&self) -> u32 {
        self.slots.iter().filter(|s| s.mode != Mode::Down).count() as u32
    }

    /// Total queued requests across the cell.
    pub fn queued_total(&self) -> u64 {
        self.slots.iter().map(|s| s.queued).sum()
    }
}

/// An action a controller asks the data plane to apply.
///
/// Commands are applied in emission order; a command that does not match
/// the slot's current mode (e.g. parking an already-parked slot) is
/// ignored, so controllers may re-assert state idempotently.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Start activating a parked slot (warm or cold boot latency is
    /// decided by the data plane from the slot's current mode).
    Activate {
        /// Cell-local slot id.
        slot: u32,
    },
    /// Park an idle live slot (it stops receiving arrivals and serving).
    Park {
        /// Cell-local slot id.
        slot: u32,
    },
    /// Keep a parked slot powered for fast activation.
    SetWarm {
        /// Cell-local slot id.
        slot: u32,
    },
    /// Power-gate a parked slot (zero energy, slow activation).
    SetCold {
        /// Cell-local slot id.
        slot: u32,
    },
    /// Set one slot's routing weight (arrivals are apportioned over live
    /// slots proportionally to their weight). The router issues one per
    /// slot each control tick.
    SetWeight {
        /// Cell-local slot id.
        slot: u32,
        /// The slot's new weight.
        weight: u64,
    },
    /// Set the cell's admission policy for [`PriorityClass::BestEffort`]
    /// traffic. While disallowed, the data plane sheds every best-effort
    /// arrival at the cell boundary (counted per tenant), protecting the
    /// higher classes' queue room and SLOs.
    SetAdmission {
        /// Whether best-effort arrivals are admitted.
        allow_best_effort: bool,
    },
    /// Move a slot between the prefill and decode pools (phase-split
    /// serving only). The data plane applies the change only when the
    /// slot is idle — migrating live KV caches or queued prompts between
    /// phases is not modeled — so controllers should re-assert the
    /// desired partition idempotently.
    SetPhase {
        /// Cell-local slot id.
        slot: u32,
        /// The pool the slot should join.
        phase: Phase,
    },
    /// Retune a slot's DVFS operating point. The data plane re-prices the
    /// slot's step costs (and its dynamic power draw) from the indexed
    /// [`ClockPoint`] starting at the next data tick; commands with an
    /// out-of-grid index are ignored. Applies to serving slots only —
    /// parked capacity is the power gater's business, not the clock's.
    SetClock {
        /// Cell-local slot id.
        slot: u32,
        /// Index into [`CellObs::clock_points`].
        clock: u8,
    },
}

/// The commands one policy's `control` issues after `pending`: runs it on
/// a buffer that already holds `pending` and returns only what it
/// appended.
#[cfg(test)]
pub(crate) fn issued(pending: &[Command], control: impl FnOnce(&mut Vec<Command>)) -> Vec<Command> {
    let mut cmds = pending.to_vec();
    control(&mut cmds);
    cmds.split_off(pending.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_classes_are_ordered_and_indexed() {
        assert!(PriorityClass::Interactive < PriorityClass::Batch);
        assert!(PriorityClass::Batch < PriorityClass::BestEffort);
        let all = [
            PriorityClass::Interactive,
            PriorityClass::Batch,
            PriorityClass::BestEffort,
        ];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(PriorityClass::BestEffort.label(), "best-effort");
    }

    #[test]
    fn obs_aggregates_count_modes() {
        let obs = CellObs {
            tick: 0,
            interval_s: 5.0,
            arrived_since_last: 0,
            arrived_by_class: [0; 3],
            capacity_rps_per_instance: 2.0,
            max_queue: 100,
            chaos_down: 0,
            phase_split: None,
            clock_points: Vec::new(),
            slots: vec![
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Prefill,
                    clock: 0,
                    queued: 3,
                    active: 1,
                },
                InstanceObs {
                    mode: Mode::Booting,
                    phase: Phase::Decode,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Cold,
                    phase: Phase::Decode,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Down,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 7,
                    active: 0,
                },
            ],
        };
        assert_eq!(obs.live(), 1);
        assert_eq!(obs.booting(), 1);
        assert_eq!(obs.healthy(), 3);
        assert_eq!(obs.queued_total(), 10);
    }

    #[test]
    fn clock_point_scale_and_slo_are_phase_selected() {
        let p = ClockPoint {
            clock: 0.8,
            mixed_scale: 0.85,
            prefill_scale: 0.8,
            decode_scale: 0.97,
            prefill_slo_ok: false,
            decode_slo_ok: true,
        };
        assert_eq!(p.scale(Phase::Mixed), 0.85);
        assert_eq!(p.scale(Phase::Prefill), 0.8);
        assert_eq!(p.scale(Phase::Decode), 0.97);
        assert!(p.slo_ok(Phase::Decode));
        assert!(!p.slo_ok(Phase::Prefill));
        // A mixed instance needs both phases SLO-feasible.
        assert!(!p.slo_ok(Phase::Mixed));
    }
}
