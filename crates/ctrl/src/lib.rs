//! `litegpu-ctrl` — a deterministic fleet control plane.
//!
//! The paper's §3 argument is that Lite-GPUs win at the *fleet* level:
//! finer-grained resource management, per-unit power gating, and small
//! blast radii. Those are control-plane properties, so this crate models
//! the control plane explicitly: a **control tick** runs between the
//! fleet engine's data ticks, observing each cell ([`CellObs`]) and
//! issuing [`Command`]s from the cell's [`ControllerStack`]: the policy
//! modules its [`CtrlConfig`] enables, run in a fixed order, each
//! appending to one command buffer:
//!
//! - [`autoscale::Autoscaler`] — reactive scaling of each cell's live
//!   instance pool against observed traffic, with warm/cold scale-out
//!   latency, a warm pool, and priority-aware admission control: when
//!   total demand outruns even the fully scaled-out cell,
//!   [`PriorityClass::BestEffort`] traffic is shed before the guaranteed
//!   classes feel pressure;
//! - [`dvfs::DvfsController`] — serving-time clocks: each pool runs at
//!   the lowest SLO-feasible operating point that still covers demand;
//! - [`power::PowerGater`] — decides what parked capacity costs, reusing
//!   [`litegpu_cluster::power_mgmt::Policy`]: DVFS-only fleets keep
//!   parked instances at their idle floor, gating fleets power them off;
//! - [`route::control`] — the router: rebalances each cell's arrivals
//!   across its live instances, weighted by free capacity, so failures
//!   and parking don't strand traffic.
//!
//! The policies are **phase-aware**: on a Splitwise-style phase-split
//! fleet (the data plane sets [`CellObs::phase_split`] and tags each
//! slot with a [`Phase`]), the autoscaler sizes the prefill and decode
//! pools independently and rebalances the partition with
//! [`Command::SetPhase`], DVFS picks a clock per pool, and the router
//! grants queue room to the prefill pool only — decode instances receive
//! their work over the cell's KV link, never the front door.
//!
//! The control plane is **two-level**: above the per-cell stack, the
//! [`fleet`] module's spill-over balancer ([`BalancerConfig::plan`])
//! runs once per fleet tick — it sees a read-only [`FleetObs`] snapshot
//! of every cell and issues per-cell [`CellDirective`]s (admission
//! quotas and cross-cell spill-over routes). See the [`fleet`] module
//! docs for the snapshot → pure function → commands contract that keeps
//! fleet feedback compatible with byte-identical sharded execution.
//!
//! Everything is strictly cell-local and integer-exact where it touches
//! the data plane (largest-remainder apportionment, integer energy
//! accumulators), so a controlled fleet keeps `litegpu-fleet`'s
//! byte-identical-report-at-any-shard-count guarantee.

pub mod autoscale;
pub mod controller;
pub mod dvfs;
pub mod fleet;
pub mod power;
pub mod route;

pub use autoscale::{Autoscaler, COLD_START_S, WARM_START_S};
pub use controller::{
    CellObs, ClockPoint, Command, InstanceObs, Mode, Phase, PhaseObs, PriorityClass,
};
pub use dvfs::DvfsController;
pub use fleet::{BalancerConfig, CellDirective, FleetCellObs, FleetObs};
pub use litegpu_cluster::power_mgmt::Policy;
pub use power::{PowerConfig, PowerGater};
pub use route::apportion_into;

/// Control-plane configuration: which policies run, and how often.
///
/// The default is the empty control plane: 5 s control ticks, every
/// policy off.
///
/// ```
/// use litegpu_ctrl::{BalancerConfig, CtrlConfig};
///
/// let cfg = CtrlConfig {
///     router: true,
///     balancer: Some(BalancerConfig::default()),
///     ..CtrlConfig::default()
/// };
/// assert_eq!(cfg.label(), "route+balancer");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlConfig {
    /// Seconds between control ticks (rounded to whole data ticks by the
    /// engine, minimum one).
    pub control_interval_s: f64,
    /// Runs the autoscaler; requires `router` (parked instances' traffic
    /// must be re-routed somewhere).
    pub autoscaler: bool,
    /// Runs serving-time DVFS: per-pool operating-point selection for
    /// live instances. Takes effect only on a data plane that priced a
    /// clock grid (`FleetConfig` enables that whenever this is set).
    pub dvfs: bool,
    /// Power-gating policy for parked instances.
    pub power: Option<PowerConfig>,
    /// Runs cell-level arrival routing.
    pub router: bool,
    /// Fleet-scope balancer: cross-cell spill-over routing and admission
    /// quotas, run once per fleet tick (see [`fleet`]). `None` keeps
    /// cells fully isolated.
    pub balancer: Option<BalancerConfig>,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            control_interval_s: 5.0,
            autoscaler: false,
            dvfs: false,
            power: None,
            router: false,
            balancer: None,
        }
    }
}

impl CtrlConfig {
    /// The demo control plane: 5 s control ticks, the autoscaler and the
    /// router, and the given power policy — [`Policy::DvfsAll`] for
    /// monolithic-GPU fleets, [`Policy::GateToEfficiency`] for Lite.
    pub fn demo(policy: Policy) -> Self {
        CtrlConfig {
            autoscaler: true,
            power: Some(PowerConfig {
                policy,
                warm_pool: 1,
            }),
            router: true,
            ..Self::default()
        }
    }

    /// Adds serving-time DVFS to this configuration.
    pub fn with_dvfs(mut self) -> Self {
        self.dvfs = true;
        self
    }

    /// Adds a fleet-scope balancer to this configuration.
    pub fn with_balancer(mut self, balancer: BalancerConfig) -> Self {
        self.balancer = Some(balancer);
        self
    }

    /// Validates the configuration; returns a static description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(self.control_interval_s.is_finite() && self.control_interval_s > 0.0) {
            return Err("control_interval_s must be finite and positive");
        }
        if self.autoscaler && !self.router {
            return Err("the autoscaler requires the router: parked instances' arrivals must be rebalanced to live ones");
        }
        if let Some(b) = &self.balancer {
            b.validate()?;
        }
        Ok(())
    }

    /// Human-readable policy label for reports, e.g.
    /// `autoscale+gate(GateToEfficiency)+route`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.autoscaler {
            parts.push("autoscale".to_string());
        }
        if self.dvfs {
            parts.push("dvfs".to_string());
        }
        if let Some(p) = &self.power {
            parts.push(format!("gate({:?})", p.policy));
        }
        if self.router {
            parts.push("route".to_string());
        }
        if self.balancer.is_some() {
            parts.push("balancer".to_string());
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Instantiates one cell's controller stack (fresh policy state).
    pub fn build(&self) -> ControllerStack {
        ControllerStack {
            autoscaler: self.autoscaler.then(Autoscaler::default),
            dvfs: self.dvfs.then(DvfsController::default),
            power: self.power.map(PowerGater::new),
            router: self.router,
        }
    }
}

/// The policies driving one cell: those its [`CtrlConfig`] turns on.
///
/// Policies run in a fixed order (autoscaler → DVFS → power gater →
/// router) and append to one command buffer, so each sees the commands
/// issued earlier in the same control tick: e.g. the DVFS policy tunes
/// the pool partition the autoscaler just decided, and the gater keeps
/// the warm pool consistent with this tick's parks.
#[derive(Debug, Clone)]
pub struct ControllerStack {
    autoscaler: Option<Autoscaler>,
    dvfs: Option<DvfsController>,
    power: Option<PowerGater>,
    router: bool,
}

impl ControllerStack {
    /// Returns every policy to the state [`CtrlConfig::build`] gives it —
    /// no demand history, best-effort traffic admitted — keeping the
    /// policies' scratch buffers, so a stack can serve cell after cell
    /// without allocating them again.
    pub fn reset(&mut self) {
        if let Some(p) = &mut self.autoscaler {
            *p = Autoscaler::default();
        }
        if let Some(p) = &mut self.dvfs {
            p.reset();
        }
        // The gater keeps nothing across ticks but its scratch list, and
        // the router keeps nothing at all.
    }

    /// Runs every policy for one control tick, leaving their commands in
    /// `cmds` in issue order (whatever `cmds` held before is cleared).
    pub fn control(&mut self, obs: &CellObs, cmds: &mut Vec<Command>) {
        cmds.clear();
        if let Some(p) = &mut self.autoscaler {
            p.control(obs, cmds);
        }
        if let Some(p) = &mut self.dvfs {
            p.control(obs, cmds);
        }
        if let Some(p) = &mut self.power {
            p.control(obs, cmds);
        }
        if self.router {
            route::control(obs, cmds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which policies a built stack holds, in run order: autoscaler,
    /// DVFS, power gater, router.
    fn policies(s: &ControllerStack) -> [bool; 4] {
        [
            s.autoscaler.is_some(),
            s.dvfs.is_some(),
            s.power.is_some(),
            s.router,
        ]
    }

    #[test]
    fn demo_config_validates_and_labels() {
        let c = CtrlConfig::demo(Policy::GateToEfficiency);
        c.validate().unwrap();
        assert_eq!(c.label(), "autoscale+gate(GateToEfficiency)+route");
        assert_eq!(policies(&c.build()), [true, false, true, true]);
        let d = CtrlConfig::demo(Policy::DvfsAll);
        assert_eq!(d.label(), "autoscale+gate(DvfsAll)+route");
    }

    #[test]
    fn autoscaler_without_router_rejected() {
        let mut c = CtrlConfig::demo(Policy::GateToEfficiency);
        c.router = false;
        assert!(c.validate().is_err());
        c.autoscaler = false;
        c.validate().unwrap(); // Gating alone is fine.
        assert_eq!(c.label(), "gate(GateToEfficiency)");
    }

    #[test]
    fn bad_parameters_rejected() {
        let mut c = CtrlConfig::demo(Policy::DvfsAll);
        c.control_interval_s = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn stack_feeds_pending_commands_forward() {
        // With all three policies on a quiet cell, the autoscaler parks,
        // the gater warms the pool (seeing the pending parks), and the
        // router zeroes the weights of non-live slots.
        let cfg = CtrlConfig::demo(Policy::GateToEfficiency);
        let mut stack = cfg.build();
        let obs = CellObs {
            tick: 12,
            interval_s: 5.0,
            arrived_since_last: 0,
            arrived_by_class: [0; 3],
            capacity_rps_per_instance: 2.0,
            max_queue: 50,
            chaos_down: 0,
            phase_split: None,
            clock_points: Vec::new(),
            slots: vec![
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
            ],
        };
        // The stack clears the buffer before its first policy runs.
        let mut cmds = vec![Command::Activate { slot: 0 }];
        stack.control(&obs, &mut cmds);
        assert!(!cmds.contains(&Command::Activate { slot: 0 }));
        assert!(cmds.contains(&Command::Park { slot: 1 }));
        assert!(cmds.contains(&Command::SetWarm { slot: 1 }));
        // The router ran on the *observed* modes (both live), so the weight
        // snapshot still covers both; the data plane masks non-live slots
        // per data tick.
        let weighted = cmds.iter().filter_map(|c| match c {
            Command::SetWeight { slot, .. } => Some(*slot),
            _ => None,
        });
        assert_eq!(weighted.collect::<Vec<_>>(), [0, 1]);
        let empty = CtrlConfig::default();
        assert_eq!(policies(&empty.build()), [false; 4]);
        assert_eq!(empty.label(), "none");
    }

    #[test]
    fn reset_stack_acts_like_a_fresh_build() {
        let cfg = CtrlConfig::demo(Policy::GateToEfficiency).with_dvfs();
        let point = |clock: f64| ClockPoint {
            clock,
            mixed_scale: clock,
            prefill_scale: clock,
            decode_scale: clock,
            prefill_slo_ok: true,
            decode_slo_ok: true,
        };
        let obs = |arrived: u64, best_effort: u64| CellObs {
            tick: 0,
            interval_s: 5.0,
            arrived_since_last: arrived,
            arrived_by_class: [arrived - best_effort, 0, best_effort],
            capacity_rps_per_instance: 2.0,
            max_queue: 50,
            chaos_down: 0,
            phase_split: None,
            clock_points: vec![point(0.5), point(0.75), point(1.0)],
            slots: vec![
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Mixed,
                    clock: 2,
                    queued: 0,
                    active: 0,
                };
                4
            ],
        };
        // A best-effort flood revokes admission and leaves demand history
        // in the autoscaler and in DVFS.
        let mut used = cfg.build();
        let mut cmds = Vec::new();
        used.control(&obs(1000, 900), &mut cmds);
        assert!(cmds.contains(&Command::SetAdmission {
            allow_best_effort: false
        }));
        used.reset();
        let mut fresh = cfg.build();
        let mut want = Vec::new();
        for (arrived, best_effort) in [(2, 0), (40, 10), (0, 0)] {
            used.control(&obs(arrived, best_effort), &mut cmds);
            fresh.control(&obs(arrived, best_effort), &mut want);
            assert_eq!(cmds, want);
        }
    }

    #[test]
    fn config_with_every_policy_validates_labels_and_builds() {
        let c = CtrlConfig {
            control_interval_s: 2.5,
            autoscaler: true,
            dvfs: true,
            power: Some(PowerConfig {
                policy: Policy::GateToEfficiency,
                warm_pool: 1,
            }),
            router: true,
            balancer: Some(BalancerConfig::default()),
        };
        c.validate().unwrap();
        assert_eq!(c.control_interval_s, 2.5);
        assert_eq!(
            c.label(),
            "autoscale+dvfs+gate(GateToEfficiency)+route+balancer"
        );
        // The balancer runs at the fleet scope, not in the per-cell stack.
        assert_eq!(policies(&c.build()), [true; 4]);
    }

    #[test]
    fn balancer_config_validated_through_ctrl_config() {
        let mut c = CtrlConfig::default().with_balancer(BalancerConfig::default());
        c.validate().unwrap();
        c.balancer.as_mut().unwrap().spill_permille = 1001;
        assert!(c.validate().is_err());
    }

    #[test]
    fn dvfs_labels_builds_and_validates() {
        let c = CtrlConfig::demo(Policy::GateToEfficiency).with_dvfs();
        c.validate().unwrap();
        assert_eq!(c.label(), "autoscale+dvfs+gate(GateToEfficiency)+route");
        assert_eq!(policies(&c.build()), [true; 4]);
    }
}
