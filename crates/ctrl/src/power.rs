//! Power gating of parked instances, reusing the cluster-level
//! load-following vocabulary ([`litegpu_cluster::power_mgmt::Policy`]).
//!
//! The gater decides what "parked" costs. Under [`Policy::DvfsAll`] — the
//! only option a monolithic-GPU fleet has (§3: "down-clocking all SMs") —
//! a parked instance can merely down-clock, so it stays warm and keeps
//! paying its idle floor. Under the gating policies that Lite-GPU
//! granularity enables ([`Policy::GateIdle`], [`Policy::GateToEfficiency`])
//! parked instances power off entirely, except for a configurable warm
//! pool kept powered to hide the cold-boot latency from the autoscaler.

use crate::controller::{CellObs, Command, Mode};
use litegpu_cluster::power_mgmt::Policy;

/// Power-gating policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// How parked capacity is powered. [`Policy::DvfsAll`] keeps every
    /// parked instance warm (idle floor); the gating policies power
    /// parked instances off beyond the warm pool.
    pub policy: Policy,
    /// Parked instances kept warm (powered) per cell under a gating
    /// policy, to absorb demand spikes at the warm-boot latency.
    pub warm_pool: u32,
}

impl Default for PowerConfig {
    fn default() -> Self {
        Self {
            policy: Policy::GateToEfficiency,
            warm_pool: 1,
        }
    }
}

/// The per-cell power gater.
#[derive(Debug, Clone)]
pub struct PowerGater {
    cfg: PowerConfig,
    /// The parked slots once this tick's commands land: scratch,
    /// refilled every tick.
    parked: Vec<u32>,
}

impl PowerGater {
    /// Builds the gater.
    pub fn new(cfg: PowerConfig) -> Self {
        Self {
            cfg,
            parked: Vec::new(),
        }
    }

    /// Whether the policy can power parked instances off at all.
    pub fn gates(&self) -> bool {
        self.cfg.policy != Policy::DvfsAll
    }

    /// Runs one control tick: appends a `SetWarm` or `SetCold` for every
    /// slot parked once the commands already in `cmds` (those earlier
    /// policies issued this tick) land.
    pub fn control(&mut self, obs: &CellObs, cmds: &mut Vec<Command>) {
        let gates = self.gates();
        // The parked set once this tick's commands land: currently parked
        // slots, plus this tick's parks, minus this tick's activations.
        let parked = &mut self.parked;
        parked.clear();
        parked.extend(
            (obs.slots.iter().enumerate())
                .filter(|(_, s)| matches!(s.mode, Mode::Warm | Mode::Cold))
                .map(|(i, _)| i as u32),
        );
        for cmd in cmds.iter() {
            match cmd {
                Command::Park { slot } => parked.push(*slot),
                Command::Activate { slot } => parked.retain(|s| s != slot),
                _ => {}
            }
        }
        parked.sort_unstable();
        parked.dedup();

        let warm_quota = if gates {
            self.cfg.warm_pool as usize
        } else {
            parked.len() // DVFS-only: everything parked stays powered.
        };
        cmds.extend(parked.iter().enumerate().map(|(rank, &slot)| {
            if rank < warm_quota {
                Command::SetWarm { slot }
            } else {
                Command::SetCold { slot }
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{issued, InstanceObs};

    fn obs(modes: &[Mode]) -> CellObs {
        CellObs {
            tick: 0,
            interval_s: 5.0,
            arrived_since_last: 0,
            arrived_by_class: [0; 3],
            capacity_rps_per_instance: 2.0,
            max_queue: 100,
            chaos_down: 0,
            phase_split: None,
            clock_points: Vec::new(),
            slots: modes
                .iter()
                .map(|&mode| InstanceObs {
                    mode,
                    phase: crate::controller::Phase::Mixed,
                    clock: 0,
                    queued: 0,
                    active: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn gating_policy_keeps_only_the_warm_pool_powered() {
        let mut g = PowerGater::new(PowerConfig {
            policy: Policy::GateToEfficiency,
            warm_pool: 1,
        });
        let o = obs(&[Mode::Live, Mode::Cold, Mode::Warm, Mode::Warm]);
        let cmds = issued(&[], |c| g.control(&o, c));
        assert_eq!(
            cmds,
            vec![
                Command::SetWarm { slot: 1 },
                Command::SetCold { slot: 2 },
                Command::SetCold { slot: 3 }
            ]
        );
    }

    #[test]
    fn dvfs_policy_keeps_every_parked_slot_warm() {
        let mut g = PowerGater::new(PowerConfig {
            policy: Policy::DvfsAll,
            warm_pool: 1,
        });
        assert!(!g.gates());
        let o = obs(&[Mode::Cold, Mode::Live, Mode::Cold]);
        let cmds = issued(&[], |c| g.control(&o, c));
        assert_eq!(
            cmds,
            vec![Command::SetWarm { slot: 0 }, Command::SetWarm { slot: 2 }]
        );
    }

    #[test]
    fn pending_parks_and_activations_adjust_the_pool() {
        let mut g = PowerGater::new(PowerConfig {
            policy: Policy::GateIdle,
            warm_pool: 2,
        });
        let o = obs(&[Mode::Live, Mode::Live, Mode::Warm, Mode::Cold]);
        let pending = vec![
            Command::Park { slot: 1 },
            Command::Activate { slot: 2 },
            Command::SetWeight { slot: 0, weight: 5 },
        ];
        let cmds = issued(&pending, |c| g.control(&o, c));
        // Parked set after pending: {1, 3}; warm pool of 2 covers both.
        assert_eq!(
            cmds,
            vec![Command::SetWarm { slot: 1 }, Command::SetWarm { slot: 3 }]
        );
    }
}
