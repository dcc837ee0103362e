//! Serving-time DVFS: per-cell, per-pool selection of the lowest
//! SLO-feasible operating point that still covers demand.
//!
//! Power gating handles *parked* capacity; this module handles the
//! instances that stay live. §3's finer-granularity argument applies to
//! clocks too: a Lite cell can run its prefill pool hot (compute-bound —
//! a down-clock inflates TTFT nearly 1/clock) while its decode pool
//! serves at the efficiency floor (memory-bound — step times barely move
//! while dynamic power falls cubically). The controller tracks demand
//! with an EWMA (plus a backlog-drain term, so standing queues force
//! clocks back up) and, for each phase pool, picks the **lowest** clock
//! point that
//!
//! 1. is SLO-feasible for that pool's phase ([`ClockPoint::slo_ok`] —
//!    derived by the data plane from the same step-cost table that
//!    prices serving, against the tightest per-tenant TTFT/TBT target),
//!    and
//! 2. retains enough throughput: `demand ≤ serving × capacity ×
//!    scale(point) × 0.92`, a utilization ceiling.
//!
//! Selection is deterministic and strictly cell-local, so DVFS-controlled
//! fleets keep the engine's byte-identical-report-at-any-shard-count
//! guarantee. On fleets whose data plane priced only the nominal clock
//! ([`CellObs::clock_points`] is empty) the controller stands down.

use crate::controller::{ewma, CellObs, ClockPoint, Command, Mode, Phase};

/// Utilization ceiling at the chosen operating point: a point is
/// eligible only while smoothed demand stays below this fraction of the
/// pool's down-clocked capacity. Higher than the autoscaler's sizing
/// target on purpose — the autoscaler provisions slack, DVFS converts
/// the slack it dares into energy.
const TARGET_UTIL: f64 = 0.92;

/// The per-cell DVFS policy (holds the demand EWMA; the default has no
/// demand history).
#[derive(Debug, Clone, Default)]
pub struct DvfsController {
    ewma_rps: Option<f64>,
    /// Each slot's phase and whether it serves once the commands issued
    /// earlier in the tick land: scratch, refilled every tick.
    phases: Vec<Phase>,
    serving: Vec<bool>,
}

impl DvfsController {
    /// Forgets the demand history, as a fresh default does, keeping the
    /// scratch buffers.
    pub(crate) fn reset(&mut self) {
        *self = Self {
            phases: std::mem::take(&mut self.phases),
            serving: std::mem::take(&mut self.serving),
            ..Self::default()
        };
    }

    /// Lowest eligible clock index for a pool of `serving` instances of
    /// nominal per-instance capacity `cap_rps`, given smoothed demand.
    fn pick(
        points: &[ClockPoint],
        phase: Phase,
        demand_rps: f64,
        serving: u32,
        cap_rps: f64,
    ) -> u8 {
        let nominal = (points.len() - 1) as u8;
        if serving == 0 {
            return nominal;
        }
        for (ci, p) in points.iter().enumerate() {
            let capacity = serving as f64 * cap_rps * p.scale(phase) * TARGET_UTIL;
            if p.slo_ok(phase) && demand_rps <= capacity {
                return ci as u8;
            }
        }
        nominal
    }

    /// Runs one control tick: appends a `SetClock` for every serving slot
    /// whose pool's point changes. The entries already in `cmds` are the
    /// commands earlier policies issued this tick.
    pub fn control(&mut self, obs: &CellObs, cmds: &mut Vec<Command>) {
        // Nominal-only data planes price no alternative points.
        if obs.clock_points.len() < 2 {
            return;
        }
        let interval = obs.interval_s.max(1e-9);
        let rate = obs.arrived_since_last as f64 / interval;
        let smoothed = ewma(self.ewma_rps, rate);
        self.ewma_rps = Some(smoothed);
        // Standing backlog must drain within a control interval: it adds
        // to demand, pushing clocks back toward nominal under pressure.
        let demand = smoothed + obs.queued_total() as f64 / interval;

        // Work on the pool partition as it will stand after the commands
        // already issued this tick: the autoscaler runs first in the
        // stack, so its SetPhase moves and activations are decided.
        let (phases, serving) = (&mut self.phases, &mut self.serving);
        phases.clear();
        phases.extend(obs.slots.iter().map(|s| s.phase));
        serving.clear();
        serving.extend((obs.slots.iter()).map(|s| matches!(s.mode, Mode::Live | Mode::Booting)));
        for cmd in cmds.iter() {
            match cmd {
                Command::SetPhase { slot, phase } => {
                    if let Some(p) = phases.get_mut(*slot as usize) {
                        *p = *phase;
                    }
                }
                Command::Activate { slot } => {
                    if let Some(s) = serving.get_mut(*slot as usize) {
                        *s = true;
                    }
                }
                Command::Park { slot } => {
                    if let Some(s) = serving.get_mut(*slot as usize) {
                        *s = false;
                    }
                }
                _ => {}
            }
        }

        // Every admitted request needs one residency in each pool, so
        // each pool prices the full demand stream against its own
        // capacity — the same convention the phase-aware autoscaler uses.
        for phase in [Phase::Mixed, Phase::Prefill, Phase::Decode] {
            let count = phases
                .iter()
                .zip(serving.iter())
                .filter(|(p, s)| **p == phase && **s)
                .count() as u32;
            if count == 0 {
                continue;
            }
            let cap_rps = match (phase, &obs.phase_split) {
                (Phase::Prefill, Some(ps)) => ps.prefill_capacity_rps,
                (Phase::Decode, Some(ps)) => ps.decode_capacity_rps,
                _ => obs.capacity_rps_per_instance,
            };
            let want = Self::pick(&obs.clock_points, phase, demand, count, cap_rps);
            for (i, slot) in obs.slots.iter().enumerate() {
                if phases[i] == phase && serving[i] && slot.clock != want {
                    cmds.push(Command::SetClock {
                        slot: i as u32,
                        clock: want,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{issued, InstanceObs, PhaseObs};

    /// A 3-point grid shaped like the real tables: prefill compute-bound
    /// (scale ~ clock), decode memory-bound (scale ~ 1), lowest point
    /// TTFT-infeasible.
    fn points() -> Vec<ClockPoint> {
        vec![
            ClockPoint {
                clock: 0.75,
                mixed_scale: 0.8,
                prefill_scale: 0.76,
                decode_scale: 0.98,
                prefill_slo_ok: false,
                decode_slo_ok: true,
            },
            ClockPoint {
                clock: 0.9,
                mixed_scale: 0.93,
                prefill_scale: 0.91,
                decode_scale: 0.99,
                prefill_slo_ok: true,
                decode_slo_ok: true,
            },
            ClockPoint {
                clock: 1.0,
                mixed_scale: 1.0,
                prefill_scale: 1.0,
                decode_scale: 1.0,
                prefill_slo_ok: true,
                decode_slo_ok: true,
            },
        ]
    }

    fn slot(mode: Mode, phase: Phase, clock: u8, queued: u64) -> InstanceObs {
        InstanceObs {
            mode,
            phase,
            clock,
            queued,
            active: 0,
        }
    }

    fn obs(slots: Vec<InstanceObs>, arrived: u64) -> CellObs {
        CellObs {
            tick: 10,
            interval_s: 5.0,
            arrived_since_last: arrived,
            arrived_by_class: [arrived, 0, 0],
            capacity_rps_per_instance: 2.0,
            max_queue: 1000,
            chaos_down: 0,
            phase_split: None,
            clock_points: points(),
            slots,
        }
    }

    #[test]
    fn quiet_cell_downclocks_to_lowest_feasible_point() {
        let mut d = DvfsController::default();
        // 2 live mixed slots at nominal (index 2), 1 rps of demand
        // against 2 × 2 rps: even the lowest point covers it, but index 0
        // is TTFT-infeasible for mixed serving => index 1.
        let o = obs(
            vec![
                slot(Mode::Live, Phase::Mixed, 2, 0),
                slot(Mode::Live, Phase::Mixed, 2, 0),
            ],
            5,
        );
        let cmds = issued(&[], |c| d.control(&o, c));
        assert_eq!(
            cmds,
            vec![
                Command::SetClock { slot: 0, clock: 1 },
                Command::SetClock { slot: 1, clock: 1 }
            ]
        );
    }

    #[test]
    fn demand_pressure_holds_nominal_clock() {
        let mut d = DvfsController::default();
        // 18 rps against 2 × 2 rps × 0.92: nothing fits, nominal stays —
        // and slots already at nominal get no command (idempotent).
        let o = obs(
            vec![
                slot(Mode::Live, Phase::Mixed, 2, 0),
                slot(Mode::Live, Phase::Mixed, 2, 0),
            ],
            90,
        );
        assert!(issued(&[], |c| d.control(&o, c)).is_empty());
    }

    #[test]
    fn backlog_forces_clocks_back_up() {
        let mut d = DvfsController::default();
        // No fresh arrivals, but a deep standing queue: the drain term
        // dominates and the down-clocked slot is retuned to nominal.
        let o = obs(vec![slot(Mode::Live, Phase::Mixed, 0, 200)], 0);
        let cmds = issued(&[], |c| d.control(&o, c));
        assert_eq!(cmds, vec![Command::SetClock { slot: 0, clock: 2 }]);
    }

    #[test]
    fn split_pools_pick_different_points() {
        let mut d = DvfsController::default();
        // Prefill capacity is high (8 rps/inst) and index 0 is
        // prefill-infeasible => prefill pool lands on index 1; decode
        // (2 rps/inst, memory-bound scale ≈ 1) absorbs the same demand at
        // the floor => index 0. Different points per pool — §3's
        // fine-grained clock control.
        let mut o = obs(
            vec![
                slot(Mode::Live, Phase::Prefill, 2, 0),
                slot(Mode::Live, Phase::Decode, 2, 0),
                slot(Mode::Live, Phase::Decode, 2, 0),
                slot(Mode::Live, Phase::Decode, 2, 0),
            ],
            25, // 5 rps.
        );
        o.phase_split = Some(PhaseObs {
            prefill_capacity_rps: 8.0,
            decode_capacity_rps: 2.0,
            kv_backlog_us: 0,
        });
        let cmds = issued(&[], |c| d.control(&o, c));
        assert!(cmds.contains(&Command::SetClock { slot: 0, clock: 1 }));
        for s in 1..4 {
            assert!(
                cmds.contains(&Command::SetClock { slot: s, clock: 0 }),
                "{s}"
            );
        }
    }

    #[test]
    fn pending_phase_moves_and_parks_are_respected() {
        let mut d = DvfsController::default();
        let mut o = obs(
            vec![
                slot(Mode::Live, Phase::Prefill, 2, 0),
                slot(Mode::Live, Phase::Prefill, 2, 0),
            ],
            5,
        );
        o.phase_split = Some(PhaseObs {
            prefill_capacity_rps: 8.0,
            decode_capacity_rps: 2.0,
            kv_backlog_us: 0,
        });
        // The autoscaler just moved slot 1 to decode and parked slot 0:
        // slot 1 is tuned as a decode slot, slot 0 not at all.
        let pending = vec![
            Command::SetPhase {
                slot: 1,
                phase: Phase::Decode,
            },
            Command::Park { slot: 0 },
        ];
        let cmds = issued(&pending, |c| d.control(&o, c));
        assert_eq!(cmds, vec![Command::SetClock { slot: 1, clock: 0 }]);
    }

    #[test]
    fn stands_down_without_a_clock_grid() {
        let mut d = DvfsController::default();
        let mut o = obs(vec![slot(Mode::Live, Phase::Mixed, 0, 0)], 0);
        o.clock_points = Vec::new();
        assert!(issued(&[], |c| d.control(&o, c)).is_empty());
        assert!(d.ewma_rps.is_none(), "no state accrues while inactive");
    }

    #[test]
    fn ewma_remembers_spikes() {
        let mut d = DvfsController::default();
        let busy = obs(vec![slot(Mode::Live, Phase::Mixed, 2, 0)], 400);
        issued(&[], |c| d.control(&busy, c));
        let spike = d.ewma_rps.unwrap();
        let quiet = obs(vec![slot(Mode::Live, Phase::Mixed, 2, 0)], 0);
        let cmds = issued(&[], |c| d.control(&quiet, c));
        let after = d.ewma_rps.unwrap();
        assert!(after > 0.0 && after < spike);
        // The smoothed spike (48 rps vs 1.84 rps ceiling) still pins
        // nominal: no retune commands on a nominal-clocked slot.
        assert!(cmds.is_empty());
    }
}
