//! Reactive per-cell autoscaling with scale-out latency, a warm pool,
//! and priority-aware admission control.
//!
//! The autoscaler tracks the cell's observed arrival rate with two EWMAs
//! — one for the guaranteed classes ([`PriorityClass::Interactive`] +
//! [`PriorityClass::Batch`]), one for [`PriorityClass::BestEffort`] —
//! adds a backlog-drain term, and converts the demand into a target live
//! count against the per-instance capacity at a fixed utilization
//! ceiling. Scale-out is not free: activations pay the warm or cold boot
//! latency ([`WARM_START_S`], [`COLD_START_S`]; the data plane picks
//! which from the slot's mode), which is exactly the elasticity cost the
//! warm pool exists to hide.
//!
//! Admission control is the priority-aware half: when even the fully
//! scaled-out cell could not serve total demand at the target
//! utilization, the autoscaler revokes best-effort admission
//! ([`Command::SetAdmission`]) so scavenger load is shed *before* the
//! guaranteed classes lose queue room or SLO headroom, and re-grants it
//! once total demand fits again.
//!
//! On phase-split cells ([`CellObs::phase_split`] is set) the autoscaler
//! is phase-aware: demand is priced against *per-pool* capacities (every
//! admitted request needs one prefill and one decode residency), the
//! live target is the sum of both pool targets, and the prefill/decode
//! partition is re-asserted each control tick with
//! [`Command::SetPhase`] — so a prompt-heavy shift grows the prefill
//! pool at the decode pool's expense without changing fleet size.

use crate::controller::{ewma, CellObs, Command, Mode, Phase, PriorityClass};

/// Utilization ceiling the live pool is sized against (demand /
/// capacity at this utilization).
const TARGET_UTIL: f64 = 0.7;
/// Live instances the cell never scales below.
const MIN_LIVE: u32 = 1;
/// Boot latency of a power-gated (cold) instance, seconds.
pub const COLD_START_S: f64 = 120.0;
/// Boot latency of a warm (powered, parked) instance, seconds.
pub const WARM_START_S: f64 = 5.0;

/// The reactive autoscaler (one per cell; holds the EWMA state). The
/// default has no demand history and admits best-effort traffic.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    /// Smoothed guaranteed-class (interactive + batch) arrival rate.
    ewma_guaranteed_rps: Option<f64>,
    /// Smoothed best-effort arrival rate.
    ewma_best_effort_rps: Option<f64>,
    /// Whether best-effort admission is currently granted.
    allow_best_effort: bool,
}

impl Default for Autoscaler {
    fn default() -> Self {
        Self {
            ewma_guaranteed_rps: None,
            ewma_best_effort_rps: None,
            allow_best_effort: true,
        }
    }
}

impl Autoscaler {
    /// Runs one control tick: appends this tick's admission, scaling and
    /// phase-partition commands to `cmds`.
    pub fn control(&mut self, obs: &CellObs, cmds: &mut Vec<Command>) {
        let interval = obs.interval_s.max(1e-9);
        let be = obs.arrived_by_class[PriorityClass::BestEffort.index()];
        // Untagged arrivals (legacy single-class callers leave
        // `arrived_by_class` zeroed) count as guaranteed.
        let guaranteed = obs.arrived_since_last.saturating_sub(be);
        let g_rate = guaranteed as f64 / interval;
        let be_rate = be as f64 / interval;
        let ewma_g = ewma(self.ewma_guaranteed_rps, g_rate);
        let ewma_be = ewma(self.ewma_best_effort_rps, be_rate);
        self.ewma_guaranteed_rps = Some(ewma_g);
        self.ewma_best_effort_rps = Some(ewma_be);

        // Demand = smoothed arrivals plus draining the standing backlog
        // within one control interval.
        let backlog_rps = obs.queued_total() as f64 / interval;
        let demand_guaranteed = ewma_g + backlog_rps;
        let demand_total = demand_guaranteed + ewma_be;
        let cap = (obs.capacity_rps_per_instance * TARGET_UTIL).max(1e-9);
        let healthy = obs.healthy();
        // Announced chaos losses raise the floor: the cell holds that
        // many extra slots live as replacement capacity instead of
        // parking them into the blast radius. Campaign-free cells see
        // `chaos_down == 0` and behave exactly as before.
        let floor = (MIN_LIVE + obs.chaos_down).min(healthy);

        // Admission: shed best effort only when even every healthy
        // instance could not carry total demand at the target
        // utilization — pressure by construction, not a tunable knob.
        // With no best-effort demand at all, revoking admission would be
        // a no-op that misrepresents the cell's state, so don't.
        let fits = (demand_total / cap).ceil() as u32 <= healthy;
        let allow = fits || ewma_be <= 0.0;
        let admission_changed = allow != self.allow_best_effort;
        self.allow_best_effort = allow;
        let demand_rps = if allow {
            demand_total
        } else {
            demand_guaranteed
        };
        // Phase-split cells size each pool against its own per-phase
        // capacity (every admitted request needs one prefill *and* one
        // decode residency, so both pools see the full demand stream) and
        // re-assert the prefill/decode partition below; monolithic cells
        // size the single pool as before.
        let (desired, prefill_target) = match &obs.phase_split {
            Some(ps) => {
                let cap_p = (ps.prefill_capacity_rps * TARGET_UTIL).max(1e-9);
                let cap_d = (ps.decode_capacity_rps * TARGET_UTIL).max(1e-9);
                let need_p = ((demand_rps / cap_p).ceil() as u32).max(1);
                let need_d = ((demand_rps / cap_d).ceil() as u32).max(1);
                // A split cell needs at least one slot per pool.
                let split_floor = floor.max(2.min(healthy));
                let desired = (need_p + need_d).clamp(split_floor, healthy);
                // When both pools fit, prefill takes exactly its need;
                // when demand outruns the cell, keep the partition
                // *proportional* to the per-pool needs — handing prefill
                // everything up to `desired − 1` would starve the decode
                // pool, wedge the KV hand-off, and deadlock the cell
                // behind an ever-growing backlog.
                let prefill = if need_p + need_d <= desired {
                    need_p
                } else {
                    ((desired as u64 * need_p as u64) / (need_p as u64 + need_d as u64)) as u32
                };
                (
                    desired,
                    Some(prefill.clamp(1, desired.saturating_sub(1).max(1))),
                )
            }
            None => (
                ((demand_rps / cap).ceil() as u32).clamp(floor, healthy),
                None,
            ),
        };

        let live = obs.live();
        let planned = live + obs.booting();
        if admission_changed {
            cmds.push(Command::SetAdmission {
                allow_best_effort: allow,
            });
        }
        if desired > planned {
            // Scale out: warm slots first (fast boot), then cold, both in
            // ascending slot order so the choice is deterministic.
            let need = (desired - planned) as usize;
            let parked = |want: Mode| {
                obs.slots
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| s.mode == want)
                    .map(|(i, _)| i as u32)
            };
            for slot in parked(Mode::Warm).chain(parked(Mode::Cold)).take(need) {
                cmds.push(Command::Activate { slot });
            }
        } else if desired < live {
            // Scale in: park idle live slots, highest slot first, so the
            // low-numbered slots act as the cell's stable primaries.
            let excess = (live - desired) as usize;
            let idle = obs
                .slots
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, s)| s.mode == Mode::Live && s.queued == 0 && s.active == 0)
                .map(|(i, _)| i as u32);
            for slot in idle.take(excess) {
                cmds.push(Command::Park { slot });
            }
        }
        if let Some(np) = prefill_target {
            // Re-assert the phase partition over the slots that actually
            // serve — Live or Booting, in index order: the first `np`
            // form the prefill pool, the rest decode. Painting parked
            // slots instead would deadlock a scaled-down cell: the live
            // set could end up all-decode (shedding every arrival with
            // empty queues, so demand never forces a scale-up) while the
            // "prefill" slots sleep. Freshly activated slots keep a stale
            // phase for at most one control interval. The data plane
            // applies a SetPhase only once the slot is idle, so busy
            // mismatched slots converge as they drain.
            let mut assigned = 0u32;
            for (i, s) in obs.slots.iter().enumerate() {
                if !matches!(s.mode, Mode::Live | Mode::Booting) {
                    continue;
                }
                let want = if assigned < np {
                    Phase::Prefill
                } else {
                    Phase::Decode
                };
                assigned += 1;
                if s.phase != want {
                    cmds.push(Command::SetPhase {
                        slot: i as u32,
                        phase: want,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{issued, InstanceObs};

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
            clock_points: Vec::new(),
            slots,
        }
    }

    fn slot(mode: Mode, queued: u64, active: u32) -> InstanceObs {
        InstanceObs {
            mode,
            phase: Phase::Mixed,
            clock: 0,
            queued,
            active,
        }
    }

    #[test]
    fn parks_idle_slots_under_low_demand() {
        let mut a = Autoscaler::default();
        // 4 live, all idle, 5 arrivals in 5 s = 1 rps; capacity at 70%
        // utilization is 1.4 rps/instance => 1 instance suffices.
        let o = obs(vec![slot(Mode::Live, 0, 0); 4], 5);
        let cmds = issued(&[], |c| a.control(&o, c));
        assert_eq!(
            cmds,
            vec![
                Command::Park { slot: 3 },
                Command::Park { slot: 2 },
                Command::Park { slot: 1 }
            ]
        );
    }

    #[test]
    fn respects_min_live_and_busy_slots() {
        let mut a = Autoscaler::default();
        // Zero demand, but slot 2 is busy: only idle slots park, down to
        // the floor of one live slot, which the busy slot fills.
        let o = obs(
            vec![
                slot(Mode::Live, 0, 0),
                slot(Mode::Live, 0, 0),
                slot(Mode::Live, 4, 2),
                slot(Mode::Live, 0, 0),
            ],
            0,
        );
        let cmds = issued(&[], |c| a.control(&o, c));
        assert_eq!(
            cmds,
            vec![
                Command::Park { slot: 3 },
                Command::Park { slot: 1 },
                Command::Park { slot: 0 }
            ]
        );
    }

    #[test]
    fn chaos_losses_raise_the_scale_down_floor() {
        let mut a = Autoscaler::default();
        // Zero demand over 4 idle live slots would normally park down to
        // the floor of one live slot; with 2 slots inside an announced
        // chaos window the floor rises to 3 so the cell keeps replacement
        // capacity live.
        let mut o = obs(vec![slot(Mode::Live, 0, 0); 4], 0);
        o.chaos_down = 2;
        let cmds = issued(&[], |c| a.control(&o, c));
        assert_eq!(cmds, vec![Command::Park { slot: 3 }]);
        // The same cell without the campaign parks all the way down.
        let mut b = Autoscaler::default();
        let o = obs(vec![slot(Mode::Live, 0, 0); 4], 0);
        assert_eq!(issued(&[], |c| b.control(&o, c)).len(), 3);
    }

    #[test]
    fn activates_warm_before_cold_on_demand_spike() {
        let mut a = Autoscaler::default();
        // 28 arrivals in 5 s = 5.6 rps; at 1.4 rps/instance that needs
        // all 4 healthy slots. One live, one booting => two activations.
        let o = obs(
            vec![
                slot(Mode::Live, 0, 1),
                slot(Mode::Cold, 0, 0),
                slot(Mode::Warm, 0, 0),
                slot(Mode::Booting, 0, 0),
                slot(Mode::Down, 0, 0),
            ],
            28,
        );
        let cmds = issued(&[], |c| a.control(&o, c));
        assert_eq!(
            cmds,
            vec![Command::Activate { slot: 2 }, Command::Activate { slot: 1 }]
        );
    }

    #[test]
    fn backlog_forces_scale_out_even_with_quiet_arrivals() {
        let mut a = Autoscaler::default();
        let o = obs(
            vec![slot(Mode::Live, 10, 4), slot(Mode::Cold, 0, 0)],
            0, // No fresh arrivals, but a standing backlog.
        );
        let cmds = issued(&[], |c| a.control(&o, c));
        assert_eq!(cmds, vec![Command::Activate { slot: 1 }]);
    }

    #[test]
    fn ewma_smooths_demand() {
        let mut a = Autoscaler::default();
        let o1 = obs(vec![slot(Mode::Live, 0, 0); 2], 100);
        issued(&[], |c| a.control(&o1, c));
        // `obs` tags every arrival guaranteed.
        let after_spike = a.ewma_guaranteed_rps.unwrap();
        let o2 = obs(vec![slot(Mode::Live, 0, 0); 2], 0);
        issued(&[], |c| a.control(&o2, c));
        let after_quiet = a.ewma_guaranteed_rps.unwrap();
        assert!(after_quiet > 0.0, "EWMA should remember the spike");
        assert!(after_quiet < after_spike);
    }

    #[test]
    fn pressure_sheds_best_effort_before_guaranteed() {
        let mut a = Autoscaler::default();
        // 2 healthy slots carry 2 × 1.4 = 2.8 rps at target utilization.
        // Guaranteed 10/5 s = 2 rps fits; +best-effort 10/5 s = 2 rps
        // does not => revoke best-effort admission and size only against
        // the guaranteed demand.
        let mut o = obs(vec![slot(Mode::Live, 0, 1); 2], 20);
        o.arrived_by_class = [5, 5, 10];
        let cmds = issued(&[], |c| a.control(&o, c));
        assert!(cmds.contains(&Command::SetAdmission {
            allow_best_effort: false
        }));
        assert!(!a.allow_best_effort);
        // Guaranteed demand alone (2 rps) fits the 2 live slots: no
        // scale action is possible anyway (no parked slots), and no park
        // happens either.
        assert!(!cmds.iter().any(|c| matches!(c, Command::Park { .. })));

        // Demand falls back within capacity: admission is re-granted
        // exactly once (idempotent state, not re-asserted every tick).
        let mut quiet = obs(vec![slot(Mode::Live, 0, 1); 2], 0);
        quiet.arrived_by_class = [0; 3];
        let cmds = issued(&[], |c| a.control(&quiet, c));
        assert!(cmds.contains(&Command::SetAdmission {
            allow_best_effort: true
        }));
        let cmds = issued(&[], |c| a.control(&quiet, c));
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Command::SetAdmission { .. })));
    }

    #[test]
    fn phase_split_sizes_pools_and_reasserts_partition() {
        use crate::controller::PhaseObs;
        let mut a = Autoscaler::default();
        // 28 arrivals / 5 s = 5.6 rps. Prefill capacity 8 rps/inst at
        // 70% util = 5.6 ⇒ 1 prefill slot; decode capacity 2 rps at 70%
        // = 1.4 ⇒ 4 decode slots ⇒ desired live = 5 of 6 healthy.
        let mut o = obs(
            vec![
                slot(Mode::Live, 0, 1),
                slot(Mode::Live, 0, 1),
                slot(Mode::Live, 0, 2),
                slot(Mode::Live, 0, 2),
                slot(Mode::Live, 0, 2),
                slot(Mode::Warm, 0, 0),
            ],
            28,
        );
        // Start with phases scrambled: slot 2 prefill, the rest decode.
        for (i, s) in o.slots.iter_mut().enumerate() {
            s.phase = if i == 2 {
                Phase::Prefill
            } else {
                Phase::Decode
            };
        }
        o.phase_split = Some(PhaseObs {
            prefill_capacity_rps: 8.0,
            decode_capacity_rps: 2.0,
            kv_backlog_us: 0,
        });
        let cmds = issued(&[], |c| a.control(&o, c));
        // The partition converges to: slot 0 prefill, slots 1..6 decode.
        assert!(cmds.contains(&Command::SetPhase {
            slot: 0,
            phase: Phase::Prefill
        }));
        assert!(cmds.contains(&Command::SetPhase {
            slot: 2,
            phase: Phase::Decode
        }));
        // Slots already in the right phase are left alone.
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Command::SetPhase { slot: 1, .. })));
        // No scale action: 5 live slots already match the desired count.
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Command::Activate { .. } | Command::Park { .. })));
    }

    #[test]
    fn phase_split_keeps_one_slot_per_pool_even_when_quiet() {
        use crate::controller::PhaseObs;
        let mut a = Autoscaler::default();
        // Zero demand on a 4-slot split cell: the cell still keeps two
        // live slots (one per pool) and the partition stays 1 + rest.
        let mut o = obs(vec![slot(Mode::Live, 0, 0); 4], 0);
        for s in o.slots.iter_mut() {
            s.phase = Phase::Decode;
        }
        o.phase_split = Some(PhaseObs {
            prefill_capacity_rps: 4.0,
            decode_capacity_rps: 4.0,
            kv_backlog_us: 0,
        });
        let cmds = issued(&[], |c| a.control(&o, c));
        let parks = cmds
            .iter()
            .filter(|c| matches!(c, Command::Park { .. }))
            .count();
        assert_eq!(parks, 2, "quiet split cell parks down to 2, not 1");
        assert!(cmds.contains(&Command::SetPhase {
            slot: 0,
            phase: Phase::Prefill
        }));
    }

    #[test]
    fn untagged_arrivals_count_as_guaranteed() {
        let mut a = Autoscaler::default();
        // Legacy callers leave arrived_by_class zeroed: all arrivals are
        // treated as guaranteed, and admission control never triggers a
        // best-effort shed that would be a no-op anyway — even though
        // 20 rps massively overloads the 2-slot cell.
        let mut o = obs(vec![slot(Mode::Live, 0, 1); 2], 100);
        o.arrived_by_class = [0; 3];
        let cmds = issued(&[], |c| a.control(&o, c));
        assert!((a.ewma_guaranteed_rps.unwrap() - 20.0).abs() < 1e-9);
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Command::SetAdmission { .. })));
        assert!(a.allow_best_effort);
    }
}
