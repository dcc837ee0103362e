//! Deterministic cell-level routing: arrivals are rebalanced across a
//! cell's live instances, weighted by free queue capacity.
//!
//! Without a router, each instance owns its arrival stream, so a failed
//! or parked instance strands its traffic. The router turns the cell into
//! a single arrival pool: at every control tick it snapshots per-slot
//! weights (free queue capacity), and the data plane
//! apportions each tick's cell-level Poisson draw across the currently
//! live slots with the largest-remainder method — pure integer
//! arithmetic, so the split is exactly reproducible at any shard or
//! thread count. The snapshot refreshes only at control ticks, modeling a
//! load balancer with periodically-updated backend stats.

use crate::controller::{CellObs, Command, Mode, Phase};

/// Runs one control tick of the router: appends the cell's routing-weight
/// snapshot, one [`Command::SetWeight`] per slot in slot order, in which
/// each live slot outside the decode pool weighs its free queue room and
/// every other slot weighs zero.
pub fn control(obs: &CellObs, cmds: &mut Vec<Command>) {
    let weights = obs.slots.iter().map(|s| match s.mode {
        // Queue room is granted per pool: on a phase-split cell only the
        // prefill pool receives routed arrivals — the decode pool's work
        // arrives over the KV link, never the front door.
        Mode::Live if s.phase != Phase::Decode => (obs.max_queue as u64).saturating_sub(s.queued),
        _ => 0,
    });
    cmds.extend(
        (0..)
            .zip(weights)
            .map(|(slot, weight)| Command::SetWeight { slot, weight }),
    );
}

/// Splits `n` items over integer `weights` proportionally, using the
/// largest-remainder method: every entry gets `⌊n·wᵢ/W⌋`, and the
/// leftover items go to the largest remainders (ties to the lowest slot).
/// Writes all zeros when the weights sum to zero. Exact: the shares
/// always sum to `n` (when any weight is positive), with no floating
/// point anywhere.
///
/// The shares land in `shares`, and `scratch` ranks the remainders, so a
/// caller that reuses both buffers (e.g. the fleet engine's per-tick
/// routing) performs no allocation once they have grown to the slot
/// count.
///
/// Cost: one pass over the weights, with no division when every floor
/// share is zero (`n · max w < Σw`, the usual batch of a few requests
/// over a cell); otherwise one 128-bit division per positive weight and
/// a selection over the positive remainders, never a full sort.
pub fn apportion_into(
    n: u64,
    weights: &[u64],
    shares: &mut Vec<u64>,
    scratch: &mut Vec<(u128, u32)>,
) {
    shares.clear();
    scratch.clear();
    shares.resize(weights.len(), 0);
    if n == 0 {
        return;
    }
    // The one pass: the weight sum, the first largest weight and, when
    // more than one item is to place, every positive weight.
    let (mut total, mut max_w, mut argmax) = (0u128, 0u64, 0usize);
    for (i, &w) in weights.iter().enumerate() {
        total += w as u128;
        if w > max_w {
            (max_w, argmax) = (w, i);
        }
        if n > 1 && w > 0 {
            scratch.push((w as u128, i as u32));
        }
    }
    if total == 0 {
        return;
    }
    if n == 1 {
        // One item: either a single positive weight takes it as its floor
        // share, or it is the one leftover and goes to the largest
        // remainder `wᵢ` — the argmax either way.
        shares[argmax] = 1;
        return;
    }
    // Largest remainder first, ties toward the lowest slot index: a total
    // order, so the selected set is unique.
    let by_rank = |a: &(u128, u32), b: &(u128, u32)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
    if (n as u128 * max_w as u128) < total {
        // Every floor share ⌊n·wᵢ/W⌋ is 0, and the remainders `n·wᵢ` rank
        // exactly like `wᵢ`: the `n` largest positive weights take one
        // item each (there are more than `n` of them, as `n·max w < W`).
        scratch.select_nth_unstable_by(n as usize - 1, by_rank);
        for &(_, i) in &scratch[..n as usize] {
            shares[i as usize] = 1;
        }
        return;
    }
    // Floor shares of the positive weights, their remainders replacing
    // them in `scratch`.
    let (mut assigned, mut kept) = (0u64, 0usize);
    for k in 0..scratch.len() {
        let (w, i) = scratch[k];
        let exact = n as u128 * w;
        let (share, rem) = ((exact / total) as u64, exact % total);
        shares[i as usize] = share;
        assigned += share;
        if rem > 0 {
            scratch[kept] = (rem, i);
            kept += 1;
        }
    }
    scratch.truncate(kept);
    // The leftover is Σ remainders / W, so fewer leftover items than
    // positive remainders exist: zero remainders never take one.
    let left = (n - assigned) as usize;
    if left > 0 {
        scratch.select_nth_unstable_by(left - 1, by_rank);
        for &(_, i) in &scratch[..left] {
            shares[i as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{issued, InstanceObs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`apportion_into`] into fresh buffers.
    fn apportion(n: u64, weights: &[u64]) -> Vec<u64> {
        let mut shares = Vec::new();
        let mut scratch = Vec::new();
        apportion_into(n, weights, &mut shares, &mut scratch);
        shares
    }

    /// The sort-based largest-remainder split that [`apportion_into`]
    /// replaced: every slot's floor share and remainder in 128-bit
    /// arithmetic, then a full sort of the remainders. Kept as the oracle
    /// the randomized test compares against.
    fn apportion_reference(n: u64, weights: &[u64]) -> Vec<u64> {
        let mut shares = Vec::new();
        let mut scratch: Vec<(u128, u32)> = Vec::new();
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        if total == 0 || n == 0 {
            shares.resize(weights.len(), 0);
            return shares;
        }
        let mut assigned: u64 = 0;
        for (i, &w) in weights.iter().enumerate() {
            let exact = n as u128 * w as u128;
            let share = (exact / total) as u64;
            shares.push(share);
            assigned += share;
            scratch.push((exact % total, i as u32));
        }
        scratch.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in scratch.iter().take((n - assigned) as usize) {
            shares[i as usize] += 1;
        }
        shares
    }

    /// The router's weight snapshot: one `SetWeight` per slot, in slot
    /// order.
    fn set_weights(weights: &[u64]) -> Vec<Command> {
        (0..)
            .zip(weights)
            .map(|(slot, &weight)| Command::SetWeight { slot, weight })
            .collect()
    }

    #[test]
    fn weights_track_free_capacity_of_live_slots() {
        let obs = CellObs {
            tick: 0,
            interval_s: 5.0,
            arrived_since_last: 0,
            arrived_by_class: [0; 3],
            capacity_rps_per_instance: 2.0,
            max_queue: 10,
            chaos_down: 0,
            phase_split: None,
            clock_points: Vec::new(),
            slots: vec![
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 3,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Down,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 12, // Over capacity (stale): clamps to 0.
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Cold,
                    phase: Phase::Mixed,
                    clock: 0,
                    queued: 0,
                    active: 0,
                },
            ],
        };
        let cmds = issued(&[], |c| control(&obs, c));
        assert_eq!(cmds, set_weights(&[7, 0, 0, 0]));
    }

    #[test]
    fn decode_pool_slots_get_no_queue_room() {
        let obs = CellObs {
            tick: 0,
            interval_s: 5.0,
            arrived_since_last: 0,
            arrived_by_class: [0; 3],
            capacity_rps_per_instance: 2.0,
            max_queue: 10,
            chaos_down: 0,
            phase_split: None,
            clock_points: Vec::new(),
            slots: vec![
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Prefill,
                    clock: 0,
                    queued: 2,
                    active: 0,
                },
                InstanceObs {
                    mode: Mode::Live,
                    phase: Phase::Decode,
                    clock: 0,
                    queued: 0,
                    active: 30,
                },
            ],
        };
        let cmds = issued(&[], |c| control(&obs, c));
        assert_eq!(cmds, set_weights(&[8, 0]));
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        // Exact shares are 2.5, 2.5, 5.0: one leftover item exists and
        // the remainder tie breaks toward the lower slot.
        let shares = apportion(10, &[1, 1, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert_eq!(shares, vec![3, 2, 5]);
        let shares = apportion(10, &[1, 1, 2, 0]);
        assert_eq!(shares, vec![3, 2, 5, 0]);
    }

    #[test]
    fn apportion_zero_weights_or_items() {
        assert_eq!(apportion(5, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion(0, &[3, 4]), vec![0, 0]);
        assert_eq!(apportion(5, &[]), Vec::<u64>::new());
    }

    #[test]
    fn apportion_into_reuses_buffers_and_matches() {
        let mut shares = Vec::new();
        let mut scratch = Vec::new();
        for (n, weights) in [
            (10u64, vec![1u64, 1, 2]),
            (7, vec![0, 5, 3]),
            (0, vec![2, 2]),
        ] {
            apportion_into(n, &weights, &mut shares, &mut scratch);
            assert_eq!(shares, apportion(n, &weights), "n={n}");
        }
    }

    #[test]
    fn apportion_sums_exactly_over_many_shapes() {
        for n in [1u64, 7, 100, 12345] {
            for weights in [vec![5, 0, 3, 9, 1], vec![1; 13], vec![u32::MAX as u64; 4]] {
                let shares = apportion(n, &weights);
                assert_eq!(shares.iter().sum::<u64>(), n, "n={n} w={weights:?}");
                for (s, &w) in shares.iter().zip(&weights) {
                    assert!(w > 0 || *s == 0);
                }
            }
        }
    }

    #[test]
    fn apportion_into_matches_the_sort_based_reference() {
        // Randomized shapes: 1–70 slots; zero, small (the zero-floor
        // branch), moderate and full-range weights (the 128-bit path);
        // item counts of 0, 1, small, moderate and up to `u64::MAX`.
        let mut rng = StdRng::seed_from_u64(0xA9_9071);
        let (mut shares, mut scratch) = (Vec::new(), Vec::new());
        for case in 0..20_000 {
            let len = rng.random_range(1..=70usize);
            let w_max = match case % 4 {
                0 => 3,
                1 => 1_000,
                2 => u32::MAX as u64,
                _ => u64::MAX,
            };
            let weights: Vec<u64> = (0..len)
                .map(|_| match rng.random_range(0..8u32) {
                    0 | 1 => 0,
                    2 => w_max,
                    _ => rng.random_range(0..=w_max),
                })
                .collect();
            let n = match rng.random_range(0..6u32) {
                0 => 0,
                1 => 1,
                2 => rng.random_range(2..=8),
                3 => rng.random_range(2..=10_000),
                4 => u64::MAX,
                _ => rng.random(),
            };
            apportion_into(n, &weights, &mut shares, &mut scratch);
            assert_eq!(
                shares,
                apportion_reference(n, &weights),
                "n={n} weights={weights:?}"
            );
        }
    }
}
