//! Collective-communication cost models.
//!
//! Tensor parallelism issues two all-reduces per transformer layer (§3,
//! §4). Their cost under the classic α-β model decides how far a model can
//! be distributed before the network — not compute — bounds throughput,
//! which is exactly the "Lite" vs. "Lite+NetBW" distinction in Figure 3a.
//!
//! Conventions: `n` = group size, `bytes` = logical payload per rank
//! (the tensor being reduced), `bw` = per-GPU injection bandwidth in
//! bytes/s per direction, `alpha` = per-hop latency in seconds.

use crate::{check_non_negative, check_positive, Result};

/// Collective operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CollectiveOp {
    /// Every rank ends with the element-wise reduction of all payloads.
    AllReduce,
    /// Every rank ends with the concatenation of all payloads.
    AllGather,
    /// Dual of all-gather: reduction scattered across ranks.
    ReduceScatter,
    /// Personalized exchange: every rank sends a distinct block to every
    /// other rank.
    AllToAll,
    /// One rank's payload delivered to all ranks.
    Broadcast,
}

/// Collective algorithm families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CollectiveAlgorithm {
    /// Bandwidth-optimal ring: `2(n−1)` steps for all-reduce.
    Ring,
    /// Latency-optimal recursive doubling/halving: `O(log n)` steps.
    Tree,
    /// Pick ring for large payloads, tree for small (the NCCL-style
    /// heuristic).
    Auto,
}

/// The cost of one collective execution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CollectiveCost {
    /// Wall-clock time, seconds.
    pub time_s: f64,
    /// Bytes injected into the network per GPU.
    pub wire_bytes_per_gpu: f64,
    /// Number of serialized communication steps.
    pub steps: u32,
}

/// Payload size (bytes) below which the tree algorithm wins under `Auto`.
pub const AUTO_TREE_THRESHOLD_BYTES: f64 = 256.0 * 1024.0;

/// Cost of a collective under the α-β model.
///
/// # Examples
///
/// ```
/// use litegpu_net::collective::{collective_cost, CollectiveAlgorithm, CollectiveOp};
/// let c = collective_cost(
///     CollectiveOp::AllReduce,
///     CollectiveAlgorithm::Ring,
///     8,
///     64.0e6,  // 64 MB gradient
///     450.0e9, // H100 NVLink per direction
///     300e-9,
/// ).unwrap();
/// // Ring all-reduce moves 2*(n-1)/n of the payload per GPU.
/// assert!((c.wire_bytes_per_gpu - 2.0 * 7.0 / 8.0 * 64.0e6).abs() < 1.0);
/// ```
pub fn collective_cost(
    op: CollectiveOp,
    algo: CollectiveAlgorithm,
    n: u32,
    bytes: f64,
    bw: f64,
    alpha: f64,
) -> Result<CollectiveCost> {
    check_non_negative("payload bytes", bytes)?;
    check_positive("bandwidth", bw)?;
    check_non_negative("alpha", alpha)?;
    if n <= 1 {
        return Ok(CollectiveCost {
            time_s: 0.0,
            wire_bytes_per_gpu: 0.0,
            steps: 0,
        });
    }
    let algo = match algo {
        CollectiveAlgorithm::Auto => {
            if bytes < AUTO_TREE_THRESHOLD_BYTES {
                CollectiveAlgorithm::Tree
            } else {
                CollectiveAlgorithm::Ring
            }
        }
        other => other,
    };
    let nf = n as f64;
    let (steps, wire_bytes) = match (op, algo) {
        (CollectiveOp::AllReduce, CollectiveAlgorithm::Ring) => {
            // Reduce-scatter + all-gather: 2(n−1) steps, each moving
            // bytes/n per GPU.
            (2 * (n - 1), 2.0 * (nf - 1.0) / nf * bytes)
        }
        (CollectiveOp::AllReduce, CollectiveAlgorithm::Tree) => {
            // Recursive halving+doubling: 2·log2(n) steps; wire traffic is
            // still ~2·bytes·(n−1)/n but pipelined in log-depth.
            (2 * log2_ceil(n), 2.0 * (nf - 1.0) / nf * bytes)
        }
        (CollectiveOp::AllGather, CollectiveAlgorithm::Ring)
        | (CollectiveOp::ReduceScatter, CollectiveAlgorithm::Ring) => {
            ((n - 1), (nf - 1.0) / nf * bytes)
        }
        (CollectiveOp::AllGather, CollectiveAlgorithm::Tree)
        | (CollectiveOp::ReduceScatter, CollectiveAlgorithm::Tree) => {
            (log2_ceil(n), (nf - 1.0) / nf * bytes)
        }
        (CollectiveOp::AllToAll, _) => {
            // Direct exchange: n−1 messages of bytes/n each.
            ((n - 1), (nf - 1.0) / nf * bytes)
        }
        (CollectiveOp::Broadcast, CollectiveAlgorithm::Ring) => ((n - 1), bytes),
        (CollectiveOp::Broadcast, CollectiveAlgorithm::Tree) => (log2_ceil(n), bytes),
        (op, CollectiveAlgorithm::Auto) => {
            unreachable!("auto resolved above for {op:?}")
        }
    };
    let time_s = steps as f64 * alpha + wire_bytes / bw;
    Ok(CollectiveCost {
        time_s,
        wire_bytes_per_gpu: wire_bytes,
        steps,
    })
}

fn log2_ceil(n: u32) -> u32 {
    32 - (n.max(1) - 1).leading_zeros()
}

/// Lower bound for any all-reduce: the payload must cross each GPU's
/// injection port at least `2(n−1)/n` times.
pub fn allreduce_lower_bound(n: u32, bytes: f64, bw: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    2.0 * (nf - 1.0) / nf * bytes / bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Ring all-reduce wall-clock time at 1 µs per hop.
    fn ring_allreduce(n: u32, bytes: f64, bw: f64) -> f64 {
        collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            n,
            bytes,
            bw,
            1e-6,
        )
        .unwrap()
        .time_s
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(8), 3);
        assert_eq!(log2_ceil(9), 4);
        assert_eq!(log2_ceil(32), 5);
    }

    #[test]
    fn single_rank_is_free() {
        for op in [
            CollectiveOp::AllReduce,
            CollectiveOp::AllGather,
            CollectiveOp::AllToAll,
        ] {
            let c = collective_cost(op, CollectiveAlgorithm::Ring, 1, 1e6, 1e9, 1e-6).unwrap();
            assert_eq!(c.time_s, 0.0);
            assert_eq!(c.wire_bytes_per_gpu, 0.0);
        }
    }

    #[test]
    fn ring_allreduce_matches_formula() {
        let c = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            32,
            1e6,
            112.5e9,
            500e-9,
        )
        .unwrap();
        let expected = 62.0 * 500e-9 + 2.0 * (31.0 / 32.0) * 1e6 / 112.5e9;
        assert!((c.time_s - expected).abs() < 1e-12);
        assert_eq!(c.steps, 62);
    }

    #[test]
    fn tree_beats_ring_for_tiny_messages() {
        let small = 4096.0;
        let ring = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            32,
            small,
            112.5e9,
            500e-9,
        )
        .unwrap();
        let tree = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Tree,
            32,
            small,
            112.5e9,
            500e-9,
        )
        .unwrap();
        assert!(tree.time_s < ring.time_s);
        // And Auto picks the tree.
        let auto = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Auto,
            32,
            small,
            112.5e9,
            500e-9,
        )
        .unwrap();
        assert_eq!(auto.steps, tree.steps);
    }

    #[test]
    fn ring_beats_tree_asymptotically_only_in_steps() {
        // Same wire bytes; ring pays more alpha.
        let big = 256e6;
        let ring = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            16,
            big,
            450e9,
            300e-9,
        )
        .unwrap();
        let tree = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Tree,
            16,
            big,
            450e9,
            300e-9,
        )
        .unwrap();
        assert!((ring.wire_bytes_per_gpu - tree.wire_bytes_per_gpu).abs() < 1.0);
        assert!(ring.steps > tree.steps);
    }

    #[test]
    fn allgather_is_half_an_allreduce() {
        let ar = collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            8,
            1e6,
            1e9,
            0.0,
        )
        .unwrap();
        let ag = collective_cost(
            CollectiveOp::AllGather,
            CollectiveAlgorithm::Ring,
            8,
            1e6,
            1e9,
            0.0,
        )
        .unwrap();
        assert!((ar.wire_bytes_per_gpu - 2.0 * ag.wire_bytes_per_gpu).abs() < 1e-9);
    }

    #[test]
    fn negative_payload_rejected() {
        assert!(collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            8,
            -1.0,
            1e9,
            0.0
        )
        .is_err());
        assert!(collective_cost(
            CollectiveOp::AllReduce,
            CollectiveAlgorithm::Ring,
            8,
            1.0,
            0.0,
            0.0
        )
        .is_err());
    }

    proptest! {
        #[test]
        fn never_below_lower_bound(
            n in 2u32..64,
            bytes in 1.0..1e9f64,
            bw in 1e9..1e12f64,
            alpha in 0.0..1e-5f64,
        ) {
            for algo in [CollectiveAlgorithm::Ring, CollectiveAlgorithm::Tree, CollectiveAlgorithm::Auto] {
                let c = collective_cost(
                    CollectiveOp::AllReduce, algo, n, bytes, bw, alpha,
                ).unwrap();
                prop_assert!(c.time_s >= allreduce_lower_bound(n, bytes, bw) - 1e-15);
            }
        }

        #[test]
        fn time_monotone_in_payload(
            n in 2u32..64,
            b1 in 1.0..1e8f64,
            extra in 1.0..1e8f64,
        ) {
            let t1 = ring_allreduce(n, b1, 100e9);
            let t2 = ring_allreduce(n, b1 + extra, 100e9);
            prop_assert!(t2 > t1);
        }

        #[test]
        fn more_bandwidth_never_slower(
            n in 2u32..64,
            bytes in 1.0..1e8f64,
            bw in 1e9..1e11f64,
        ) {
            let t1 = ring_allreduce(n, bytes, bw);
            let t2 = ring_allreduce(n, bytes, 2.0 * bw);
            prop_assert!(t2 <= t1);
        }
    }
}
