//! HBM capacity feasibility: weights + KV cache must fit each GPU.
//!
//! Capacity is what forces Lite clusters to high tensor-parallel degrees
//! (a 405 GB model cannot run on fewer than 22 Lite-GPUs of 20 GB), which
//! in turn exposes them to collective overheads — a central tension of the
//! paper's §4 results.

use crate::params::EngineParams;
use litegpu_specs::GpuSpec;
use litegpu_workload::{kv, parallel, ModelArch};

/// Per-GPU HBM budget available for weights + KV, bytes.
pub fn usable_bytes_per_gpu(spec: &GpuSpec, params: &EngineParams) -> f64 {
    spec.mem_capacity_bytes() * (1.0 - params.hbm_reserve_frac)
}

/// Per-GPU weight residency at TP degree `tp`, bytes.
pub fn weight_bytes_per_gpu(arch: &ModelArch, tp: u32, params: &EngineParams) -> f64 {
    parallel::weight_bytes_per_gpu(arch, params.precision, tp)
}

/// Per-GPU KV bytes for one sequence at `context` tokens and TP degree
/// `tp` under the configured sharding policy.
pub fn kv_bytes_per_seq_per_gpu(
    arch: &ModelArch,
    tp: u32,
    context: u32,
    params: &EngineParams,
) -> f64 {
    context as f64
        * kv::bytes_per_token_per_gpu_with_policy(arch, params.precision, tp, params.gqa_policy)
}

/// Maximum batch size whose KV cache fits beside the weights at TP degree
/// `tp` with `context`-token sequences. Returns 0 when even the weights do
/// not fit.
///
/// # Examples
///
/// ```
/// use litegpu_roofline::{capacity, params::EngineParams};
/// use litegpu_specs::catalog;
/// use litegpu_workload::models;
///
/// let p = EngineParams::paper_defaults();
/// // 8 H100s hold Llama3-70B with room for a four-digit batch at 2000 ctx.
/// let b = capacity::max_batch(&catalog::h100(), &models::llama3_70b(), 8, 2000, &p);
/// assert!(b > 1000, "b = {b}");
/// // One Lite-GPU cannot even hold the weights.
/// assert_eq!(capacity::max_batch(&catalog::lite_base(), &models::llama3_70b(), 1, 2000, &p), 0);
/// ```
pub fn max_batch(
    spec: &GpuSpec,
    arch: &ModelArch,
    tp: u32,
    context: u32,
    params: &EngineParams,
) -> u32 {
    let budget = usable_bytes_per_gpu(spec, params);
    let weights = weight_bytes_per_gpu(arch, tp, params);
    if weights > budget {
        return 0;
    }
    let per_seq = kv_bytes_per_seq_per_gpu(arch, tp, context, params);
    if per_seq <= 0.0 {
        return 0;
    }
    ((budget - weights) / per_seq).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_specs::catalog;
    use litegpu_workload::models;
    use proptest::prelude::*;

    /// The smallest TP degree at which the weights fit (no KV slack yet).
    fn min_gpus(spec: &GpuSpec, arch: &ModelArch, params: &EngineParams) -> Option<u32> {
        (1..=spec.max_gpus).find(|&tp| {
            weight_bytes_per_gpu(arch, tp, params) <= usable_bytes_per_gpu(spec, params)
        })
    }

    #[test]
    fn min_gpus_match_model_sizes() {
        let p = EngineParams::paper_defaults();
        // FP8: bytes == params. H100 (76 GB usable): 70B needs 1, 175B
        // needs 3, 405B needs 6.
        let h = catalog::h100();
        assert_eq!(min_gpus(&h, &models::llama3_70b(), &p), Some(1));
        assert_eq!(min_gpus(&h, &models::gpt3_175b(), &p), Some(3));
        assert_eq!(min_gpus(&h, &models::llama3_405b(), &p), Some(6));
        // Lite (19 GB usable): 70B needs 4, 175B needs 10, 405B needs 22.
        let l = catalog::lite_base();
        assert_eq!(min_gpus(&l, &models::llama3_70b(), &p), Some(4));
        assert_eq!(min_gpus(&l, &models::gpt3_175b(), &p), Some(10));
        assert_eq!(min_gpus(&l, &models::llama3_405b(), &p), Some(22));
    }

    #[test]
    fn equal_cluster_capacity_gives_similar_batches() {
        // 8 H100 and 32 Lite have the same total HBM, so capacity-limited
        // max batches match (full KV sharding).
        let p = EngineParams::paper_defaults();
        let bh = max_batch(&catalog::h100(), &models::gpt3_175b(), 8, 2000, &p);
        let bl = max_batch(&catalog::lite_base(), &models::gpt3_175b(), 32, 2000, &p);
        let rel = (bh as f64 - bl as f64).abs() / bh as f64;
        assert!(rel < 0.02, "bh = {bh}, bl = {bl}");
    }

    #[test]
    fn gpt3_kv_capacity_far_below_llama() {
        // GPT-3's MHA cache: an 8xH100 cluster holds an order of magnitude
        // fewer sequences than for Llama3-70B.
        let p = EngineParams::paper_defaults();
        let llama = max_batch(&catalog::h100(), &models::llama3_70b(), 8, 2000, &p);
        let gpt3 = max_batch(&catalog::h100(), &models::gpt3_175b(), 8, 2000, &p);
        assert!(
            llama as f64 / gpt3 as f64 > 8.0,
            "llama {llama} gpt3 {gpt3}"
        );
    }

    #[test]
    fn model_too_big_errors() {
        let p = EngineParams::paper_defaults();
        let mut small = catalog::lite_base();
        small.max_gpus = 8; // 8 x 19 GB usable < 405 GB.
        assert_eq!(min_gpus(&small, &models::llama3_405b(), &p), None);
    }

    #[test]
    fn reserve_reduces_batch() {
        let mut p = EngineParams::paper_defaults();
        p.hbm_reserve_frac = 0.0;
        let loose = max_batch(&catalog::h100(), &models::llama3_70b(), 8, 2000, &p);
        p.hbm_reserve_frac = 0.3;
        let tight = max_batch(&catalog::h100(), &models::llama3_70b(), 8, 2000, &p);
        assert!(tight < loose);
    }

    proptest! {
        #[test]
        fn max_batch_monotone_in_gpus(tp in 1u32..32) {
            let p = EngineParams::paper_defaults();
            let a = max_batch(&catalog::h100(), &models::llama3_70b(), tp, 2000, &p);
            let b = max_batch(&catalog::h100(), &models::llama3_70b(), tp + 1, 2000, &p);
            prop_assert!(b >= a);
        }

        #[test]
        fn max_batch_monotone_in_context(ctx in 100u32..4000) {
            let p = EngineParams::paper_defaults();
            let a = max_batch(&catalog::h100(), &models::gpt3_175b(), 8, ctx, &p);
            let b = max_batch(&catalog::h100(), &models::gpt3_175b(), 8, ctx + 100, &p);
            prop_assert!(b <= a);
        }
    }
}
