//! KV-cache sizing.
//!
//! §3 "Memory management": each Lite-GPU holds only a fraction of a big
//! GPU's HBM, so KV-cache capacity is the binding constraint for decode
//! batch sizes. This module computes cache footprints under tensor
//! parallelism, including the replication penalty for GQA models when the
//! TP degree exceeds the KV-head count.

use crate::arch::ModelArch;
use crate::precision::Precision;

/// KV-cache bytes per token across all layers (unsharded).
///
/// # Examples
///
/// ```
/// use litegpu_workload::{kv, models, Precision};
/// // GPT-3 MHA: 96 layers * 2 * 96 heads * 128 dim * 1 B = ~2.36 MB/token.
/// let b = kv::bytes_per_token(&models::gpt3_175b(), Precision::Fp8);
/// assert!((b / 1e6 - 2.36).abs() < 0.01);
/// ```
pub fn bytes_per_token(arch: &ModelArch, precision: Precision) -> f64 {
    arch.layers as f64 * arch.kv_elems_per_token_per_layer() * precision.bytes()
}

/// KV-cache bytes per token *per GPU* at tensor-parallel degree `tp`
/// under an explicit sharding policy.
///
/// Under head-sharding, for `tp ≤ kv_heads` the cache shards perfectly;
/// beyond that every GPU must hold at least one KV head per layer, so the
/// per-GPU share stops shrinking (and the aggregate cache grows).
pub fn bytes_per_token_per_gpu_with_policy(
    arch: &ModelArch,
    precision: Precision,
    tp: u32,
    policy: crate::parallel::GqaPolicy,
) -> f64 {
    bytes_per_token(arch, precision) * crate::parallel::kv_fraction_with_policy(arch, tp, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::parallel::GqaPolicy;
    use proptest::prelude::*;

    /// Per-GPU FP8 KV bytes per token at degree `tp` under head-sharding.
    fn bytes_per_token_per_gpu(arch: &ModelArch, tp: u32) -> f64 {
        bytes_per_token_per_gpu_with_policy(arch, Precision::Fp8, tp, GqaPolicy::HeadShard)
    }

    #[test]
    fn llama70_kv_is_small_per_token() {
        // 80 layers * 2 * 8 heads * 128 * 1B = 163,840 B/token.
        let b = bytes_per_token(&models::llama3_70b(), Precision::Fp8);
        assert!((b - 163_840.0).abs() < 1.0);
    }

    #[test]
    fn sharding_perfect_up_to_kv_heads() {
        let arch = models::llama3_70b(); // 8 KV heads.
        let full = bytes_per_token(&arch, Precision::Fp8);
        assert!((bytes_per_token_per_gpu(&arch, 8) - full / 8.0).abs() < 1e-9);
        // Beyond 8 GPUs the per-GPU share plateaus at 1/8.
        assert!((bytes_per_token_per_gpu(&arch, 32) - full / 8.0).abs() < 1e-9);
    }

    #[test]
    fn mha_shards_to_high_degrees() {
        let arch = models::gpt3_175b(); // 96 KV heads.
        let full = bytes_per_token(&arch, Precision::Fp8);
        assert!((bytes_per_token_per_gpu(&arch, 32) - full / 32.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn per_gpu_share_never_increases_with_tp(tp in 1u32..64) {
            for arch in models::all() {
                let a = bytes_per_token_per_gpu(&arch, tp);
                let b = bytes_per_token_per_gpu(&arch, tp + 1);
                prop_assert!(b <= a + 1e-9);
            }
        }
    }
}
