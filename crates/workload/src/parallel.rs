//! Tensor-parallel sharding of stage work.
//!
//! Megatron-style tensor parallelism: QKV projection and MLP-up are
//! column-parallel (input replicated, output sharded); output projection
//! and MLP-down are row-parallel (input sharded, output partial, followed
//! by an **all-reduce** of the full activation). Attention shards by query
//! head. Two all-reduces per layer per token — the traffic the paper says
//! "moves previously in-silicon communication onto the network".
//!
//! The subtlety this module exists for: **KV-head replication**. A GQA
//! model with `kv` KV heads can shard its KV cache at most `kv` ways; at
//! TP degree `t > kv`, each KV head is replicated over `t/kv` GPUs, so the
//! per-GPU KV traffic stops shrinking and the *aggregate* memory traffic
//! grows — the paper's "increased memory access intensities" in Figure 3b.

use crate::arch::ModelArch;
use crate::stage::{PhaseWork, StageKind, StageWork};
use crate::{Result, WorkloadError};

/// Tensor-parallel execution of a phase over `degree` GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TensorParallel {
    /// Number of GPUs the stage work is sharded over.
    pub degree: u32,
}

/// How the KV cache is partitioned when attention is tensor-parallel.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum GqaPolicy {
    /// KV shards by head only: at TP degree beyond the KV-head count,
    /// heads replicate and per-GPU KV traffic stops shrinking.
    HeadShard,
    /// KV shards fully `1/t` regardless of head count, as achieved by
    /// sequence-parallel (context-parallel / Ring-Attention-style)
    /// attention. This is the paper's implicit assumption — its Lite
    /// clusters run Llama-3 (8 KV heads) at TP 32 without a replication
    /// cliff — and therefore the suite default.
    #[default]
    FullShard,
}

/// The fraction of full KV traffic each GPU carries at TP degree `tp`
/// under [`GqaPolicy::HeadShard`]: `max(1/tp, 1/kv_heads)`.
pub fn kv_shard_fraction(arch: &ModelArch, tp: u32) -> f64 {
    let tp = tp.max(1) as f64;
    let kv = arch.kv_heads.max(1) as f64;
    (1.0 / tp).max(1.0 / kv)
}

/// Per-GPU KV traffic fraction under an explicit policy.
pub fn kv_fraction_with_policy(arch: &ModelArch, tp: u32, policy: GqaPolicy) -> f64 {
    match policy {
        GqaPolicy::HeadShard => kv_shard_fraction(arch, tp),
        GqaPolicy::FullShard => 1.0 / tp.max(1) as f64,
    }
}

/// One stage's per-GPU work plus the collective that follows it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedStage {
    /// Per-GPU stage work.
    pub per_gpu: StageWork,
    /// Payload bytes of the all-reduce that must complete after this stage
    /// (0 when no collective is attached). This is the *logical* message
    /// size; algorithm-specific wire traffic is the network model's job.
    pub all_reduce_bytes: f64,
}

/// A phase sharded over a tensor-parallel group.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedPhase {
    /// Per-layer stages with attached collectives.
    pub per_layer: Vec<ShardedStage>,
    /// Final stages (LM head).
    pub finals: Vec<ShardedStage>,
    /// Number of layers.
    pub layers: u32,
    /// Tokens produced/processed by the phase.
    pub tokens: f64,
    /// TP degree.
    pub degree: u32,
}

impl TensorParallel {
    /// Creates a TP group of the given degree (≥ 1).
    pub fn new(degree: u32) -> Result<Self> {
        if degree == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "tp degree",
                value: 0.0,
            });
        }
        Ok(Self { degree })
    }

    /// Shards a phase's work across the group under an explicit KV
    /// partitioning policy.
    pub fn shard_with_policy(
        &self,
        arch: &ModelArch,
        phase: &PhaseWork,
        policy: GqaPolicy,
    ) -> Result<ShardedPhase> {
        arch.validate()?;
        let t = self.degree as f64;
        let kv_frac = kv_fraction_with_policy(arch, self.degree, policy);
        // Activation payload of one all-reduce: the full hidden state of
        // every token in flight (batch*seq*d for prefill, batch*d for one
        // decode step). The OutProj stage writes exactly that, so its
        // unsharded output size is the canonical payload.
        let hidden_payload = phase
            .per_layer
            .iter()
            .find(|s| s.kind == StageKind::OutProj)
            .map(|s| s.act_write_bytes)
            .unwrap_or(0.0);
        let mut per_layer = Vec::with_capacity(phase.per_layer.len());
        for s in &phase.per_layer {
            per_layer.push(self.shard_stage(s, t, kv_frac, hidden_payload));
        }
        let finals = phase
            .finals
            .iter()
            .map(|s| self.shard_stage(s, t, kv_frac, hidden_payload))
            .collect();
        Ok(ShardedPhase {
            per_layer,
            finals,
            layers: phase.layers,
            tokens: phase.tokens,
            degree: self.degree,
        })
    }

    fn shard_stage(
        &self,
        s: &StageWork,
        t: f64,
        kv_frac: f64,
        hidden_payload: f64,
    ) -> ShardedStage {
        let mut per_gpu = *s;
        let mut all_reduce_bytes = 0.0;
        match s.kind {
            StageKind::QkvProj => {
                per_gpu.flops /= t;
                per_gpu.weight_bytes /= t;
                // Column-parallel: input replicated on every GPU, output
                // sharded by head.
                per_gpu.act_write_bytes /= t;
                per_gpu.kv_write_bytes *= kv_frac;
            }
            StageKind::Attention => {
                per_gpu.flops /= t;
                per_gpu.act_read_bytes /= t;
                per_gpu.act_write_bytes /= t;
                per_gpu.kv_read_bytes *= kv_frac;
                per_gpu.kv_write_bytes *= kv_frac;
            }
            StageKind::OutProj => {
                per_gpu.flops /= t;
                per_gpu.weight_bytes /= t;
                // Row-parallel: input sharded, output full (partial sums).
                per_gpu.act_read_bytes /= t;
                // All-reduce of the full output activation follows; payload
                // equals the stage's (unsharded) activation output.
                if self.degree > 1 {
                    all_reduce_bytes = s.act_write_bytes;
                }
            }
            StageKind::Mlp => {
                per_gpu.flops /= t;
                per_gpu.weight_bytes /= t;
                // Column+row parallel MLP: the tokens*d input read is
                // replicated on every GPU, the hidden-stream traffic shards
                // by t, and the tokens*d output is written in full (partial
                // sums) followed by an all-reduce. The tokens*d byte count
                // is exactly the OutProj output payload.
                let d_bytes = hidden_payload.min(per_gpu.act_read_bytes);
                let hidden_read = (per_gpu.act_read_bytes - d_bytes).max(0.0);
                let hidden_write = (per_gpu.act_write_bytes - d_bytes).max(0.0);
                per_gpu.act_read_bytes = d_bytes + hidden_read / t;
                per_gpu.act_write_bytes = d_bytes + hidden_write / t;
                if self.degree > 1 {
                    all_reduce_bytes = d_bytes;
                }
            }
            StageKind::LmHead => {
                // Vocab-parallel: weights and logits shard; the sampled
                // token is found with a tiny max-reduce we neglect.
                per_gpu.flops /= t;
                per_gpu.weight_bytes /= t;
                per_gpu.act_write_bytes /= t;
            }
        }
        ShardedStage {
            per_gpu,
            all_reduce_bytes,
        }
    }
}

/// Model weight bytes resident on each GPU at TP degree `tp` (weights shard
/// essentially perfectly; embeddings shard by vocab).
pub fn weight_bytes_per_gpu(arch: &ModelArch, precision: crate::Precision, tp: u32) -> f64 {
    arch.total_params() * precision.bytes() / tp.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::precision::Precision;
    use proptest::prelude::*;

    impl ShardedPhase {
        /// Sum of `f` over every stage execution: each per-layer stage
        /// once per layer, each final stage once.
        fn total(&self, f: impl Fn(&ShardedStage) -> f64) -> f64 {
            self.layers as f64 * self.per_layer.iter().map(&f).sum::<f64>()
                + self.finals.iter().map(&f).sum::<f64>()
        }

        fn per_gpu_flops(&self) -> f64 {
            self.total(|s| s.per_gpu.flops)
        }

        fn per_gpu_mem_bytes(&self) -> f64 {
            self.total(|s| s.per_gpu.mem_bytes())
        }

        /// HBM bytes across the whole TP group.
        fn aggregate_mem_bytes(&self) -> f64 {
            self.per_gpu_mem_bytes() * self.degree as f64
        }
    }

    /// `phase` sharded `degree` ways under [`GqaPolicy::HeadShard`].
    fn head_shard(arch: &ModelArch, phase: &PhaseWork, degree: u32) -> ShardedPhase {
        TensorParallel::new(degree)
            .unwrap()
            .shard_with_policy(arch, phase, GqaPolicy::HeadShard)
            .unwrap()
    }

    #[test]
    fn degree_zero_rejected() {
        assert!(TensorParallel::new(0).is_err());
    }

    #[test]
    fn flops_conserved_under_sharding() {
        let arch = models::llama3_70b();
        let phase = PhaseWork::prefill(&arch, Precision::Fp8, 4, 1500).unwrap();
        for t in [1u32, 2, 4, 8, 16, 32] {
            let sh = head_shard(&arch, &phase, t);
            let total = sh.per_gpu_flops() * t as f64;
            assert!(
                (total - phase.total_flops()).abs() / phase.total_flops() < 1e-9,
                "t={t}"
            );
        }
    }

    #[test]
    fn two_all_reduces_per_layer() {
        let arch = models::llama3_70b();
        let phase = PhaseWork::decode(&arch, Precision::Fp8, 8, 1500).unwrap();
        let collectives = |sh: &ShardedPhase| {
            sh.per_layer
                .iter()
                .filter(|s| s.all_reduce_bytes > 0.0)
                .count()
        };
        assert_eq!(collectives(&head_shard(&arch, &phase, 8)), 2);
        // Degree 1: no collectives at all.
        let sh1 = head_shard(&arch, &phase, 1);
        assert_eq!(collectives(&sh1), 0);
        assert_eq!(sh1.total(|s| s.all_reduce_bytes), 0.0);
    }

    #[test]
    fn all_reduce_payload_is_hidden_state() {
        // Decode step, batch 8: each all-reduce moves ~batch*d bytes.
        let arch = models::llama3_70b();
        let phase = PhaseWork::decode(&arch, Precision::Fp8, 8, 1500).unwrap();
        let sh = head_shard(&arch, &phase, 8);
        let expected = 8.0 * arch.d_model as f64 * Precision::Fp8.bytes();
        let out_stage = &sh.per_layer[2];
        assert!((out_stage.all_reduce_bytes - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn kv_replication_grows_aggregate_traffic() {
        // Llama3-70B has 8 KV heads: at TP=32 the KV cache is replicated
        // 4x, so aggregate decode memory traffic grows.
        let arch = models::llama3_70b();
        assert_eq!(8.0 * kv_shard_fraction(&arch, 8), 1.0);
        assert_eq!(32.0 * kv_shard_fraction(&arch, 32), 4.0);
        let phase = PhaseWork::decode(&arch, Precision::Fp8, 64, 2000).unwrap();
        let sh8 = head_shard(&arch, &phase, 8);
        let sh32 = head_shard(&arch, &phase, 32);
        assert!(sh32.aggregate_mem_bytes() > sh8.aggregate_mem_bytes());
    }

    #[test]
    fn mha_model_has_no_replication_at_32() {
        let gpt3 = models::gpt3_175b();
        assert_eq!(kv_shard_fraction(&gpt3, 32), 1.0 / 32.0);
    }

    #[test]
    fn per_gpu_mem_close_to_fair_share_at_low_tp() {
        // At TP <= kv_heads the aggregate memory overhead (replicated
        // activations) stays small for prefill.
        let arch = models::llama3_70b();
        let phase = PhaseWork::prefill(&arch, Precision::Fp8, 4, 1500).unwrap();
        let sh = head_shard(&arch, &phase, 4);
        let overhead = sh.aggregate_mem_bytes() / phase.total_mem_bytes();
        assert!(overhead < 1.35, "overhead = {overhead}");
        assert!(overhead >= 1.0);
    }

    #[test]
    fn weight_bytes_shard_perfectly() {
        let arch = models::llama3_405b();
        let full = weight_bytes_per_gpu(&arch, Precision::Fp8, 1);
        assert!((full - arch.total_params()).abs() < 1.0);
        let sharded = weight_bytes_per_gpu(&arch, Precision::Fp8, 32);
        assert!((sharded * 32.0 - full).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn per_gpu_quantities_decrease_with_degree(t in 1u32..32) {
            let arch = models::gpt3_175b();
            let phase = PhaseWork::decode(&arch, Precision::Fp8, 16, 1000).unwrap();
            let a = head_shard(&arch, &phase, t);
            let b = head_shard(&arch, &phase, t + 1);
            prop_assert!(b.per_gpu_flops() <= a.per_gpu_flops() + 1e-6);
            prop_assert!(b.per_gpu_mem_bytes() <= a.per_gpu_mem_bytes() * 1.001);
        }

        #[test]
        fn aggregate_at_least_unsharded(t in 1u32..48) {
            for arch in [models::llama3_70b(), models::gpt3_175b()] {
                let phase = PhaseWork::decode(&arch, Precision::Fp8, 8, 1500).unwrap();
                let sh = head_shard(&arch, &phase, t);
                prop_assert!(
                    sh.aggregate_mem_bytes() >= phase.total_mem_bytes() * 0.999,
                    "aggregate must not fall below unsharded total"
                );
            }
        }
    }
}
