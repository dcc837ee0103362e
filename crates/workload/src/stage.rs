//! Per-stage FLOP and byte accounting for transformer inference.
//!
//! §4 of the paper: "The modeling measures compute stages individually,
//! including projection, MLP, and fused FlashAttention." The stages here
//! are the Megatron-style decomposition of one transformer layer — QKV
//! projection, fused attention, output projection, feed-forward — plus the
//! LM head. Each stage carries its FLOPs and its memory traffic split into
//! weights, activations and KV-cache bytes, because tensor parallelism
//! shards those components differently (see [`crate::parallel`]).
//!
//! Attention FLOPs use fused-FlashAttention accounting: the `S×S` score
//! matrix is never materialized in HBM, so attention memory traffic is the
//! Q/K/V/O tile traffic only. Prefill attention honours the causal mask
//! (half the naive FLOPs).

use crate::arch::ModelArch;
use crate::precision::Precision;
use crate::{Result, WorkloadError};

/// Causal-mask FLOP discount for prefill attention.
pub const CAUSAL_FACTOR: f64 = 0.5;

/// The compute stages of a transformer layer (plus the LM head).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StageKind {
    /// Fused Q/K/V projection (column-parallel under TP).
    QkvProj,
    /// Fused FlashAttention (scores + softmax + value aggregation).
    Attention,
    /// Output projection (row-parallel under TP; all-reduce follows).
    OutProj,
    /// Feed-forward block (column+row parallel; all-reduce follows).
    Mlp,
    /// Final language-model head (vocab projection).
    LmHead,
}

impl StageKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::QkvProj => "qkv",
            StageKind::Attention => "attn",
            StageKind::OutProj => "out",
            StageKind::Mlp => "mlp",
            StageKind::LmHead => "lm_head",
        }
    }
}

/// FLOPs and memory traffic of one stage execution (one layer, whole
/// batch, unsharded).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageWork {
    /// Stage identity.
    pub kind: StageKind,
    /// Floating-point operations.
    pub flops: f64,
    /// Weight bytes read from HBM.
    pub weight_bytes: f64,
    /// Activation bytes read from HBM.
    pub act_read_bytes: f64,
    /// Activation bytes written to HBM.
    pub act_write_bytes: f64,
    /// KV-cache bytes read.
    pub kv_read_bytes: f64,
    /// KV-cache bytes written.
    pub kv_write_bytes: f64,
}

impl StageWork {
    /// Total HBM traffic of the stage, bytes.
    pub fn mem_bytes(&self) -> f64 {
        self.weight_bytes
            + self.act_read_bytes
            + self.act_write_bytes
            + self.kv_read_bytes
            + self.kv_write_bytes
    }
}

/// The work of one full inference phase (prefill of a batch, or one decode
/// step of a batch): per-layer stages plus final stages, unsharded.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseWork {
    /// Stages executed once per transformer layer.
    pub per_layer: Vec<StageWork>,
    /// Stages executed once per phase (LM head).
    pub finals: Vec<StageWork>,
    /// Number of transformer layers.
    pub layers: u32,
    /// Tokens produced/processed by this phase (batch·prompt for prefill;
    /// batch for one decode step).
    pub tokens: f64,
}

impl PhaseWork {
    /// Prefill work: process a batch of `batch` prompts of `prompt_len`
    /// tokens each, populating the KV cache and producing first tokens.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_workload::{models, stage::PhaseWork, Precision};
    /// let arch = models::llama3_70b();
    /// let w = PhaseWork::prefill(&arch, Precision::Fp8, 4, 1500).unwrap();
    /// // A layer's prefill FLOPs ~ 2 * its params * tokens (plus attention).
    /// let layer_flops: f64 = w.per_layer.iter().map(|s| s.flops).sum();
    /// let approx = 2.0 * arch.params_per_layer() * (4.0 * 1500.0);
    /// assert!(layer_flops > approx && layer_flops < approx * 1.35);
    /// ```
    pub fn prefill(
        arch: &ModelArch,
        precision: Precision,
        batch: u32,
        prompt_len: u32,
    ) -> Result<Self> {
        arch.validate()?;
        check_pos("batch", batch)?;
        check_pos("prompt_len", prompt_len)?;
        let b = batch as f64;
        let s = prompt_len as f64;
        let tokens = b * s;
        let wb = precision.bytes();
        let ab = precision.bytes();
        let kb = precision.bytes();
        let d = arch.d_model as f64;
        let q_dim = (arch.heads * arch.head_dim) as f64;
        let kv_dim = (arch.kv_heads * arch.head_dim) as f64;
        let f = arch.ffn_hidden as f64;
        let v = arch.vocab as f64;
        let h = arch.heads as f64;
        let hd = arch.head_dim as f64;

        let qkv = StageWork {
            kind: StageKind::QkvProj,
            flops: 2.0 * tokens * (d * q_dim + 2.0 * d * kv_dim),
            weight_bytes: (d * q_dim + 2.0 * d * kv_dim) * wb,
            act_read_bytes: tokens * d * ab,
            act_write_bytes: tokens * q_dim * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: tokens * 2.0 * kv_dim * kb,
        };
        // Fused FlashAttention over the causal prefix: QK^T and PV are each
        // 2*B*H*S^2*hd FLOPs before the causal discount.
        let attn = StageWork {
            kind: StageKind::Attention,
            flops: CAUSAL_FACTOR * 4.0 * b * h * s * s * hd,
            weight_bytes: 0.0,
            act_read_bytes: tokens * q_dim * ab,
            act_write_bytes: tokens * q_dim * ab,
            kv_read_bytes: tokens * 2.0 * kv_dim * kb,
            kv_write_bytes: 0.0,
        };
        let out = StageWork {
            kind: StageKind::OutProj,
            flops: 2.0 * tokens * q_dim * d,
            weight_bytes: q_dim * d * wb,
            act_read_bytes: tokens * q_dim * ab,
            act_write_bytes: tokens * d * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        let hidden_streams = (arch.mlp.matrices() - 1) as f64;
        let mlp = StageWork {
            kind: StageKind::Mlp,
            flops: 2.0 * tokens * arch.mlp_params_per_layer(),
            weight_bytes: arch.mlp_params_per_layer() * wb,
            act_read_bytes: tokens * (d + hidden_streams * f) * ab,
            act_write_bytes: tokens * (d + hidden_streams * f) * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        // LM head: logits for the last position of each sequence only.
        let lm_head = StageWork {
            kind: StageKind::LmHead,
            flops: 2.0 * b * d * v,
            weight_bytes: d * v * wb,
            act_read_bytes: b * d * ab,
            act_write_bytes: b * v * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        Ok(Self {
            per_layer: vec![qkv, attn, out, mlp],
            finals: vec![lm_head],
            layers: arch.layers,
            tokens,
        })
    }

    /// Work of a single decode step: a batch of `batch` sequences, each
    /// attending over `context_len` cached tokens and appending one.
    pub fn decode(
        arch: &ModelArch,
        precision: Precision,
        batch: u32,
        context_len: u32,
    ) -> Result<Self> {
        arch.validate()?;
        check_pos("batch", batch)?;
        check_pos("context_len", context_len)?;
        let b = batch as f64;
        let l = context_len as f64;
        let wb = precision.bytes();
        let ab = precision.bytes();
        let kb = precision.bytes();
        let d = arch.d_model as f64;
        let q_dim = (arch.heads * arch.head_dim) as f64;
        let kv_dim = (arch.kv_heads * arch.head_dim) as f64;
        let f = arch.ffn_hidden as f64;
        let v = arch.vocab as f64;
        let h = arch.heads as f64;
        let hd = arch.head_dim as f64;

        let qkv = StageWork {
            kind: StageKind::QkvProj,
            flops: 2.0 * b * (d * q_dim + 2.0 * d * kv_dim),
            weight_bytes: (d * q_dim + 2.0 * d * kv_dim) * wb,
            act_read_bytes: b * d * ab,
            act_write_bytes: b * q_dim * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: b * 2.0 * kv_dim * kb,
        };
        let attn = StageWork {
            kind: StageKind::Attention,
            flops: 4.0 * b * h * l * hd,
            weight_bytes: 0.0,
            act_read_bytes: b * q_dim * ab,
            act_write_bytes: b * q_dim * ab,
            kv_read_bytes: b * l * 2.0 * kv_dim * kb,
            kv_write_bytes: 0.0,
        };
        let out = StageWork {
            kind: StageKind::OutProj,
            flops: 2.0 * b * q_dim * d,
            weight_bytes: q_dim * d * wb,
            act_read_bytes: b * q_dim * ab,
            act_write_bytes: b * d * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        let hidden_streams = (arch.mlp.matrices() - 1) as f64;
        let mlp = StageWork {
            kind: StageKind::Mlp,
            flops: 2.0 * b * arch.mlp_params_per_layer(),
            weight_bytes: arch.mlp_params_per_layer() * wb,
            act_read_bytes: b * (d + hidden_streams * f) * ab,
            act_write_bytes: b * (d + hidden_streams * f) * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        let lm_head = StageWork {
            kind: StageKind::LmHead,
            flops: 2.0 * b * d * v,
            weight_bytes: d * v * wb,
            act_read_bytes: b * d * ab,
            act_write_bytes: b * v * ab,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
        };
        Ok(Self {
            per_layer: vec![qkv, attn, out, mlp],
            finals: vec![lm_head],
            layers: arch.layers,
            tokens: b,
        })
    }
}

fn check_pos(name: &'static str, v: u32) -> Result<()> {
    if v == 0 {
        Err(WorkloadError::InvalidParameter { name, value: 0.0 })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use proptest::prelude::*;

    impl PhaseWork {
        /// Total FLOPs across all layers and final stages.
        pub(crate) fn total_flops(&self) -> f64 {
            self.layers as f64 * self.per_layer.iter().map(|s| s.flops).sum::<f64>()
                + self.finals.iter().map(|s| s.flops).sum::<f64>()
        }

        /// Total HBM bytes across all layers and final stages.
        pub(crate) fn total_mem_bytes(&self) -> f64 {
            self.layers as f64 * self.per_layer.iter().map(|s| s.mem_bytes()).sum::<f64>()
                + self.finals.iter().map(|s| s.mem_bytes()).sum::<f64>()
        }
    }

    #[test]
    fn prefill_flops_close_to_2_params_tokens() {
        // The classic estimate: forward pass ~ 2 * non-embedding-params *
        // tokens, with attention adding a sequence-length surcharge. (The
        // LM head runs once per sequence, not per token, so embedding
        // params are excluded from the baseline.)
        for arch in models::all() {
            let w = PhaseWork::prefill(&arch, Precision::Fp8, 1, 1500).unwrap();
            let base = 2.0 * arch.layers as f64 * arch.params_per_layer() * 1500.0;
            let ratio = w.total_flops() / base;
            assert!(
                ratio > 1.0 && ratio < 1.35,
                "{}: ratio = {ratio}",
                arch.name
            );
        }
    }

    #[test]
    fn decode_step_flops_close_to_2_params_batch() {
        for arch in models::all() {
            let w = PhaseWork::decode(&arch, Precision::Fp8, 8, 1500).unwrap();
            let base = 2.0 * arch.layers as f64 * arch.params_per_layer() * 8.0;
            let ratio = w.total_flops() / base;
            assert!(
                ratio > 1.0 && ratio < 1.45,
                "{}: ratio = {ratio}",
                arch.name
            );
        }
    }

    #[test]
    fn decode_is_memory_bound_prefill_is_not() {
        // The paper's premise: prefill is compute-efficient, decode is
        // memory-bound. At batch 8 decode intensity must sit far below the
        // H100 ridge point (~600 FLOP/byte at FP8) and prefill far above.
        let arch = models::llama3_70b();
        let pre = PhaseWork::prefill(&arch, Precision::Fp8, 8, 1500).unwrap();
        let dec = PhaseWork::decode(&arch, Precision::Fp8, 8, 1500).unwrap();
        let intensity = |w: &PhaseWork| w.total_flops() / w.total_mem_bytes();
        assert!(intensity(&pre) > 600.0);
        assert!(intensity(&dec) < 30.0);
    }

    #[test]
    fn decode_attention_dominated_by_kv_reads_for_mha() {
        let gpt3 = models::gpt3_175b();
        let w = PhaseWork::decode(&gpt3, Precision::Fp8, 16, 1500).unwrap();
        let attn = &w.per_layer[1];
        assert_eq!(attn.kind, StageKind::Attention);
        assert!(attn.kv_read_bytes > 0.9 * attn.mem_bytes());
    }

    #[test]
    fn gqa_shrinks_attention_memory_but_not_projection() {
        let llama = models::llama3_70b();
        let gpt3 = models::gpt3_175b();
        let wl = PhaseWork::decode(&llama, Precision::Fp8, 16, 1500).unwrap();
        let wg = PhaseWork::decode(&gpt3, Precision::Fp8, 16, 1500).unwrap();
        // Attention stage memory-per-layer is far smaller for GQA.
        assert!(wl.per_layer[1].mem_bytes() * 5.0 < wg.per_layer[1].mem_bytes());
    }

    #[test]
    fn causal_factor_applied() {
        let arch = models::llama3_8b();
        let w = PhaseWork::prefill(&arch, Precision::Fp8, 1, 1024).unwrap();
        let attn = &w.per_layer[1];
        let full = 4.0 * (arch.heads as f64) * 1024.0f64.powi(2) * arch.head_dim as f64;
        assert!((attn.flops - CAUSAL_FACTOR * full).abs() / full < 1e-12);
    }

    #[test]
    fn precision_scales_bytes_not_flops() {
        let arch = models::llama3_8b();
        let w8 = PhaseWork::prefill(&arch, Precision::Fp8, 2, 256).unwrap();
        let w16 = PhaseWork::prefill(&arch, Precision::Fp16, 2, 256).unwrap();
        assert_eq!(w8.total_flops(), w16.total_flops());
        assert!((w16.total_mem_bytes() / w8.total_mem_bytes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_inputs_rejected() {
        let arch = models::llama3_8b();
        assert!(PhaseWork::prefill(&arch, Precision::Fp8, 0, 10).is_err());
        assert!(PhaseWork::prefill(&arch, Precision::Fp8, 1, 0).is_err());
        assert!(PhaseWork::decode(&arch, Precision::Fp8, 0, 10).is_err());
        assert!(PhaseWork::decode(&arch, Precision::Fp8, 1, 0).is_err());
    }

    #[test]
    fn stage_labels_unique() {
        let labels: Vec<_> = [
            StageKind::QkvProj,
            StageKind::Attention,
            StageKind::OutProj,
            StageKind::Mlp,
            StageKind::LmHead,
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    proptest! {
        #[test]
        fn prefill_work_monotone_in_batch(
            b in 1u32..64,
            s in 16u32..2048,
        ) {
            let arch = models::llama3_8b();
            let w1 = PhaseWork::prefill(&arch, Precision::Fp8, b, s).unwrap();
            let w2 = PhaseWork::prefill(&arch, Precision::Fp8, b + 1, s).unwrap();
            prop_assert!(w2.total_flops() > w1.total_flops());
            prop_assert!(w2.total_mem_bytes() > w1.total_mem_bytes());
        }

        #[test]
        fn decode_work_monotone_in_context(
            b in 1u32..64,
            l in 16u32..4096,
        ) {
            let arch = models::llama3_70b();
            let w1 = PhaseWork::decode(&arch, Precision::Fp8, b, l).unwrap();
            let w2 = PhaseWork::decode(&arch, Precision::Fp8, b, l + 64).unwrap();
            prop_assert!(w2.total_flops() > w1.total_flops());
            prop_assert!(w2.total_mem_bytes() > w1.total_mem_bytes());
        }

        #[test]
        fn intensity_positive_and_finite(
            b in 1u32..128,
            s in 1u32..2048,
        ) {
            let arch = models::llama3_8b();
            let w = PhaseWork::prefill(&arch, Precision::Fp8, b, s).unwrap();
            let ai = w.total_flops() / w.total_mem_bytes();
            prop_assert!(ai.is_finite() && ai > 0.0);
        }
    }
}
