//! Transformer architecture descriptions and parameter counting.

use crate::{Result, WorkloadError};

/// The feed-forward block structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MlpKind {
    /// Two matrices (up, down) with a pointwise activation — GPT-3 style.
    Standard,
    /// Three matrices (gate, up, down) — Llama's SwiGLU.
    SwiGlu,
}

impl MlpKind {
    /// Number of `d_model × ffn_hidden`-shaped matrices in the block.
    pub fn matrices(&self) -> u32 {
        match self {
            MlpKind::Standard => 2,
            MlpKind::SwiGlu => 3,
        }
    }
}

/// A dense decoder-only transformer architecture.
///
/// All the quantities the roofline model needs are derivable from these
/// fields; see [`crate::stage`] for the FLOP/byte accounting.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelArch {
    /// Model name, e.g. `"Llama3-70B"`.
    pub name: String,
    /// Number of transformer layers.
    pub layers: u32,
    /// Model (hidden) dimension.
    pub d_model: u32,
    /// Query heads.
    pub heads: u32,
    /// KV heads (equal to `heads` for MHA; fewer for GQA).
    pub kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// Feed-forward hidden dimension.
    pub ffn_hidden: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Feed-forward block structure.
    pub mlp: MlpKind,
    /// Whether input and output embeddings share weights (GPT-3: yes;
    /// Llama-3: no).
    pub tied_embeddings: bool,
}

impl ModelArch {
    /// Validates structural invariants.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("layers", self.layers),
            ("d_model", self.d_model),
            ("heads", self.heads),
            ("kv_heads", self.kv_heads),
            ("head_dim", self.head_dim),
            ("ffn_hidden", self.ffn_hidden),
            ("vocab", self.vocab),
        ] {
            if v == 0 {
                return Err(WorkloadError::InvalidParameter {
                    name,
                    value: v as f64,
                });
            }
        }
        if !self.heads.is_multiple_of(self.kv_heads) {
            return Err(WorkloadError::InconsistentHeads {
                heads: self.heads,
                kv_heads: self.kv_heads,
            });
        }
        Ok(())
    }

    /// Attention parameters per layer: Q and O are `d×(heads·head_dim)`;
    /// K and V are `d×(kv_heads·head_dim)`.
    pub fn attn_params_per_layer(&self) -> f64 {
        let d = self.d_model as f64;
        let q_dim = (self.heads * self.head_dim) as f64;
        let kv_dim = (self.kv_heads * self.head_dim) as f64;
        d * q_dim // Q
            + 2.0 * d * kv_dim // K, V
            + q_dim * d // O
    }

    /// Feed-forward parameters per layer.
    pub fn mlp_params_per_layer(&self) -> f64 {
        self.mlp.matrices() as f64 * self.d_model as f64 * self.ffn_hidden as f64
    }

    /// Parameters per transformer layer.
    pub fn params_per_layer(&self) -> f64 {
        self.attn_params_per_layer() + self.mlp_params_per_layer()
    }

    /// Embedding (+ LM head) parameters.
    pub fn embedding_params(&self) -> f64 {
        let one = self.vocab as f64 * self.d_model as f64;
        if self.tied_embeddings {
            one
        } else {
            2.0 * one
        }
    }

    /// Total parameter count.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_workload::models;
    /// let gpt3 = models::gpt3_175b();
    /// assert!((gpt3.total_params() / 1e9 - 175.0).abs() < 3.0);
    /// ```
    pub fn total_params(&self) -> f64 {
        self.layers as f64 * self.params_per_layer() + self.embedding_params()
    }

    /// KV-cache elements per token per layer (`2 · kv_heads · head_dim`).
    pub fn kv_elems_per_token_per_layer(&self) -> f64 {
        2.0 * self.kv_heads as f64 * self.head_dim as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn mlp_matrix_counts() {
        assert_eq!(MlpKind::Standard.matrices(), 2);
        assert_eq!(MlpKind::SwiGlu.matrices(), 3);
    }

    #[test]
    fn validation_rejects_zero_fields() {
        let mut a = models::llama3_70b();
        a.layers = 0;
        assert!(a.validate().is_err());
        let mut a = models::llama3_70b();
        a.kv_heads = 7; // 64 % 7 != 0
        assert!(a.validate().is_err());
    }

    #[test]
    fn per_layer_param_shapes() {
        let a = models::llama3_70b();
        // Q: 8192x8192, K/V: 8192x1024 each, O: 8192x8192.
        let expected_attn = 8192.0 * 8192.0 * 2.0 + 2.0 * 8192.0 * 1024.0;
        assert!((a.attn_params_per_layer() - expected_attn).abs() < 1.0);
        let expected_mlp = 3.0 * 8192.0 * 28672.0;
        assert!((a.mlp_params_per_layer() - expected_mlp).abs() < 1.0);
    }

    #[test]
    fn kv_elems_ratio_gpt3_vs_llama() {
        // GPT-3's MHA KV cache is 12x larger per token than Llama3-70B's
        // GQA cache - the root of its decode behaviour in Figure 3b.
        let gpt3 = models::gpt3_175b();
        let llama = models::llama3_70b();
        let ratio = gpt3.kv_elems_per_token_per_layer() / llama.kv_elems_per_token_per_layer();
        assert!((ratio - 12.0).abs() < 1e-9, "ratio = {ratio}");
    }
}
