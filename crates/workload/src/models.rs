//! Concrete model architectures.
//!
//! The three the paper evaluates (§4) plus smaller models used in examples
//! and tests. Hyper-parameters are from the public model cards / papers.

use crate::arch::{MlpKind, ModelArch};

/// Llama-3 8B: 32 layers, d=4096, 32 heads / 8 KV heads, SwiGLU.
pub fn llama3_8b() -> ModelArch {
    ModelArch {
        name: "Llama3-8B".to_string(),
        layers: 32,
        d_model: 4096,
        heads: 32,
        kv_heads: 8,
        head_dim: 128,
        ffn_hidden: 14336,
        vocab: 128256,
        mlp: MlpKind::SwiGlu,
        tied_embeddings: false,
    }
}

/// Llama-3 70B: 80 layers, d=8192, 64 heads / 8 KV heads, SwiGLU.
pub fn llama3_70b() -> ModelArch {
    ModelArch {
        name: "Llama3-70B".to_string(),
        layers: 80,
        d_model: 8192,
        heads: 64,
        kv_heads: 8,
        head_dim: 128,
        ffn_hidden: 28672,
        vocab: 128256,
        mlp: MlpKind::SwiGlu,
        tied_embeddings: false,
    }
}

/// GPT-3 175B: 96 layers, d=12288, 96 MHA heads, standard 4×d FFN.
pub fn gpt3_175b() -> ModelArch {
    ModelArch {
        name: "GPT3-175B".to_string(),
        layers: 96,
        d_model: 12288,
        heads: 96,
        kv_heads: 96,
        head_dim: 128,
        ffn_hidden: 49152,
        vocab: 50257,
        mlp: MlpKind::Standard,
        tied_embeddings: true,
    }
}

/// Llama-3 405B: 126 layers, d=16384, 128 heads / 8 KV heads, SwiGLU.
pub fn llama3_405b() -> ModelArch {
    ModelArch {
        name: "Llama3-405B".to_string(),
        layers: 126,
        d_model: 16384,
        heads: 128,
        kv_heads: 8,
        head_dim: 128,
        ffn_hidden: 53248,
        vocab: 128256,
        mlp: MlpKind::SwiGlu,
        tied_embeddings: false,
    }
}

/// The three models of the paper's Figure 3, in plot order.
pub fn figure3_models() -> Vec<ModelArch> {
    vec![llama3_70b(), gpt3_175b(), llama3_405b()]
}

/// Every model in the catalog.
#[cfg(test)]
pub(crate) fn all() -> Vec<ModelArch> {
    vec![llama3_8b(), llama3_70b(), gpt3_175b(), llama3_405b()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_validate() {
        for m in all() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn parameter_counts_match_advertised_sizes() {
        for (arch, advertised_b, tol_b) in [
            (llama3_8b(), 8.0, 0.5),
            (llama3_70b(), 70.0, 2.0),
            (gpt3_175b(), 175.0, 3.0),
            (llama3_405b(), 405.0, 5.0),
        ] {
            let b = arch.total_params() / 1e9;
            assert!(
                (b - advertised_b).abs() <= tol_b,
                "{}: computed {b} B vs advertised {advertised_b} B",
                arch.name
            );
        }
    }

    #[test]
    fn figure3_order() {
        let names: Vec<_> = figure3_models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["Llama3-70B", "GPT3-175B", "Llama3-405B"]);
    }

    #[test]
    fn head_dims_consistent() {
        for m in all() {
            assert_eq!(m.heads * m.head_dim, m.d_model, "{}", m.name);
        }
    }
}
