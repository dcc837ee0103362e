//! Figure 3 data generation: the paper's headline results as structured
//! data.

use crate::params::EngineParams;
use crate::{metrics, search, Result};
use litegpu_specs::{catalog, GpuSpec};
use litegpu_workload::{models, ModelArch};

/// Which phase a figure covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Prompt prefill (Figure 3a).
    Prefill,
    /// Token-by-token decode (Figure 3b).
    Decode,
}

/// One bar of Figure 3: a (model, GPU type) best configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FigurePoint {
    /// Model name.
    pub model: String,
    /// GPU configuration name.
    pub gpu: String,
    /// Best tokens/s/SM found by the search.
    pub tokens_per_s_per_sm: f64,
    /// Value normalized to the H100 bar of the same model.
    pub normalized: f64,
    /// GPUs used by the best configuration.
    pub gpus: u32,
    /// Batch size of the best configuration.
    pub batch: u32,
    /// Latency of the best configuration (TTFT or TBT), seconds.
    pub latency_s: f64,
}

/// A complete Figure 3 panel.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Figure3 {
    /// Phase covered.
    pub phase: Phase,
    /// Model names in plot order.
    pub models: Vec<String>,
    /// GPU configuration names in legend order.
    pub gpu_types: Vec<String>,
    /// All bars, models-major order.
    pub points: Vec<FigurePoint>,
}

impl Figure3 {
    /// Looks up a bar by model and GPU type.
    pub fn point(&self, model: &str, gpu: &str) -> Option<&FigurePoint> {
        self.points
            .iter()
            .find(|p| p.model == model && p.gpu == gpu)
    }
}

/// Builds a Figure-3-style panel for an arbitrary model list and GPU-type
/// list (the paper panels are [`figure3a`]/[`figure3b`]; ablations use
/// this directly, e.g. when a model does not fit at a given precision).
pub fn custom_figure(
    phase: Phase,
    gpu_types: &[GpuSpec],
    archs: &[ModelArch],
    params: &EngineParams,
) -> Result<Figure3> {
    let mut points = Vec::new();
    for arch in archs {
        let mut series = Vec::new();
        let mut raw = Vec::new();
        for spec in gpu_types {
            let (tps_sm, gpus, batch, latency) = match phase {
                Phase::Prefill => {
                    let e = search::best_prefill(spec, arch, params)?;
                    (e.tokens_per_s_per_sm, e.gpus, e.batch, e.ttft_s)
                }
                Phase::Decode => {
                    let e = search::best_decode(spec, arch, params)?;
                    (e.tokens_per_s_per_sm, e.gpus, e.batch, e.tbt_s)
                }
            };
            series.push((spec.name.clone(), tps_sm));
            raw.push((spec.name.clone(), tps_sm, gpus, batch, latency));
        }
        let normalized = metrics::normalize_to(&series, "H100").ok_or_else(|| {
            crate::RooflineError::NoFeasibleConfig {
                model: arch.name.clone(),
                gpu: "H100".into(),
            }
        })?;
        for ((gpu, tps_sm, gpus, batch, latency), (_, norm)) in raw.into_iter().zip(normalized) {
            points.push(FigurePoint {
                model: arch.name.clone(),
                gpu,
                tokens_per_s_per_sm: tps_sm,
                normalized: norm,
                gpus,
                batch,
                latency_s: latency,
            });
        }
    }
    Ok(Figure3 {
        phase,
        models: archs.iter().map(|a| a.name.clone()).collect(),
        gpu_types: gpu_types.iter().map(|s| s.name.clone()).collect(),
        points,
    })
}

/// Figure 3a: prefill, H100 vs {Lite, Lite+NetBW, Lite+NetBW+FLOPS} on the
/// three paper models.
pub fn figure3a(params: &EngineParams) -> Result<Figure3> {
    custom_figure(
        Phase::Prefill,
        &catalog::fig3a_gpu_types(),
        &models::figure3_models(),
        params,
    )
}

/// Figure 3b: decode, H100 vs {Lite, Lite+MemBW, Lite+MemBW+NetBW} on the
/// three paper models.
pub fn figure3b(params: &EngineParams) -> Result<Figure3> {
    custom_figure(
        Phase::Decode,
        &catalog::fig3b_gpu_types(),
        &models::figure3_models(),
        params,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure-level shape assertions live in the workspace integration
    // tests (tests/figure3_shapes.rs); these are plumbing tests.

    #[test]
    fn figure3a_has_all_bars() {
        let f = figure3a(&EngineParams::paper_defaults()).unwrap();
        assert_eq!(f.points.len(), 12);
        assert_eq!(f.models.len(), 3);
        assert_eq!(f.gpu_types.len(), 4);
        for m in &f.models {
            let series: Vec<f64> = f
                .gpu_types
                .iter()
                .filter_map(|g| f.point(m, g).map(|p| p.normalized))
                .collect();
            assert_eq!(series.len(), 4);
            assert!((series[0] - 1.0).abs() < 1e-12, "H100 normalizes to 1");
        }
    }

    #[test]
    fn figure3b_has_all_bars() {
        let f = figure3b(&EngineParams::paper_defaults()).unwrap();
        assert_eq!(f.points.len(), 12);
        for p in &f.points {
            assert!(p.normalized > 0.0);
            assert!(p.latency_s <= 0.050 + 1e-9);
        }
    }
}
