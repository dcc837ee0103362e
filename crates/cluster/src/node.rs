//! Node, rack and cluster composition.

use crate::{check_positive, Result};
use litegpu_specs::GpuSpec;

/// A homogeneous GPU cluster description.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterSpec {
    /// GPU type.
    pub gpu: GpuSpec,
    /// GPUs per server node.
    pub gpus_per_node: u32,
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Non-GPU power overhead per node (CPUs, NICs, fans), W.
    pub node_overhead_w: f64,
}

impl ClusterSpec {
    /// Creates a cluster spec with validation.
    pub fn new(gpu: GpuSpec, gpus_per_node: u32, nodes: u32, node_overhead_w: f64) -> Result<Self> {
        gpu.validate()?;
        check_positive("gpus_per_node", gpus_per_node as f64)?;
        check_positive("nodes", nodes as f64)?;
        if node_overhead_w < 0.0 || !node_overhead_w.is_finite() {
            return Err(crate::ClusterError::InvalidParameter {
                name: "node_overhead_w",
                value: node_overhead_w,
            });
        }
        Ok(Self {
            gpu,
            gpus_per_node,
            nodes,
            node_overhead_w,
        })
    }

    /// The paper's baseline: one node of 8 H100s.
    pub fn h100_node() -> Self {
        Self::new(litegpu_specs::catalog::h100(), 8, 1, 800.0)
            .expect("H100 node constants are valid")
    }

    /// The paper's replacement: 32 Lite-GPUs (density allows one node or a
    /// small rack; we model one logical node).
    pub fn lite_node() -> Self {
        Self::new(litegpu_specs::catalog::lite_base(), 32, 1, 800.0)
            .expect("Lite node constants are valid")
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> u32 {
        self.gpus_per_node * self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_clusters_match_on_aggregates() {
        // 8 H100 vs 32 Lite: same FLOPS, memory, bandwidth, SMs.
        let h = ClusterSpec::h100_node();
        let l = ClusterSpec::lite_node();
        let total = |c: &ClusterSpec, per_gpu: f64| c.total_gpus() as f64 * per_gpu;
        assert_eq!(total(&h, h.gpu.flops()), total(&l, l.gpu.flops()));
        let (hm, lm) = (h.gpu.mem_capacity_bytes(), l.gpu.mem_capacity_bytes());
        assert_eq!(total(&h, hm), total(&l, lm));
        let (hb, lb) = (h.gpu.mem_bytes_per_s(), l.gpu.mem_bytes_per_s());
        assert!((total(&h, hb) - total(&l, lb)).abs() / total(&h, hb) < 0.01);
        assert_eq!(h.total_gpus() * h.gpu.sms, l.total_gpus() * l.gpu.sms);
    }

    #[test]
    fn validation() {
        let gpu = litegpu_specs::catalog::h100();
        assert!(ClusterSpec::new(gpu.clone(), 0, 1, 0.0).is_err());
        assert!(ClusterSpec::new(gpu.clone(), 8, 0, 0.0).is_err());
        assert!(ClusterSpec::new(gpu, 8, 1, -5.0).is_err());
    }
}
