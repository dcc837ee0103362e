//! The timing model: prefill, decode-step and KV hand-off times of a
//! tensor-parallel GPU group, with step costs from the roofline engine.

use crate::des::{secs, SimTime};
use crate::Result;
use litegpu_roofline::{EngineParams, StepCostTable};
use litegpu_specs::GpuSpec;
use litegpu_workload::{kv, ModelArch};

/// Timing oracle for one instance configuration (GPU type × group size ×
/// model). Step costs come from a precomputed
/// [`litegpu_roofline::StepCostTable`], so the simulator's hot loop never
/// re-evaluates the roofline model. Every instance of a serving run has
/// the same configuration, so a run builds one model and shares it.
#[derive(Debug, Clone)]
pub struct InstanceModel {
    /// GPU type.
    pub spec: GpuSpec,
    /// GPUs in the instance.
    pub gpus: u32,
    /// Model served.
    pub arch: ModelArch,
    /// Engine parameters (precision, SLOs, overlap).
    pub params: EngineParams,
    /// Maximum concurrent sequences (KV capacity at the steady-state
    /// context).
    pub max_batch: u32,
    table: StepCostTable,
}

impl InstanceModel {
    /// Builds the oracle; fails when the model cannot fit on the group.
    pub fn new(spec: GpuSpec, gpus: u32, arch: ModelArch, params: EngineParams) -> Result<Self> {
        let table = StepCostTable::build(&spec, &arch, gpus, &params)?;
        Ok(Self {
            spec,
            gpus,
            arch,
            params,
            max_batch: table.max_batch,
            table,
        })
    }

    /// Time to prefill a batch of prompts (at the workload prompt length);
    /// the table clamps `batch` to its prefill capacity.
    pub fn prefill_time(&self, batch: u32) -> SimTime {
        self.table.prefill_us(batch)
    }

    /// Time for one decode step over `batch` running sequences; the table
    /// clamps `batch` to `max_batch`.
    pub fn decode_step_time(&self, batch: u32) -> SimTime {
        self.table.decode_step_us(batch)
    }

    /// Time to stream one request's KV cache to another instance
    /// (Splitwise's prefill→decode hand-off): each of the `gpus` shards
    /// moves in parallel over the per-GPU link.
    pub fn kv_transfer_time(&self, prompt_len: u32) -> SimTime {
        let bytes = kv::bytes_per_token(&self.arch, self.params.precision) * prompt_len as f64;
        let per_gpu = bytes / self.gpus as f64;
        secs(per_gpu / self.spec.net_bytes_per_s()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_roofline::EngineParams;
    use litegpu_specs::catalog;
    use litegpu_workload::models;

    fn model() -> InstanceModel {
        InstanceModel::new(
            catalog::h100(),
            2,
            models::llama3_70b(),
            EngineParams::paper_defaults(),
        )
        .unwrap()
    }

    #[test]
    fn too_small_group_rejected() {
        let r = InstanceModel::new(
            catalog::lite_base(),
            2,
            models::llama3_70b(),
            EngineParams::paper_defaults(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn prefill_time_grows_with_batch() {
        let m = model();
        let t1 = m.prefill_time(1);
        let t8 = m.prefill_time(8);
        assert!(t8 > t1);
        // A lookup is a pure function of the batch.
        assert_eq!(m.prefill_time(8), t8);
    }

    #[test]
    fn decode_step_in_tens_of_ms() {
        let m = model();
        let t = m.decode_step_time(32);
        assert!(t > 1_000 && t < 100_000, "t = {t} µs");
    }

    #[test]
    fn batch_clamped_to_capacity() {
        let m = model();
        let cap = m.max_batch;
        assert_eq!(m.decode_step_time(cap), m.decode_step_time(cap + 1000));
    }

    #[test]
    fn kv_transfer_faster_on_bigger_groups() {
        let m2 = model();
        let m4 = InstanceModel::new(
            catalog::h100(),
            4,
            models::llama3_70b(),
            EngineParams::paper_defaults(),
        )
        .unwrap();
        assert!(m4.kv_transfer_time(1500) < m2.kv_transfer_time(1500));
        // Llama3-70B KV at 1500 tokens is ~0.25 GB; over 2x450 GB/s this
        // is sub-millisecond.
        assert!(m2.kv_transfer_time(1500) < 1_000);
    }
}
