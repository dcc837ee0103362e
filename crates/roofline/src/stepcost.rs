//! Precomputed step-cost tables: the roofline model, flattened for hot
//! loops.
//!
//! Serving simulators call "how long is one prefill/decode step at batch
//! `b`?" millions of times. Evaluating the full roofline pipeline
//! ([`crate::prefill::evaluate`] / [`crate::decode::evaluate`]) on every
//! call would dominate the simulation, so a [`StepCostTable`] prices every
//! feasible batch size once up front and quantizes the results to integer
//! microseconds. Lookups are then a bounds-clamp plus an array index —
//! no roofline evaluation, no allocation, no floating point.
//!
//! Batch grids are dense up to [`StepCostTable::MAX_DENSE`] entries;
//! larger capacity ranges fall back to a geometric grid and round the
//! queried batch *up* to the next grid point, which keeps the
//! approximation conservative (step times grow with batch).
//!
//! Tables can also carry a **clock dimension**
//! ([`StepCostTable::build_with_clocks`]): a small ascending grid of DVFS
//! operating points ending at the nominal clock. Each point re-prices
//! every batch with tensor-core throughput scaled by the clock factor
//! while HBM bandwidth and network time stay put — the roofline
//! compute/bandwidth split is what decides how much a down-clock actually
//! costs. Compute-bound prefill inflates ~1/clock; memory-bound decode
//! barely moves, which is exactly why serving-time DVFS is cheap where it
//! matters (and why the energy-per-token win is real: dynamic power falls
//! cubically with clock while memory-bound step times hold).

use crate::params::EngineParams;
use crate::{capacity, decode, prefill, Result, RooflineError};
use litegpu_specs::GpuSpec;
use litegpu_workload::ModelArch;

/// Precomputed, quantized step costs for one instance configuration
/// (GPU type × tensor-parallel group size × model), optionally across a
/// grid of DVFS operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCostTable {
    /// GPU configuration name.
    pub gpu: String,
    /// Model name.
    pub model: String,
    /// GPUs in the tensor-parallel group.
    pub gpus: u32,
    /// Largest decode batch that fits (KV at the steady-state context).
    pub max_batch: u32,
    /// Largest prefill batch that fits (KV at the prompt length).
    pub max_prefill_batch: u32,
    /// Clock factors priced, ascending; last entry is the nominal 1.0.
    clocks: Vec<f64>,
    /// Sampled batch sizes, ascending; last entry is `max_batch`.
    batches: Vec<u32>,
    /// Prefill time per clock point per sampled batch, microseconds
    /// (clamped to the prefill capacity), indexed `[clock][batch]`.
    prefill_us: Vec<Vec<u64>>,
    /// Decode-step time per clock point per sampled batch, microseconds,
    /// indexed `[clock][batch]`.
    decode_us: Vec<Vec<u64>>,
}

impl StepCostTable {
    /// Largest capacity for which the grid stays dense (one entry per
    /// batch size).
    pub const MAX_DENSE: u32 = 1024;

    /// Prices every feasible batch once at the nominal clock and builds
    /// the table.
    ///
    /// Fails with [`RooflineError::DoesNotFit`] when the model does not
    /// fit on the group at batch 1.
    pub fn build(
        spec: &GpuSpec,
        arch: &ModelArch,
        gpus: u32,
        params: &EngineParams,
    ) -> Result<Self> {
        Self::build_with_clocks(spec, arch, gpus, params, &[1.0])
    }

    /// Prices every feasible batch at every clock factor in `clocks`.
    ///
    /// `clocks` must be non-empty, strictly ascending, within `(0, 1]`,
    /// and end exactly at the nominal `1.0` (so nominal lookups are the
    /// last row). At clock `c` the tensor-core throughput scales by `c`
    /// (via the engine's `flops_efficiency`) while memory and network
    /// time are unchanged — the roofline split decides the inflation.
    /// HBM capacity is clock-independent, so the batch grid and the
    /// `max_batch`/`max_prefill_batch` limits are shared by every point.
    pub fn build_with_clocks(
        spec: &GpuSpec,
        arch: &ModelArch,
        gpus: u32,
        params: &EngineParams,
        clocks: &[f64],
    ) -> Result<Self> {
        params.validate()?;
        if clocks.is_empty() || *clocks.last().expect("non-empty") != 1.0 {
            return Err(RooflineError::InvalidParameter {
                name: "clocks (must end at the nominal 1.0)",
                value: clocks.last().copied().unwrap_or(f64::NAN),
            });
        }
        for (i, &c) in clocks.iter().enumerate() {
            let ascending = i == 0 || clocks[i - 1] < c;
            if !(c.is_finite() && c > 0.0 && c <= 1.0 && ascending) {
                return Err(RooflineError::InvalidParameter {
                    name: "clocks (strictly ascending within (0, 1])",
                    value: c,
                });
            }
        }
        let max_batch =
            capacity::max_batch(spec, arch, gpus, params.constraints.decode_context, params);
        if max_batch == 0 {
            return Err(RooflineError::DoesNotFit {
                model: arch.name.clone(),
                gpu: spec.name.clone(),
                gpus,
            });
        }
        let max_prefill_batch =
            capacity::max_batch(spec, arch, gpus, params.constraints.prompt_len, params).max(1);

        let batches = Self::grid(max_batch);
        let mut prefill_us = Vec::with_capacity(clocks.len());
        let mut decode_us = Vec::with_capacity(clocks.len());
        for &clock in clocks {
            // Down-clocking scales tensor-core throughput only; the
            // existing flops-efficiency knob composes multiplicatively,
            // so each point reuses the whole evaluation pipeline.
            let mut p = *params;
            p.flops_efficiency = params.flops_efficiency * clock;
            let mut prefill_row = Vec::with_capacity(batches.len());
            let mut decode_row = Vec::with_capacity(batches.len());
            for &b in &batches {
                let pb = b.min(max_prefill_batch);
                let pe = prefill::evaluate(spec, arch, gpus, pb, &p)?;
                prefill_row.push(quantize_us(pe.ttft_s));
                let d = decode::evaluate(spec, arch, gpus, b, &p)?;
                decode_row.push(quantize_us(d.tbt_s));
            }
            prefill_us.push(prefill_row);
            decode_us.push(decode_row);
        }
        Ok(Self {
            gpu: spec.name.clone(),
            model: arch.name.clone(),
            gpus,
            max_batch,
            max_prefill_batch,
            clocks: clocks.to_vec(),
            batches,
            prefill_us,
            decode_us,
        })
    }

    /// Dense grid up to [`Self::MAX_DENSE`]; geometric (ratio ~1.05)
    /// above it, always ending exactly at `max_batch`.
    fn grid(max_batch: u32) -> Vec<u32> {
        if max_batch <= Self::MAX_DENSE {
            return (1..=max_batch).collect();
        }
        let mut grid: Vec<u32> = (1..=Self::MAX_DENSE / 2).collect();
        let mut b = (Self::MAX_DENSE / 2) as f64;
        while (b as u32) < max_batch {
            b *= 1.05;
            grid.push((b as u32).min(max_batch));
        }
        grid.dedup();
        grid
    }

    /// Index of the grid point used for `batch` (clamped, rounded up).
    fn index(&self, batch: u32) -> usize {
        let b = batch.clamp(1, self.max_batch);
        if self.batches.len() as u32 == self.max_batch {
            (b - 1) as usize // Dense grid: direct index.
        } else {
            self.batches.partition_point(|&g| g < b)
        }
    }

    /// The priced clock factors, ascending; the last entry is 1.0.
    pub fn clock_points(&self) -> &[f64] {
        &self.clocks
    }

    /// Number of priced clock points (1 for a nominal-only table).
    pub fn num_clocks(&self) -> usize {
        self.clocks.len()
    }

    /// Index of the nominal (1.0) clock point — always the last row.
    pub fn nominal_clock_idx(&self) -> usize {
        self.clocks.len() - 1
    }

    /// Time to prefill a batch of prompts at clock point `clock_idx`,
    /// microseconds (≥ 1). `clock_idx` is clamped to the grid.
    pub fn prefill_us_at(&self, clock_idx: usize, batch: u32) -> u64 {
        let ci = clock_idx.min(self.nominal_clock_idx());
        self.prefill_us[ci][self.index(batch.min(self.max_prefill_batch))].max(1)
    }

    /// Time for one decode step at clock point `clock_idx`, microseconds
    /// (≥ 1). `clock_idx` is clamped to the grid.
    pub fn decode_step_us_at(&self, clock_idx: usize, batch: u32) -> u64 {
        let ci = clock_idx.min(self.nominal_clock_idx());
        self.decode_us[ci][self.index(batch)].max(1)
    }

    /// Time to prefill a batch of prompts at the nominal clock,
    /// microseconds (≥ 1).
    ///
    /// The batch is clamped to `[1, max_prefill_batch]` — callers that
    /// admit by decode capacity still get a valid prefill price.
    pub fn prefill_us(&self, batch: u32) -> u64 {
        self.prefill_us_at(self.nominal_clock_idx(), batch)
    }

    /// Time for one decode step over `batch` running sequences at the
    /// nominal clock, microseconds (≥ 1).
    pub fn decode_step_us(&self, batch: u32) -> u64 {
        self.decode_step_us_at(self.nominal_clock_idx(), batch)
    }

    /// Number of sampled batch sizes.
    pub fn grid_len(&self) -> usize {
        self.batches.len()
    }
}

/// Seconds → integer microseconds, rounding half up, floor 1 µs.
fn quantize_us(s: f64) -> u64 {
    (s.max(0.0) * 1e6).round().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_specs::catalog;
    use litegpu_specs::power::PowerModel;
    use litegpu_workload::models;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn table() -> StepCostTable {
        StepCostTable::build(
            &catalog::h100(),
            &models::llama3_70b(),
            2,
            &EngineParams::paper_defaults(),
        )
        .unwrap()
    }

    /// A clocked table shared across tests/property cases (building one
    /// prices the full batch × clock product).
    fn clocked() -> &'static StepCostTable {
        static TABLE: OnceLock<StepCostTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            StepCostTable::build_with_clocks(
                &catalog::h100(),
                &models::llama3_70b(),
                2,
                &EngineParams::paper_defaults(),
                &[0.75, 0.8, 0.85, 0.9, 0.95, 1.0],
            )
            .unwrap()
        })
    }

    #[test]
    fn matches_direct_roofline_evaluation() {
        let t = table();
        let params = EngineParams::paper_defaults();
        for b in [1u32, 2, 7, 32, t.max_batch] {
            let d =
                decode::evaluate(&catalog::h100(), &models::llama3_70b(), 2, b, &params).unwrap();
            assert_eq!(
                t.decode_step_us(b),
                quantize_us(d.tbt_s).max(1),
                "batch {b}"
            );
        }
        let pb = 4.min(t.max_prefill_batch);
        let p = prefill::evaluate(&catalog::h100(), &models::llama3_70b(), 2, pb, &params).unwrap();
        assert_eq!(t.prefill_us(pb), quantize_us(p.ttft_s).max(1));
    }

    #[test]
    fn step_times_monotone_in_batch() {
        let t = table();
        let mut last = 0;
        for b in 1..=t.max_batch {
            let us = t.decode_step_us(b);
            assert!(us >= last, "batch {b}: {us} < {last}");
            last = us;
        }
    }

    #[test]
    fn batches_clamp_to_capacity() {
        let t = table();
        assert_eq!(
            t.decode_step_us(t.max_batch),
            t.decode_step_us(t.max_batch + 999)
        );
        assert_eq!(t.prefill_us(0), t.prefill_us(1));
        assert_eq!(
            t.prefill_us(t.max_prefill_batch),
            t.prefill_us(t.max_prefill_batch + 999)
        );
    }

    #[test]
    fn does_not_fit_is_reported() {
        let r = StepCostTable::build(
            &catalog::lite_base(),
            &models::llama3_70b(),
            2,
            &EngineParams::paper_defaults(),
        );
        assert!(matches!(r, Err(RooflineError::DoesNotFit { .. })));
    }

    #[test]
    fn sparse_grid_rounds_up_conservatively() {
        let grid = StepCostTable::grid(5000);
        assert!(grid.len() < 5000);
        assert_eq!(*grid.last().unwrap(), 5000);
        // Strictly ascending.
        for w in grid.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn tokens_per_s_grows_with_batch() {
        let t = table();
        // Tokens per second is batch / step time.
        assert!(32 * t.decode_step_us(1) > t.decode_step_us(32));
    }

    #[test]
    fn default_build_is_nominal_only() {
        let t = table();
        assert_eq!(t.clock_points(), &[1.0]);
        assert_eq!(t.num_clocks(), 1);
        assert_eq!(t.nominal_clock_idx(), 0);
        assert_eq!(t.decode_step_us_at(0, 8), t.decode_step_us(8));
        // Out-of-range clock indices clamp to nominal.
        assert_eq!(t.decode_step_us_at(99, 8), t.decode_step_us(8));
    }

    #[test]
    fn clocked_nominal_row_matches_plain_build() {
        let t = table();
        let c = clocked();
        let nom = c.nominal_clock_idx();
        assert_eq!(c.max_batch, t.max_batch);
        for b in [1u32, 4, 32, t.max_batch] {
            assert_eq!(c.decode_step_us_at(nom, b), t.decode_step_us(b), "b={b}");
            assert_eq!(c.prefill_us_at(nom, b), t.prefill_us(b), "b={b}");
        }
    }

    #[test]
    fn prefill_inflates_more_than_decode_when_down_clocked() {
        // The roofline split at work: prefill is compute-bound, so a 25%
        // down-clock inflates it nearly 1/0.75; decode at moderate batch
        // is memory-bound, so it barely moves.
        let c = clocked();
        let (lo, nom) = (0, c.nominal_clock_idx());
        let p_ratio = c.prefill_us_at(lo, 4) as f64 / c.prefill_us_at(nom, 4) as f64;
        let d_ratio = c.decode_step_us_at(lo, 32) as f64 / c.decode_step_us_at(nom, 32) as f64;
        assert!(p_ratio > 1.15, "prefill ratio {p_ratio}");
        assert!(d_ratio < p_ratio, "decode {d_ratio} vs prefill {p_ratio}");
        assert!(d_ratio < 1.10, "decode at batch 32 is memory-bound");
    }

    #[test]
    fn invalid_clock_grids_rejected() {
        let build = |clocks: &[f64]| {
            StepCostTable::build_with_clocks(
                &catalog::h100(),
                &models::llama3_70b(),
                2,
                &EngineParams::paper_defaults(),
                clocks,
            )
        };
        for bad in [
            &[][..],
            &[0.75, 0.9][..],       // Does not end at nominal.
            &[0.9, 0.75, 1.0][..],  // Not ascending.
            &[0.75, 0.75, 1.0][..], // Not strictly ascending.
            &[0.0, 1.0][..],        // Zero clock.
            &[-0.5, 1.0][..],       // Negative clock.
            &[f64::NAN, 1.0][..],   // Non-finite clock.
        ] {
            assert!(
                matches!(build(bad), Err(RooflineError::InvalidParameter { .. })),
                "{bad:?} must be rejected"
            );
        }
        build(&[1.0]).unwrap();
        build(&[0.5, 1.0]).unwrap();
    }

    proptest! {
        /// Step times are monotone non-increasing in clock: a faster
        /// clock never makes any step slower, for either phase.
        #[test]
        fn step_times_monotone_in_clock(batch in 1u32..256) {
            let c = clocked();
            for ci in 0..c.num_clocks() - 1 {
                prop_assert!(
                    c.decode_step_us_at(ci, batch) >= c.decode_step_us_at(ci + 1, batch),
                    "decode ci={ci} b={batch}"
                );
                prop_assert!(
                    c.prefill_us_at(ci, batch) >= c.prefill_us_at(ci + 1, batch),
                    "prefill ci={ci} b={batch}"
                );
            }
        }

        /// Energy per decoded token is monotone non-decreasing in clock:
        /// dynamic power rises cubically while the step shrinks at most
        /// linearly, so the energy-optimal serving point is the lowest
        /// SLO-feasible clock.
        #[test]
        fn energy_per_token_monotone_in_clock(batch in 1u32..256) {
            let c = clocked();
            let model = PowerModel::for_spec(&catalog::h100());
            let energy = |ci: usize| {
                let t_s = c.decode_step_us_at(ci, batch) as f64 / 1e6;
                model.power_w(c.clock_points()[ci], 1.0) * t_s / batch as f64
            };
            for ci in 0..c.num_clocks() - 1 {
                prop_assert!(
                    energy(ci) <= energy(ci + 1) * (1.0 + 1e-9),
                    "ci={ci} b={batch}: {} > {}",
                    energy(ci),
                    energy(ci + 1)
                );
            }
        }
    }
}
