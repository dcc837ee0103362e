//! The GPU specification type.

use crate::units;
use crate::{check_positive, Result, SpecError};
use litegpu_fab::wafer::DieGeometry;

/// A data-center GPU specification, in the units of the paper's Table 1.
///
/// `tflops` is peak dense throughput at the evaluation precision (FP8 for
/// the H100 generation, matching Table 1's "2000 TFLOPS"). `net_bw_gbps` is
/// per-direction off-package interconnect bandwidth (NVLink-class for the
/// H100 baseline, co-packaged optics for Lite variants).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GpuSpec {
    /// Human-readable configuration name (e.g. `"Lite+MemBW"`).
    pub name: String,
    /// Peak dense compute, TFLOPS, at the evaluation precision.
    pub tflops: f64,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// HBM capacity, GB.
    pub mem_capacity_gb: f64,
    /// HBM bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Off-package network bandwidth, GB/s per direction.
    pub net_bw_gbps: f64,
    /// Largest cluster size considered for this GPU type (Table 1 "#Max").
    pub max_gpus: u32,
    /// Thermal design power, W.
    pub tdp_w: f64,
    /// Idle power, W.
    pub idle_power_w: f64,
    /// Compute die geometry.
    pub die: DieGeometry,
    /// Number of compute dies in the package (2 for Blackwell-class).
    pub dies_per_package: u32,
}

impl GpuSpec {
    /// Validates invariants: positive rates, SMs ≥ 1, idle ≤ TDP.
    pub fn validate(&self) -> Result<()> {
        check_positive("tflops", self.tflops)?;
        check_positive("mem_capacity_gb", self.mem_capacity_gb)?;
        check_positive("mem_bw_gbps", self.mem_bw_gbps)?;
        check_positive("net_bw_gbps", self.net_bw_gbps)?;
        check_positive("tdp_w", self.tdp_w)?;
        if self.sms == 0 {
            return Err(SpecError::InvalidParameter {
                name: "sms",
                value: 0.0,
            });
        }
        if self.max_gpus == 0 {
            return Err(SpecError::InvalidParameter {
                name: "max_gpus",
                value: 0.0,
            });
        }
        if self.idle_power_w < 0.0 || self.idle_power_w > self.tdp_w {
            return Err(SpecError::InvalidParameter {
                name: "idle_power_w",
                value: self.idle_power_w,
            });
        }
        Ok(())
    }

    /// Peak compute in FLOP/s.
    pub fn flops(&self) -> f64 {
        units::tflops_to_flops(self.tflops)
    }

    /// Memory bandwidth in bytes/s.
    pub fn mem_bytes_per_s(&self) -> f64 {
        units::gbps_to_bytes_per_s(self.mem_bw_gbps)
    }

    /// Network bandwidth in bytes/s (per direction).
    pub fn net_bytes_per_s(&self) -> f64 {
        units::gbps_to_bytes_per_s(self.net_bw_gbps)
    }

    /// Memory capacity in bytes.
    pub fn mem_capacity_bytes(&self) -> f64 {
        units::gb_to_bytes(self.mem_capacity_gb)
    }

    /// Memory bandwidth-to-compute ratio, bytes per FLOP.
    ///
    /// The paper's Lite-GPU thesis is that this ratio can double when die
    /// area is quartered (shoreline effect).
    pub fn mem_bw_per_flop(&self) -> f64 {
        self.mem_bytes_per_s() / self.flops()
    }

    /// Returns a renamed copy (for derived configurations).
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog;

    #[test]
    fn h100_derived_quantities() {
        let h = catalog::h100();
        assert_eq!(h.flops(), 2.0e15);
        assert_eq!(h.mem_bytes_per_s(), 3.352e12);
        assert_eq!(h.mem_capacity_bytes(), 80e9);
    }

    #[test]
    fn lite_has_double_mem_bw_headroom_variant() {
        let h = catalog::h100();
        let lite_mem = catalog::lite_mem_bw();
        let ratio = lite_mem.mem_bw_per_flop() / h.mem_bw_per_flop();
        assert!(
            (ratio - 2.0).abs() < 0.01,
            "Lite+MemBW doubles BW:compute, got {ratio}"
        );
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut s = catalog::h100();
        s.tflops = 0.0;
        assert!(s.validate().is_err());
        let mut s = catalog::h100();
        s.sms = 0;
        assert!(s.validate().is_err());
        let mut s = catalog::h100();
        s.idle_power_w = s.tdp_w + 1.0;
        assert!(s.validate().is_err());
        let mut s = catalog::h100();
        s.max_gpus = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn power_density_similar_big_vs_lite() {
        // Power scales with area in the base Lite derivation, so density is
        // preserved; the cooling win is per-package watts, not density.
        let h = catalog::h100();
        let l = catalog::lite_base();
        // Package watts per mm² of compute silicon.
        let density = |g: &crate::GpuSpec| g.tdp_w / (g.die.area_mm2() * g.dies_per_package as f64);
        let rel = (density(&h) - density(&l)).abs() / density(&h);
        assert!(rel < 0.05, "relative density delta {rel}");
    }

    #[test]
    fn renamed_preserves_numbers() {
        let h = catalog::h100();
        let r = h.renamed("H100-prime");
        assert_eq!(r.name, "H100-prime");
        assert_eq!(r.tflops, h.tflops);
    }
}
