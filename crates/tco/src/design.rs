//! The design space: candidate Lite-GPU fleet configurations, expressed
//! in silicon-equal units so every candidate serves the same aggregate
//! demand on the same aggregate silicon.
//!
//! A [`DesignPoint`] is sized in *H100-equivalents*: a die divisor `d`
//! turns one H100-sized unit into `d` Lite-GPUs of `1/d` capability each
//! (§2's Table 1 scaling), so `instances = equiv × d`,
//! `cell_size = cell_units × d`, `spares = spare_units × d`, and each
//! instance carries `1/d` of the per-unit request rate. Comparisons
//! across die sizes therefore hold total silicon, total demand and
//! rack-level shape constant — the only things that vary are the
//! quantities the paper argues about: yield, failure blast radius, spare
//! granularity, gating granularity and fabric endpoint count.

use crate::{check, Result, TcoError};
use litegpu_cluster::power_mgmt::Policy;
use litegpu_cluster::FailureModel;
use litegpu_ctrl::CtrlConfig;
use litegpu_fleet::{FleetConfig, ServingMode, WorkloadSpec};
use litegpu_specs::{catalog, GpuSpec};

/// One candidate fleet design, in H100-equivalent units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DesignPoint {
    /// Die divisor `d`: each H100-equivalent becomes `d` GPUs of `1/d`
    /// capability (1 = the H100 baseline, 4 = the paper's Lite design).
    pub die_divisor: u32,
    /// Repair-cell size, H100-equivalents (the actual cell holds
    /// `cell_units × d` instances).
    pub cell_units: u32,
    /// Hot spares per cell, H100-equivalents (`spare_units × d` actual
    /// spare GPUs — the same spare *silicon* at every divisor).
    pub spare_units: u32,
    /// Phase-split serving (Splitwise-style prefill/decode pools) rather
    /// than monolithic continuous batching.
    pub split: bool,
    /// Serving-time DVFS on the controller (operating-point selection per
    /// pool) in addition to the power-gating policy.
    pub dvfs: bool,
}

impl DesignPoint {
    /// Stable compact label, e.g. `div4-cell8-sp2-split-dvfs`.
    pub fn label(&self) -> String {
        format!(
            "div{}-cell{}-sp{}-{}-{}",
            self.die_divisor,
            self.cell_units,
            self.spare_units,
            if self.split { "split" } else { "mono" },
            if self.dvfs { "dvfs" } else { "fixed" },
        )
    }

    /// Builds the candidate's fleet configuration over a sweep base:
    /// single-GPU Llama3-8B instances (the smallest catalog model fits
    /// one GPU of any divisor), demand and silicon scaled as described in
    /// the module docs, and the divisor-appropriate power policy —
    /// whole-fleet DVFS for the monolithic baseline, gate-to-efficiency
    /// for Lite designs (§3's granularity argument).
    pub fn fleet_config(&self, base: &SweepBase) -> Result<FleetConfig> {
        base.validate()?;
        check("cell_units", self.cell_units as f64, self.cell_units > 0)?;
        let d = self.die_divisor;
        let gpu = gpu_for_divisor(d)?;
        let mut cfg = FleetConfig::h100_demo();
        cfg.failure = FailureModel::default_for(&gpu);
        cfg.gpu = gpu;
        cfg.arch = litegpu_workload::models::llama3_8b();
        cfg.gpus_per_instance = 1;
        cfg.instances = base.equiv_instances * d;
        cfg.cell_size = self.cell_units * d;
        cfg.spares_per_cell = self.spare_units * d;
        cfg.workload = WorkloadSpec::multi_tenant_demo(base.rate_per_equiv / d as f64);
        cfg.horizon_s = base.hours * 3600.0;
        cfg.failure_acceleration = base.accel;
        let policy = if d == 1 {
            Policy::DvfsAll
        } else {
            Policy::GateToEfficiency
        };
        let ctrl = CtrlConfig::demo(policy);
        cfg.ctrl = Some(if self.dvfs { ctrl.with_dvfs() } else { ctrl });
        cfg.serving = if self.split {
            ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance)
        } else {
            ServingMode::Monolithic
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Shared sweep parameters: the demand and horizon every candidate
/// serves, in H100-equivalent units.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepBase {
    /// Fleet size in H100-equivalent instances.
    pub equiv_instances: u32,
    /// Request rate per H100-equivalent, req/s (divisor-`d` instances
    /// each carry `1/d` of this, so total demand is constant).
    pub rate_per_equiv: f64,
    /// Simulated horizon, hours.
    pub hours: f64,
    /// Failure-rate acceleration (compresses years of AFR into the
    /// horizon).
    pub accel: f64,
}

impl SweepBase {
    /// Validates the sweep parameters.
    pub fn validate(&self) -> Result<()> {
        check(
            "equiv_instances",
            self.equiv_instances as f64,
            self.equiv_instances > 0,
        )?;
        check(
            "rate_per_equiv",
            self.rate_per_equiv,
            self.rate_per_equiv.is_finite() && self.rate_per_equiv > 0.0,
        )?;
        check(
            "hours",
            self.hours,
            self.hours.is_finite() && self.hours > 0.0,
        )?;
        check(
            "accel",
            self.accel,
            self.accel.is_finite() && self.accel >= 0.0,
        )
    }
}

/// The GPU a die divisor buys: the catalog H100 at `d = 1`, the catalog
/// Lite at `d = 4`, and for other divisors the H100 uniformly scaled to
/// `1/d` in every capability (Table 1's construction), die area included.
pub fn gpu_for_divisor(d: u32) -> Result<GpuSpec> {
    if d == 0 {
        return Err(TcoError::InvalidParameter {
            name: "die_divisor",
            value: 0.0,
        });
    }
    let spec = match d {
        1 => catalog::h100(),
        4 => catalog::lite_base(),
        _ => {
            let h = catalog::h100();
            let df = d as f64;
            GpuSpec {
                name: format!("H100/{d}"),
                tflops: h.tflops / df,
                sms: (h.sms / d).max(1),
                mem_capacity_gb: h.mem_capacity_gb / df,
                mem_bw_gbps: h.mem_bw_gbps / df,
                net_bw_gbps: h.net_bw_gbps / df,
                max_gpus: h.max_gpus * d,
                tdp_w: h.tdp_w / df,
                idle_power_w: h.idle_power_w / df,
                die: h.die.shrink(d)?,
                dies_per_package: 1,
            }
        }
    };
    spec.validate()?;
    Ok(spec)
}

/// The full cartesian design space over the given axes, in a fixed
/// deterministic order (divisor-major, dvfs-minor).
pub fn design_space(
    die_divisors: &[u32],
    cell_units: &[u32],
    spare_units: &[u32],
    splits: &[bool],
    dvfs: &[bool],
) -> Vec<DesignPoint> {
    let mut out = Vec::new();
    for &die_divisor in die_divisors {
        for &cell in cell_units {
            for &sp in spare_units {
                for &split in splits {
                    for &dv in dvfs {
                        out.push(DesignPoint {
                            die_divisor,
                            cell_units: cell,
                            spare_units: sp,
                            split,
                            dvfs: dv,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The standard sweep grid: {1, 4} die divisors × {4, 8} cell shapes ×
/// {0, 1, 2} spare policies × {mono, split} × {DVFS off, on} — 48
/// candidates.
pub fn standard_grid() -> Vec<DesignPoint> {
    design_space(&[1, 4], &[4, 8], &[0, 1, 2], &[false, true], &[false, true])
}

/// The CI smoke grid: one cell shape (8 equivalents), 24 candidates —
/// still ≥ 2 die sizes × ≥ 2 spare policies × both serving modes × both
/// DVFS settings.
pub fn smoke_grid() -> Vec<DesignPoint> {
    design_space(&[1, 4], &[8], &[0, 1, 2], &[false, true], &[false, true])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SweepBase {
        SweepBase {
            equiv_instances: 8,
            rate_per_equiv: 2.0,
            hours: 0.5,
            accel: 2_000.0,
        }
    }

    #[test]
    fn divisor_endpoints_come_from_the_catalog() {
        assert_eq!(gpu_for_divisor(1).unwrap(), catalog::h100());
        assert_eq!(gpu_for_divisor(4).unwrap(), catalog::lite_base());
        assert!(gpu_for_divisor(0).is_err());
    }

    #[test]
    fn derived_divisors_scale_uniformly() {
        let h = catalog::h100();
        let g = gpu_for_divisor(2).unwrap();
        assert_eq!(g.name, "H100/2");
        assert_eq!(g.tflops, h.tflops / 2.0);
        assert_eq!(g.tdp_w, h.tdp_w / 2.0);
        assert_eq!(g.max_gpus, h.max_gpus * 2);
        assert!((g.die.area_mm2() - h.die.area_mm2() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_config_holds_silicon_and_demand_constant() {
        let p = DesignPoint {
            die_divisor: 4,
            cell_units: 8,
            spare_units: 1,
            split: false,
            dvfs: false,
        };
        let cfg = p.fleet_config(&base()).unwrap();
        assert_eq!(cfg.instances, 32);
        assert_eq!(cfg.cell_size, 32);
        assert_eq!(cfg.spares_per_cell, 4);
        assert_eq!(cfg.gpus_per_instance, 1);
        assert_eq!(cfg.gpu.name, "Lite");
        // The baseline serves the same demand on the same silicon.
        let b = DesignPoint {
            die_divisor: 1,
            ..p
        };
        let bcfg = b.fleet_config(&base()).unwrap();
        assert_eq!(bcfg.instances, 8);
        assert_eq!(bcfg.cell_size, 8);
        assert_eq!(bcfg.spares_per_cell, 1);
        // Rate per instance scales down 4x; total demand matches.
        assert!(
            (cfg.workload.rate_per_instance_s * 4.0 - bcfg.workload.rate_per_instance_s).abs()
                < 1e-12
        );
    }

    #[test]
    fn policies_follow_the_divisor() {
        let mk = |d, dvfs| {
            DesignPoint {
                die_divisor: d,
                cell_units: 8,
                spare_units: 1,
                split: false,
                dvfs,
            }
            .fleet_config(&base())
            .unwrap()
        };
        let h = mk(1, false);
        let l = mk(4, true);
        assert_eq!(
            h.ctrl.as_ref().unwrap().power.as_ref().unwrap().policy,
            Policy::DvfsAll
        );
        assert_eq!(
            l.ctrl.as_ref().unwrap().power.as_ref().unwrap().policy,
            Policy::GateToEfficiency
        );
        assert!(!h.ctrl.as_ref().unwrap().dvfs);
        assert!(l.ctrl.as_ref().unwrap().dvfs);
    }

    #[test]
    fn grids_have_the_advertised_shape() {
        let std = standard_grid();
        let smoke = smoke_grid();
        assert_eq!(std.len(), 48);
        assert_eq!(smoke.len(), 24);
        for grid in [&std, &smoke] {
            let divisors: std::collections::BTreeSet<u32> =
                grid.iter().map(|p| p.die_divisor).collect();
            let spares: std::collections::BTreeSet<u32> =
                grid.iter().map(|p| p.spare_units).collect();
            assert!(divisors.len() >= 2, "≥ 2 die sizes");
            assert!(spares.len() >= 2, "≥ 2 spare policies");
            assert!(grid.iter().any(|p| p.split) && grid.iter().any(|p| !p.split));
            assert!(grid.iter().any(|p| p.dvfs) && grid.iter().any(|p| !p.dvfs));
        }
        // Labels are unique — the grid has no duplicate candidates.
        let labels: std::collections::BTreeSet<String> = std.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), std.len());
    }

    #[test]
    fn invalid_bases_rejected() {
        let mut b = base();
        b.rate_per_equiv = 0.0;
        assert!(b.validate().is_err());
        b = base();
        b.hours = f64::NAN;
        assert!(b.validate().is_err());
        b = base();
        b.equiv_instances = 0;
        assert!(b.validate().is_err());
    }
}
