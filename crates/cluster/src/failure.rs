//! Failure modeling: blast radius, availability and hot spares.
//!
//! §3 "Fault-tolerance": "Reducing the size of the GPU naturally reduces
//! the blast radius should a GPU fail ... leading to higher available
//! FLOPS, memory capacity, and memory bandwidth at any time", and hot
//! spares become proportionally cheaper because "each additional Lite-GPU
//! \[is\] smaller and cheaper". Today's serving stacks impose instance-wide
//! blast radii (one dead GPU takes the whole model instance offline), so
//! the Monte-Carlo model here works at instance granularity with a shared
//! hot-spare pool.

use crate::{check_positive, Result};
use litegpu_specs::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hours per year (failure-rate bookkeeping).
pub const HOURS_PER_YEAR: f64 = 8760.0;

// # Unit convention (shared with `litegpu_fleet`)
//
// An AFR in this suite is an *annualized Poisson rate* — expected failure
// events per GPU per year — not a probability. For the small per-hour
// rates involved the two read identically (P[fail in a year] ≈ rate), but
// rates compose: they add across GPUs and divide by [`HOURS_PER_YEAR`]
// to give the per-hour rates that event-driven simulators consume.
// Every conversion goes through [`FailureModel::failures_per_gpu_hour`] /
// [`FailureModel::failures_per_instance_hour`] so the `×/÷ 8760` never
// appears inline at call sites.

/// A per-package failure model with an area-dependent component.
///
/// `AFR = afr_per_mm2 × die_area + afr_fixed`: silicon faults scale with
/// area (more transistors, more thermal stress), while the fixed part
/// covers HBM, VRMs and board electronics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailureModel {
    /// Annualized failure probability per mm² of compute silicon.
    pub afr_per_mm2: f64,
    /// Annualized failure probability of the non-silicon package parts.
    pub afr_fixed: f64,
    /// Mean time to repair/replace a failed unit, hours.
    pub mttr_hours: f64,
    /// Time to activate a hot spare, hours.
    pub spare_swap_hours: f64,
}

impl FailureModel {
    /// Default calibration, derived from the spec's die area: an
    /// H100-class package (814 mm²) lands at ~5% AFR (fleet reports range
    /// 1–9%), three-quarters of it area-dependent. The per-mm² rate is
    /// physical (spec-independent), while the fixed board/HBM part scales
    /// with the package's silicon — a ¼-size die carries ~¼ the HBM
    /// stacks and VRM phases — so `default_for(&lite).afr(&lite)` is a
    /// quarter of the H100 default end to end, not merely 9/16 of it.
    pub fn default_for(spec: &GpuSpec) -> Self {
        let silicon_mm2 = spec.die.area_mm2() * spec.dies_per_package as f64;
        Self {
            afr_per_mm2: 0.0375 / litegpu_specs::catalog::H100_DIE_AREA_MM2,
            afr_fixed: 0.0125 * silicon_mm2 / litegpu_specs::catalog::H100_DIE_AREA_MM2,
            mttr_hours: 24.0,
            spare_swap_hours: 0.1,
        }
    }

    /// Annualized failure rate for a GPU of the given spec.
    pub fn afr(&self, spec: &GpuSpec) -> f64 {
        self.afr_per_mm2 * spec.die.area_mm2() * spec.dies_per_package as f64 + self.afr_fixed
    }

    /// Poisson failure rate of one GPU, in failures per *hour* (the unit
    /// event-driven simulators consume; see the module's unit convention).
    pub fn failures_per_gpu_hour(&self, spec: &GpuSpec) -> f64 {
        self.afr(spec) / HOURS_PER_YEAR
    }

    /// Poisson failure rate of one model instance of `gpus_per_instance`
    /// GPUs, in failures per hour. Any GPU failing takes the whole
    /// instance down (the §3 blast radius), so per-GPU rates add.
    pub fn failures_per_instance_hour(&self, spec: &GpuSpec, gpus_per_instance: u32) -> f64 {
        self.failures_per_gpu_hour(spec) * gpus_per_instance as f64
    }
}

/// Deterministic reliability figures for a homogeneous cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReliability {
    /// GPU type.
    pub gpu: GpuSpec,
    /// Cluster size.
    pub gpus: u32,
    /// Failure model.
    pub model: FailureModel,
}

impl ClusterReliability {
    /// Creates the reliability view.
    pub fn new(gpu: GpuSpec, gpus: u32, model: FailureModel) -> Result<Self> {
        gpu.validate()?;
        check_positive("gpus", gpus as f64)?;
        Ok(Self { gpu, gpus, model })
    }

    /// Fraction of cluster FLOPS lost when one GPU fails — the paper's
    /// blast radius.
    pub fn blast_radius_fraction(&self) -> f64 {
        1.0 / self.gpus as f64
    }

    /// Expected failures per year across the cluster.
    pub fn failures_per_year(&self) -> f64 {
        self.gpus as f64 * self.model.afr(&self.gpu)
    }

    /// Steady-state expected fraction of cluster FLOPS available
    /// (independent repairs, no spares).
    pub fn expected_available_flops_fraction(&self) -> f64 {
        let per_gpu_unavail = self.model.afr(&self.gpu) * self.model.mttr_hours / HOURS_PER_YEAR;
        1.0 - per_gpu_unavail.min(1.0)
    }
}

/// Result of a Monte-Carlo availability run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloAvailability {
    /// Fraction of instance-hours served.
    pub instance_availability: f64,
    /// Observed failures per simulated year.
    pub failures_per_year: f64,
    /// Fraction of failures absorbed by a hot spare.
    pub spare_hit_rate: f64,
    /// Fleet-cost overhead of the spare pool (spares / serving GPUs).
    pub spare_overhead: f64,
}

/// Simulates `instances` model instances of `gpus_per_instance` GPUs each,
/// with `spares` hot spares shared across the fleet, over `years` of
/// simulated time.
///
/// Failure process: each GPU fails as a Poisson process at the model's
/// AFR. A failure takes its instance down for `spare_swap_hours` when a
/// spare is free (the spare replaces the unit; the failed unit returns to
/// the spare pool after `mttr_hours`), or for `mttr_hours` when the pool
/// is empty — the instance-wide blast radius of today's serving stacks.
pub fn monte_carlo_availability(
    gpu: &GpuSpec,
    model: &FailureModel,
    instances: u32,
    gpus_per_instance: u32,
    spares: u32,
    years: f64,
    seed: u64,
) -> Result<MonteCarloAvailability> {
    check_positive("instances", instances as f64)?;
    check_positive("gpus_per_instance", gpus_per_instance as f64)?;
    check_positive("years", years)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let afr = model.afr(gpu);
    let horizon_h = years * HOURS_PER_YEAR;
    let total_gpus = instances * gpus_per_instance;

    // Generate all failure events (Poisson per GPU == Poisson for fleet).
    let fleet_rate_per_hour = afr * total_gpus as f64 / HOURS_PER_YEAR;
    let mut events = Vec::new();
    let mut t = 0.0f64;
    if fleet_rate_per_hour > 0.0 {
        loop {
            let u: f64 = rng.random::<f64>().max(1e-300);
            t += -u.ln() / fleet_rate_per_hour;
            if t >= horizon_h {
                break;
            }
            events.push(t);
        }
    }

    // Walk the timeline with a spare pool and a repair queue.
    let mut spare_free = spares as i64;
    let mut repairs: std::collections::BinaryHeap<std::cmp::Reverse<u64>> =
        std::collections::BinaryHeap::new();
    let to_key = |h: f64| (h * 3600.0) as u64; // Hour -> integer seconds.
    let mut downtime_h = 0.0f64;
    let mut spare_hits = 0usize;
    for &ft in &events {
        // Complete finished repairs (units return to the spare pool).
        while let Some(&std::cmp::Reverse(done)) = repairs.peek() {
            if (done as f64) / 3600.0 <= ft {
                repairs.pop();
                spare_free += 1;
            } else {
                break;
            }
        }
        let instance = rng.random_range(0..instances);
        let _ = instance; // Instances are stochastically symmetric.
        if spare_free > 0 {
            spare_free -= 1;
            spare_hits += 1;
            downtime_h += model.spare_swap_hours;
            repairs.push(std::cmp::Reverse(to_key(ft + model.mttr_hours)));
        } else {
            downtime_h += model.mttr_hours;
        }
    }
    let instance_hours = instances as f64 * horizon_h;
    Ok(MonteCarloAvailability {
        instance_availability: 1.0 - (downtime_h / instance_hours).min(1.0),
        failures_per_year: events.len() as f64 / years,
        spare_hit_rate: if events.is_empty() {
            1.0
        } else {
            spare_hits as f64 / events.len() as f64
        },
        spare_overhead: spares as f64 / total_gpus as f64,
    })
}

/// Spares needed to reach an instance-availability target, by sweeping the
/// Monte-Carlo simulation. Returns `(spares, achieved, overhead)`.
pub fn spares_for_target(
    gpu: &GpuSpec,
    model: &FailureModel,
    instances: u32,
    gpus_per_instance: u32,
    target: f64,
    years: f64,
    seed: u64,
) -> Result<(u32, f64, f64)> {
    for spares in 0..=(instances * gpus_per_instance) {
        let mc = monte_carlo_availability(
            gpu,
            model,
            instances,
            gpus_per_instance,
            spares,
            years,
            seed,
        )?;
        if mc.instance_availability >= target {
            return Ok((spares, mc.instance_availability, mc.spare_overhead));
        }
    }
    Err(crate::ClusterError::InsufficientCapacity {
        requested: target,
        available: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_specs::catalog;

    #[test]
    fn lite_afr_below_h100_afr() {
        let h = catalog::h100();
        let l = catalog::lite_base();
        let m = FailureModel::default_for(&h);
        assert!((m.afr(&h) - 0.05).abs() < 1e-12);
        // Area-dependent part quarters; fixed part stays.
        assert!(m.afr(&l) < 0.025);
        assert!(m.afr(&l) > 0.015);
    }

    #[test]
    fn default_model_scales_with_die_area() {
        // Regression for `default_for` ignoring its spec: the Lite
        // default must actually differ from the H100 default.
        let h = FailureModel::default_for(&catalog::h100());
        let l = FailureModel::default_for(&catalog::lite_base());
        assert_ne!(h, l);
        // The per-mm² rate is physical and spec-independent...
        assert!((h.afr_per_mm2 - l.afr_per_mm2).abs() < 1e-18);
        // ...while the fixed board part scales with package silicon.
        assert!((l.afr_fixed / h.afr_fixed - 0.25).abs() < 1e-9);
        // End to end: quarter silicon ⇒ quarter AFR.
        assert!((h.afr(&catalog::h100()) - 0.05).abs() < 1e-12);
        assert!((l.afr(&catalog::lite_base()) - 0.0125).abs() < 1e-9);
    }

    #[test]
    fn hourly_rates_follow_the_unit_convention() {
        let h = catalog::h100();
        let m = FailureModel::default_for(&h);
        // 5% AFR / 8760 h per year.
        assert!((m.failures_per_gpu_hour(&h) - 0.05 / 8760.0).abs() < 1e-15);
        // Instance rate adds across GPUs.
        assert!(
            (m.failures_per_instance_hour(&h, 8) - 8.0 * m.failures_per_gpu_hour(&h)).abs() < 1e-15
        );
    }

    #[test]
    fn blast_radius_quarter_of_h100() {
        let m = FailureModel::default_for(&catalog::h100());
        let h = ClusterReliability::new(catalog::h100(), 8, m).unwrap();
        let l = ClusterReliability::new(catalog::lite_base(), 32, m).unwrap();
        assert!((h.blast_radius_fraction() / l.blast_radius_fraction() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lite_cluster_has_higher_available_flops() {
        // The §3 claim, deterministically.
        let m = FailureModel::default_for(&catalog::h100());
        let h = ClusterReliability::new(catalog::h100(), 8, m).unwrap();
        let l = ClusterReliability::new(catalog::lite_base(), 32, m).unwrap();
        assert!(l.expected_available_flops_fraction() > h.expected_available_flops_fraction());
    }

    #[test]
    fn monte_carlo_no_failures_is_fully_available() {
        let gpu = catalog::h100();
        let m = FailureModel {
            afr_per_mm2: 0.0,
            afr_fixed: 0.0,
            mttr_hours: 24.0,
            spare_swap_hours: 0.1,
        };
        let mc = monte_carlo_availability(&gpu, &m, 4, 8, 0, 1.0, 1).unwrap();
        assert_eq!(mc.instance_availability, 1.0);
        assert_eq!(mc.failures_per_year, 0.0);
    }

    #[test]
    fn monte_carlo_failure_rate_matches_model() {
        let gpu = catalog::h100();
        let m = FailureModel::default_for(&gpu);
        let mc = monte_carlo_availability(&gpu, &m, 4, 8, 0, 200.0, 42).unwrap();
        // 32 GPUs x 5% AFR = 1.6 failures/year; allow MC noise.
        assert!(
            (mc.failures_per_year - 1.6).abs() < 0.3,
            "rate = {}",
            mc.failures_per_year
        );
    }

    #[test]
    fn spares_improve_availability() {
        let gpu = catalog::h100();
        let mut m = FailureModel::default_for(&gpu);
        m.afr_fixed = 0.3; // Stress the fleet so spares matter.
        m.afr_per_mm2 = 0.0;
        let none = monte_carlo_availability(&gpu, &m, 4, 8, 0, 50.0, 7).unwrap();
        let some = monte_carlo_availability(&gpu, &m, 4, 8, 2, 50.0, 7).unwrap();
        assert!(some.instance_availability > none.instance_availability);
        assert!(some.spare_hit_rate > 0.5);
    }

    #[test]
    fn spare_overhead_cheaper_for_lite() {
        // Same serving capacity (4 instances), same number of spare
        // *units*: the Lite spare pool is a 4x smaller fleet fraction.
        let m = FailureModel::default_for(&catalog::h100());
        let h = monte_carlo_availability(&catalog::h100(), &m, 4, 8, 2, 5.0, 3).unwrap();
        let l = monte_carlo_availability(&catalog::lite_base(), &m, 4, 32, 2, 5.0, 3).unwrap();
        assert!((h.spare_overhead / l.spare_overhead - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spares_for_target_finds_minimum() {
        let gpu = catalog::h100();
        let mut m = FailureModel::default_for(&gpu);
        m.afr_fixed = 0.5;
        m.afr_per_mm2 = 0.0;
        let (spares, achieved, overhead) =
            spares_for_target(&gpu, &m, 4, 8, 0.9999, 50.0, 11).unwrap();
        assert!(achieved >= 0.9999);
        assert!(overhead <= 1.0);
        // Verify minimality: one fewer spare misses the target.
        if spares > 0 {
            let below = monte_carlo_availability(&gpu, &m, 4, 8, spares - 1, 50.0, 11).unwrap();
            assert!(below.instance_availability < 0.9999);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let gpu = catalog::lite_base();
        let m = FailureModel::default_for(&gpu);
        let a = monte_carlo_availability(&gpu, &m, 8, 32, 4, 10.0, 99).unwrap();
        let b = monte_carlo_availability(&gpu, &m, 8, 32, 4, 10.0, 99).unwrap();
        assert_eq!(a, b);
    }
}
