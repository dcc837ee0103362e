//! Load-following power management: whole-GPU DVFS vs. per-Lite-GPU
//! gating.
//!
//! §3: "Down-clocking all SMs of a large GPU can lead to wasted resources
//! or suboptimal performance. In a Lite-GPU cluster, we can control
//! down-clocking at finer granularity to achieve better power efficiency,
//! akin to down-clocking only a portion of SMs in a larger GPU." We model
//! a cluster tracking a fractional load `ρ ∈ [0, 1]`:
//!
//! - **DVFS**: all GPUs stay on and down-clock uniformly to `f = ρ^(1/1)`
//!   (throughput linear in clock), paying the full static floor and the
//!   cubic dynamic curve at reduced utilization.
//! - **Gating** (Lite-only): power off all but `⌈ρ·N⌉` GPUs, run those at
//!   nominal clock; granularity is `1/N`.
//! - **Hybrid**: gate to the nearest unit, DVFS the remainder.

use crate::node::ClusterSpec;
use crate::Result;
use litegpu_specs::power::PowerModel;

/// A load-following policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// All GPUs on, uniformly down-clocked to match load — the only
    /// option a monolithic GPU offers ("down-clocking all SMs", §3).
    DvfsAll,
    /// Power off idle GPUs; survivors run at nominal clock (naive
    /// gating — energy-inefficient because full clock sits at the top of
    /// the cubic power curve).
    GateIdle,
    /// Gate-to-efficiency: run the *fewest* GPUs that cover the load at
    /// the SLO-floor clock (the energy-optimal operating point), power
    /// the rest off. This is the policy Lite-GPU granularity enables.
    GateToEfficiency,
}

/// Lowest clock factor at which interactive latency SLOs still hold
/// (token latency ∝ 1/clock; ~33% inflation is the tolerable limit).
/// Clocks below this are *latency*-infeasible, not hardware-infeasible —
/// the "suboptimal performance" §3 attributes to whole-GPU down-clocking.
pub const SLO_MIN_CLOCK: f64 = 0.75;

/// Fraction of clocked dynamic power burned during unutilized cycles
/// (uncore, caches, scheduling — GPUs at 0% utilization but high clocks
/// draw well above their idle floor).
pub const ACTIVE_IDLE_FRAC: f64 = 0.3;

/// Clamps a per-unit load fraction to the SLO-feasible clock range: a
/// serving unit never clocks below [`SLO_MIN_CLOCK`] (latency SLOs break)
/// nor above nominal. Shared by every policy branch that converts load
/// into a clock — the single home of the efficiency-clock rule.
pub fn slo_clock(load_per_unit: f64) -> f64 {
    load_per_unit.clamp(SLO_MIN_CLOCK, 1.0)
}

/// The fewest units that cover load `rho` of an `n`-unit cluster's
/// nominal throughput when every active unit runs at the efficiency
/// clock ([`SLO_MIN_CLOCK`]): capacity per unit at that clock is
/// `SLO_MIN_CLOCK` of nominal, so `⌈rho·n / SLO_MIN_CLOCK⌉` units are
/// needed (capped at `n`). This is the gate-to-efficiency capacity
/// formula, hoisted so the policy branches and any capacity math share
/// one definition instead of a repeated magic `0.75`.
pub fn efficiency_units(rho: f64, n: f64) -> f64 {
    ((rho * n) / SLO_MIN_CLOCK).ceil().min(n)
}

/// The serving-time DVFS operating-point grid: clock factors from
/// [`SLO_MIN_CLOCK`] to nominal in 0.05 steps (exactly representable as
/// `k/20`), ascending, last entry exactly `1.0`. This is the grid
/// `litegpu_roofline::StepCostTable` prices step costs on and the
/// fleet's DVFS controller selects from.
pub fn operating_points() -> Vec<f64> {
    let first = (SLO_MIN_CLOCK * 20.0).round() as u32;
    (first..=20).map(|k| k as f64 / 20.0).collect()
}

/// Power of one GPU at `clock` delivering `util` of its clocked
/// throughput, including active-idle waste.
fn gpu_power(model: &PowerModel, clock: f64, util: f64) -> f64 {
    let u = util.clamp(0.0, 1.0);
    model.power_w(clock, u + ACTIVE_IDLE_FRAC * (1.0 - u))
}

/// Cluster power at fractional load `rho` under a policy, W.
///
/// Throughput is assumed proportional to `clock × active_gpus`; every
/// policy must deliver exactly `rho × nominal_throughput`.
pub fn power_at_load(cluster: &ClusterSpec, policy: Policy, rho: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&rho) || !rho.is_finite() {
        return Err(crate::ClusterError::InvalidParameter {
            name: "rho",
            value: rho,
        });
    }
    let n = cluster.total_gpus() as f64;
    let model = PowerModel::for_spec(&cluster.gpu);
    let overhead = cluster.nodes as f64 * cluster.node_overhead_w;
    let total = match policy {
        Policy::DvfsAll => {
            if rho == 0.0 {
                n * model.power_w(0.0, 0.0) // Idle floor on every GPU.
            } else {
                let clock = slo_clock(rho);
                let util = rho / clock;
                n * gpu_power(&model, clock, util)
            }
        }
        Policy::GateIdle => {
            let active = (rho * n).ceil();
            if active == 0.0 {
                0.0
            } else {
                let util = rho * n / active;
                active * gpu_power(&model, 1.0, util)
            }
        }
        Policy::GateToEfficiency => {
            // Activate just enough units to cover the load at the
            // efficiency clock, then clock them as low as the load
            // allows — both steps through the shared helpers.
            let active = efficiency_units(rho, n);
            if active == 0.0 {
                0.0
            } else {
                let clock = slo_clock(rho * n / active);
                let util = rho * n / active / clock;
                active * gpu_power(&model, clock, util)
            }
        }
    };
    Ok(total + overhead)
}

/// Energy (J) to serve a diurnal load trace of hourly `loads` (fractions)
/// under a policy.
pub fn trace_energy_j(cluster: &ClusterSpec, policy: Policy, loads: &[f64]) -> Result<f64> {
    let mut j = 0.0;
    for &rho in loads {
        j += power_at_load(cluster, policy, rho)? * 3600.0;
    }
    Ok(j)
}

/// A stylized diurnal load trace (24 hourly points, production-shaped:
/// quiet nights, busy afternoons).
pub fn diurnal_trace() -> Vec<f64> {
    vec![
        0.15, 0.12, 0.10, 0.10, 0.12, 0.18, 0.30, 0.45, 0.60, 0.72, 0.80, 0.85, 0.88, 0.90, 0.88,
        0.85, 0.80, 0.75, 0.68, 0.58, 0.45, 0.35, 0.25, 0.18,
    ]
}

/// Savings of gate-to-efficiency over whole-cluster DVFS on a load trace:
/// `1 − E_gate / E_dvfs`.
pub fn gating_saving(cluster: &ClusterSpec, loads: &[f64]) -> Result<f64> {
    let dvfs = trace_energy_j(cluster, Policy::DvfsAll, loads)?;
    let gate = trace_energy_j(cluster, Policy::GateToEfficiency, loads)?;
    Ok(1.0 - gate / dvfs)
}

/// Default datacenter power-usage effectiveness: total facility power per
/// watt of IT load (cooling, distribution losses). 1.2 is a modern
/// hyperscale figure.
pub const DEFAULT_PUE: f64 = 1.2;

/// Default capital cost of provisioning one kW of facility power capacity
/// (substation, UPS, distribution, cooling plant), USD/kW.
pub const DEFAULT_USD_PER_PROVISIONED_KW: f64 = 3_000.0;

/// Capital cost of provisioning power delivery and cooling for `it_kw`
/// kilowatts of IT load at the given PUE, USD.
///
/// Lite-GPU fleets change this line two ways: more GPUs of smaller TDP
/// leave the provisioned total roughly constant, but gate-to-efficiency
/// serving lets operators provision closer to the served-load peak than
/// to the nameplate sum.
pub fn provisioning_capex_usd(it_kw: f64, pue: f64, usd_per_kw: f64) -> Result<f64> {
    for (name, value) in [("it_kw", it_kw), ("pue", pue), ("usd_per_kw", usd_per_kw)] {
        if !value.is_finite() || value < 0.0 {
            return Err(crate::ClusterError::InvalidParameter { name, value });
        }
    }
    if pue < 1.0 {
        return Err(crate::ClusterError::InvalidParameter {
            name: "pue",
            value: pue,
        });
    }
    Ok(it_kw * pue * usd_per_kw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_load_equal_across_policies() {
        let c = ClusterSpec::lite_node();
        let a = power_at_load(&c, Policy::DvfsAll, 1.0).unwrap();
        let b = power_at_load(&c, Policy::GateIdle, 1.0).unwrap();
        let h = power_at_load(&c, Policy::GateToEfficiency, 1.0).unwrap();
        assert!((a - b).abs() < 1e-9);
        assert!((a - h).abs() < 1e-9);
        // Every GPU at TDP plus the node overheads.
        let peak = c.total_gpus() as f64 * c.gpu.tdp_w + c.nodes as f64 * c.node_overhead_w;
        assert!((a - peak).abs() < 1e-9);
    }

    #[test]
    fn zero_load_gating_drops_to_overhead() {
        let c = ClusterSpec::lite_node();
        let g = power_at_load(&c, Policy::GateIdle, 0.0).unwrap();
        assert!((g - c.nodes as f64 * c.node_overhead_w).abs() < 1e-9);
        let e = power_at_load(&c, Policy::GateToEfficiency, 0.0).unwrap();
        assert!((e - g).abs() < 1e-9);
        // DVFS still pays every GPU's idle floor.
        let d = power_at_load(&c, Policy::DvfsAll, 0.0).unwrap();
        assert!(d > g);
    }

    #[test]
    fn gating_beats_dvfs_at_low_load() {
        let c = ClusterSpec::lite_node();
        let d = power_at_load(&c, Policy::DvfsAll, 0.2).unwrap();
        let g = power_at_load(&c, Policy::GateToEfficiency, 0.2).unwrap();
        assert!(g < d, "gate {g} >= dvfs {d}");
    }

    #[test]
    fn gate_to_efficiency_beats_naive_gating() {
        // Running fewer units flat-out sits at the top of the cubic power
        // curve; spreading over slightly more units at the SLO-floor
        // clock wins.
        let c = ClusterSpec::lite_node();
        for rho in [0.2, 0.4, 0.6, 0.8] {
            let naive = power_at_load(&c, Policy::GateIdle, rho).unwrap();
            let eff = power_at_load(&c, Policy::GateToEfficiency, rho).unwrap();
            assert!(eff <= naive + 1e-9, "rho={rho}: eff {eff} > naive {naive}");
        }
    }

    #[test]
    fn lite_cluster_gates_finer_than_h100() {
        // Gate-to-efficiency quantizes at one GPU; Lite's quantum is 4x
        // smaller, so across a diurnal trace it wastes less.
        let h = ClusterSpec::h100_node();
        let l = ClusterSpec::lite_node();
        let eh = trace_energy_j(&h, Policy::GateToEfficiency, &diurnal_trace()).unwrap();
        let el = trace_energy_j(&l, Policy::GateToEfficiency, &diurnal_trace()).unwrap();
        assert!(el <= eh * 1.001, "lite {el} > h100 {eh}");
        // And gating saves real energy versus fleet-wide DVFS.
        let sl = gating_saving(&l, &diurnal_trace()).unwrap();
        assert!(sl > 0.05, "gating should save real energy, got {sl}");
    }

    #[test]
    fn operating_points_span_slo_min_clock_to_nominal() {
        let pts = operating_points();
        assert_eq!(pts.first(), Some(&SLO_MIN_CLOCK));
        assert_eq!(pts.last(), Some(&1.0));
        assert!(pts.len() >= 3, "grid must be a real ladder: {pts:?}");
        for w in pts.windows(2) {
            assert!(w[0] < w[1], "ascending: {pts:?}");
            assert!((w[1] - w[0] - 0.05).abs() < 1e-12, "0.05 steps: {pts:?}");
        }
    }

    #[test]
    fn efficiency_helpers_match_the_policy_branches() {
        // slo_clock clamps to [SLO_MIN_CLOCK, 1].
        assert_eq!(slo_clock(0.1), SLO_MIN_CLOCK);
        assert_eq!(slo_clock(0.9), 0.9);
        assert_eq!(slo_clock(1.7), 1.0);
        // efficiency_units: fewest units covering the load at the
        // efficiency clock, capped at the cluster size.
        assert_eq!(efficiency_units(0.0, 32.0), 0.0);
        assert_eq!(
            efficiency_units(0.3, 32.0),
            (0.3 * 32.0 / SLO_MIN_CLOCK).ceil()
        );
        assert_eq!(efficiency_units(1.0, 32.0), 32.0);
    }

    #[test]
    fn power_at_load_pinned_at_grid_endpoints() {
        // Regression pins at the DVFS grid endpoints:
        // - rho = SLO_MIN_CLOCK: every GPU at clock 0.75, full
        //   utilization => idle + dynamic × 0.75³ per GPU + overhead.
        //   Lite: 32 × (19 + 156 × 0.421875) + 800 = 3514.00 W.
        //   H100:  8 × (75 + 625 × 0.421875) + 800 = 3509.375 W.
        // - rho = 1.0: peak power, 6400 W for both.
        for (c, lo_expected) in [
            (ClusterSpec::lite_node(), 3514.0),
            (ClusterSpec::h100_node(), 3509.375),
        ] {
            for policy in [Policy::DvfsAll, Policy::GateToEfficiency] {
                let lo = power_at_load(&c, policy, SLO_MIN_CLOCK).unwrap();
                assert!((lo - lo_expected).abs() < 1e-9, "{policy:?} lo = {lo}");
                let hi = power_at_load(&c, policy, 1.0).unwrap();
                assert!((hi - 6400.0).abs() < 1e-9, "{policy:?} hi = {hi}");
            }
        }
    }

    #[test]
    fn provisioning_capex_prices_facility_watts() {
        // A 6.4 kW node at PUE 1.2 and $3000/kW: 6.4 × 1.2 × 3000.
        let c = provisioning_capex_usd(6.4, DEFAULT_PUE, DEFAULT_USD_PER_PROVISIONED_KW).unwrap();
        assert!((c - 23_040.0).abs() < 1e-9, "got {c}");
        assert_eq!(provisioning_capex_usd(0.0, 1.0, 3000.0).unwrap(), 0.0);
        // PUE below 1 is unphysical; negatives and NaN are rejected.
        assert!(provisioning_capex_usd(6.4, 0.9, 3000.0).is_err());
        assert!(provisioning_capex_usd(-1.0, 1.2, 3000.0).is_err());
        assert!(provisioning_capex_usd(6.4, 1.2, f64::NAN).is_err());
    }

    #[test]
    fn invalid_load_rejected() {
        let c = ClusterSpec::lite_node();
        assert!(power_at_load(&c, Policy::DvfsAll, -0.1).is_err());
        assert!(power_at_load(&c, Policy::DvfsAll, 1.1).is_err());
        assert!(power_at_load(&c, Policy::DvfsAll, f64::NAN).is_err());
    }

    #[test]
    fn diurnal_trace_is_24_fractions() {
        let t = diurnal_trace();
        assert_eq!(t.len(), 24);
        assert!(t.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    proptest! {
        #[test]
        fn power_monotone_in_load(r1 in 0.001..0.98f64, dr in 0.001..0.02f64) {
            let c = ClusterSpec::lite_node();
            for policy in [Policy::DvfsAll, Policy::GateIdle, Policy::GateToEfficiency] {
                let p1 = power_at_load(&c, policy, r1).unwrap();
                let p2 = power_at_load(&c, policy, (r1 + dr).min(1.0)).unwrap();
                prop_assert!(p2 >= p1 - 1e-6, "{policy:?}: {p2} < {p1}");
            }
        }

        #[test]
        fn gate_to_efficiency_never_worse_than_dvfs(rho in 0.0..1.0f64) {
            let c = ClusterSpec::lite_node();
            let d = power_at_load(&c, Policy::DvfsAll, rho).unwrap();
            let h = power_at_load(&c, Policy::GateToEfficiency, rho).unwrap();
            prop_assert!(h <= d + 1e-9);
        }
    }
}
