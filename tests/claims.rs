//! Integration tests for the paper's §2/§3 quantitative claims (the
//! C1–C5 rows of the experiment index in DESIGN.md).

use litegpu_repro::cluster::failure::{ClusterReliability, FailureModel};
use litegpu_repro::cluster::node::ClusterSpec;
use litegpu_repro::cluster::power_mgmt::{self, Policy};
use litegpu_repro::fab::cost::h100_vs_lite_comparison;
use litegpu_repro::fab::yield_model::YieldModel;
use litegpu_repro::net::switching::{CircuitSwitch, PacketSwitch, SwitchComparison};
use litegpu_repro::specs::catalog;

#[test]
fn c1_yield_gain_approx_1_8x() {
    // §2: "the yield rate can be increased by 1.8x when a H100-like
    // compute die area is reduced by 1/4th".
    let gain = YieldModel::Poisson.split_yield_gain(814.0, 0.1, 4);
    assert!((gain - 1.8).abs() < 0.05, "gain = {gain}");
}

#[test]
fn c1_manufacturing_cost_almost_halves() {
    // §2: "corresponding to almost 50% reduction in manufacturing cost".
    let cmp = h100_vs_lite_comparison().expect("cost model");
    assert!(
        cmp.silicon_saving > 0.40 && cmp.silicon_saving < 0.60,
        "saving = {}",
        cmp.silicon_saving
    );
    // Packaging differences push the packaged-GPU saving higher still.
    assert!(cmp.package_saving > cmp.silicon_saving * 0.5);
}

#[test]
fn c2_shoreline_doubles_at_quarter_area() {
    // §2: "reducing the die area to 1/4th doubles the perimeter exposed
    // to the four dies, yielding a cluster with 2x the
    // bandwidth-to-compute ratio".
    let h100 = catalog::h100();
    let lite4_perimeter = 4.0 * h100.die.shrink(4).unwrap().perimeter_mm();
    assert!((lite4_perimeter / h100.die.perimeter_mm() - 2.0).abs() < 1e-9);
    // And Table 1's +MemBW variant exactly spends that headroom.
    let ratio = catalog::lite_mem_bw().mem_bw_per_flop() / h100.mem_bw_per_flop();
    assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
}

#[test]
fn c3_circuit_switching_beats_packet_on_all_three_axes() {
    // §3: "(i) more than 50% better energy efficiency, (ii) lower latency,
    // and (iii) more ports at high bandwidth".
    let cmp = SwitchComparison::compare(
        &CircuitSwitch::sirius_class(),
        &PacketSwitch::tomahawk_class(),
    );
    assert!(
        cmp.energy_saving > 0.5,
        "energy saving = {}",
        cmp.energy_saving
    );
    assert!(cmp.latency_advantage_s > 0.0);
    assert!(cmp.radix_ratio > 1.0);
    assert!(cmp.paper_claims_hold());
}

#[test]
fn c4_blast_radius_shrinks_4x_and_availability_improves() {
    // §3: "Reducing the size of the GPU naturally reduces the blast
    // radius ... leading to higher available FLOPS".
    let fm = FailureModel::default_for(&catalog::h100());
    let h = ClusterReliability::new(catalog::h100(), 8, fm).unwrap();
    let l = ClusterReliability::new(catalog::lite_base(), 32, fm).unwrap();
    assert!((h.blast_radius_fraction() / l.blast_radius_fraction() - 4.0).abs() < 1e-9);
    assert!(l.expected_available_flops_fraction() > h.expected_available_flops_fraction());
}

#[test]
fn c4_spare_units_cost_4x_less_fleet_fraction() {
    use litegpu_repro::cluster::failure::monte_carlo_availability;
    let fm = FailureModel::default_for(&catalog::h100());
    let mh = monte_carlo_availability(&catalog::h100(), &fm, 4, 8, 1, 50.0, 9).unwrap();
    let ml = monte_carlo_availability(&catalog::lite_base(), &fm, 4, 32, 1, 50.0, 9).unwrap();
    assert!((mh.spare_overhead / ml.spare_overhead - 4.0).abs() < 1e-9);
}

#[test]
fn c5_gating_saves_energy_and_lite_gates_finer() {
    // §3: "In a Lite-GPU cluster, we can control down-clocking at finer
    // granularity to achieve better power efficiency."
    let trace = power_mgmt::diurnal_trace();
    let h = ClusterSpec::h100_node();
    let l = ClusterSpec::lite_node();
    let saving_lite = power_mgmt::gating_saving(&l, &trace).unwrap();
    assert!(saving_lite > 0.05, "saving = {saving_lite}");
    let eh = power_mgmt::trace_energy_j(&h, Policy::GateToEfficiency, &trace).unwrap();
    let el = power_mgmt::trace_energy_j(&l, Policy::GateToEfficiency, &trace).unwrap();
    assert!(el <= eh * 1.001, "lite {el} > h100 {eh}");
}

#[test]
fn c5_overclock_headroom_within_air_cooling() {
    // §3: "we can over-clock Lite-GPUs ... since smaller die areas allow
    // for easier cooling and higher clock frequencies."
    let assess = litegpu_repro::specs::cooling::assess(&catalog::lite_base()).unwrap();
    assert!(assess.max_sustained_clock >= 1.10);
    let h100 = litegpu_repro::specs::cooling::assess(&catalog::h100()).unwrap();
    assert!(assess.max_sustained_clock > h100.max_sustained_clock);
}

#[test]
fn c6_lite_mem_bw_wins_on_perf_per_dollar() {
    // §4: "In terms of performance per $-cost ... even matching
    // performance of today's clusters may lead to sufficient improvement
    // in performance per cost."
    let exp = litegpu_repro::litegpu::experiments::claim_cost_perf(
        &litegpu_repro::roofline::EngineParams::paper_defaults(),
    );
    assert!(
        exp.output.contains("per dollar"),
        "unexpected output: {}",
        exp.output
    );
    assert!(!exp.output.contains("comparison incomplete"));
}
