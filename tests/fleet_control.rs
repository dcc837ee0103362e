//! Integration tests for the `litegpu-ctrl` control plane's *behavior*
//! at fleet scale: the §3 elasticity/energy claims (H100 vs Lite under
//! the diurnal demo trace) and routing recovery during failures.

use litegpu_repro::fleet::{run, spares_for_target, FleetConfig};

/// Shrinks a demo config to a 40-instance fleet on 5 s ticks so a full
/// simulated day stays fast in tests.
fn day_sized(mut cfg: FleetConfig) -> FleetConfig {
    cfg.instances = 40;
    cfg.cell_size = 20;
    cfg.tick_s = 5.0;
    cfg.horizon_s = 24.0 * 3600.0;
    if let Some(ctrl) = cfg.ctrl.as_mut() {
        ctrl.control_interval_s = 30.0;
    }
    cfg
}

#[test]
fn lite_gating_beats_h100_dvfs_on_idle_energy_over_a_diurnal_day() {
    // The acceptance claim: under the diurnal demo trace, the Lite fleet
    // (parked instances power-gate off) shows measurably lower idle
    // energy than the H100 fleet (parked instances can only down-clock
    // to their idle floor — §3's monolithic-GPU limitation).
    let h = run(&day_sized(FleetConfig::h100_ctrl_demo()), 42).unwrap();
    let l = run(&day_sized(FleetConfig::lite_ctrl_demo()), 42).unwrap();
    assert_eq!(h.controller, "autoscale+gate(DvfsAll)+route");
    assert_eq!(l.controller, "autoscale+gate(GateToEfficiency)+route");
    // Both fleets breathe with the diurnal curve...
    for r in [&h, &l] {
        assert!(r.scale_ups > 0, "{}: no scale-ups", r.gpu);
        assert!(r.scale_downs > 0, "{}: no parks", r.gpu);
        assert!(r.avg_live_instances < 40.0 * 0.9, "{}: never parked", r.gpu);
        assert!(r.energy_j > 0 && r.idle_energy_j > 0);
    }
    // ...but only the gated fleet stops paying for parked capacity.
    assert!(
        (l.idle_energy_j as f64) < 0.5 * h.idle_energy_j as f64,
        "lite idle {} J vs h100 idle {} J",
        l.idle_energy_j,
        h.idle_energy_j
    );
    assert!(l.energy_j < h.energy_j);
}

#[test]
fn autoscaled_fleet_saves_energy_and_holds_slos_against_fixed_fleet() {
    let fixed = run(&day_sized(FleetConfig::lite_demo()), 7).unwrap();
    let scaled = run(&day_sized(FleetConfig::lite_ctrl_demo()), 7).unwrap();
    assert!(scaled.avg_live_instances < fixed.avg_live_instances);
    assert!(
        scaled.energy_j < fixed.energy_j,
        "autoscaling should save energy: {} vs {}",
        scaled.energy_j,
        fixed.energy_j
    );
    // Elasticity must not wreck the service: nearly everything completes
    // and TTFT attainment stays close to the fixed fleet's.
    assert!(scaled.completed as f64 > 0.99 * fixed.completed as f64);
    assert!(scaled.ttft_attainment > fixed.ttft_attainment - 0.05);
}

#[test]
fn router_recovers_traffic_stranded_by_failures() {
    // Routing only (no autoscaler), under heavy failure injection: the
    // uncontrolled fleet strands arrivals on down instances, the routed
    // fleet steers them to live ones.
    let mut legacy = FleetConfig::lite_demo();
    legacy.instances = 40;
    legacy.cell_size = 10;
    legacy.horizon_s = 2.0 * 3600.0;
    legacy.failure_acceleration = 300_000.0;
    let mut routed = legacy.clone();
    routed.ctrl = Some(litegpu_repro::ctrl::CtrlConfig {
        router: true,
        ..Default::default()
    });
    let a = run(&legacy, 3).unwrap();
    let b = run(&routed, 3).unwrap();
    assert_eq!(b.controller, "route");
    assert!(a.failures > 10 && b.failures > 10);
    // Routing turns stranded-queue waits into served requests: more
    // completions and a far better tail latency.
    assert!(
        b.completed > a.completed,
        "routed {} vs stranded {}",
        b.completed,
        a.completed
    );
    assert!(
        b.e2e_p99_s < a.e2e_p99_s,
        "routed p99 {} vs stranded p99 {}",
        b.e2e_p99_s,
        a.e2e_p99_s
    );
}

#[test]
fn fleet_spare_search_confirms_cheaper_lite_pools() {
    // The fleet-level spare-provisioning sweep (ROADMAP item): both
    // fleets need similar spare *counts*, but the Lite pool costs a
    // quarter of the fleet fraction.
    let mut h = FleetConfig::h100_demo();
    let mut l = FleetConfig::lite_demo();
    for cfg in [&mut h, &mut l] {
        cfg.instances = 24;
        cfg.cell_size = 8;
        cfg.horizon_s = 1800.0;
        cfg.failure_acceleration = 30_000.0;
    }
    let fh = spares_for_target(&h, 0.97, 8, 5).unwrap();
    let fl = spares_for_target(&l, 0.97, 8, 5).unwrap();
    assert!(fh.report.availability >= 0.97);
    assert!(fl.report.availability >= 0.97);
    if fh.spares_per_cell == fl.spares_per_cell && fh.spares_per_cell > 0 {
        assert!(
            (fh.report.spare_overhead / fl.report.spare_overhead - 4.0).abs() < 1e-9,
            "same spare units should cost 4x less fleet fraction on Lite"
        );
    }
}
