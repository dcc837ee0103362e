//! Integration tests for chaos campaigns end to end: compiled schedules
//! keep the byte-identical-report guarantee at any shard and thread
//! count, instance downs are attributed to the right failure domain,
//! repair crews and drains are accounted, and at equal rack power the
//! Lite fleet's smaller blast radius shows up directly as higher
//! availability under the very same rack-outage campaign.

use litegpu_repro::chaos::{
    compile, outcome, run_campaign_full, Campaign, CampaignKind, ChaosReport, DomainPlan,
};
use litegpu_repro::fleet::{run, run_sharded, FleetConfig, TelemetryConfig, WorkloadSpec};

/// A small fleet of single-GPU Llama3-8B instances — the smallest model
/// in the catalog, so one instance maps to one GPU and the failure-domain
/// packing is set purely by each GPU's power draw.
fn single_gpu_fleet(
    gpu: litegpu_repro::specs::GpuSpec,
    instances: u32,
    cell_size: u32,
) -> FleetConfig {
    let failure = litegpu_repro::cluster::FailureModel::default_for(&gpu);
    let mut cfg = FleetConfig::h100_demo();
    cfg.gpu = gpu;
    cfg.failure = failure;
    cfg.arch = litegpu_repro::workload::models::llama3_8b();
    cfg.gpus_per_instance = 1;
    cfg.instances = instances;
    cfg.cell_size = cell_size;
    cfg.workload = WorkloadSpec::multi_tenant_demo(1.0);
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 10_000.0;
    cfg
}

fn h100_fleet() -> FleetConfig {
    single_gpu_fleet(litegpu_repro::specs::catalog::h100(), 96, 8)
}

fn lite_fleet() -> FleetConfig {
    // 4x the instances at 1/4 the compute and power: same total silicon,
    // same rack count under the shared 10 kW racks. The spare budget is
    // silicon-equal too (§3's "cheaper hot spares"): one H100 spare per
    // 8-instance cell buys four Lite spares per 32-instance cell.
    let mut cfg = single_gpu_fleet(litegpu_repro::specs::catalog::lite_base(), 384, 32);
    cfg.workload = WorkloadSpec::multi_tenant_demo(0.25);
    cfg.spares_per_cell = 4;
    cfg
}

fn campaign(kind: CampaignKind) -> Campaign {
    Campaign {
        kind,
        events: 3,
        duration_s: 300.0,
        intensity: 0.5,
    }
}

/// The core guarantee survives chaos: every campaign kind's report is
/// byte-identical at any shard/thread count.
#[test]
fn chaos_reports_byte_identical_across_shards_and_threads() {
    for kind in CampaignKind::ALL {
        let mut cfg = h100_fleet();
        cfg.horizon_s = 900.0;
        cfg.chaos = compile(&cfg, &DomainPlan::default(), &campaign(kind), 17).unwrap();
        let base = run_sharded(&cfg, 17, 1, 1).unwrap();
        let base_json = base.to_json();
        for (shards, threads) in [(4u32, 2u32), (8, 8), (12, 3)] {
            let r = run_sharded(&cfg, 17, shards, threads).unwrap();
            assert_eq!(r.to_json(), base_json, "{kind:?} at {shards}x{threads}");
        }
        let auto = run(&cfg, 17).unwrap();
        assert_eq!(auto.to_json(), base_json, "{kind:?} auto entry point");
    }
}

/// Rack outages land in the `rack` breakdown bucket, the crews get the
/// repair jobs, and the books conserve.
#[test]
fn rack_campaign_attributes_losses_and_dispatches_crews() {
    let cfg = h100_fleet();
    let r = run_campaign_full(
        &cfg,
        &DomainPlan::default(),
        &campaign(CampaignKind::RackOutages),
        5,
        4,
        2,
    )
    .unwrap()
    .report;
    let b = &r.failure_breakdown;
    assert!(b.rack > 0, "rack losses must be attributed");
    assert_eq!(b.independent + b.rack + b.power, r.failures);
    let chaos = r
        .chaos
        .as_ref()
        .expect("campaign runs carry a chaos section");
    assert!(
        chaos.repairs_dispatched >= b.rack,
        "every down queues a repair"
    );
    assert!(chaos.mttr_s >= 0.0);
    assert_eq!(
        r.routed + r.rejected,
        r.arrived,
        "conservation holds under chaos"
    );
}

/// Partitioned cells shed their arrivals (counted separately) while the
/// arrival books still balance exactly.
#[test]
fn partition_campaign_sheds_and_conserves() {
    let cfg = h100_fleet();
    let r = run_campaign_full(
        &cfg,
        &DomainPlan::default(),
        &campaign(CampaignKind::NetworkPartitions),
        3,
        6,
        2,
    )
    .unwrap()
    .report;
    let chaos = r.chaos.as_ref().unwrap();
    assert!(chaos.partition_shed > 0, "partitioned cells must shed");
    assert!(r.failure_breakdown.partition_events > 0);
    assert_eq!(r.routed + r.rejected, r.arrived);
}

/// A rolling drain touches every instance exactly once and restores the
/// waves whose windows close inside the horizon.
#[test]
fn drain_campaign_counts_waves_and_restores() {
    let cfg = h100_fleet();
    let r = run_campaign_full(
        &cfg,
        &DomainPlan::default(),
        &campaign(CampaignKind::RollingDrain),
        9,
        4,
        4,
    )
    .unwrap()
    .report;
    let chaos = r.chaos.as_ref().unwrap();
    assert_eq!(
        chaos.drains,
        u64::from(cfg.instances),
        "one drain per instance"
    );
    assert!(chaos.drain_restores > 0);
    assert!(chaos.drain_restores <= chaos.drains);
    assert_eq!(r.failure_breakdown.rack + r.failure_breakdown.power, 0);
}

/// Thermal excursions are observed per affected cell and never create
/// instance-down failures.
#[test]
fn thermal_campaign_clamps_without_downs() {
    let cfg = h100_fleet();
    let r = run_campaign_full(
        &cfg,
        &DomainPlan::default(),
        &campaign(CampaignKind::ThermalExcursions),
        7,
        4,
        2,
    )
    .unwrap()
    .report;
    assert!(r.failure_breakdown.thermal_events > 0);
    assert_eq!(r.failure_breakdown.rack + r.failure_breakdown.power, 0);
    assert_eq!(
        r.failure_breakdown.independent, r.failures,
        "thermal clamps are not failures"
    );
}

/// The recovery timeline the end-of-run table drops: with natural
/// failures off, the telemetry `up` series equals the full fleet at
/// every sample before the first outage window, and strictly dips at
/// every sample inside any outage window. An outage fires in the tick
/// containing its start, so a sample at time `t` reads "down" exactly
/// when `start_us < t <= end_us`.
#[test]
fn availability_series_dips_exactly_inside_outage_windows() {
    let plan = DomainPlan::default();
    let camp = campaign(CampaignKind::RackOutages);
    let mut cfg = h100_fleet();
    cfg.failure_acceleration = 0.0; // isolate the correlated losses
    cfg.telemetry = TelemetryConfig {
        series_dt_us: 60_000_000,
        ..TelemetryConfig::default()
    };
    let spec = compile(&cfg, &plan, &camp, 23).expect("compiled campaign");
    assert!(!spec.events.is_empty());
    let first_start = spec.events.iter().map(|e| e.start_us).min().unwrap();
    let fr = run_campaign_full(&cfg, &plan, &camp, 23, 4, 2).expect("campaign run");
    let series = fr.series.expect("series requested");
    let up = &series
        .get("up")
        .expect("series records the up gauge")
        .values;
    assert!(!up.is_empty());
    let fleet = u64::from(cfg.instances);
    let mut saw_pre_window_sample = false;
    let mut saw_in_window_sample = false;
    for (w, &v) in up.iter().enumerate() {
        let t = (w as u64 + 1) * series.dt_us();
        let inside = spec
            .events
            .iter()
            .any(|e| e.start_us < t && t <= e.end_us && !e.instances.is_empty());
        if t <= first_start {
            saw_pre_window_sample = true;
            assert_eq!(v, fleet, "window {w}: dip before any outage");
        }
        if inside {
            saw_in_window_sample = true;
            assert!(v < fleet, "window {w}: no dip inside an outage window");
        }
    }
    assert!(saw_pre_window_sample, "campaign must not start immediately");
    assert!(saw_in_window_sample, "samples must land inside the windows");
}

/// §3 blast radius, measured end to end: under the *same* rack-outage
/// campaign at the same rack power, the Lite fleet strands a smaller
/// capacity fraction per event and ends the horizon more available.
/// Natural failures are disabled so the comparison isolates the
/// correlated losses.
#[test]
fn lite_rides_out_rack_outages_better_than_h100() {
    let plan = DomainPlan::default();
    let camp = campaign(CampaignKind::RackOutages);
    let mut h100 = h100_fleet();
    let mut lite = lite_fleet();
    h100.failure_acceleration = 0.0;
    lite.failure_acceleration = 0.0;
    // Same total power -> same rack count -> the seeded campaign samples
    // the same rack indices for both fleets.
    let spec_h = compile(&h100, &plan, &camp, 23).unwrap();
    let spec_l = compile(&lite, &plan, &camp, 23).unwrap();
    assert_eq!(spec_h.events.len(), spec_l.events.len());
    for (eh, el) in spec_h.events.iter().zip(&spec_l.events) {
        let fh = eh.instances.len() as f64 / h100.instances as f64;
        let fl = el.instances.len() as f64 / lite.instances as f64;
        assert!(
            fl < fh,
            "lite must strand strictly less per rack: {fl} vs {fh}"
        );
    }
    let rh = run_campaign_full(&h100, &plan, &camp, 23, 4, 2)
        .unwrap()
        .report;
    let rl = run_campaign_full(&lite, &plan, &camp, 23, 4, 2)
        .unwrap()
        .report;
    assert!(
        rl.availability > rh.availability,
        "lite {} must beat h100 {}",
        rl.availability,
        rh.availability
    );
    // And the report plumbing carries the comparison.
    let rep = ChaosReport::new(&camp, 23, vec![outcome("h100", &rh), outcome("lite", &rl)]);
    assert_eq!(rep.outcomes.len(), 2);
    assert!(rep.to_json().contains("\"availability\""));
}
