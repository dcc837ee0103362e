//! End-to-end integration: the cluster designer and the serving
//! simulator, crossing every crate boundary in one pipeline.

use litegpu_repro::litegpu::designer::{replacement_plan, ClusterDesigner};
use litegpu_repro::prelude::*;
use litegpu_repro::sim::{simulate, SchedulerKind, ServingConfig};

#[test]
fn designer_pipeline_produces_consistent_report() {
    let d = ClusterDesigner::paper_default().design().expect("design");
    // Spec side matches the catalog derivation.
    assert_eq!(d.lite.sms, 33);
    assert_eq!(d.lite.max_gpus, 32);
    // Economics side matches the §2 claims.
    assert!((d.manufacturing.yield_gain - 1.8).abs() < 0.1);
    // Performance side matches Figure 3's direction.
    assert!(d.decode_efficiency_vs_parent < 1.0);
    assert!(d.prefill_efficiency_vs_parent > 0.8);
}

#[test]
fn replacement_plan_renders_for_multiple_splits() {
    for split in [2, 4, 8] {
        let plan = replacement_plan(split).expect("plan");
        assert_eq!(plan.matches("[Lite-GPU").count(), split as usize);
    }
}

#[test]
fn equal_silicon_serving_throughput_is_comparable() {
    // 2 H100 per instance vs 8 Lite per instance: same SMs, same HBM.
    // The Lite fleet pays collective overheads but must stay within 2x.
    let h = simulate(&ServingConfig::splitwise_h100_demo(), 42).expect("h100 sim");
    let l = simulate(&ServingConfig::splitwise_lite_demo(), 42).expect("lite sim");
    assert_eq!(h.arrived, l.arrived, "same workload");
    assert_eq!(h.completed, l.completed, "both drain fully");
    let ratio = l.throughput_tps / h.throughput_tps;
    assert!(ratio > 0.5 && ratio < 2.0, "throughput ratio = {ratio}");
}

#[test]
fn phase_split_controls_tail_tbt_under_load() {
    let mut mono = ServingConfig::monolithic_h100_demo();
    mono.workload.rate_per_s = 6.0;
    mono.horizon_s = 60.0;
    let mut split = ServingConfig::splitwise_h100_demo();
    split.workload.rate_per_s = 6.0;
    split.horizon_s = 60.0;
    let rm = simulate(&mono, 3).expect("mono");
    let rs = simulate(&split, 3).expect("split");
    assert!(
        rs.tbt_p99_s <= rm.tbt_p99_s * 1.05,
        "{} vs {}",
        rs.tbt_p99_s,
        rm.tbt_p99_s
    );
}

#[test]
fn experiments_run_all_renders_every_artifact() {
    let all = litegpu_repro::litegpu::experiments::run_all();
    let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
    for required in [
        "table1",
        "fig1",
        "fig2",
        "fig3a",
        "fig3b",
        "claim_yield",
        "claim_shoreline",
        "claim_network",
        "claim_blast_radius",
        "claim_power",
        "claim_cost_perf",
        "sim_serving",
        "ablations",
    ] {
        assert!(ids.contains(&required), "missing experiment {required}");
    }
    for e in &all {
        assert!(!e.output.trim().is_empty(), "{} rendered empty", e.id);
        assert!(!e.output.contains("chart error"), "{} chart error", e.id);
    }
}

#[test]
fn custom_designs_compose_with_serving() {
    // Derive a +MemBW Lite and serve with it.
    let designer = ClusterDesigner {
        customization: LiteCustomization {
            name: "Lite+MemBW".into(),
            mem_bw_factor: 2.0,
            net_bw_factor: 1.0,
            clock_factor: 1.0,
        },
        ..ClusterDesigner::paper_default()
    };
    let design = designer.design().expect("design");
    let mut cfg = ServingConfig::splitwise_lite_demo();
    cfg.gpu = design.lite.clone();
    cfg.horizon_s = 30.0;
    cfg.scheduler = SchedulerKind::PhaseSplit {
        prefill_instances: 2,
    };
    let r = simulate(&cfg, 42).expect("sim");
    assert_eq!(r.arrived, r.completed);
    // Doubled memory bandwidth tightens decode steps versus plain Lite.
    let mut base = ServingConfig::splitwise_lite_demo();
    base.horizon_s = 30.0;
    let rb = simulate(&base, 42).expect("base sim");
    assert!(
        r.tbt_p50_s < rb.tbt_p50_s,
        "{} vs {}",
        r.tbt_p50_s,
        rb.tbt_p50_s
    );
}

/// FNV-1a 64-bit over `bytes`: a dependency-free digest that changes
/// whenever a single byte does.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the per-step DES's report bytes at seed 42, so a refactor of
/// `simulate` that drifts one byte of any report fails here. The stress
/// row injects 4 failures at 60 per instance-hour, one of them absorbed
/// by the single spare. The last two rows reach every failure branch of
/// the event loop:
///
/// - `split_churn` fails a phase-split fleet every few seconds with
///   million-token prompts, so a KV hand-off outlasts the gap between
///   failures. Requests wait in the overflow queue while no prefill
///   instance is up and drain from it on recovery, a prefill completes
///   on an instance that failed meanwhile, and KV lands on a decode
///   instance that is down.
/// - `mono_fast_swap` fails monolithic instances with a spare swap
///   shorter than one step, so an instance is back up while the step
///   it started before failing is still in flight.
#[test]
fn des_reports_match_goldens() {
    use litegpu_repro::sim::failover::FailurePlan;
    use litegpu_repro::sim::request::LengthDist;
    let mut stress = ServingConfig::splitwise_lite_demo();
    stress.failures = FailurePlan {
        failures_per_instance_hour: 60.0,
        ..FailurePlan::stress(1)
    };
    let mut split_churn = ServingConfig::splitwise_h100_demo();
    split_churn.workload.prompt = LengthDist::Fixed(1_000_000);
    split_churn.failures = FailurePlan {
        failures_per_instance_hour: 600.0,
        repair_s: 20.0,
        spare_swap_s: 5.0,
        ..FailurePlan::stress(1)
    };
    let mut mono_fast_swap = ServingConfig::monolithic_h100_demo();
    mono_fast_swap.failures = FailurePlan {
        failures_per_instance_hour: 600.0,
        spares: 8,
        spare_swap_s: 0.001,
        repair_s: 20.0,
    };
    let golden = [
        (
            "splitwise_h100_demo",
            ServingConfig::splitwise_h100_demo(),
            0x6a4bd1c71e833a07u64,
        ),
        (
            "splitwise_lite_demo",
            ServingConfig::splitwise_lite_demo(),
            0x2a1b2c52978ffed1,
        ),
        (
            "monolithic_h100_demo",
            ServingConfig::monolithic_h100_demo(),
            0x89e5df944f579718,
        ),
        ("splitwise_lite_stress", stress, 0x4199b72b835d496e),
        ("split_churn", split_churn, 0x0d43d01575186cc3),
        ("mono_fast_swap", mono_fast_swap, 0x24d69536450f8e67),
    ];
    let mut drift = Vec::new();
    for (name, cfg, want) in golden {
        let report = simulate(&cfg, 42).expect("des run");
        let got = fnv1a64(serde_json::to_string_pretty(&report).unwrap().as_bytes());
        if got != want {
            drift.push(format!("{name}: got {got:#018x}, golden {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "DES reports drifted:\n{}",
        drift.join("\n")
    );
}
