//! Integration tests for the telemetry tentpole: exported traces are
//! well-formed Chrome trace-event JSON (Perfetto-compatible), request
//! spans balance, series counters reconcile exactly with the end-of-run
//! report, per-cell series sum back to fleet series, and the engine
//! self-profile is populated.

use litegpu_repro::chaos::{compile, Campaign, CampaignKind, DomainPlan};
use litegpu_repro::fleet::{
    run_sharded_full, FleetConfig, ServingMode, TelemetryConfig, WorkloadSpec,
};
use litegpu_repro::telemetry::profile::{PHASE_MERGE, PHASE_SERVE};
use litegpu_repro::telemetry::{render_chrome_trace, validate_json, Ph, TraceEvent};

/// A small controlled fleet under a rack-outage campaign: exercises
/// request spans, control-plane commands, chaos events and repairs in
/// one trace.
fn ctrl_chaos_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::lite_ctrl_demo();
    cfg.instances = 64;
    cfg.cell_size = 8;
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 20_000.0;
    cfg.workload = WorkloadSpec::multi_tenant_demo(1.5);
    let camp = Campaign {
        kind: CampaignKind::RackOutages,
        events: 2,
        duration_s: 300.0,
        intensity: 0.5,
    };
    cfg.chaos = compile(&cfg, &DomainPlan::default(), &camp, 3).expect("compiled campaign");
    cfg.telemetry = TelemetryConfig {
        series_dt_us: 60_000_000,
        per_cell_series: true,
        trace_every: 2,
        profile: true,
    };
    cfg
}

/// A phase-split fleet, for the KV-transfer async legs.
fn split_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::lite_demo();
    cfg.instances = 64;
    cfg.cell_size = 8;
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 0.0;
    cfg.serving = ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance);
    cfg.telemetry = TelemetryConfig {
        trace_every: 2,
        ..TelemetryConfig::default()
    };
    cfg
}

#[test]
fn chaos_trace_is_valid_chrome_trace_json_with_all_layers() {
    let cfg = ctrl_chaos_cfg();
    let mut fr = run_sharded_full(&cfg, 5, 4, 2).expect("run");
    let events = fr.trace.as_mut().expect("trace requested");
    assert!(!events.is_empty());
    let json = render_chrome_trace(events);
    validate_json(&json).expect("trace must be well-formed JSON");
    assert!(json.starts_with("{\"traceEvents\":["));
    // All three sources land in one trace: request spans, control
    // commands, chaos events (plus the repair queue).
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for want in ["queue", "prefill", "decode", "rack_outage", "repair"] {
        assert!(names.contains(&want), "trace must carry {want:?} events");
    }
    assert!(
        events.iter().any(|e| e.cat == "ctrl"),
        "control-plane commands must be traced"
    );
    // Control commands carry the tick in args and name the real command
    // set (activate/park/set_* — lifecycle of the autoscaler + gating).
    let ctrl_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.cat == "ctrl")
        .map(|e| e.name)
        .collect();
    assert!(
        ctrl_names.iter().all(|n| [
            "activate",
            "park",
            "set_warm",
            "set_cold",
            "set_weights",
            "set_admission",
            "set_phase",
            "set_clock"
        ]
        .contains(n)),
        "unexpected control command names: {ctrl_names:?}"
    );
}

/// Async request legs balance: every `decode`/`kv_transfer` async-end
/// has exactly one matching async-begin with an earlier-or-equal
/// timestamp, keyed by the RNG-free span id.
#[test]
fn request_span_async_legs_balance() {
    for (label, cfg, seed) in [
        ("ctrl+chaos", ctrl_chaos_cfg(), 5),
        ("split", split_cfg(), 11),
    ] {
        let fr = run_sharded_full(&cfg, seed, 4, 2).expect("run");
        let events: Vec<TraceEvent> = fr.trace.expect("trace requested");
        for name in ["decode", "kv_transfer"] {
            let begins: std::collections::BTreeMap<u64, u64> = events
                .iter()
                .filter(|e| e.name == name && e.ph == Ph::AsyncBegin)
                .map(|e| (e.id, e.ts_us))
                .collect();
            let mut ends = 0usize;
            for e in events
                .iter()
                .filter(|e| e.name == name && e.ph == Ph::AsyncEnd)
            {
                let b = begins
                    .get(&e.id)
                    .unwrap_or_else(|| panic!("{label}: {name} end id {:#x} has no begin", e.id));
                assert!(
                    *b <= e.ts_us,
                    "{label}: {name} span {:#x} ends before it begins",
                    e.id
                );
                ends += 1;
            }
            if name == "decode" {
                assert!(ends > 0, "{label}: some decode spans must complete");
            }
        }
        if label == "split" {
            assert!(
                events.iter().any(|e| e.name == "kv_transfer"),
                "split runs must trace KV transfers"
            );
        }
    }
}

/// Series counters are exact: over a horizon that tiles the sample
/// grid, per-window deltas sum back to the report's totals — fleet-wide,
/// per tenant, and per cell. A grid coarser than the horizon records no
/// window at all.
#[test]
fn series_counters_reconcile_with_the_report() {
    let cfg = ctrl_chaos_cfg();
    let fr = run_sharded_full(&cfg, 5, 4, 2).expect("run");
    let series = fr.series.expect("series requested");
    let r = &fr.report;
    let sum = |name: &str| -> u64 {
        series
            .get(name)
            .unwrap_or_else(|| panic!("series must record {name}"))
            .values
            .iter()
            .sum()
    };
    assert_eq!(sum("arrived"), r.arrived);
    assert_eq!(sum("completed"), r.completed);
    assert_eq!(sum("rejected"), r.rejected);
    assert_eq!(sum("admission_shed"), r.admission_shed);
    assert_eq!(sum("failures"), r.failures);
    // The report floors µJ → J; the series keeps the exact µJ deltas.
    assert_eq!(sum("energy_uj") / 1_000_000, r.energy_j);
    for (t, tenant) in r.per_tenant.iter().enumerate() {
        assert_eq!(
            sum(&format!("tenant{t}/arrived")),
            tenant.arrived,
            "{}",
            tenant.name
        );
        assert_eq!(
            sum(&format!("tenant{t}/completed")),
            tenant.completed,
            "{}",
            tenant.name
        );
    }
    // Per-cell series tile the fleet exactly.
    let cells = cfg.num_cells();
    for metric in ["arrived", "completed"] {
        let total: u64 = (0..cells).map(|c| sum(&format!("cell{c}/{metric}"))).sum();
        assert_eq!(total, sum(metric), "cells must tile fleet {metric}");
    }
    // A window longer than the horizon records none — also past 2^32
    // ticks, where the ticks per window must saturate rather than wrap.
    for secs in [3600u64, 1 << 32] {
        let mut long = cfg.clone();
        long.telemetry.series_dt_us = secs * 1_000_000;
        let fr = run_sharded_full(&long, 5, 4, 2).expect("run");
        let series = fr.series.expect("series requested");
        assert_eq!(series.windows(), 0, "{secs} s windows over a 0.5 h run");
    }
}

/// The report's derived `energy_per_token_j` — the number the TCO sweep
/// prices — reconciles with the exact integer-µJ series counter within
/// the report's µJ → J flooring: re-deriving it from the series gives
/// the identical f64, and multiplying back recovers the series total to
/// within one joule of rounding.
#[test]
fn energy_per_token_reconciles_with_series_counter() {
    let cfg = ctrl_chaos_cfg();
    let fr = run_sharded_full(&cfg, 5, 4, 2).expect("run");
    let series = fr.series.expect("series requested");
    let r = &fr.report;
    assert!(r.generated_tokens > 0, "the demo workload generates tokens");
    let uj: u64 = series
        .get("energy_uj")
        .expect("series must record energy_uj")
        .values
        .iter()
        .sum();
    // Same flooring as the report: integer µJ → integer J, then divide.
    let rederived = (uj / 1_000_000) as f64 / r.generated_tokens as f64;
    assert_eq!(
        r.energy_per_token_j.to_bits(),
        rederived.to_bits(),
        "energy_per_token_j must be exactly the floored series energy per token"
    );
    // And the flooring is the only slack: scaling back up lands within
    // one joule of the exact µJ books.
    let back_j = r.energy_per_token_j * r.generated_tokens as f64;
    let exact_j = uj as f64 / 1e6;
    assert!(
        (back_j - exact_j).abs() <= 1.0,
        "derived energy {back_j} J strays more than rounding from the {exact_j} J series total"
    );
}

/// The self-profile is populated (serve phase and merge both timed) and
/// renders valid JSON for `BENCH_fleet.json`.
#[test]
fn engine_profile_times_the_phases() {
    let cfg = ctrl_chaos_cfg();
    let fr = run_sharded_full(&cfg, 5, 2, 2).expect("run");
    let p = fr.profile.expect("profile requested");
    assert!(p.total_ns() > 0);
    assert!(p.calls[PHASE_SERVE] > 0, "serve phase must be timed");
    assert!(p.calls[PHASE_MERGE] > 0, "shard merge must be timed");
    validate_json(&p.to_json()).expect("profile JSON must be well-formed");
    assert!(p.summary().starts_with("profile: "));
}
