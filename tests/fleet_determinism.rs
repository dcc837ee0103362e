//! Integration tests for the fleet simulator's determinism guarantee:
//! same seed ⇒ byte-identical `FleetReport` JSON at any shard count and
//! any thread count — with and without the `litegpu-ctrl` control plane
//! (autoscaler + power gating + cell router + admission control), for
//! single-tenant and mixed-priority multi-tenant workloads — plus
//! conservation laws for the priority-aware largest-remainder routing.

use litegpu_repro::chaos::{compile, Campaign, CampaignKind, DomainPlan};
use litegpu_repro::ctrl::{BalancerConfig, PriorityClass};
use litegpu_repro::fleet::{
    run, run_sharded, run_sharded_full, FleetConfig, LengthDist, ServingMode, TelemetryConfig,
    Tenant, TrafficPattern, WorkloadSpec,
};
use litegpu_repro::telemetry::render_chrome_trace;

fn test_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::lite_demo();
    cfg.instances = 64;
    cfg.cell_size = 8;
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 50_000.0;
    cfg
}

/// A 3-tenant mixed-priority spec over distinct patterns: an interactive
/// tenant riding a quiet→busy ramp, a flat batch tenant with long
/// outputs, and a best-effort scavenger that admission control may shed
/// at the ramp.
fn mixed_workload(rate: f64) -> WorkloadSpec {
    let ramp = TrafficPattern::Trace(vec![(0.0, 0.2), (600.0, 0.2), (900.0, 1.6), (1800.0, 1.6)]);
    let mut chat = Tenant::new("chat", ramp.clone(), 5.0, PriorityClass::Interactive);
    chat.output_len = LengthDist::geometric(300);
    let mut batch = Tenant::new("batch", TrafficPattern::Constant, 3.0, PriorityClass::Batch);
    batch.output_len = LengthDist::geometric(900);
    batch.ttft_slo_s = Some(30.0);
    let mut scavenge = Tenant::new("scavenge", ramp, 2.0, PriorityClass::BestEffort);
    scavenge.output_len = LengthDist::geometric(200);
    scavenge.ttft_slo_s = Some(60.0);
    WorkloadSpec {
        rate_per_instance_s: rate,
        tenants: vec![chat, batch, scavenge],
    }
}

/// A fully-controlled fleet serving the 3-tenant mixed-priority spec
/// over a quiet→busy traffic ramp, so both autoscaler directions (parks
/// at the quiet start, activations at the ramp) and the priority-aware
/// routing are exercised.
fn ctrl_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::lite_ctrl_demo();
    cfg.instances = 64;
    cfg.cell_size = 8;
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 50_000.0;
    cfg.workload = mixed_workload(1.5);
    cfg
}

#[test]
fn byte_identical_json_across_1_4_8_shards() {
    let cfg = test_cfg();
    let base = run_sharded(&cfg, 42, 1, 1).expect("1-shard run");
    let base_json = base.to_json();
    assert!(base.failures > 0, "test should exercise failure paths");
    assert!(base.completed > 0);
    for shards in [4u32, 8] {
        let r = run_sharded(&cfg, 42, shards, 1).expect("sharded run");
        assert_eq!(r.to_json(), base_json, "shards = {shards}");
    }
}

#[test]
fn byte_identical_json_across_thread_counts() {
    // 61 instances end in a 5-instance tail cell. On 8 threads each
    // worker builds its one cell fresh; on 1 thread the one worker
    // rebuilds its finished cell seven times, last into the smaller tail.
    for instances in [64, 61] {
        let mut cfg = test_cfg();
        cfg.instances = instances;
        let base = run_sharded(&cfg, 7, 8, 1).expect("single-threaded");
        for threads in [2u32, 4, 8] {
            let r = run_sharded(&cfg, 7, 8, threads).expect("multi-threaded");
            let at = format!("instances = {instances}, threads = {threads}");
            assert_eq!(r.to_json(), base.to_json(), "{at}");
        }
        // And the auto-parallel entry point agrees too.
        let auto = run(&cfg, 7).expect("auto run");
        assert_eq!(auto.to_json(), base.to_json(), "instances = {instances}");
    }
}

#[test]
fn controlled_fleet_byte_identical_across_1_4_8_shards() {
    let cfg = ctrl_cfg();
    let base = run_sharded(&cfg, 42, 1, 1).expect("1-shard controlled run");
    let base_json = base.to_json();
    // The run must actually exercise the control plane...
    assert_eq!(base.controller, "autoscale+gate(GateToEfficiency)+route");
    assert!(base.energy_j > 0, "energy must be accounted");
    assert!(base.idle_energy_j > 0);
    assert!(base.scale_downs > 0, "the quiet start must park instances");
    assert!(base.scale_ups > 0, "the traffic ramp must re-activate them");
    assert!(base.routed > 0, "arrivals must flow through the router");
    assert!(base.failures > 0, "failure paths stay exercised");
    assert!(base.completed > 0);
    // ...with all three tenants actually served...
    assert_eq!(base.per_tenant.len(), 3);
    for t in &base.per_tenant {
        assert!(t.arrived > 0, "{}: no arrivals", t.name);
        assert!(t.completed > 0, "{}: nothing served", t.name);
    }
    // ...and still be byte-identical at any shard count.
    for shards in [4u32, 8] {
        let r = run_sharded(&cfg, 42, shards, 1).expect("sharded controlled run");
        assert_eq!(r.to_json(), base_json, "shards = {shards}");
    }
}

#[test]
fn controlled_fleet_byte_identical_across_thread_counts() {
    let cfg = ctrl_cfg();
    let base = run_sharded(&cfg, 7, 8, 1).expect("single-threaded controlled");
    for threads in [2u32, 4, 8] {
        let r = run_sharded(&cfg, 7, 8, threads).expect("multi-threaded controlled");
        assert_eq!(r.to_json(), base.to_json(), "threads = {threads}");
    }
    let auto = run(&cfg, 7).expect("auto controlled run");
    assert_eq!(auto.to_json(), base.to_json());
}

#[test]
fn seeds_change_the_report() {
    for cfg in [test_cfg(), ctrl_cfg()] {
        let a = run_sharded(&cfg, 1, 4, 2).unwrap();
        let b = run_sharded(&cfg, 2, 4, 2).unwrap();
        assert_ne!(a.to_json(), b.to_json());
    }
}

#[test]
fn repeated_runs_are_stable() {
    for cfg in [test_cfg(), ctrl_cfg()] {
        let a = run(&cfg, 9).unwrap();
        let b = run(&cfg, 9).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }
}

/// Conservation for priority-aware largest-remainder routing: every
/// arrival is either routed onto a queue or rejected (queue overflow,
/// routing shed, or admission shed) — exactly, per tenant and fleet-wide
/// — and the per-tenant books sum back to the fleet totals.
#[test]
fn routing_conserves_arrivals_per_tenant_and_fleet_wide() {
    // Overdrive the controlled fleet so all three loss paths (queue
    // overflow via a tiny queue cap, admission shed at the ramp, routing
    // while parked/failed) are plausible, then check exact identities.
    let mut cfg = ctrl_cfg();
    cfg.workload.rate_per_instance_s = 8.0;
    cfg.max_queue_per_instance = 50;
    for (label, cfg) in [
        ("uncontrolled", test_cfg()),
        ("controlled", ctrl_cfg()),
        ("overloaded", cfg),
    ] {
        let r = run(&cfg, 13).unwrap();
        assert_eq!(r.routed + r.rejected, r.arrived, "{label}: fleet");
        assert!(
            r.rejected >= r.routing_shed + r.admission_shed,
            "{label}: shed kinds exceed rejects"
        );
        let mut arrived = 0;
        let mut routed = 0;
        let mut shed = 0;
        for t in &r.per_tenant {
            assert_eq!(
                t.routed + t.rejected + t.shed,
                t.arrived,
                "{label}: tenant {}",
                t.name
            );
            assert!(t.completed <= t.routed, "{label}: tenant {}", t.name);
            arrived += t.arrived;
            routed += t.routed;
            shed += t.shed;
        }
        assert_eq!(arrived, r.arrived, "{label}: tenant sum arrived");
        assert_eq!(routed, r.routed, "{label}: tenant sum routed");
        assert_eq!(shed, r.routing_shed + r.admission_shed, "{label}: sheds");
    }
}

/// The failure breakdown attributes every instance-down to a domain
/// kind: on campaign-free runs everything is i.i.d. (`independent`),
/// the event counters stay zero, and no chaos section is emitted.
#[test]
fn failure_breakdown_conserves_on_campaign_free_runs() {
    for cfg in [test_cfg(), ctrl_cfg()] {
        let r = run(&cfg, 42).unwrap();
        let b = &r.failure_breakdown;
        assert!(r.failures > 0, "test should exercise failure paths");
        assert_eq!(b.independent + b.rack + b.power, r.failures);
        assert_eq!(b.rack + b.power, 0, "no campaign: all failures i.i.d.");
        assert_eq!(b.partition_events + b.thermal_events, 0);
        assert!(r.chaos.is_none(), "chaos section only on campaign runs");
    }
}

/// The four config shapes the telemetry determinism gate sweeps:
/// monolithic, phase-split, DVFS-controlled, and a chaos campaign.
fn telemetry_variants() -> Vec<(&'static str, FleetConfig)> {
    let mono = test_cfg();
    let mut split = test_cfg();
    split.serving = ServingMode::split_demo(&split.gpu, split.gpus_per_instance);
    let mut dvfs = ctrl_cfg();
    dvfs.ctrl = dvfs.ctrl.map(|c| c.with_dvfs());
    let mut chaos = test_cfg();
    let camp = Campaign {
        kind: CampaignKind::RackOutages,
        events: 3,
        duration_s: 300.0,
        intensity: 0.5,
    };
    chaos.chaos = compile(&chaos, &DomainPlan::default(), &camp, 17).expect("compiled campaign");
    vec![
        ("mono", mono),
        ("split", split),
        ("dvfs", dvfs),
        ("chaos", chaos),
    ]
}

fn with_telemetry(cfg: &FleetConfig) -> FleetConfig {
    let mut c = cfg.clone();
    c.telemetry = TelemetryConfig {
        series_dt_us: 60_000_000,
        per_cell_series: true,
        trace_every: 4,
        profile: false,
    };
    c
}

/// Renders the deterministic telemetry artifacts of one run: the series
/// JSONL and the Chrome trace-event JSON.
fn telemetry_bytes(cfg: &FleetConfig, seed: u64, shards: u32, threads: u32) -> (String, String) {
    let mut fr = run_sharded_full(cfg, seed, shards, threads).expect("telemetry run");
    let series = fr.series.expect("series requested").to_jsonl();
    let trace = render_chrome_trace(fr.trace.as_mut().expect("trace requested"));
    (series, trace)
}

/// The tentpole guarantee for the deterministic telemetry layers: series
/// and trace bytes are identical at 1/2/8 threads and across shard
/// counts, for monolithic, phase-split, DVFS and chaos configs alike.
#[test]
fn telemetry_series_and_trace_byte_identical_across_shards_and_threads() {
    for (label, cfg) in telemetry_variants() {
        let cfg = with_telemetry(&cfg);
        let (series, trace) = telemetry_bytes(&cfg, 11, 1, 1);
        assert!(
            series.lines().count() > 1,
            "{label}: series must hold sampled windows"
        );
        assert!(
            trace.contains("\"traceEvents\""),
            "{label}: trace must render events"
        );
        for (shards, threads) in [(4u32, 2u32), (8, 8)] {
            let (s, t) = telemetry_bytes(&cfg, 11, shards, threads);
            assert_eq!(s, series, "{label}: series bytes at {shards}x{threads}");
            assert_eq!(t, trace, "{label}: trace bytes at {shards}x{threads}");
        }
    }
}

/// Observability must be free of Heisenberg effects: turning every
/// telemetry layer on (including profiling) leaves the report bytes
/// exactly as a bare run produces them.
#[test]
fn telemetry_does_not_change_report_bytes() {
    for (label, cfg) in telemetry_variants() {
        let bare = run_sharded(&cfg, 42, 4, 2).expect("bare run");
        let mut on = with_telemetry(&cfg);
        on.telemetry.profile = true;
        let observed = run_sharded_full(&on, 42, 4, 2).expect("observed run");
        assert_eq!(
            observed.report.to_json(),
            bare.to_json(),
            "{label}: telemetry changed the report"
        );
        assert!(observed.profile.is_some(), "{label}: profile requested");
    }
}

/// Skews the 8-cell test fleet (2 hot cells at 2.5x, 6 cold at 0.5x)
/// and attaches the fleet-scope spill-over balancer on top of whatever
/// cell-scope control the config already carries.
fn with_balancer(cfg: &FleetConfig) -> FleetConfig {
    let mut c = cfg.clone();
    c.cell_rate_multipliers = vec![2.5, 2.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
    // More sensitive than the defaults so even the lightly-queued
    // phase-split variant reliably crosses the hot threshold.
    let mut bal = BalancerConfig::default();
    bal.hot_factor = 1.1;
    bal.interval_s = 30.0;
    c.ctrl = Some(c.ctrl.unwrap_or_default().with_balancer(bal));
    c
}

/// The tentpole guarantee extended to the two-level control plane: with
/// the fleet-scope balancer active (skewed hot/cold cells, spill-over
/// routing between them), report, series and trace bytes stay identical
/// at 1/2/8 threads and across shard counts — for monolithic,
/// phase-split, DVFS and chaos configs alike.
#[test]
fn balancer_byte_identical_across_shards_and_threads() {
    for (label, cfg) in telemetry_variants() {
        let cfg = with_telemetry(&with_balancer(&cfg));
        let base = run_sharded_full(&cfg, 11, 1, 1).expect("balanced run");
        let report = base.report.to_json();
        let bal = base.report.balancer.as_ref().expect("balancer section");
        assert!(bal.spilled_out > 0, "{label}: skew must trigger spill");
        let mut fr = base;
        let series = fr.series.take().expect("series requested").to_jsonl();
        let trace = render_chrome_trace(fr.trace.as_mut().expect("trace requested"));
        for (shards, threads) in [(8u32, 2u32), (8, 8)] {
            let mut fr = run_sharded_full(&cfg, 11, shards, threads).expect("balanced run");
            assert_eq!(
                fr.report.to_json(),
                report,
                "{label}: report bytes at {shards}x{threads}"
            );
            let s = fr.series.take().expect("series requested").to_jsonl();
            let t = render_chrome_trace(fr.trace.as_mut().expect("trace requested"));
            assert_eq!(s, series, "{label}: series bytes at {shards}x{threads}");
            assert_eq!(t, trace, "{label}: trace bytes at {shards}x{threads}");
        }
    }
}

/// Window edges change no bytes: a balancer that never spills cuts the
/// horizon into 60 windows of 30 s, yet the run reproduces the
/// one-window twin — the same config with only `balancer` removed —
/// byte for byte: series (per-cell series on), trace, and report apart
/// from its `balancer` section and `controller` label. Two shards on one
/// worker put four cells on the same worker across windows.
///
/// Arrivals are drawn one window ahead, so the monolithic variant also
/// runs every cell shape that draw handles: no skew (every cell reads
/// the shared full-cell plans), 61 instances (a 5-instance tail cell
/// beside them) and zero-rate cells.
#[test]
fn noop_balancer_windows_are_byte_inert() {
    let mut cases = Vec::new();
    for (label, cfg) in telemetry_variants() {
        let skewed = with_balancer(&cfg);
        if label == "mono" {
            let mut flat = skewed.clone();
            flat.cell_rate_multipliers.clear();
            let mut tail = flat.clone();
            tail.instances = 61;
            let mut zero = skewed.clone();
            zero.cell_rate_multipliers = vec![2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0];
            cases.extend([
                ("mono/flat", flat),
                ("mono/tail", tail),
                ("mono/zero", zero),
            ]);
        }
        cases.push((label, skewed));
    }
    for (label, cfg) in cases {
        let mut on = with_telemetry(&cfg);
        let ctrl = on.ctrl.as_mut().expect("balancer config");
        ctrl.balancer.as_mut().expect("balancer").spill_permille = 0;
        let mut off = on.clone();
        off.ctrl.as_mut().expect("balancer config").balancer = None;
        let render = |cfg: &FleetConfig| {
            let mut fr = run_sharded_full(cfg, 11, 2, 1).expect("run");
            fr.report.balancer = None;
            fr.report.controller.clear();
            let series = fr.series.take().expect("series requested").to_jsonl();
            let trace = render_chrome_trace(fr.trace.as_mut().expect("trace requested"));
            (fr.report.to_json(), series, trace)
        };
        let (on_report, on_series, on_trace) = render(&on);
        let (off_report, off_series, off_trace) = render(&off);
        assert_eq!(on_series, off_series, "{label}: series bytes");
        assert_eq!(on_trace, off_trace, "{label}: trace bytes");
        assert_eq!(on_report, off_report, "{label}: report bytes");
    }
}

/// Exact conservation of spill-over routing: every redirected cohort is
/// admitted exactly once, the flow matrix's row/column sums match the
/// spilled totals on both sides, quota clamps stay within the admission
/// sheds, and the balanced fleet sees exactly the arrivals the isolated
/// fleet does — per tenant and fleet-wide.
#[test]
fn balancer_spill_routing_conserves_flows_and_arrivals() {
    for (label, cfg) in telemetry_variants() {
        let skewed = {
            let mut c = with_balancer(&cfg);
            c.ctrl = cfg.ctrl.clone(); // same cell-scope control, no balancer
            c
        };
        let off = run(&skewed, 13).expect("isolated run");
        let on = run(&with_balancer(&cfg), 13).expect("balanced run");
        assert!(
            off.balancer.is_none(),
            "{label}: no section without balancer"
        );
        let bal = on.balancer.as_ref().expect("balancer section");
        assert!(bal.spilled_out > 0, "{label}: skew must trigger spill");
        assert!(bal.spilled_cohorts > 0, "{label}: cohorts must be counted");
        // Source outflow == destination inflow == flow-matrix total.
        assert_eq!(bal.spilled_out, bal.spilled_in, "{label}: out vs in");
        assert_eq!(
            bal.flow.iter().map(|f| f.requests).sum::<u64>(),
            bal.spilled_out,
            "{label}: flow matrix total"
        );
        for f in &bal.flow {
            assert_ne!(f.src, f.dst, "{label}: self-edge in flow matrix");
            assert!(f.requests > 0, "{label}: empty flow edge");
        }
        // Canonical (src, dst) order makes the ledger deterministic.
        let keys: Vec<(u32, u32)> = bal.flow.iter().map(|f| (f.src, f.dst)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "{label}: flow matrix order");
        assert!(
            bal.quota_clamped <= on.admission_shed,
            "{label}: quota clamps are a subset of admission sheds"
        );
        // Spill-over redirects arrivals; it never invents or loses them.
        assert_eq!(on.arrived, off.arrived, "{label}: fleet arrivals");
        for (a, b) in on.per_tenant.iter().zip(&off.per_tenant) {
            assert_eq!(a.arrived, b.arrived, "{label}: tenant {}", a.name);
        }
        assert_eq!(on.routed + on.rejected, on.arrived, "{label}: fleet books");
    }
}

/// The headline behavior claim: on the skewed fleet (2 hot cells at
/// 2.5x, 6 cold at 0.5x), turning spill-over routing on measurably
/// raises completions and interactive SLO attainment versus isolated
/// cells — the hot cells' queues drain into cold-cell slack.
#[test]
fn balancer_improves_slo_attainment_on_skewed_fleet() {
    let mut skewed = test_cfg();
    skewed.cell_rate_multipliers = vec![2.5, 2.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
    let off = run(&skewed, 42).expect("isolated run");
    let on = run(&with_balancer(&test_cfg()), 42).expect("balanced run");
    assert_eq!(on.controller, "balancer");
    assert!(
        on.completed > off.completed,
        "balanced {} vs isolated {} completions",
        on.completed,
        off.completed
    );
    assert!(
        on.ttft_attainment > off.ttft_attainment + 0.01,
        "balanced TTFT attainment {} vs isolated {}",
        on.ttft_attainment,
        off.ttft_attainment
    );
    assert!(
        on.e2e_p99_s < off.e2e_p99_s,
        "balanced p99 {} vs isolated p99 {}",
        on.e2e_p99_s,
        off.e2e_p99_s
    );
}

/// Under the overloaded ramp, admission control sheds the best-effort
/// tenant only — the guaranteed classes are never admission-shed.
#[test]
fn overload_sheds_only_best_effort() {
    let mut cfg = ctrl_cfg();
    cfg.failure_acceleration = 0.0;
    cfg.workload.rate_per_instance_s = 10.0;
    let r = run(&cfg, 21).unwrap();
    assert!(r.admission_shed > 0, "ramp must trigger admission control");
    let by_name = |n: &str| r.per_tenant.iter().find(|t| t.name == n).unwrap();
    assert_eq!(by_name("chat").shed, 0);
    assert_eq!(by_name("batch").shed, 0);
    assert!(by_name("scavenge").shed > 0);
    assert_eq!(by_name("scavenge").priority, "best-effort");
}
