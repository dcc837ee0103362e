//! Engine-equivalence regression gate: the determinism-suite configs
//! (mono / split / dvfs, each with and without a chaos campaign, all on
//! the 3-tenant workload) plus the fleet-balancer, rolling-drain,
//! power-domain, admission-quota, controller-less and balancer-only
//! paths must keep producing the exact report, series and trace bytes
//! pinned below — on 8 shards at 1, 2 and 8 threads, and on 3 shards
//! over 2 threads. The 3-shard layout has uneven shard bounds (cells
//! 0/2/5/8) with two shards on one worker: which cells a worker merges
//! together depends on shards and threads both.
//!
//! The first six rows' series/trace hashes were generated from the
//! original per-tick engine, before the event-queue rewrite; their
//! report hashes were regenerated when the `balancer` report section
//! landed (a pure schema addition: `"balancer": null` on every
//! non-balanced run, with all other bytes — and the series/trace
//! artifacts — unchanged). The last four rows (`balancer`,
//! `balancer_split_chaos`, `mono_drain`, `split_power`) were generated
//! from the event-queue engine while it still had separate cell-major
//! and window-major run loops, so they pin the balancer-window path and
//! the drain/power campaign bookkeeping across the merge into one window
//! loop. The `balancer_quota` row is the `balancer` run under a fleet
//! admission quota (`--quota-headroom 0.3`): the quota clamps about an
//! eighth of the arrivals, and thousands of batches only in part, so it
//! pins the quota shed that no other row reaches (the default headroom
//! is unlimited). The first three `off_*` rows run without a cell
//! controller (`--ctrl off` overrides the base `--ctrl auto`; each report
//! says `"controller": "none"`): every slot keeps its default state, and
//! a down slot keeps its share of the uniform split (stranded traffic).
//! `off_mono_chaos` runs rack outages, `off_split_drain` rolling drains,
//! and `off_split_thermal` thermal clamps on slots at the nominal clock,
//! where a clamp that lands exactly on a grid point must pin that point.
//! `off_balancer` adds the skewed-fleet balancer to `--ctrl off` under
//! rack outages (the report's controller reads `"balancer"`): the only
//! row whose control plane has no cell policy at all. Its cells still
//! take control ticks that issue no command, and a down slot loses its
//! share of the split as on a controlled fleet; the row pins that.
//! `balancer_flat` runs the balancer on an unskewed fleet, where every
//! cell reads the shared full-cell arrival plans that the planner
//! refills between windows. `off_split_chaos` is the controller-less
//! phase-split fleet under rack outages.
//! Any engine change that drifts a single byte of any artifact fails
//! here.
//!
//! A second, library-level golden (`hand_built_chaos_shapes_match_goldens`)
//! pins chaos schedules that the campaign compiler behind `sim_fleet
//! --chaos` never produces: same-tick outages over overlapping slots, a
//! mid-tick outage start, a drain shorter than a tick, stacked windows
//! of every kind in one cell, a window ending past the horizon and an
//! outage on the last tick.
//!
//! Each `sim_fleet` child runs with `CARGO_TARGET_DIR` set to
//! `CARGO_TARGET_TMPDIR`, so its `experiments/fleet_lite.json` lands
//! there rather than in the crate's own directory.
//!
//! Regenerate (only when an *intentional* semantic change lands):
//! `ENGINE_GOLDEN_PRINT=1 cargo test -p litegpu-bench --test
//! engine_equivalence -- --nocapture` and paste the printed table. The
//! same switch prints `cli_equivalence`'s table, so `ENGINE_GOLDEN_PRINT=1
//! cargo test -p litegpu-bench -- --nocapture` regenerates both files.

use litegpu_fleet::engine::{
    run_sharded_full, ChaosSpec, DomainEvent, DomainEventKind, FleetConfig, TelemetryConfig,
};
use litegpu_telemetry::render_chrome_trace;
use std::process::Command;

/// FNV-1a 64-bit over the artifact bytes — dependency-free and stable.
/// Collisions are irrelevant here: the gate only needs byte drift to
/// change the digest, not cryptographic strength.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(combo, extra flags, report fnv, series fnv, trace fnv)`. Hashes
/// are of: the report JSON printed to stdout (trailing newline
/// trimmed), the series JSONL bytes, and the Chrome trace JSON bytes.
const GOLDEN: &[(&str, &[&str], u64, u64, u64)] = &[
    (
        "mono",
        &["--serving", "mono"],
        0x514bd279779fd38a,
        0x57d51669e121ff6f,
        0x0178b0f1d5b01d30,
    ),
    (
        "split",
        &["--serving", "split"],
        0x48417fbbd7b83597,
        0x94b8b348bb98f5da,
        0x018e7574744eb70a,
    ),
    (
        "dvfs",
        &["--serving", "split", "--dvfs"],
        0x9ca40b541f79694d,
        0x2bad5179e3a27965,
        0x734c317ed45d5494,
    ),
    (
        "mono_chaos",
        &["--serving", "mono", "--chaos", "rack"],
        0xaafdea3a6b34c643,
        0x982a4e3f2c4b2bf3,
        0x070388de9701fc8c,
    ),
    (
        "split_chaos",
        &["--serving", "split", "--chaos", "partition"],
        0xdc24d66b0f342681,
        0x0dd4bf4f8e764cdf,
        0xa49e37433b90682a,
    ),
    (
        "dvfs_chaos",
        &["--serving", "split", "--dvfs", "--chaos", "thermal"],
        0xa6b31b7069b9bf19,
        0x2bad5179e3a27965,
        0xc5c8d9ece9abf736,
    ),
    (
        "balancer",
        &["--serving", "mono", "--balancer", "--skew", "2x2.5"],
        0x9fa6c29b05948ed4,
        0xe66d5e65644873c6,
        0x248997aa055880ee,
    ),
    (
        "balancer_split_chaos",
        &[
            "--serving",
            "split",
            "--chaos",
            "rack",
            "--balancer",
            "--skew",
            "2x2.5",
        ],
        0x3810f273b4b3c226,
        0xf7fe9367eda4de68,
        0xcaf8926fb8201fcc,
    ),
    (
        "mono_drain",
        &["--serving", "mono", "--chaos", "drain"],
        0x269926aebe636480,
        0x446d07ba198b594c,
        0x8567f010e9339bee,
    ),
    (
        "split_power",
        &["--serving", "split", "--chaos", "power"],
        0x778e8a80ff54dc70,
        0xcd26f3cbee47a6d8,
        0x89c9dc84d6981707,
    ),
    (
        "balancer_quota",
        &[
            "--serving",
            "mono",
            "--balancer",
            "--skew",
            "2x2.5",
            "--quota-headroom",
            "0.3",
        ],
        0xd2e363293f382f5d,
        0x27eb3b71a41649ac,
        0x5ba3d1c0ad966ceb,
    ),
    (
        "off_mono_chaos",
        &["--ctrl", "off", "--serving", "mono", "--chaos", "rack"],
        0xa8b2af31f124f575,
        0x971c130d68a319ff,
        0xea7b9ab9a0cecefa,
    ),
    (
        "off_split_thermal",
        &["--ctrl", "off", "--serving", "split", "--chaos", "thermal"],
        0xc5ed2ad7e24a688c,
        0xf27f36173c956b35,
        0x1f27c19f8d4d11c3,
    ),
    (
        "off_split_drain",
        &["--ctrl", "off", "--serving", "split", "--chaos", "drain"],
        0x9a23372214fbc774,
        0x94774da37d6e7671,
        0x0b7f75dafcf37b8c,
    ),
    (
        "off_balancer",
        &[
            "--ctrl",
            "off",
            "--serving",
            "mono",
            "--chaos",
            "rack",
            "--balancer",
            "--skew",
            "2x2.5",
        ],
        0xef5a579bc274e691,
        0x700ecc4a9f3ea0e0,
        0x07788e4a4aef7a21,
    ),
    (
        "balancer_flat",
        &["--serving", "mono", "--balancer"],
        0x0b8b28805d39bbb3,
        0x0b20a8765ef5acdd,
        0x46d5daf1ebfb7116,
    ),
    (
        "off_split_chaos",
        &["--ctrl", "off", "--serving", "split", "--chaos", "rack"],
        0xffe53e35bf3b9898,
        0xb5d6fd9f3868508c,
        0xa9ae3f3ed52fc62f,
    ),
];

/// `(shards, threads)` of every golden run.
const LAYOUTS: [(u32, u32); 4] = [(8, 1), (8, 2), (8, 8), (3, 2)];

fn run_combo(combo: &str, flags: &[&str], shards: u32, threads: u32) -> (u64, u64, u64) {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let series = dir.join(format!("eq_series_{combo}_s{shards}t{threads}.jsonl"));
    let trace = dir.join(format!("eq_trace_{combo}_s{shards}t{threads}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_sim_fleet"))
        .args([
            "--gpu",
            "lite",
            "--instances",
            "64",
            "--cell-size",
            "8",
            "--hours",
            "0.5",
            "--accel",
            "50000",
            "--ctrl",
            "auto",
            "--workload",
            "multi",
            "--no-baseline",
            "--seed",
            "42",
        ])
        .args(flags)
        .args(["--shards", &shards.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--series", series.to_str().unwrap()])
        .args(["--series-dt", "60000000"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--trace-every", "16"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("sim_fleet runs");
    assert!(
        out.status.success(),
        "sim_fleet {combo} s{shards}t{threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    let report = fnv1a64(stdout.trim_end().as_bytes());
    let series = fnv1a64(&std::fs::read(&series).expect("series artifact"));
    let trace = fnv1a64(&std::fs::read(&trace).expect("trace artifact"));
    (report, series, trace)
}

#[test]
fn event_engine_matches_tick_loop_goldens() {
    let print = std::env::var("ENGINE_GOLDEN_PRINT").is_ok();
    let mut drift = Vec::new();
    for &(combo, flags, report_g, series_g, trace_g) in GOLDEN {
        for (shards, threads) in LAYOUTS {
            let (report, series, trace) = run_combo(combo, flags, shards, threads);
            if print && threads == 1 {
                println!("(\"{combo}\", ..., {report:#018x}, {series:#018x}, {trace:#018x}),");
            }
            for (name, got, want) in [
                ("report", report, report_g),
                ("series", series, series_g),
                ("trace", trace, trace_g),
            ] {
                if got != want {
                    drift.push(format!(
                        "{combo} s{shards}t{threads} {name}: got {got:#018x}, golden {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "engine output drifted from the pinned goldens:\n{}",
        drift.join("\n")
    );
}

/// `(report fnv, series fnv, trace fnv)` of [`chaos_shapes_cfg`] at
/// seed 7 on 8 shards.
const CHAOS_SHAPES_GOLDEN: (u64, u64, u64) =
    (0x51913e3007d911d2, 0xc24e068edbfad8f3, 0x3ba32508dd4d8771);

/// One hand-built chaos event over `[start_s, end_s)` on the global
/// instances `slots`.
fn event(kind: DomainEventKind, start_s: f64, end_s: f64, slots: Vec<u32>) -> DomainEvent {
    DomainEvent {
        kind,
        start_us: (start_s * 1e6) as u64,
        end_us: (end_s * 1e6) as u64,
        instances: slots,
    }
}

/// The controlled Lite fleet, 64 instances in 8-wide cells for 30
/// simulated minutes at 0.05 req/s/instance (low enough that the
/// autoscaler parks capacity, so its chaos-down floor binds), under a
/// schedule of edge cases: every window edge of each cell is listed in
/// the comments, in ticks of 1 s.
fn chaos_shapes_cfg() -> FleetConfig {
    use DomainEventKind::*;
    let mut cfg = FleetConfig::lite_ctrl_demo();
    cfg.workload.rate_per_instance_s = 0.05;
    cfg.instances = 64;
    cfg.cell_size = 8;
    cfg.horizon_s = 1800.0;
    cfg.failure_acceleration = 50_000.0;
    cfg.telemetry = TelemetryConfig {
        series_dt_us: 60_000_000,
        trace_every: 16,
        ..TelemetryConfig::default()
    };
    cfg.chaos = ChaosSpec {
        events: vec![
            // Cell 0: both outages fire on tick 300, in schedule order;
            // the second starts mid-tick over two slots already down.
            event(RackLoss, 300.0, 420.0, (0..4).collect()),
            event(PowerDomainLoss, 300.5, 500.0, (2..8).collect()),
            // Cell 4: a mid-tick outage whose ticks carry no other edge
            // (fires on tick 400, window edges at ticks 401 and 701).
            event(PowerDomainLoss, 400.5, 700.5, vec![32, 33]),
            // Cell 1: a drain shorter than one tick (both edges at 601).
            event(RollingDrain, 600.2, 600.7, (8..12).collect()),
            // Cell 2: a partition, a thermal clamp and a drain stacked in
            // one cell; the drain ends past the horizon.
            event(NetworkPartition, 700.5, 900.5, vec![16]),
            event(
                ThermalExcursion { clamp: 0.7 },
                650.0,
                1000.0,
                (16..20).collect(),
            ),
            event(RollingDrain, 800.0, 2000.0, (20..24).collect()),
            // Cell 3: an outage that fires on the last tick.
            event(RackLoss, 1799.5, 1900.0, (24..28).collect()),
        ],
    };
    cfg
}

#[test]
fn hand_built_chaos_shapes_match_goldens() {
    let print = std::env::var("ENGINE_GOLDEN_PRINT").is_ok();
    let cfg = chaos_shapes_cfg();
    for threads in [1u32, 2] {
        let mut run = run_sharded_full(&cfg, 7, 8, threads).expect("chaos shapes run");
        // Every shape registers: one partition and one thermal window,
        // only cell 2's drain (the sub-tick drain spans no tick start)
        // and no restore inside the horizon.
        let (fb, ch) = (&run.report.failure_breakdown, run.report.chaos.as_ref());
        let ch = ch.expect("chaos section");
        assert!(fb.rack > 0 && fb.power > 0 && ch.partition_shed > 0);
        assert_eq!((fb.partition_events, fb.thermal_events), (1, 1));
        assert_eq!((ch.drains, ch.drain_restores), (4, 0));
        let report = fnv1a64(run.report.to_json().trim_end().as_bytes());
        let series = fnv1a64(
            run.series
                .as_ref()
                .expect("series on")
                .to_jsonl()
                .as_bytes(),
        );
        let trace = fnv1a64(render_chrome_trace(run.trace.as_mut().expect("trace on")).as_bytes());
        if print && threads == 1 {
            println!("chaos shapes: ({report:#018x}, {series:#018x}, {trace:#018x})");
        }
        assert_eq!(
            (report, series, trace),
            CHAOS_SHAPES_GOLDEN,
            "chaos shapes t{threads} drifted (report, series, trace)"
        );
    }
}
