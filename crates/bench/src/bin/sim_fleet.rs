//! Fleet-scale serving simulation: thousands of instances over days of
//! simulated time, H100-class vs Lite-GPU fleets. `sim_fleet --help`
//! lists every flag with its default.
//!
//! Emits one deterministic `FleetReport` JSON per fleet to stdout and to
//! `target/experiments/fleet_<name>.json`. The same seed produces
//! byte-identical JSON at any `--shards`/`--threads` setting.
//!
//! `--ctrl` enables the litegpu-ctrl control plane (autoscaler + power
//! gating + cell router + admission control): `auto` picks the
//! §3-appropriate power policy per GPU type (H100 parks at the DVFS idle
//! floor, Lite power-gates), while `dvfs`/`gate` force one policy on
//! every fleet. `--dvfs` additionally runs the serving-time DVFS policy:
//! the engine prices the full `SLO_MIN_CLOCK..=1.0` operating-point grid
//! into step costs and the control plane retunes live instances per
//! cell (and per phase pool), reported in the `dvfs` section. `--workload multi` swaps the single diurnal tenant for
//! the three-tenant mixed-priority demo (interactive chat + batch +
//! best-effort scavenger), reported per tenant.
//!
//! `--serving split` serves Splitwise-style: each cell partitions into
//! prefill and decode pools, prefill completions stream KV caches over a
//! per-cell link (default budget derived from the GPU's own network
//! bandwidth; override with `--kv-gbps`), and the binary also runs a
//! monolithic twin of every fleet (skip with `--no-baseline`) to print
//! the split-vs-mono headline:
//! p99 TBT isolation bought at a TTFT transfer premium, plus the
//! H100-vs-Lite KV-bandwidth trade. `--perf-json PATH` writes a small
//! `{instance_ticks, wall_s, ticks_per_sec}` artifact for the primary
//! run (CI perf smoke).
//!
//! `--balancer` turns on the two-level control plane: a fleet-scope
//! spill-over balancer runs above whatever cell-scope stack `--ctrl`
//! selected (or alone with `--ctrl off`), redirecting a bounded fraction
//! of hot cells' arrivals to under-loaded cells each fleet tick and
//! reporting the exact-conservation flow matrix in the report's
//! `balancer` section. `--skew HxM` makes the first `H` cells hot at
//! `M`x their arrival rate (cold cells scaled down to hold fleet-total
//! demand), e.g. `--skew 2x2.5` for the canonical 2-hot/6-cold mix.
//!
//! `--chaos KIND` compiles a small demo campaign of that kind (via
//! `litegpu-chaos`, seeded from `--seed`) into every fleet, so the CI
//! determinism gate can check the byte-identical guarantee under
//! correlated failures, repair crews, partitions, thermal clamps and
//! rolling drains too.
//!
//! Observability (all off by default, none of it changes report bytes):
//! `--series PATH` samples the deterministic time-series layer every
//! `--series-dt` integer microseconds of simulated time (default
//! 60000000 = 60 s windows) and writes JSONL (or CSV when PATH ends in
//! `.csv`); `--series-per-cell` adds per-cell series.
//! `--trace PATH` writes a Chrome trace-event JSON (open in Perfetto)
//! with every 1-in-`--trace-every` request span (default 64) plus all
//! control-plane commands and chaos events. `--profile` times the engine
//! phases and lands the breakdown in `--perf-json` and on stderr.
//! Artifacts describe the first fleet (like `--perf-json`); series and
//! trace bytes are shard/thread-invariant.

use litegpu_bench::cli::{self, Balancer, CtrlKnobs, Engine, Shape};
use litegpu_bench::write_artifact;
use litegpu_chaos::{Campaign, CampaignKind, DomainPlan};
use litegpu_fleet::ctrl::{CtrlConfig, Policy};
use litegpu_fleet::{FleetConfig, FleetReport, FleetRun, ServingMode, TelemetryConfig};
use litegpu_telemetry::render_chrome_trace;

litegpu_bench::flags! {
    /// `sim_fleet`'s flags.
    struct Args {
        gpu: String = "--gpu" "h100|lite|both" "both" "the fleets to run",
        spares_per_cell: u32 = "--spares-per-cell" "N" "1" "spare instances per cell",
        ctrl: String = "--ctrl" "off|auto|dvfs|gate" "off"
            "cell control plane; auto gives each GPU type its §3 power policy",
        dvfs: bool = "--dvfs" "" "" "serving-time DVFS on the control plane",
        no_baseline: bool = "--no-baseline" "" "" "skip the monolithic twin of a phase-split fleet",
        chaos: Option<String> = "--chaos" "rack|power|partition|thermal|drain" ""
            "compile a small demo campaign of this kind into every fleet",
        series: Option<String> = "--series" "PATH" ""
            "write the first fleet's series as JSONL (CSV if PATH ends in .csv)",
        series_per_cell: bool = "--series-per-cell" "" "" "add per-cell series",
        trace: Option<String> = "--trace" "PATH" ""
            "write the first fleet's Chrome trace (open in Perfetto)",
        trace_every: u32 = "--trace-every" "N" "64" "trace 1 request span in N",
        profile: bool = "--profile" "" "" "time the engine phases, on stderr and in the perf artifact",
        perf_json: Option<String> = "--perf-json" "PATH" ""
            "write the first fleet's instance-ticks and wall time",
        ..split: Split,
        ..shape: Shape,
        ..engine: Engine,
        ..bal: Balancer,
    }
}

litegpu_bench::flags! {
    /// Phase-split knobs, ignored under `--serving mono`.
    struct Split {
        prefill_fraction: f64 = "--prefill-fraction" "F" "0.25" "starting prefill share of a cell",
        kv_gbps: Option<f64> = "--kv-gbps" "G" ""
            "cell KV-link bandwidth, GB/s (default: from the GPU's network bandwidth)",
        kv_backlog: f64 = "--kv-backlog" "S" "0.25"
            "KV backlog, seconds of link time, beyond which prefill stalls",
    }
}

/// Exits 2 on a flag combination that cannot run, and warns about
/// flags the chosen mode ignores (stderr only).
fn check(a: &Args, given: &cli::Given) {
    if a.dvfs && a.ctrl == "off" {
        cli::fail("--dvfs needs a control plane: pass --ctrl auto|dvfs|gate".into());
    }
    if a.trace.is_some() && a.trace_every == 0 {
        cli::fail("--trace-every must be >= 1".into());
    }
    if a.shape.serving == "mono" {
        given.warn_ignored::<Split>("under --serving mono");
    }
    if a.ctrl == "off" {
        given.warn_ignored::<CtrlKnobs>("without a control plane (--ctrl off)");
    }
    a.bal.warn_if_ignored(given);
}

/// Maps the flags onto one demo fleet whose `--ctrl auto` policy is
/// `auto_policy`.
fn configure(mut cfg: FleetConfig, a: &Args, auto_policy: Policy) -> FleetConfig {
    let policy = match a.ctrl.as_str() {
        "auto" => Some(auto_policy),
        "dvfs" => Some(Policy::DvfsAll),
        "gate" => Some(Policy::GateToEfficiency),
        _ => None,
    };
    cfg.ctrl = policy.map(|p| CtrlConfig {
        dvfs: a.dvfs,
        ..CtrlConfig::demo(p)
    });
    a.shape.apply(&mut cfg);
    cfg.spares_per_cell = a.spares_per_cell;
    if let ServingMode::PhaseSplit {
        prefill_fraction,
        kv_link,
    } = &mut cfg.serving
    {
        *prefill_fraction = a.split.prefill_fraction;
        kv_link.bandwidth_gbps = a.split.kv_gbps.unwrap_or(kv_link.bandwidth_gbps);
        kv_link.max_backlog_s = a.split.kv_backlog;
    }
    if let Some(slug) = a.chaos.as_deref() {
        let campaign = Campaign {
            kind: CampaignKind::from_slug(slug).expect("the parser checked --chaos"),
            events: 3,
            duration_s: 300.0,
            intensity: 0.5,
        };
        // Compiled after the rest of the config is settled: the schedule
        // depends on the instance count, tick grid and horizon.
        cfg.chaos =
            litegpu_chaos::compile(&cfg, &DomainPlan::default(), &campaign, a.engine.run.seed)
                .unwrap_or_else(|e| cli::fail(format!("--chaos {slug}: {e}")));
    }
    cfg.telemetry = TelemetryConfig {
        per_cell_series: a.series_per_cell,
        trace_every: if a.trace.is_some() { a.trace_every } else { 0 },
        profile: a.profile,
        ..a.engine.telemetry(a.series.is_some())
    };
    // Last: the skew multipliers size to the final cell count, and the
    // balancer stacks on whatever cell-scope control `--ctrl` selected.
    a.bal.apply(&mut cfg);
    cfg
}

/// Writes the `--series`, `--trace` and `--perf-json` artifacts of one
/// fleet run.
fn write_artifacts(a: &Args, name: &str, cfg: &FleetConfig, run: &mut FleetRun, wall: f64) {
    if let (Some(path), Some(s)) = (&a.series, run.series.as_ref()) {
        let bytes = if path.ends_with(".csv") {
            s.to_csv()
        } else {
            s.to_jsonl()
        };
        write_artifact("series", path, &bytes);
    }
    if let (Some(path), Some(t)) = (&a.trace, run.trace.as_mut()) {
        write_artifact("trace", path, &render_chrome_trace(t));
    }
    if let Some(path) = &a.perf_json {
        let instance_ticks = cfg.num_ticks() as u64 * cfg.instances as u64;
        let profile_field = run.profile.as_ref().map_or(String::new(), |p| {
            format!("  \"profile\": {},\n", p.to_json())
        });
        let perf = format!(
            "{{\n  \"fleet\": \"{name}\",\n  \"instance_ticks\": {instance_ticks},\n\
             {profile_field}  \
             \"wall_s\": {wall:.4},\n  \"ticks_per_sec\": {:.0}\n}}\n",
            instance_ticks as f64 / wall.max(1e-9)
        );
        write_artifact("perf-json", path, &perf);
    }
}

/// The split-vs-mono headline: the same fleet, seed and instance count
/// under monolithic continuous batching.
fn mono_twin(a: &Args, name: &str, cfg: &FleetConfig, split: &FleetReport) {
    let mut mono_cfg = cfg.clone();
    mono_cfg.serving = ServingMode::Monolithic;
    // The twin exists for its report; don't pay for (or overwrite)
    // telemetry on it.
    mono_cfg.telemetry = TelemetryConfig::default();
    let mono = a
        .engine
        .run_fleet(&format!("fleet {name}"), &mono_cfg)
        .0
        .report;
    eprintln!(
        "#   split vs mono ({} instances): p99 TBT {:.4} s vs {:.4} s \
         ({:.1}x tighter), p99 TTFT {:.3} s vs {:.3} s (transfer premium), \
         completed {} vs {}",
        cfg.instances,
        split.tbt_p99_s,
        mono.tbt_p99_s,
        mono.tbt_p99_s / split.tbt_p99_s.max(1e-12),
        split.ttft_p99_s,
        mono.ttft_p99_s,
        split.completed,
        mono.completed,
    );
}

/// The headline KV-bandwidth trade, when both fleets ran phase-split:
/// the per-request KV footprint is fixed by the model, so the question
/// is whether the smaller GPUs' links keep up. Table 1 scales network
/// bandwidth with count (8 × 112.5 = 2 × 450 GB/s per instance), so
/// the Lite fleet absorbs the same KV stream at the same utilization —
/// the §2 condition, met; starve `--kv-gbps` to watch it fail.
fn kv_trade(h: &FleetReport, l: &FleetReport) {
    let (hk, lk) = (
        h.kv_transfer.as_ref().expect("split report"),
        l.kv_transfer.as_ref().expect("split report"),
    );
    eprintln!(
        "# KV-bandwidth trade (phase-split, equal aggregate silicon): H100 moved {:.0} GB \
         at {:.2}% cell-link utilization (delay p99 {:.1} ms) vs Lite {:.0} GB at {:.2}% \
         (delay p99 {:.1} ms) — Lite-GPU phase-split holds iff per-GPU net bandwidth \
         scales with count (Table 1: 8x112.5 = 2x450 GB/s per instance)",
        hk.gb_moved,
        100.0 * hk.link_utilization,
        1e3 * hk.delay_p99_s,
        lk.gb_moved,
        100.0 * lk.link_utilization,
        1e3 * lk.delay_p99_s,
    );
}

fn main() {
    let (a, given) = cli::parse::<Args>(&[]);
    check(&a, &given);
    let fleets: Vec<(&str, FleetConfig)> = litegpu_bench::fleet_pair::demo_pair()
        .into_iter()
        .filter(|(name, _, _)| a.gpu == "both" || a.gpu == *name)
        .map(|(name, base, policy)| (name, configure(base, &a, policy)))
        .collect();
    let mut split_reports = Vec::new();
    for (idx, (name, cfg)) in fleets.into_iter().enumerate() {
        let (mut fleet_run, wall) = a.engine.run_fleet(&format!("fleet {name}"), &cfg);
        let report = &fleet_run.report;
        eprintln!("# {name}: {} ({:.2} s wall)", report.summary(), wall);
        for line in report.tenant_summary().lines() {
            eprintln!("#   {line}");
        }
        if let Some(p) = fleet_run.profile.as_ref() {
            eprintln!("#   {}", p.summary());
        }
        // The artifacts describe the first fleet only — with `--gpu both`
        // a per-fleet write would overwrite the h100 artifacts with lite's.
        if idx == 0 {
            write_artifacts(&a, name, &cfg, &mut fleet_run, wall);
        }
        let report = fleet_run.report;
        if report.dvfs.is_some() {
            eprintln!("#   {}", report.dvfs_summary());
        }
        if report.balancer.is_some() {
            eprintln!("#   {}", report.balancer_summary());
        }
        if report.kv_transfer.is_some() {
            eprintln!("#   {}", report.kv_summary());
            // `--no-baseline` skips the twin (CI determinism/perf legs
            // only need the primary run's bytes).
            if !a.no_baseline {
                mono_twin(&a, name, &cfg, &report);
            }
        }
        a.engine
            .run
            .emit_json(&format!("fleet_{name}.json"), &report.to_json());
        if report.kv_transfer.is_some() {
            split_reports.push(report);
        }
    }
    if let [h, l] = split_reports.as_slice() {
        kv_trade(h, l);
    }
}
