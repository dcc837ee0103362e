//! Fleet-scale serving simulation: thousands of instances over days of
//! simulated time, H100-class vs Lite-GPU fleets.
//!
//! Emits one deterministic `FleetReport` JSON per fleet to stdout and to
//! `target/experiments/fleet_<name>.json`. The same seed produces
//! byte-identical JSON at any `--shards`/`--threads` setting.
//!
//! ```text
//! sim_fleet [--gpu h100|lite|both] [--instances N] [--hours H]
//!           [--rate R] [--accel A] [--spares-per-cell N] [--cell-size N]
//!           [--tick S] [--seed N] [--shards N] [--threads N]
//!           [--ctrl off|auto|dvfs|gate] [--dvfs] [--control-interval S]
//!           [--warm-pool N] [--workload single|multi]
//!           [--serving mono|split] [--prefill-fraction F]
//!           [--kv-gbps G] [--kv-backlog S] [--no-baseline]
//!           [--chaos rack|power|partition|thermal|drain]
//!           [--balancer] [--balancer-interval S] [--spill-permille N]
//!           [--hot-factor F] [--quota-headroom F] [--kv-slack-us N]
//!           [--skew HxM]
//!           [--perf-json PATH] [--quiet-json]
//!           [--series PATH] [--series-dt US] [--series-per-cell]
//!           [--trace PATH] [--trace-every N] [--profile]
//! ```
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

use litegpu_chaos::{Campaign, CampaignKind, DomainPlan};
use litegpu_fleet::ctrl::{CtrlConfig, Policy};
use litegpu_fleet::{
    run_sharded_full, FleetConfig, FleetReport, FleetRun, KvLink, ServingMode, TelemetryConfig,
    WorkloadSpec,
};
use litegpu_telemetry::render_chrome_trace;

struct Args {
    gpu: String,
    instances: u32,
    hours: f64,
    rate: f64,
    accel: f64,
    spares_per_cell: u32,
    cell_size: u32,
    tick: f64,
    common: litegpu_bench::cli::CommonArgs,
    bal: litegpu_bench::cli::BalancerArgs,
    ctrl: String,
    dvfs: bool,
    control_interval: f64,
    warm_pool: u32,
    workload: String,
    serving: String,
    prefill_fraction: f64,
    kv_gbps: Option<f64>,
    kv_backlog: f64,
    no_baseline: bool,
    chaos: Option<String>,
    quiet_json: bool,
    series_per_cell: bool,
    trace: Option<String>,
    trace_every: u32,
    profile: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        gpu: "both".into(),
        instances: 1000,
        hours: 24.0,
        rate: 1.5,
        accel: 200.0,
        spares_per_cell: 1,
        cell_size: 20,
        tick: 1.0,
        common: litegpu_bench::cli::CommonArgs::new(litegpu_bench::cli::CommonArgs::ALL),
        bal: litegpu_bench::cli::BalancerArgs::default(),
        ctrl: "off".into(),
        dvfs: false,
        control_interval: 5.0,
        warm_pool: 1,
        workload: "single".into(),
        serving: "mono".into(),
        prefill_fraction: 0.25,
        kv_gbps: None,
        kv_backlog: KvLink::DEFAULT_MAX_BACKLOG_S,
        no_baseline: false,
        chaos: None,
        quiet_json: false,
        series_per_cell: false,
        trace: None,
        trace_every: 64,
        profile: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| litegpu_bench::cli::value(&argv, i);
    use litegpu_bench::cli::parsed;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--gpu" => a.gpu = value(&mut i),
            "--instances" => a.instances = parsed(&flag, value(&mut i)),
            "--hours" => a.hours = parsed(&flag, value(&mut i)),
            "--rate" => a.rate = parsed(&flag, value(&mut i)),
            "--accel" => a.accel = parsed(&flag, value(&mut i)),
            "--spares-per-cell" => a.spares_per_cell = parsed(&flag, value(&mut i)),
            "--cell-size" => a.cell_size = parsed(&flag, value(&mut i)),
            "--tick" => a.tick = parsed(&flag, value(&mut i)),
            "--ctrl" => a.ctrl = value(&mut i),
            "--dvfs" => a.dvfs = true,
            "--control-interval" => a.control_interval = parsed(&flag, value(&mut i)),
            "--warm-pool" => a.warm_pool = parsed(&flag, value(&mut i)),
            "--workload" => a.workload = value(&mut i),
            "--serving" => a.serving = value(&mut i),
            "--prefill-fraction" => a.prefill_fraction = parsed(&flag, value(&mut i)),
            "--kv-gbps" => a.kv_gbps = Some(parsed(&flag, value(&mut i))),
            "--kv-backlog" => a.kv_backlog = parsed(&flag, value(&mut i)),
            "--no-baseline" => a.no_baseline = true,
            "--chaos" => a.chaos = Some(value(&mut i)),
            "--quiet-json" => a.quiet_json = true,
            "--series-per-cell" => a.series_per_cell = true,
            "--trace" => a.trace = Some(value(&mut i)),
            "--trace-every" => a.trace_every = parsed(&flag, value(&mut i)),
            "--profile" => a.profile = true,
            other => {
                if !a.common.try_parse(&argv, &mut i) && !a.bal.try_parse(&argv, &mut i) {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    if a.serving != "mono" && a.serving != "split" {
        eprintln!("unknown --serving {} (expected mono|split)", a.serving);
        std::process::exit(2);
    }
    if a.dvfs && a.ctrl == "off" {
        eprintln!("--dvfs needs a control plane: pass --ctrl auto|dvfs|gate");
        std::process::exit(2);
    }
    if a.trace.is_some() && a.trace_every == 0 {
        eprintln!("--trace-every must be >= 1");
        std::process::exit(2);
    }
    // Accepted-but-ignored flag combinations (stderr only).
    if a.serving == "mono" {
        litegpu_bench::cli::warn_ignored(
            &argv,
            "under --serving mono",
            &["--prefill-fraction", "--kv-gbps", "--kv-backlog"],
        );
    }
    if a.ctrl == "off" {
        litegpu_bench::cli::warn_ignored(
            &argv,
            "without a control plane (--ctrl off)",
            &["--control-interval", "--warm-pool"],
        );
    }
    a.bal.warn_if_ignored();
    a
}

fn configure(base: FleetConfig, a: &Args, auto_policy: Policy) -> FleetConfig {
    let mut cfg = base;
    cfg.instances = a.instances;
    cfg.horizon_s = a.hours * 3600.0;
    cfg.workload = match a.workload.as_str() {
        "single" => WorkloadSpec::diurnal_demo(a.rate),
        "multi" => WorkloadSpec::multi_tenant_demo(a.rate),
        other => {
            eprintln!("unknown --workload {other} (expected single|multi)");
            std::process::exit(2);
        }
    };
    cfg.failure_acceleration = a.accel;
    cfg.spares_per_cell = a.spares_per_cell;
    cfg.cell_size = a.cell_size;
    cfg.tick_s = a.tick;
    let policy = match a.ctrl.as_str() {
        "off" => None,
        "auto" => Some(auto_policy),
        "dvfs" => Some(Policy::DvfsAll),
        "gate" => Some(Policy::GateToEfficiency),
        other => {
            eprintln!("unknown --ctrl {other} (expected off|auto|dvfs|gate)");
            std::process::exit(2);
        }
    };
    cfg.ctrl = policy.map(|p| {
        let mut c = CtrlConfig::demo(p);
        if a.dvfs {
            c = c.with_dvfs();
        }
        c.control_interval_s = a.control_interval;
        if let Some(pw) = c.power.as_mut() {
            pw.warm_pool = a.warm_pool;
        }
        c
    });
    if a.serving == "split" {
        let mut link = KvLink::for_instance(&cfg.gpu, cfg.gpus_per_instance);
        if let Some(gbps) = a.kv_gbps {
            link.bandwidth_gbps = gbps;
        }
        link.max_backlog_s = a.kv_backlog;
        cfg.serving = ServingMode::PhaseSplit {
            prefill_fraction: a.prefill_fraction,
            kv_link: link,
        };
    }
    if let Some(slug) = a.chaos.as_deref() {
        let Some(kind) = CampaignKind::from_slug(slug) else {
            eprintln!("unknown --chaos {slug} (expected rack|power|partition|thermal|drain)");
            std::process::exit(2);
        };
        let campaign = Campaign {
            kind,
            events: 3,
            duration_s: 300.0,
            intensity: 0.5,
        };
        // Compiled after the rest of the config is settled: the schedule
        // depends on the instance count, tick grid and horizon.
        match litegpu_chaos::compile(&cfg, &DomainPlan::default(), &campaign, a.common.seed) {
            Ok(spec) => cfg.chaos = spec,
            Err(e) => {
                eprintln!("--chaos {slug}: {e}");
                std::process::exit(2);
            }
        }
    }
    cfg.telemetry = TelemetryConfig {
        series_dt_us: if a.common.series.is_some() {
            a.common.series_dt_us
        } else {
            0
        },
        per_cell_series: a.series_per_cell,
        trace_every: if a.trace.is_some() { a.trace_every } else { 0 },
        profile: a.profile,
    };
    // Last: the skew multipliers size to the final cell count, and the
    // balancer stacks on whatever cell-scope control `--ctrl` selected.
    a.bal.apply(&mut cfg);
    cfg
}

fn run_one(name: &str, cfg: &FleetConfig, a: &Args) -> (FleetRun, f64) {
    let threads = litegpu_bench::fleet_pair::threads_or_auto(a.common.threads);
    let shards = litegpu_bench::fleet_pair::shards_or_cells(a.common.shards, cfg);
    let start = std::time::Instant::now();
    match run_sharded_full(cfg, a.common.seed, shards, threads) {
        Ok(r) => (r, start.elapsed().as_secs_f64()),
        Err(e) => {
            eprintln!("fleet {name}: {e}");
            std::process::exit(1);
        }
    }
}

use litegpu_bench::write_artifact;

fn main() {
    let a = parse_args();
    let fleets: Vec<(&str, FleetConfig)> = litegpu_bench::fleet_pair::demo_pair()
        .into_iter()
        .filter(|(name, _, _)| a.gpu == "both" || a.gpu == *name)
        .map(|(name, base, policy)| (name, configure(base, &a, policy)))
        .collect();
    if fleets.is_empty() {
        eprintln!("unknown --gpu {} (expected h100|lite|both)", a.gpu);
        std::process::exit(2);
    }
    let mut split_reports: Vec<(String, FleetReport)> = Vec::new();
    let mut perf_written = false;
    for (idx, (name, cfg)) in fleets.into_iter().enumerate() {
        let (mut fleet_run, wall) = run_one(name, &cfg, &a);
        let report = &fleet_run.report;
        let json = report.to_json();
        eprintln!("# {name}: {} ({:.2} s wall)", report.summary(), wall);
        for line in report.tenant_summary().lines() {
            eprintln!("#   {line}");
        }
        if let Some(p) = fleet_run.profile.as_ref() {
            eprintln!("#   {}", p.summary());
        }
        // Like `--perf-json`, series/trace artifacts describe the first
        // fleet only — with `--gpu both` a per-iteration write would
        // silently overwrite the h100 artifacts with lite's.
        if idx == 0 {
            if let (Some(path), Some(s)) = (&a.common.series, fleet_run.series.as_ref()) {
                let bytes = if path.ends_with(".csv") {
                    s.to_csv()
                } else {
                    s.to_jsonl()
                };
                write_artifact("series", path, &bytes);
            }
            if let (Some(path), Some(t)) = (&a.trace, fleet_run.trace.as_mut()) {
                write_artifact("trace", path, &render_chrome_trace(t));
            }
        }
        // The perf artifact records the first fleet only — with
        // `--gpu both` a per-iteration write would silently overwrite
        // the h100 numbers with lite's.
        if let (Some(path), false) = (&a.common.perf_json, perf_written) {
            let instance_ticks = cfg.num_ticks() as u64 * cfg.instances as u64;
            let profile_field = fleet_run.profile.as_ref().map_or(String::new(), |p| {
                format!("  \"profile\": {},\n", p.to_json())
            });
            let perf = format!(
                "{{\n  \"fleet\": \"{name}\",\n  \"instance_ticks\": {instance_ticks},\n\
                 {profile_field}  \
                 \"wall_s\": {wall:.4},\n  \"ticks_per_sec\": {:.0}\n}}\n",
                instance_ticks as f64 / wall.max(1e-9)
            );
            write_artifact("perf-json", path, &perf);
            perf_written = true;
        }
        if report.dvfs.is_some() {
            eprintln!("#   {}", report.dvfs_summary());
        }
        if report.balancer.is_some() {
            eprintln!("#   {}", report.balancer_summary());
        }
        if report.kv_transfer.is_some() {
            eprintln!("#   {}", report.kv_summary());
            // The split-vs-mono headline: same fleet, same seed, same
            // instance count, monolithic continuous batching.
            // `--no-baseline` skips the twin (CI determinism/perf legs
            // only need the primary run's bytes).
            if !a.no_baseline {
                let mut mono_cfg = cfg.clone();
                mono_cfg.serving = ServingMode::Monolithic;
                // The twin exists for its report; don't pay for (or
                // overwrite) telemetry on it.
                mono_cfg.telemetry = TelemetryConfig::default();
                let (mono_run, _) = run_one(name, &mono_cfg, &a);
                let mono = mono_run.report;
                eprintln!(
                    "#   split vs mono ({} instances): p99 TBT {:.4} s vs {:.4} s \
                     ({:.1}x tighter), p99 TTFT {:.3} s vs {:.3} s (transfer premium), \
                     completed {} vs {}",
                    cfg.instances,
                    report.tbt_p99_s,
                    mono.tbt_p99_s,
                    mono.tbt_p99_s / report.tbt_p99_s.max(1e-12),
                    report.ttft_p99_s,
                    mono.ttft_p99_s,
                    report.completed,
                    mono.completed,
                );
            }
            split_reports.push((name.to_string(), report.clone()));
        }
        if !a.quiet_json {
            println!("{json}");
        }
        let dir = litegpu_bench::experiments_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("fleet_{name}.json")), &json);
        }
    }
    // The headline KV-bandwidth trade, when both fleets ran phase-split:
    // the per-request KV footprint is fixed by the model, so the question
    // is whether the smaller GPUs' links keep up. Table 1 scales network
    // bandwidth with count (8 × 112.5 = 2 × 450 GB/s per instance), so
    // the Lite fleet absorbs the same KV stream at the same utilization —
    // the §2 condition, met; starve `--kv-gbps` to watch it fail.
    if split_reports.len() == 2 {
        let (h, l) = (&split_reports[0].1, &split_reports[1].1);
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
}
