//! Fleet control-plane head-to-head: a controlled H100 fleet (DVFS-only
//! parking) vs a controlled Lite fleet (per-unit power gating) under the
//! same multi-tenant diurnal demand — the §3 elasticity/energy argument,
//! measured, with per-tenant SLO attainment.
//!
//! By default both fleets serve the three-tenant mixed-priority demo
//! (interactive chat + batch + best-effort scavenger) at a base rate
//! (5 req/s/instance) that outruns fleet capacity at the diurnal peak:
//! priority-aware admission control sheds the scavenger first, and the
//! per-tenant section shows interactive attainment preserved. Lower
//! `--rate` for an unpressured fleet; `--workload single` restores the
//! legacy single-tenant source.
//!
//! Emits one deterministic `FleetReport` JSON per fleet to stdout and to
//! `target/experiments/ctrl_<name>.json`, then a comparison block. With
//! `--spares-target`, also sweeps `spares_per_cell` per fleet until the
//! availability target is met (the fleet analogue of
//! `cluster::failure::spares_for_target`).
//!
//! With `--dvfs`, each fleet also runs under the serving-time DVFS
//! policy (step costs priced on the `SLO_MIN_CLOCK..=1.0` operating-point
//! grid, per-cell/per-pool clock selection) and the headline compares
//! energy-per-token against the nominal-clock run at equal interactive
//! SLO attainment — the energy-vs-latency frontier the clock-aware
//! serving work gates on.
//!
//! ```text
//! sim_ctrl [--instances N] [--hours H] [--rate R] [--accel A]
//!          [--cell-size N] [--tick S] [--seed N]
//!          [--shards N] [--threads N]
//!          [--control-interval S] [--warm-pool N] [--dvfs]
//!          [--workload multi|single] [--serving mono|split]
//!          [--balancer] [--balancer-interval S] [--spill-permille N]
//!          [--hot-factor F] [--quota-headroom F] [--kv-slack-us N]
//!          [--skew HxM]
//!          [--spares-target A] [--max-spares N] [--quiet-json]
//!          [--series PATH] [--series-dt US]
//! ```
//!
//! `--balancer` stacks the fleet-scope spill-over balancer on each
//! fleet's cell-scope control plane, and `--skew HxM` skews demand
//! (first `H` cells at `M`x, cold cells scaled to hold fleet-total
//! demand). With both, the binary also runs each skewed fleet with the
//! balancer stripped and prints the balanced-vs-isolated headline —
//! interactive SLO attainment and energy/token, H100 vs Lite — the
//! two-level control plane's reason to exist.
//!
//! `--series PATH` records the deterministic telemetry time series for
//! each primary fleet (autoscaler pool sizes, queue depth, sheds, clock
//! distribution, energy rate, ...) every `--series-dt` integer µs of
//! simulated time (default 60000000 = 60 s) and writes one JSONL file
//! per fleet with the fleet name before the extension (`out.jsonl` →
//! `out_h100.jsonl`, `out_lite.jsonl`) — the when-did-the-autoscaler-lag
//! view the end-of-run report can't show.

use litegpu_fleet::{
    run, run_sharded_full, spares_for_target, FleetConfig, PriorityClass, ServingMode,
    TelemetryConfig, WorkloadSpec,
};

struct Args {
    instances: u32,
    serving: String,
    hours: f64,
    rate: f64,
    accel: f64,
    cell_size: u32,
    tick: f64,
    common: litegpu_bench::cli::CommonArgs,
    bal: litegpu_bench::cli::BalancerArgs,
    control_interval: f64,
    warm_pool: u32,
    workload: String,
    dvfs: bool,
    spares_target: Option<f64>,
    max_spares: u32,
    quiet_json: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        instances: 500,
        serving: "mono".into(),
        hours: 24.0,
        rate: 5.0,
        accel: 200.0,
        cell_size: 20,
        tick: 1.0,
        common: litegpu_bench::cli::CommonArgs::new(&[
            "--seed",
            "--shards",
            "--threads",
            "--series",
            "--series-dt",
        ]),
        bal: litegpu_bench::cli::BalancerArgs::default(),
        control_interval: 5.0,
        warm_pool: 1,
        workload: "multi".into(),
        dvfs: false,
        spares_target: None,
        max_spares: 4,
        quiet_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| litegpu_bench::cli::value(&argv, i);
    use litegpu_bench::cli::parsed;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--instances" => a.instances = parsed(&flag, value(&mut i)),
            "--serving" => a.serving = value(&mut i),
            "--hours" => a.hours = parsed(&flag, value(&mut i)),
            "--rate" => a.rate = parsed(&flag, value(&mut i)),
            "--accel" => a.accel = parsed(&flag, value(&mut i)),
            "--cell-size" => a.cell_size = parsed(&flag, value(&mut i)),
            "--tick" => a.tick = parsed(&flag, value(&mut i)),
            "--control-interval" => a.control_interval = parsed(&flag, value(&mut i)),
            "--warm-pool" => a.warm_pool = parsed(&flag, value(&mut i)),
            "--workload" => a.workload = value(&mut i),
            "--dvfs" => a.dvfs = true,
            "--spares-target" => a.spares_target = Some(parsed(&flag, value(&mut i))),
            "--max-spares" => a.max_spares = parsed(&flag, value(&mut i)),
            "--quiet-json" => a.quiet_json = true,
            other => {
                if !a.common.try_parse(&argv, &mut i) && !a.bal.try_parse(&argv, &mut i) {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    // Accepted-but-ignored flag combinations (stderr only).
    if a.spares_target.is_none() {
        litegpu_bench::cli::warn_ignored(&argv, "without --spares-target", &["--max-spares"]);
    }
    a.bal.warn_if_ignored();
    a
}

fn configure(base: FleetConfig, a: &Args) -> FleetConfig {
    let mut cfg = base;
    cfg.instances = a.instances;
    cfg.horizon_s = a.hours * 3600.0;
    cfg.workload = match a.workload.as_str() {
        "multi" => WorkloadSpec::multi_tenant_demo(a.rate),
        "single" => WorkloadSpec::diurnal_demo(a.rate),
        other => {
            eprintln!("unknown --workload {other} (expected multi|single)");
            std::process::exit(2);
        }
    };
    cfg.failure_acceleration = a.accel;
    cfg.cell_size = a.cell_size;
    cfg.tick_s = a.tick;
    match a.serving.as_str() {
        "mono" => {}
        "split" => {
            cfg.serving = ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance);
        }
        other => {
            eprintln!("unknown --serving {other} (expected mono|split)");
            std::process::exit(2);
        }
    }
    let ctrl = cfg.ctrl.as_mut().expect("ctrl demo configs have a ctrl");
    ctrl.control_interval_s = a.control_interval;
    if let Some(p) = ctrl.power.as_mut() {
        p.warm_pool = a.warm_pool;
    }
    if a.common.series.is_some() {
        cfg.telemetry = TelemetryConfig {
            series_dt_us: a.common.series_dt_us,
            ..TelemetryConfig::default()
        };
    }
    // Last: skew multipliers size to the final cell count, and the
    // balancer stacks on the fleet's cell-scope stack.
    a.bal.apply(&mut cfg);
    cfg
}

/// `out.jsonl` → `out_h100.jsonl`: one series file per fleet.
fn series_path(path: &str, name: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}_{name}.{ext}"),
        None => format!("{path}_{name}"),
    }
}

fn main() {
    let a = parse_args();
    let fleets =
        litegpu_bench::fleet_pair::ctrl_demo_pair().map(|(name, base)| (name, configure(base, &a)));
    let mut reports = Vec::new();
    for (name, cfg) in &fleets {
        let start = std::time::Instant::now();
        let threads = litegpu_bench::fleet_pair::threads_or_auto(a.common.threads);
        let shards = litegpu_bench::fleet_pair::shards_or_cells(a.common.shards, cfg);
        let fleet_run = match run_sharded_full(cfg, a.common.seed, shards, threads) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet {name}: {e}");
                std::process::exit(1);
            }
        };
        if let (Some(path), Some(s)) = (&a.common.series, fleet_run.series.as_ref()) {
            litegpu_bench::write_artifact("series", &series_path(path, name), &s.to_jsonl());
        }
        let report = fleet_run.report;
        eprintln!(
            "# {name}: {} ({:.2} s wall)",
            report.summary(),
            start.elapsed().as_secs_f64()
        );
        for line in report.tenant_summary().lines() {
            eprintln!("#   {line}");
        }
        if report.kv_transfer.is_some() {
            eprintln!("#   {}", report.kv_summary());
        }
        if report.balancer.is_some() {
            eprintln!("#   {}", report.balancer_summary());
        }
        let json = report.to_json();
        if !a.quiet_json {
            println!("{json}");
        }
        let dir = litegpu_bench::experiments_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("ctrl_{name}.json")), &json);
        }
        reports.push(report);
    }

    let (h, l) = (&reports[0], &reports[1]);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };
    eprintln!("# control-plane head-to-head (same diurnal demand, same cells):");
    eprintln!(
        "#   idle energy:      H100 {:.1} MJ vs Lite {:.1} MJ ({:.1}x — per-unit gating, §3)",
        h.idle_energy_j as f64 / 1e6,
        l.idle_energy_j as f64 / 1e6,
        ratio(h.idle_energy_j as f64, l.idle_energy_j as f64),
    );
    eprintln!(
        "#   energy per token: H100 {:.2} J vs Lite {:.2} J ({:.2}x)",
        h.energy_per_token_j,
        l.energy_per_token_j,
        ratio(h.energy_per_token_j, l.energy_per_token_j),
    );
    eprintln!(
        "#   mean live pool:   H100 {:.1} vs Lite {:.1} of {} instances",
        h.avg_live_instances, l.avg_live_instances, a.instances
    );
    eprintln!(
        "#   autoscaler:       H100 {}+{} vs Lite {}+{} (ups+parks); routed {} vs {}",
        h.scale_ups, h.scale_downs, l.scale_ups, l.scale_downs, h.routed, l.routed
    );

    // Per-tenant SLO headline: the priority classes must come apart
    // under the diurnal peak — interactive attainment preserved while the
    // best-effort scavenger is shed first.
    for r in &reports {
        let find = |class: PriorityClass| r.per_tenant.iter().find(|t| t.priority == class.label());
        let (Some(interactive), Some(best_effort)) = (
            find(PriorityClass::Interactive),
            find(PriorityClass::BestEffort),
        ) else {
            continue;
        };
        eprintln!(
            "#   {}: interactive '{}' TTFT attainment {:.4}; best-effort '{}' shed {}/{} \
             ({:.1}%) — admission sheds the scavenger first",
            r.gpu,
            interactive.name,
            interactive.ttft_attainment,
            best_effort.name,
            best_effort.shed,
            best_effort.arrived,
            if best_effort.arrived > 0 {
                100.0 * best_effort.shed as f64 / best_effort.arrived as f64
            } else {
                0.0
            },
        );
    }

    if a.bal.enabled {
        // The two-level headline: the same skewed fleets with the
        // fleet-scope balancer stripped — what cell isolation costs when
        // demand is uneven, in interactive SLO and energy per token.
        eprintln!("# balanced vs isolated (same skewed demand, same cells, balancer off):");
        for ((name, cfg), balanced) in fleets.iter().zip(&reports) {
            let mut iso = cfg.clone();
            if let Some(c) = iso.ctrl.as_mut() {
                c.balancer = None;
            }
            iso.telemetry = TelemetryConfig::default();
            let isolated = match run(&iso, a.common.seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fleet {name} (isolated): {e}");
                    std::process::exit(1);
                }
            };
            let att = |r: &litegpu_fleet::FleetReport| {
                r.interactive_attainment().map_or(f64::NAN, |(t, _)| t)
            };
            eprintln!(
                "#   {name}: interactive TTFT attainment {:.4} vs {:.4} (Δ{:+.4}), \
                 energy/token {:.3} vs {:.3} J, completed {} vs {}, \
                 e2e p99 {:.3} vs {:.3} s",
                att(balanced),
                att(&isolated),
                att(balanced) - att(&isolated),
                balanced.energy_per_token_j,
                isolated.energy_per_token_j,
                balanced.completed,
                isolated.completed,
                balanced.e2e_p99_s,
                isolated.e2e_p99_s,
            );
            if let Some(b) = balanced.balancer.as_ref() {
                eprintln!(
                    "#   {name}: {} requests spilled in {} cohorts over {} flow edges, \
                     {} quota-clamped",
                    b.spilled_out,
                    b.spilled_cohorts,
                    b.flow.len(),
                    b.quota_clamped,
                );
            }
        }
    }

    if a.dvfs {
        // The DVFS twins: same fleets, same seed, serving-time clock
        // scaling on. The headline is the energy-vs-latency frontier —
        // energy-per-token bought without giving up interactive SLO
        // attainment versus the nominal-clock runs above.
        let mut dvfs_reports = Vec::new();
        for (name, cfg) in &fleets {
            let mut dcfg = cfg.clone();
            dcfg.ctrl = dcfg.ctrl.map(|c| c.with_dvfs());
            let report = match run(&dcfg, a.common.seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fleet {name} (dvfs): {e}");
                    std::process::exit(1);
                }
            };
            eprintln!("# {name}+dvfs: {}", report.summary());
            eprintln!("#   {}", report.dvfs_summary());
            let dir = litegpu_bench::experiments_dir();
            if std::fs::create_dir_all(&dir).is_ok() {
                let _ =
                    std::fs::write(dir.join(format!("ctrl_{name}_dvfs.json")), report.to_json());
            }
            if !a.quiet_json {
                println!("{}", report.to_json());
            }
            dvfs_reports.push(report);
        }
        // NaN (not a vacuous 1.0) if a workload ever lacks an
        // interactive tenant — a fabricated attainment would be worse
        // than an obviously-missing one.
        let interactive = |r: &litegpu_fleet::FleetReport| {
            r.interactive_attainment().unwrap_or((f64::NAN, f64::NAN))
        };
        eprintln!("# DVFS headline (clock-aware serving vs nominal clocks, same fleets):");
        for ((name, _), (nominal, dvfs)) in fleets.iter().zip(reports.iter().zip(&dvfs_reports)) {
            let d = dvfs.dvfs.as_ref().expect("dvfs run has a dvfs section");
            let (nt, nb) = interactive(nominal);
            let (dt, db) = interactive(dvfs);
            eprintln!(
                "#   {name}: energy/token {:.3} -> {:.3} J ({:+.1}%), mean clock {:.3} \
                 ({:.0}% of live ticks down-clocked), interactive TTFT attainment \
                 {nt:.4} -> {dt:.4} (Δ{:+.4}), TBT {nb:.4} -> {db:.4}",
                nominal.energy_per_token_j,
                dvfs.energy_per_token_j,
                100.0 * (dvfs.energy_per_token_j / nominal.energy_per_token_j - 1.0),
                d.mean_clock,
                100.0 * d.downclocked_share,
                dt - nt,
            );
        }
        let (hd, ld) = (&dvfs_reports[0], &dvfs_reports[1]);
        eprintln!(
            "#   H100 vs Lite energy/token under DVFS: {:.3} J vs {:.3} J ({:.2}x) at \
             interactive TTFT attainment {:.4} vs {:.4} — the per-unit clock (and power) \
             granularity §3 argues for, now priced into serving",
            hd.energy_per_token_j,
            ld.energy_per_token_j,
            ratio(hd.energy_per_token_j, ld.energy_per_token_j),
            interactive(hd).0,
            interactive(ld).0,
        );
    }

    if let Some(target) = a.spares_target {
        eprintln!("# spare-provisioning sweep to availability >= {target}:");
        for (name, cfg) in &fleets {
            match spares_for_target(cfg, target, a.max_spares, a.common.seed) {
                Ok(found) => eprintln!(
                    "#   {name}: {} spare(s)/cell -> availability {:.5}, overhead {:.2}% of fleet GPUs",
                    found.spares_per_cell,
                    found.report.availability,
                    found.report.spare_overhead * 100.0
                ),
                Err(e) => eprintln!("#   {name}: {e}"),
            }
        }
    }
}
