//! Fleet control-plane head-to-head: a controlled H100 fleet (DVFS-only
//! parking) vs a controlled Lite fleet (per-unit power gating) under the
//! same multi-tenant diurnal demand — the §3 elasticity/energy argument,
//! measured, with per-tenant SLO attainment. `sim_ctrl --help` lists
//! every flag with its default.
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

use litegpu_bench::cli::{self, Balancer, Engine, Shape};
use litegpu_fleet::{spares_for_target, FleetConfig, FleetReport, PriorityClass, TelemetryConfig};

litegpu_bench::flags! {
    /// `sim_ctrl`'s flags.
    struct Args {
        dvfs: bool = "--dvfs" "" "" "also run each fleet under serving-time DVFS",
        series: Option<String> = "--series" "PATH" ""
            "write each fleet's series as JSONL, the fleet's name before the extension",
        ..sweep: SpareSweep,
        ..shape: Shape,
        ..engine: Engine,
        ..bal: Balancer,
    }
}

litegpu_bench::flags! {
    /// The spare-provisioning sweep, off without `--spares-target`.
    struct SpareSweep {
        spares_target: Option<f64> = "--spares-target" "A" ""
            "sweep spares per cell until availability reaches A",
        max_spares: u32 = "--max-spares" "N" "4" "most spares per cell the sweep tries",
    }
}

/// `out.jsonl` → `out_h100.jsonl`: one series file per fleet.
fn series_path(path: &str, name: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}_{name}.{ext}"),
        None => format!("{path}_{name}"),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// The control-plane head-to-head and the per-tenant SLO headline.
fn head_to_head(reports: &[FleetReport], instances: u32) {
    let (h, l) = (&reports[0], &reports[1]);
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
        h.avg_live_instances, l.avg_live_instances, instances
    );
    eprintln!(
        "#   autoscaler:       H100 {}+{} vs Lite {}+{} (ups+parks); routed {} vs {}",
        h.scale_ups, h.scale_downs, l.scale_ups, l.scale_downs, h.routed, l.routed
    );
    // The priority classes must come apart under the diurnal peak —
    // interactive attainment preserved while the best-effort scavenger
    // is shed first.
    for r in reports {
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
}

/// The two-level headline: the same skewed fleets with the fleet-scope
/// balancer stripped — what cell isolation costs when demand is uneven,
/// in interactive SLO and energy per token.
fn balanced_vs_isolated(a: &Args, fleets: &[(&str, FleetConfig)], reports: &[FleetReport]) {
    eprintln!("# balanced vs isolated (same skewed demand, same cells, balancer off):");
    for ((name, cfg), balanced) in fleets.iter().zip(reports) {
        let mut iso = cfg.clone();
        if let Some(c) = iso.ctrl.as_mut() {
            c.balancer = None;
        }
        iso.telemetry = TelemetryConfig::default();
        let isolated = a
            .engine
            .run_fleet(&format!("fleet {name} (isolated)"), &iso)
            .0
            .report;
        let att = |r: &FleetReport| r.interactive_attainment().map_or(f64::NAN, |(t, _)| t);
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

/// The DVFS twins: same fleets, same seed, serving-time clock scaling
/// on. The headline is the energy-vs-latency frontier — energy per
/// token bought without giving up interactive SLO attainment versus the
/// nominal-clock runs.
fn dvfs_twins(a: &Args, fleets: &[(&str, FleetConfig)], nominal: &[FleetReport]) {
    let mut dvfs_reports = Vec::new();
    for (name, cfg) in fleets {
        let mut dcfg = cfg.clone();
        dcfg.ctrl = dcfg.ctrl.map(|c| c.with_dvfs());
        let report = a
            .engine
            .run_fleet(&format!("fleet {name} (dvfs)"), &dcfg)
            .0
            .report;
        eprintln!("# {name}+dvfs: {}", report.summary());
        eprintln!("#   {}", report.dvfs_summary());
        a.engine
            .run
            .emit_json(&format!("ctrl_{name}_dvfs.json"), &report.to_json());
        dvfs_reports.push(report);
    }
    // NaN (not a vacuous 1.0) if a workload ever lacks an interactive
    // tenant — a fabricated attainment would be worse than an
    // obviously-missing one.
    let interactive = |r: &FleetReport| r.interactive_attainment().unwrap_or((f64::NAN, f64::NAN));
    eprintln!("# DVFS headline (clock-aware serving vs nominal clocks, same fleets):");
    for ((name, _), (nominal, dvfs)) in fleets.iter().zip(nominal.iter().zip(&dvfs_reports)) {
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

/// Sweeps each fleet's spares per cell up to `--max-spares` until its
/// availability reaches `target`.
fn spare_sweep(a: &Args, fleets: &[(&str, FleetConfig)], target: f64) {
    eprintln!("# spare-provisioning sweep to availability >= {target}:");
    for (name, cfg) in fleets {
        match spares_for_target(cfg, target, a.sweep.max_spares, a.engine.run.seed) {
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

fn main() {
    let (a, given) = cli::parse::<Args>(&[
        ("--instances", "500"),
        ("--rate", "5"),
        ("--workload", "multi"),
    ]);
    if a.sweep.spares_target.is_none() {
        given.warn_ignored::<SpareSweep>("without --spares-target");
    }
    a.bal.warn_if_ignored(&given);
    let fleets = litegpu_bench::fleet_pair::ctrl_demo_pair().map(|(name, mut cfg)| {
        a.shape.apply(&mut cfg);
        cfg.telemetry = a.engine.telemetry(a.series.is_some());
        // Last: skew multipliers size to the final cell count, and the
        // balancer stacks on the fleet's cell-scope stack.
        a.bal.apply(&mut cfg);
        (name, cfg)
    });
    let mut reports = Vec::new();
    for (name, cfg) in &fleets {
        let (fleet_run, wall) = a.engine.run_fleet(&format!("fleet {name}"), cfg);
        if let (Some(path), Some(s)) = (&a.series, fleet_run.series.as_ref()) {
            litegpu_bench::write_artifact("series", &series_path(path, name), &s.to_jsonl());
        }
        let report = fleet_run.report;
        eprintln!("# {name}: {} ({wall:.2} s wall)", report.summary());
        for line in report.tenant_summary().lines() {
            eprintln!("#   {line}");
        }
        if report.kv_transfer.is_some() {
            eprintln!("#   {}", report.kv_summary());
        }
        if report.balancer.is_some() {
            eprintln!("#   {}", report.balancer_summary());
        }
        a.engine
            .run
            .emit_json(&format!("ctrl_{name}.json"), &report.to_json());
        reports.push(report);
    }
    head_to_head(&reports, a.shape.instances);
    if a.bal.balancer {
        balanced_vs_isolated(&a, &fleets, &reports);
    }
    if a.dvfs {
        dvfs_twins(&a, &fleets, &reports);
    }
    if let Some(target) = a.sweep.spares_target {
        spare_sweep(&a, &fleets, target);
    }
}
