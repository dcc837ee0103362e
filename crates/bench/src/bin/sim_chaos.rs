//! Chaos-campaign sweeps over the fleet simulator: correlated failures,
//! repair crews, and lifecycle events, H100-class vs Lite-GPU fleets.
//!
//! Sweeps every campaign kind (rack outages, power-domain outages,
//! network partitions, thermal excursions, rolling drain — pick one with
//! `--campaign`) over a pair of silicon-equal fleets built from
//! single-GPU Llama3-8B instances: N H100 instances in 8-wide cells vs
//! 4N Lite instances in 32-wide cells, sharing the same 10 kW racks and
//! the same spare *silicon* (1 H100 spare per cell ≙ 4 Lite spares).
//! Both fleets therefore occupy the same number of racks, and the seeded
//! campaign samples the *same* rack indices for both — the only
//! difference is how much capacity each loss strands.
//!
//! Per campaign the binary prints an H100-vs-Lite table (availability,
//! fleet-wide and per-tenant SLO attainment, energy, spares consumed,
//! MTTR) to stderr and emits one deterministic `ChaosReport` JSON to
//! stdout and `target/experiments/chaos_<kind>.json`. The same seed
//! produces byte-identical JSON at any `--shards`/`--threads` setting.
//!
//! ```text
//! sim_chaos [--campaign rack|power|partition|thermal|drain|all]
//!           [--instances N] [--hours H] [--rate R] [--accel A]
//!           [--events N] [--duration S] [--intensity F]
//!           [--rack-kw K] [--racks-per-domain N]
//!           [--seed N] [--shards N] [--threads N]
//!           [--series] [--series-dt US]
//!           [--balancer] [--balancer-interval S] [--spill-permille N]
//!           [--hot-factor F] [--quota-headroom F] [--kv-slack-us N]
//!           [--skew HxM]
//!           [--smoke] [--quiet-json]
//! ```
//!
//! `--balancer` attaches the fleet-scope spill-over balancer to both
//! fleets (each otherwise uncontrolled), and `--skew HxM` skews the
//! per-cell demand — together they show whether cross-cell spill-over
//! keeps absorbing correlated outages when demand is uneven. The five
//! flags after `--balancer` tune it (they need `--balancer`).
//!
//! `--instances` sizes the H100 fleet (the Lite fleet gets 4x). `--rate`
//! is the H100 per-instance request rate (Lite instances carry a quarter
//! each, so total demand matches). `--smoke` shrinks everything for CI.
//!
//! `--series` records the recovery timeline the end-of-run table drops:
//! a deterministic availability/queue/repair time series per campaign
//! and fleet, sampled every `--series-dt` integer µs of simulated time
//! (default 60000000 = 60 s)
//! and written to `target/experiments/chaos_<kind>_<fleet>_series.jsonl`.
//! Availability dips sit exactly inside the campaign's outage windows —
//! `tests/chaos_campaigns.rs` asserts as much.

use litegpu_chaos::{outcome, run_campaign_full, Campaign, CampaignKind, ChaosReport, DomainPlan};
use litegpu_fleet::{FleetConfig, FleetReport, FleetRun, TelemetryConfig};

struct Args {
    campaign: String,
    instances: u32,
    hours: f64,
    rate: f64,
    accel: f64,
    events: u32,
    duration: f64,
    intensity: f64,
    rack_kw: f64,
    racks_per_domain: u32,
    common: litegpu_bench::cli::CommonArgs,
    bal: litegpu_bench::cli::BalancerArgs,
    series: bool,
    quiet_json: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        campaign: "all".into(),
        instances: 96,
        hours: 4.0,
        rate: 2.0,
        accel: 2_000.0,
        events: 4,
        duration: 600.0,
        intensity: 0.5,
        rack_kw: 10.0,
        racks_per_domain: 4,
        common: litegpu_bench::cli::CommonArgs::new(&[
            "--seed",
            "--shards",
            "--threads",
            "--series-dt",
        ]),
        bal: litegpu_bench::cli::BalancerArgs::default(),
        series: false,
        quiet_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| litegpu_bench::cli::value(&argv, i);
    use litegpu_bench::cli::parsed;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--campaign" => a.campaign = value(&mut i),
            "--instances" => a.instances = parsed(&flag, value(&mut i)),
            "--hours" => a.hours = parsed(&flag, value(&mut i)),
            "--rate" => a.rate = parsed(&flag, value(&mut i)),
            "--accel" => a.accel = parsed(&flag, value(&mut i)),
            "--events" => a.events = parsed(&flag, value(&mut i)),
            "--duration" => a.duration = parsed(&flag, value(&mut i)),
            "--intensity" => a.intensity = parsed(&flag, value(&mut i)),
            "--rack-kw" => a.rack_kw = parsed(&flag, value(&mut i)),
            "--racks-per-domain" => a.racks_per_domain = parsed(&flag, value(&mut i)),
            "--series" => a.series = true,
            "--smoke" => {
                a.instances = 24;
                a.hours = 0.5;
                a.accel = 10_000.0;
                a.events = 2;
                a.duration = 300.0;
            }
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
    a.bal.warn_if_ignored();
    a
}

/// The silicon-equal single-GPU pair (H100 vs 4x Lite on the same
/// silicon, demand and rack shape), built by the shared
/// `litegpu_bench::fleet_pair` helper with the control plane stripped —
/// the chaos sweep studies the fixed fleet.
fn fleet_pair(a: &Args) -> [(&'static str, FleetConfig); 2] {
    let base = litegpu_bench::fleet_pair::SweepBase {
        equiv_instances: a.instances,
        rate_per_equiv: a.rate,
        hours: a.hours,
        accel: a.accel,
    };
    let mut pair = litegpu_bench::fleet_pair::pair_configs(&base, false);
    for (_, cfg) in &mut pair {
        // Skew + balancer attach per fleet so each gets multipliers
        // sized to its own cell count.
        a.bal.apply(cfg);
    }
    pair
}

fn run_one(
    name: &str,
    cfg: &FleetConfig,
    camp: &Campaign,
    plan: &DomainPlan,
    a: &Args,
) -> FleetRun {
    let threads = litegpu_bench::fleet_pair::threads_or_auto(a.common.threads);
    let shards = litegpu_bench::fleet_pair::shards_or_cells(a.common.shards, cfg);
    let mut cfg = cfg.clone();
    if a.series {
        cfg.telemetry = TelemetryConfig {
            series_dt_us: a.common.series_dt_us,
            ..TelemetryConfig::default()
        };
    }
    match run_campaign_full(&cfg, plan, camp, a.common.seed, shards, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign {} / fleet {name}: {e}", camp.kind.label());
            std::process::exit(1);
        }
    }
}

fn print_table(camp: &Campaign, rows: &[(&str, &FleetReport)]) {
    eprintln!(
        "# campaign '{}': {} events x {:.0} s (intensity {:.2})",
        camp.kind.label(),
        camp.events,
        camp.duration_s,
        camp.intensity
    );
    eprintln!(
        "#   {:<5} {:>9} {:>9} {:>9} {:>11} {:>7} {:>16} {:>9} {:>9}",
        "fleet",
        "avail",
        "TTFT-SLO",
        "TBT-SLO",
        "energy(MJ)",
        "spares",
        "fail(ind/rk/pw)",
        "MTTR(s)",
        "shed"
    );
    for (name, r) in rows {
        let b = &r.failure_breakdown;
        let (mttr, shed) = r
            .chaos
            .as_ref()
            .map_or((0.0, 0), |c| (c.mttr_s, c.partition_shed));
        eprintln!(
            "#   {:<5} {:>9.4} {:>9.4} {:>9.4} {:>11.2} {:>7} {:>16} {:>9.1} {:>9}",
            name,
            r.availability,
            r.ttft_attainment,
            r.tbt_attainment,
            r.energy_j as f64 / 1e6,
            r.spare_hits,
            format!("{}/{}/{}", b.independent, b.rack, b.power),
            mttr,
            shed,
        );
        for t in &r.per_tenant {
            eprintln!(
                "#         {:<10} ({:<11}) TTFT-SLO {:.4}  TBT-SLO {:.4}",
                t.name, t.priority, t.ttft_attainment, t.tbt_attainment
            );
        }
        if r.balancer.is_some() {
            eprintln!("#         {}", r.balancer_summary());
        }
    }
}

fn main() {
    let a = parse_args();
    let kinds: Vec<CampaignKind> = if a.campaign == "all" {
        CampaignKind::ALL.to_vec()
    } else {
        match CampaignKind::from_slug(&a.campaign) {
            Some(k) => vec![k],
            None => {
                eprintln!(
                    "unknown --campaign {} (expected rack|power|partition|thermal|drain|all)",
                    a.campaign
                );
                std::process::exit(2);
            }
        }
    };
    let plan = DomainPlan {
        rack_kw: a.rack_kw,
        racks_per_power_domain: a.racks_per_domain,
    };
    let [(_, h100), (_, lite)] = fleet_pair(&a);
    for kind in kinds {
        let camp = Campaign {
            kind,
            events: a.events,
            duration_s: a.duration,
            intensity: a.intensity,
        };
        let run_h = run_one("h100", &h100, &camp, &plan, &a);
        let run_l = run_one("lite", &lite, &camp, &plan, &a);
        let (rh, rl) = (&run_h.report, &run_l.report);
        print_table(&camp, &[("h100", rh), ("lite", rl)]);
        // The recovery timeline: one availability series per fleet so
        // the dip/refill around each outage window is inspectable, not
        // just its end-of-run average.
        if a.series {
            let dir = litegpu_bench::experiments_dir();
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("series {}: {e}", dir.display());
                std::process::exit(1);
            }
            for (name, fr) in [("h100", &run_h), ("lite", &run_l)] {
                if let Some(s) = fr.series.as_ref() {
                    let path = dir.join(format!("chaos_{}_{name}_series.jsonl", kind.slug()));
                    litegpu_bench::write_artifact(
                        "series",
                        path.to_str().unwrap_or_default(),
                        &s.to_jsonl(),
                    );
                }
            }
        }
        eprintln!(
            "#   headline: lite availability {:+.4} vs h100 under '{}'",
            rl.availability - rh.availability,
            kind.label()
        );
        let report = ChaosReport::new(
            &camp,
            a.common.seed,
            vec![outcome("h100", rh), outcome("lite", rl)],
        );
        let json = report.to_json();
        if !a.quiet_json {
            println!("{json}");
        }
        let dir = litegpu_bench::experiments_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("chaos_{}.json", kind.slug())), &json);
        }
    }
}
