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
//! `sim_chaos --help` lists every flag with its default.
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

use litegpu_bench::cli::{self, Balancer, Engine};
use litegpu_chaos::{outcome, run_campaign_full, Campaign, CampaignKind, ChaosReport, DomainPlan};
use litegpu_fleet::{FleetConfig, FleetReport};

litegpu_bench::flags! {
    /// `sim_chaos`'s flags.
    struct Args {
        campaign: String = "--campaign" "rack|power|partition|thermal|drain|all" "all"
            "the campaign kind to sweep, or all five",
        instances: u32 = "--instances" "N" "96" smoke "24" "H100 instances (the Lite fleet gets 4x)",
        hours: f64 = "--hours" "H" "4" smoke "0.5" "simulated horizon, hours",
        rate: f64 = "--rate" "R" "2" "H100 requests/s per instance (Lite carries a quarter)",
        accel: f64 = "--accel" "A" "2000" smoke "10000" "failure-rate acceleration",
        events: u32 = "--events" "N" "4" smoke "2" "events per campaign",
        duration: f64 = "--duration" "S" "600" smoke "300" "seconds per event",
        intensity: f64 = "--intensity" "F" "0.5" "event intensity",
        rack_kw: f64 = "--rack-kw" "K" "10" "rack power, kW",
        racks_per_domain: u32 = "--racks-per-domain" "N" "4" "racks per power domain",
        series: bool = "--series" "" ""
            "write each campaign's per-fleet series to target/experiments/",
        ..engine: Engine,
        ..bal: Balancer,
    }
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
        cfg.telemetry = a.engine.telemetry(a.series);
        // Skew + balancer attach per fleet so each gets multipliers
        // sized to its own cell count.
        a.bal.apply(cfg);
    }
    pair
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
    let (a, given) = cli::parse::<Args>(&[]);
    a.bal.warn_if_ignored(&given);
    // The parser accepts only the slugs and `all`, which is none of them.
    let kinds = match CampaignKind::from_slug(&a.campaign) {
        Some(kind) => vec![kind],
        None => CampaignKind::ALL.to_vec(),
    };
    let plan = DomainPlan {
        rack_kw: a.rack_kw,
        racks_per_power_domain: a.racks_per_domain,
    };
    let run = |name: &str, cfg: &FleetConfig, camp: &Campaign| {
        let (shards, threads) = a.engine.layout(cfg);
        let what = format!("campaign {} / fleet {name}", camp.kind.label());
        cli::or_exit(
            &what,
            run_campaign_full(cfg, &plan, camp, a.engine.run.seed, shards, threads),
        )
    };
    let [(_, h100), (_, lite)] = fleet_pair(&a);
    for kind in kinds {
        let camp = Campaign {
            kind,
            events: a.events,
            duration_s: a.duration,
            intensity: a.intensity,
        };
        let run_h = run("h100", &h100, &camp);
        let run_l = run("lite", &lite, &camp);
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
            a.engine.run.seed,
            vec![outcome("h100", rh), outcome("lite", rl)],
        );
        a.engine
            .run
            .emit_json(&format!("chaos_{}.json", kind.slug()), &report.to_json());
    }
}
