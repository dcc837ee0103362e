//! The end-to-end answer: dollars per million SLO-compliant tokens
//! across the Lite-GPU design space.
//!
//! Sweeps the `litegpu-tco` design grid — die divisor × cell shape ×
//! spare policy × {mono, split} serving × {DVFS off, on} — simulating
//! every candidate fleet under the standard multi-tenant workload and
//! pricing it end to end: yield-adjusted package capex (`litegpu-fab`),
//! fabric attach capex (`litegpu-net`), power provisioning + host
//! amortization (`litegpu-cluster`), spare silicon, and the simulator's
//! integer-joule energy books at a $/kWh tariff. Prints the Pareto
//! frontier (cost vs. SLO-token share), the H100-vs-Lite headline, and
//! the canonical silicon-equal pair (the same two designs `sim_chaos`
//! studies, via the shared `fleet_pair` helper).
//!
//! Emits one deterministic `TcoReport` JSON to stdout and
//! `target/experiments/tco.json`. The same seed produces byte-identical
//! JSON at any `--threads` setting — candidates are work-stolen by the
//! pool but reassembled in design order, and each candidate simulates at
//! a fixed shard shape.
//!
//! ```text
//! sim_tco [--equiv N] [--rate R] [--hours H] [--accel A]
//!         [--seed N] [--threads N] [--grid standard|smoke]
//!         [--usd-per-kwh X] [--amort-years Y]
//!         [--balancer] [--balancer-interval S] [--spill-permille N]
//!         [--hot-factor F] [--quota-headroom F] [--kv-slack-us N]
//!         [--skew HxM]
//!         [--series PATH] [--quiet-json] [--smoke]
//! ```
//!
//! `--balancer` / `--skew HxM` price the whole grid under skewed demand
//! with (or without) the fleet-scope spill-over balancer stacked on each
//! candidate — the $/token cost of cell isolation under uneven load. The
//! five flags after `--balancer` tune it (they need `--balancer`).
//!
//! `--equiv` sizes the fleet in H100-equivalents (divisor-`d` candidates
//! run `d×` the instances at `1/d` the per-instance rate — same silicon,
//! same demand). `--series PATH` writes the frontier as CSV. `--smoke`
//! shrinks everything for CI.

use litegpu_bench::fleet_pair::pair_designs;
use litegpu_bench::write_artifact;
use litegpu_tco::{evaluate_sweep_with, smoke_grid, standard_grid, SweepBase, TcoModel, TcoReport};

struct Args {
    equiv: u32,
    rate: f64,
    hours: f64,
    accel: f64,
    common: litegpu_bench::cli::CommonArgs,
    bal: litegpu_bench::cli::BalancerArgs,
    grid: String,
    usd_per_kwh: f64,
    amort_years: f64,
    quiet_json: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        equiv: 24,
        rate: 2.0,
        hours: 1.0,
        accel: 2_000.0,
        common: litegpu_bench::cli::CommonArgs::new(&["--seed", "--threads", "--series"]),
        bal: litegpu_bench::cli::BalancerArgs::default(),
        grid: "standard".into(),
        usd_per_kwh: 0.08,
        amort_years: 4.0,
        quiet_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| litegpu_bench::cli::value(&argv, i);
    use litegpu_bench::cli::parsed;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--equiv" => a.equiv = parsed(&flag, value(&mut i)),
            "--rate" => a.rate = parsed(&flag, value(&mut i)),
            "--hours" => a.hours = parsed(&flag, value(&mut i)),
            "--accel" => a.accel = parsed(&flag, value(&mut i)),
            "--grid" => a.grid = value(&mut i),
            "--usd-per-kwh" => a.usd_per_kwh = parsed(&flag, value(&mut i)),
            "--amort-years" => a.amort_years = parsed(&flag, value(&mut i)),
            "--quiet-json" => a.quiet_json = true,
            "--smoke" => {
                a.equiv = 8;
                a.hours = 0.25;
                a.grid = "smoke".into();
            }
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

fn main() {
    let a = parse_args();
    let designs = match a.grid.as_str() {
        "standard" => standard_grid(),
        "smoke" => smoke_grid(),
        other => {
            eprintln!("unknown --grid {other} (expected standard|smoke)");
            std::process::exit(2);
        }
    };
    let base = SweepBase {
        equiv_instances: a.equiv,
        rate_per_equiv: a.rate,
        hours: a.hours,
        accel: a.accel,
    };
    let mut model = TcoModel::paper_default();
    model.usd_per_kwh = a.usd_per_kwh;
    model.amortization_years = a.amort_years;
    let threads = litegpu_bench::fleet_pair::threads_or_auto(a.common.threads);
    let start = std::time::Instant::now();
    // The per-candidate hook stacks the fleet-scope policy (skew and/or
    // spill-over balancer) onto every design in the grid; with neither
    // flag it is a no-op and the sweep prices the plain grid.
    let bal = &a.bal;
    let points =
        match evaluate_sweep_with(&designs, &base, &model, a.common.seed, threads, &|cfg| {
            bal.apply(cfg)
        }) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("tco sweep: {e}");
                std::process::exit(1);
            }
        };
    let report = TcoReport::new(a.common.seed, base, model, points);
    eprintln!(
        "# tco: {} designs evaluated in {:.2} s wall ({} threads)",
        report.points.len(),
        start.elapsed().as_secs_f64(),
        threads,
    );

    // The Pareto frontier, cost-ascending.
    eprintln!(
        "#   {:<28} {:>6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "frontier design",
        "gpus",
        "$/Mtok",
        "slo",
        "avail",
        "sil$",
        "spare$",
        "net$",
        "prov$",
        "kWh$"
    );
    for &i in &report.frontier {
        let p = &report.points[i as usize];
        let b = &p.breakdown;
        eprintln!(
            "#   {:<28} {:>6} {:>12.3} {:>9.4} {:>9.4} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            p.label,
            p.instances + p.spares,
            p.usd_per_mtoken.unwrap_or(f64::NAN),
            p.slo_share,
            p.availability,
            b.silicon_usd,
            b.spares_usd,
            b.network_usd,
            b.provisioning_usd,
            b.energy_usd,
        );
    }

    // The canonical silicon-equal pair — the exact two designs sim_chaos
    // and the availability work study, priced in one unit.
    let pair: Vec<_> = pair_designs()
        .into_iter()
        .filter_map(|(name, d)| {
            report
                .points
                .iter()
                .find(|p| p.design == d)
                .map(|p| (name, p))
        })
        .collect();
    if let [(hn, h), (ln, l)] = pair.as_slice() {
        eprintln!(
            "#   canonical pair: {hn} {} ${:.3}/Mtok vs {ln} {} ${:.3}/Mtok",
            h.label,
            h.usd_per_mtoken.unwrap_or(f64::NAN),
            l.label,
            l.usd_per_mtoken.unwrap_or(f64::NAN),
        );
    }

    match &report.headline {
        Some(h) => eprintln!(
            "#   headline: best H100 {} ${:.3}/Mtok vs best Lite {} ${:.3}/Mtok — Lite at {:.1}% \
             of H100 $/token",
            h.h100,
            h.h100_usd_per_mtoken,
            h.lite,
            h.lite_usd_per_mtoken,
            100.0 * h.lite_over_h100,
        ),
        None => eprintln!("#   headline: no priced H100-vs-Lite comparison"),
    }

    if let Some(path) = &a.common.series {
        write_artifact("series", path, &report.frontier_csv());
    }
    let json = report.to_json();
    if !a.quiet_json {
        println!("{json}");
    }
    let dir = litegpu_bench::experiments_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("tco.json"), &json);
    }
}
