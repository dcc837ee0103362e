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
//! a fixed shard shape. `sim_tco --help` lists every flag with its
//! default.
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

use litegpu_bench::cli::{self, Balancer, Run};
use litegpu_bench::fleet_pair::pair_designs;
use litegpu_bench::write_artifact;
use litegpu_tco::{evaluate_sweep_with, smoke_grid, standard_grid, SweepBase, TcoModel, TcoReport};

litegpu_bench::flags! {
    /// `sim_tco`'s flags.
    struct Args {
        equiv: u32 = "--equiv" "N" "24" smoke "8" "fleet size in H100-equivalents",
        rate: f64 = "--rate" "R" "2" "requests/s per H100-equivalent",
        hours: f64 = "--hours" "H" "1" smoke "0.25" "simulated horizon, hours",
        accel: f64 = "--accel" "A" "2000" "failure-rate acceleration",
        grid: String = "--grid" "standard|smoke" "standard" smoke "smoke" "the design grid",
        usd_per_kwh: f64 = "--usd-per-kwh" "X" "0.08" "energy tariff, $/kWh",
        amort_years: f64 = "--amort-years" "Y" "4" "capex amortization, years",
        series: Option<String> = "--series" "PATH" "" "write the frontier as CSV",
        ..run: Run,
        ..bal: Balancer,
    }
}

/// The Pareto frontier, cost-ascending.
fn print_frontier(report: &TcoReport) {
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
}

fn main() {
    let (a, given) = cli::parse::<Args>(&[]);
    a.bal.warn_if_ignored(&given);
    let designs = match a.grid.as_str() {
        "smoke" => smoke_grid(),
        _ => standard_grid(),
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
    let threads = a.run.threads();
    let start = std::time::Instant::now();
    // The per-candidate hook stacks the fleet-scope policy (skew and/or
    // spill-over balancer) onto every design in the grid; with neither
    // flag it is a no-op and the sweep prices the plain grid.
    let points = cli::or_exit(
        "tco sweep",
        evaluate_sweep_with(&designs, &base, &model, a.run.seed, threads, &|cfg| {
            a.bal.apply(cfg)
        }),
    );
    let report = TcoReport::new(a.run.seed, base, model, points);
    eprintln!(
        "# tco: {} designs evaluated in {:.2} s wall ({} threads)",
        report.points.len(),
        start.elapsed().as_secs_f64(),
        threads,
    );
    print_frontier(&report);

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

    if let Some(path) = &a.series {
        write_artifact("series", path, &report.frontier_csv());
    }
    a.run.emit_json("tco.json", &report.to_json());
}
