//! The sweep driver and the Pareto frontier: evaluate every candidate,
//! prune dominated designs, and render the report.
//!
//! Parallelism follows the fleet engine's determinism discipline, one
//! level up: candidates are pulled off a shared atomic counter by a
//! work-stealing pool, but each candidate's simulation runs at a fixed
//! shard/thread shape (`num_cells()` shards, one thread) and results are
//! reassembled into design order before any aggregation — so the
//! [`TcoReport`] bytes are identical at any `threads` setting, and
//! `tests/tco_frontier.rs` compares them at 1/2/8.

use crate::design::{DesignPoint, SweepBase};
use crate::model::{breakdown_for, slo_tokens, CostBreakdown, TcoModel};
use crate::Result;
use litegpu_fleet::FleetConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One evaluated design: the simulated outcome and its price.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrontierPoint {
    /// The candidate design.
    pub design: DesignPoint,
    /// Compact design label (`div4-cell8-sp2-split-dvfs`).
    pub label: String,
    /// GPU name the divisor resolved to.
    pub gpu: String,
    /// Model instances simulated.
    pub instances: u32,
    /// Repair cells.
    pub cells: u32,
    /// Hot spares fleet-wide.
    pub spares: u32,
    /// Fraction of instance-time up.
    pub availability: f64,
    /// Output tokens generated.
    pub generated_tokens: u64,
    /// Tokens that met their tenant's SLOs (the $/token denominator).
    pub slo_tokens: u64,
    /// SLO-compliant share of generated tokens (0 when none generated).
    pub slo_share: f64,
    /// Fleet energy over the horizon, joules (integer books).
    pub energy_j: u64,
    /// Energy per generated token, J/token.
    pub energy_per_token_j: f64,
    /// Horizon-share costs by layer, USD.
    pub breakdown: CostBreakdown,
    /// Total horizon-share cost, USD (sum of the breakdown parts).
    pub total_usd: f64,
    /// Dollars per million SLO-compliant tokens; `None` when the
    /// candidate delivered no compliant tokens (infinite cost).
    pub usd_per_mtoken: Option<f64>,
    /// Whether this point survives Pareto pruning (cost vs. SLO share).
    pub on_frontier: bool,
}

/// Evaluates one candidate: configure, simulate, price. `tweak` runs
/// after the design builds its fleet config — the hook the bench CLI
/// uses to stack fleet-scope policy (demand skew, spill-over balancer)
/// onto every candidate without growing the design grid itself.
fn evaluate_one(
    design: &DesignPoint,
    base: &SweepBase,
    model: &TcoModel,
    seed: u64,
    tweak: &(dyn Fn(&mut FleetConfig) + Sync),
) -> Result<FrontierPoint> {
    let mut cfg = design.fleet_config(base)?;
    tweak(&mut cfg);
    cfg.validate()?;
    // Fixed shard/thread shape: outer sweep parallelism is the only
    // threading, so per-candidate results cannot depend on the pool size.
    let report = litegpu_fleet::run_sharded(&cfg, seed, cfg.num_cells(), 1)?;
    let breakdown = breakdown_for(model, design.die_divisor, &cfg, &report)?;
    let total_usd = breakdown.total_usd();
    let slo = slo_tokens(&report);
    let slo_share = if report.generated_tokens == 0 {
        0.0
    } else {
        slo as f64 / report.generated_tokens as f64
    };
    let usd_per_mtoken = if slo == 0 {
        None
    } else {
        Some(total_usd / slo as f64 * 1e6)
    };
    Ok(FrontierPoint {
        design: *design,
        label: design.label(),
        gpu: report.gpu.clone(),
        instances: report.instances,
        cells: report.cells,
        spares: report.spares,
        availability: report.availability,
        generated_tokens: report.generated_tokens,
        slo_tokens: slo,
        slo_share,
        energy_j: report.energy_j,
        energy_per_token_j: report.energy_per_token_j,
        breakdown,
        total_usd,
        usd_per_mtoken,
        on_frontier: false,
    })
}

/// Evaluates every design over `threads` workers and marks the Pareto
/// frontier. Results are in design order and byte-stable at any thread
/// count.
pub fn evaluate_sweep(
    designs: &[DesignPoint],
    base: &SweepBase,
    model: &TcoModel,
    seed: u64,
    threads: u32,
) -> Result<Vec<FrontierPoint>> {
    evaluate_sweep_with(designs, base, model, seed, threads, &|_| {})
}

/// [`evaluate_sweep`] with a per-candidate config hook: `tweak` mutates
/// each candidate's `FleetConfig` after the design point builds it (and
/// before validation), so callers can price the same grid under
/// fleet-scope policy — e.g. skewed demand plus the spill-over
/// balancer. The hook must be deterministic; results stay in design
/// order and byte-stable at any thread count.
pub fn evaluate_sweep_with(
    designs: &[DesignPoint],
    base: &SweepBase,
    model: &TcoModel,
    seed: u64,
    threads: u32,
    tweak: &(dyn Fn(&mut FleetConfig) + Sync),
) -> Result<Vec<FrontierPoint>> {
    model.validate()?;
    base.validate()?;
    let n = designs.len();
    let workers = (threads.max(1) as usize).min(n.max(1));
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, Result<FrontierPoint>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, evaluate_one(&designs[i], base, model, seed, tweak)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tco sweep worker panicked"))
            .collect()
    });
    // Reassemble into design order, then surface the first error (by
    // design index, not completion order — identical at any pool size).
    let mut slots: Vec<Option<Result<FrontierPoint>>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let mut points = Vec::with_capacity(n);
    for slot in slots {
        points.push(slot.expect("every design index visited")?);
    }
    for i in pareto(&points) {
        points[i].on_frontier = true;
    }
    Ok(points)
}

/// Indices of the Pareto-efficient points (minimize `usd_per_mtoken`,
/// maximize `slo_share`), sorted by cost ascending, then share
/// descending, then index. Points that delivered no compliant tokens
/// never make the frontier.
pub fn pareto(points: &[FrontierPoint]) -> Vec<usize> {
    let priced: Vec<(usize, f64, f64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.usd_per_mtoken.map(|c| (i, c, p.slo_share)))
        .collect();
    let mut frontier: Vec<(usize, f64, f64)> = priced
        .iter()
        .filter(|(i, cost, share)| {
            !priced.iter().any(|(j, c2, s2)| {
                j != i && *c2 <= *cost && *s2 >= *share && (*c2 < *cost || *s2 > *share)
            })
        })
        .copied()
        .collect();
    frontier.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap()
            .then(b.2.partial_cmp(&a.2).unwrap())
            .then(a.0.cmp(&b.0))
    });
    frontier.into_iter().map(|(i, _, _)| i).collect()
}

/// The best (cheapest per SLO-token) H100-vs-Lite comparison a sweep
/// produced.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Headline {
    /// Best monolithic-baseline design label (die divisor 1).
    pub h100: String,
    /// Its cost, USD per million SLO-compliant tokens.
    pub h100_usd_per_mtoken: f64,
    /// Best Lite design label (die divisor > 1).
    pub lite: String,
    /// Its cost, USD per million SLO-compliant tokens.
    pub lite_usd_per_mtoken: f64,
    /// Lite cost as a fraction of H100 cost (< 1 means Lite wins).
    pub lite_over_h100: f64,
}

/// The full sweep result: every point, the frontier order, the headline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TcoReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Simulation seed every candidate ran under.
    pub seed: u64,
    /// Shared sweep base (fleet size, demand, horizon, acceleration).
    pub base: SweepBase,
    /// The economic model candidates were priced under.
    pub model: TcoModel,
    /// Every evaluated design, in sweep order.
    pub points: Vec<FrontierPoint>,
    /// Indices into `points` of the Pareto frontier, cost-ascending.
    pub frontier: Vec<u32>,
    /// Best H100-vs-Lite comparison, when both sides priced.
    pub headline: Option<Headline>,
}

impl TcoReport {
    /// Assembles the report: frontier order and headline from the
    /// evaluated points.
    pub fn new(seed: u64, base: SweepBase, model: TcoModel, points: Vec<FrontierPoint>) -> Self {
        let frontier = pareto(&points).into_iter().map(|i| i as u32).collect();
        let headline = Self::headline_of(&points);
        Self {
            schema: "litegpu.tco/1".to_string(),
            seed,
            base,
            model,
            points,
            frontier,
            headline,
        }
    }

    /// The cheapest priced point satisfying `pick`, by
    /// (cost, label) — the label tie-break keeps selection deterministic.
    fn best(
        points: &[FrontierPoint],
        pick: impl Fn(&FrontierPoint) -> bool,
    ) -> Option<&FrontierPoint> {
        points
            .iter()
            .filter(|p| pick(p) && p.usd_per_mtoken.is_some())
            .min_by(|a, b| {
                a.usd_per_mtoken
                    .partial_cmp(&b.usd_per_mtoken)
                    .unwrap()
                    .then(a.label.cmp(&b.label))
            })
    }

    fn headline_of(points: &[FrontierPoint]) -> Option<Headline> {
        let h = Self::best(points, |p| p.design.die_divisor == 1)?;
        let l = Self::best(points, |p| p.design.die_divisor > 1)?;
        let (hc, lc) = (h.usd_per_mtoken.unwrap(), l.usd_per_mtoken.unwrap());
        Some(Headline {
            h100: h.label.clone(),
            h100_usd_per_mtoken: hc,
            lite: l.label.clone(),
            lite_usd_per_mtoken: lc,
            lite_over_h100: lc / hc,
        })
    }

    /// Deterministic pretty-JSON rendering (byte-identical for identical
    /// reports).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// The frontier as CSV (one row per frontier point, cost-ascending),
    /// fixed-precision so the bytes are deterministic.
    pub fn frontier_csv(&self) -> String {
        let mut out = String::from(
            "idx,label,gpu,die_divisor,cell_units,spare_units,serving,dvfs,\
             usd_per_mtoken,slo_share,availability,silicon_usd,spares_usd,\
             network_usd,provisioning_usd,energy_usd,total_usd\n",
        );
        for &i in &self.frontier {
            let p = &self.points[i as usize];
            let b = &p.breakdown;
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                p.label,
                p.gpu,
                p.design.die_divisor,
                p.design.cell_units,
                p.design.spare_units,
                if p.design.split { "split" } else { "mono" },
                if p.design.dvfs { "dvfs" } else { "fixed" },
                p.usd_per_mtoken.unwrap_or(f64::NAN),
                p.slo_share,
                p.availability,
                b.silicon_usd,
                b.spares_usd,
                b.network_usd,
                b.provisioning_usd,
                b.energy_usd,
                p.total_usd,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(cost: Option<f64>, share: f64, divisor: u32) -> FrontierPoint {
        FrontierPoint {
            design: DesignPoint {
                die_divisor: divisor,
                cell_units: 8,
                spare_units: 1,
                split: false,
                dvfs: false,
            },
            label: format!("div{divisor}-c{cost:?}-s{share}"),
            gpu: "X".into(),
            instances: 1,
            cells: 1,
            spares: 0,
            availability: 1.0,
            generated_tokens: 100,
            slo_tokens: (share * 100.0) as u64,
            slo_share: share,
            energy_j: 1,
            energy_per_token_j: 0.01,
            breakdown: CostBreakdown {
                silicon_usd: cost.unwrap_or(0.0),
                spares_usd: 0.0,
                network_usd: 0.0,
                provisioning_usd: 0.0,
                energy_usd: 0.0,
            },
            total_usd: cost.unwrap_or(0.0),
            usd_per_mtoken: cost,
            on_frontier: false,
        }
    }

    #[test]
    fn pareto_prunes_dominated_points() {
        let pts = vec![
            synthetic(Some(1.0), 0.9, 1),  // frontier: cheapest
            synthetic(Some(2.0), 0.95, 1), // frontier: better share
            synthetic(Some(3.0), 0.9, 4),  // dominated by 0 and 1
            synthetic(Some(2.5), 0.99, 4), // frontier: best share
            synthetic(None, 1.0, 4),       // unpriced: never on frontier
        ];
        assert_eq!(pareto(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn equal_points_both_survive() {
        let pts = vec![synthetic(Some(1.0), 0.9, 1), synthetic(Some(1.0), 0.9, 4)];
        assert_eq!(pareto(&pts), vec![0, 1]);
    }

    #[test]
    fn headline_compares_cheapest_of_each_family() {
        let pts = vec![
            synthetic(Some(4.0), 0.9, 1),
            synthetic(Some(3.0), 0.8, 1),
            synthetic(Some(2.0), 0.9, 4),
            synthetic(Some(2.5), 0.99, 4),
        ];
        let r = TcoReport::new(
            1,
            SweepBase {
                equiv_instances: 1,
                rate_per_equiv: 1.0,
                hours: 1.0,
                accel: 0.0,
            },
            TcoModel::paper_default(),
            pts,
        );
        let h = r.headline.clone().expect("both families priced");
        assert_eq!(h.h100_usd_per_mtoken, 3.0);
        assert_eq!(h.lite_usd_per_mtoken, 2.0);
        assert!((h.lite_over_h100 - 2.0 / 3.0).abs() < 1e-12);
        // Frontier points are flagged and the CSV has one row each.
        let csv = r.frontier_csv();
        assert_eq!(csv.lines().count(), 1 + r.frontier.len());
        assert!(csv.starts_with("idx,label,gpu,"));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let base = SweepBase {
            equiv_instances: 4,
            rate_per_equiv: 2.0,
            hours: 0.1,
            accel: 2_000.0,
        };
        let designs = [
            DesignPoint {
                die_divisor: 1,
                cell_units: 4,
                spare_units: 1,
                split: false,
                dvfs: false,
            },
            DesignPoint {
                die_divisor: 4,
                cell_units: 4,
                spare_units: 1,
                split: true,
                dvfs: true,
            },
            DesignPoint {
                die_divisor: 2,
                cell_units: 4,
                spare_units: 0,
                split: false,
                dvfs: true,
            },
        ];
        let m = TcoModel::paper_default();
        let one = evaluate_sweep(&designs, &base, &m, 13, 1).unwrap();
        let many = evaluate_sweep(&designs, &base, &m, 13, 8).unwrap();
        assert_eq!(one, many);
        let r1 = TcoReport::new(13, base, m, one);
        let r2 = TcoReport::new(13, base, m, many);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.frontier_csv(), r2.frontier_csv());
        assert!(!r1.frontier.is_empty());
        assert!(r1.points.iter().filter(|p| p.on_frontier).count() == r1.frontier.len());
    }
}
