//! Integration tests for the TCO frontier tentpole: the smoke sweep
//! covers every design axis, Pareto membership is exactly the
//! non-dominated set, per-point cost breakdowns conserve (parts sum to
//! the total), SLO-token accounting is bounded by the raw books, and
//! the whole report is byte-identical at any thread count.

use litegpu_repro::tco::{evaluate_sweep, pareto, smoke_grid, SweepBase, TcoModel, TcoReport};

fn base() -> SweepBase {
    SweepBase {
        equiv_instances: 8,
        rate_per_equiv: 2.0,
        hours: 0.25,
        accel: 2_000.0,
    }
}

fn report(threads: u32) -> TcoReport {
    let designs = smoke_grid();
    let model = TcoModel::paper_default();
    let points = evaluate_sweep(&designs, &base(), &model, 42, threads).expect("sweep");
    TcoReport::new(42, base(), model, points)
}

#[test]
fn smoke_sweep_covers_the_design_axes() {
    let r = report(2);
    assert!(
        r.points.len() >= 20,
        "the smoke grid must evaluate at least 20 designs, got {}",
        r.points.len()
    );
    let axis = |f: fn(&litegpu_repro::tco::DesignPoint) -> u32| {
        let mut v: Vec<u32> = r.points.iter().map(|p| f(&p.design)).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    assert!(axis(|d| d.die_divisor) >= 2, "at least two die sizes");
    assert!(axis(|d| d.spare_units) >= 2, "at least two spare policies");
    assert!(axis(|d| d.split as u32) == 2, "mono and split serving");
    assert!(axis(|d| d.dvfs as u32) == 2, "DVFS off and on");
    // Every point was actually simulated and priced.
    for p in &r.points {
        assert!(p.generated_tokens > 0, "{}: no tokens generated", p.label);
        assert!(p.total_usd > 0.0, "{}: costs nothing", p.label);
        assert!(
            p.usd_per_mtoken.is_some(),
            "{}: priced points carry $/Mtoken",
            p.label
        );
    }
}

#[test]
fn frontier_is_exactly_the_non_dominated_set() {
    let r = report(2);
    assert!(!r.frontier.is_empty(), "a priced sweep has a frontier");
    let dominates = |a: usize, b: usize| -> bool {
        let (pa, pb) = (&r.points[a], &r.points[b]);
        let (ca, cb) = (pa.usd_per_mtoken.unwrap(), pb.usd_per_mtoken.unwrap());
        ca <= cb && pa.slo_share >= pb.slo_share && (ca < cb || pa.slo_share > pb.slo_share)
    };
    let on: Vec<usize> = r.frontier.iter().map(|&i| i as usize).collect();
    // No frontier point dominates another frontier point.
    for &i in &on {
        assert!(
            r.points[i].on_frontier,
            "frontier flag mirrors the index list"
        );
        for &j in &on {
            assert!(
                i == j || !dominates(i, j),
                "{} dominates fellow frontier point {}",
                r.points[i].label,
                r.points[j].label
            );
        }
    }
    // Every off-frontier point is dominated by some frontier point.
    for (i, p) in r.points.iter().enumerate() {
        if on.contains(&i) {
            continue;
        }
        assert!(!p.on_frontier);
        assert!(
            on.iter().any(|&j| dominates(j, i)),
            "{} is undominated yet off the frontier",
            p.label
        );
    }
    // The standalone pareto() helper agrees with the report.
    assert_eq!(pareto(&r.points), on, "pareto() must match TcoReport");
}

#[test]
fn breakdowns_conserve_and_books_are_bounded() {
    let r = report(2);
    for p in &r.points {
        let b = &p.breakdown;
        let parts =
            b.silicon_usd + b.spares_usd + b.network_usd + b.provisioning_usd + b.energy_usd;
        assert_eq!(
            p.total_usd.to_bits(),
            parts.to_bits(),
            "{}: breakdown parts must sum exactly to the total",
            p.label
        );
        assert_eq!(p.total_usd.to_bits(), b.total_usd().to_bits());
        for (name, part) in [
            ("silicon", b.silicon_usd),
            ("spares", b.spares_usd),
            ("network", b.network_usd),
            ("provisioning", b.provisioning_usd),
            ("energy", b.energy_usd),
        ] {
            assert!(
                part.is_finite() && part >= 0.0,
                "{}: {name} line must be a finite non-negative price",
                p.label
            );
        }
        // SLO-compliant tokens never exceed the raw generation books,
        // and the $/Mtoken quote re-derives from them.
        assert!(p.slo_tokens <= p.generated_tokens, "{}", p.label);
        assert!((0.0..=1.0).contains(&p.slo_share), "{}", p.label);
        let quote = p.usd_per_mtoken.unwrap();
        let expect = p.total_usd / (p.slo_tokens as f64 / 1e6);
        assert!(
            (quote - expect).abs() < 1e-12 * expect.abs().max(1.0),
            "{}: quote {quote} != {expect}",
            p.label
        );
    }
}

#[test]
fn report_is_byte_identical_at_any_thread_count() {
    let one = report(1);
    for threads in [2, 8] {
        let many = report(threads);
        assert_eq!(one.points.len(), many.points.len());
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "TcoReport JSON must not depend on threads ({threads})"
        );
        assert_eq!(one.frontier_csv(), many.frontier_csv());
    }
    // The headline compares the cheapest of each die family.
    let h = one.headline.expect("both families priced");
    assert!(h.h100_usd_per_mtoken > 0.0 && h.lite_usd_per_mtoken > 0.0);
    assert!((h.lite_over_h100 - h.lite_usd_per_mtoken / h.h100_usd_per_mtoken).abs() < 1e-12);
}
