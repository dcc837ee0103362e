//! Die yield models.
//!
//! All classical defect-limited yield models express yield as a function of
//! die area `A` and defect density `D0`. The Lite-GPU paper's §2 claim
//! ("yield rate can be increased by 1.8× when a H100-like compute die area
//! is reduced by 1/4th") is what the Poisson model predicts at
//! `D0 ≈ 0.1 /cm²` — and the other models bracket it.

/// A defect-limited die yield model.
///
/// `yield_fraction(area, d0)` returns the fraction of dies free of killer
/// defects, in `(0, 1]`. `area` is in mm², `d0` in defects/cm² (the industry
/// convention), so internally `A·D0` uses area converted to cm².
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum YieldModel {
    /// Poisson model: `Y = exp(−A·D0)`. Assumes independent point defects;
    /// pessimistic for large dies.
    Poisson,
    /// Murphy's model: `Y = ((1 − exp(−A·D0)) / (A·D0))²`. A Gaussian-ish
    /// compromise widely used in industry calculators.
    Murphy,
    /// Seeds' model: `Y = 1 / (1 + A·D0)`. Optimistic for large dies
    /// (assumes strong defect clustering).
    Seeds,
    /// Bose-Einstein model: `Y = 1 / (1 + A·D0)^n` for `n` critical layers.
    BoseEinstein {
        /// Number of critical mask layers.
        critical_layers: u32,
    },
    /// Negative-binomial model: `Y = (1 + A·D0/α)^(−α)` with clustering
    /// parameter `α` (α→∞ recovers Poisson, α=1 recovers Seeds).
    NegativeBinomial {
        /// Defect clustering parameter, typically 1–5.
        alpha: f64,
    },
}

impl YieldModel {
    /// Yield fraction in `(0, 1]` for a die of `area_mm2` at defect density
    /// `d0_per_cm2`.
    ///
    /// Out-of-domain inputs (non-finite or negative) are clamped to the
    /// nearest meaningful value rather than erroring: yield modeling is used
    /// inside sweeps and optimizers where total functions are much easier to
    /// reason about.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_fab::yield_model::YieldModel;
    /// let y = YieldModel::Poisson.yield_fraction(814.0, 0.1);
    /// assert!((y - 0.443).abs() < 0.005);
    /// ```
    pub fn yield_fraction(&self, area_mm2: f64, d0_per_cm2: f64) -> f64 {
        let area_cm2 = (area_mm2 / 100.0).max(0.0);
        let d0 = d0_per_cm2.max(0.0);
        let ad = area_cm2 * d0;
        let y = match self {
            YieldModel::Poisson => (-ad).exp(),
            YieldModel::Murphy => {
                if ad < 1e-12 {
                    1.0
                } else {
                    let t = (1.0 - (-ad).exp()) / ad;
                    t * t
                }
            }
            YieldModel::Seeds => 1.0 / (1.0 + ad),
            YieldModel::BoseEinstein { critical_layers } => {
                1.0 / (1.0 + ad).powi((*critical_layers).max(1) as i32)
            }
            YieldModel::NegativeBinomial { alpha } => {
                let a = alpha.max(1e-9);
                (1.0 + ad / a).powf(-a)
            }
        };
        y.clamp(0.0, 1.0)
    }

    /// Ratio of small-die yield to big-die yield when the die is split into
    /// `n` equal-area parts.
    ///
    /// This is the quantity behind the paper's "1.8× at 1/4 area" claim.
    pub fn split_yield_gain(&self, area_mm2: f64, d0_per_cm2: f64, n: u32) -> f64 {
        let n = n.max(1) as f64;
        self.yield_fraction(area_mm2 / n, d0_per_cm2) / self.yield_fraction(area_mm2, d0_per_cm2)
    }

    /// All model variants with conventional parameters, for sweep output.
    pub fn standard_suite() -> Vec<(&'static str, YieldModel)> {
        vec![
            ("poisson", YieldModel::Poisson),
            ("murphy", YieldModel::Murphy),
            ("seeds", YieldModel::Seeds),
            (
                "bose-einstein(10)",
                YieldModel::BoseEinstein {
                    critical_layers: 10,
                },
            ),
            (
                "neg-binomial(2)",
                YieldModel::NegativeBinomial { alpha: 2.0 },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const H100_AREA: f64 = 814.0;

    #[test]
    fn poisson_reproduces_paper_gain() {
        // Paper §2: 1.8x yield when an H100-like die is quartered.
        let gain = YieldModel::Poisson.split_yield_gain(H100_AREA, 0.1, 4);
        assert!((gain - 1.8).abs() < 0.05, "gain = {gain}");
    }

    #[test]
    fn all_models_agree_at_zero_defects() {
        for (_, m) in YieldModel::standard_suite() {
            assert!((m.yield_fraction(H100_AREA, 0.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn models_are_ordered_for_large_dies() {
        // Poisson is the most pessimistic pure-area model; Seeds the most
        // optimistic of the single-parameter family.
        let p = YieldModel::Poisson.yield_fraction(H100_AREA, 0.2);
        let m = YieldModel::Murphy.yield_fraction(H100_AREA, 0.2);
        let s = YieldModel::Seeds.yield_fraction(H100_AREA, 0.2);
        assert!(p < m && m < s, "p={p} m={m} s={s}");
    }

    #[test]
    fn negative_binomial_limits() {
        // alpha -> infinity recovers Poisson; alpha = 1 recovers Seeds.
        let nb_big = YieldModel::NegativeBinomial { alpha: 1e7 }.yield_fraction(H100_AREA, 0.1);
        let poisson = YieldModel::Poisson.yield_fraction(H100_AREA, 0.1);
        assert!((nb_big - poisson).abs() < 1e-4);
        let nb_one = YieldModel::NegativeBinomial { alpha: 1.0 }.yield_fraction(H100_AREA, 0.1);
        let seeds = YieldModel::Seeds.yield_fraction(H100_AREA, 0.1);
        assert!((nb_one - seeds).abs() < 1e-12);
    }

    #[test]
    fn bose_einstein_single_layer_is_seeds() {
        let be = YieldModel::BoseEinstein { critical_layers: 1 }.yield_fraction(500.0, 0.15);
        let seeds = YieldModel::Seeds.yield_fraction(500.0, 0.15);
        assert!((be - seeds).abs() < 1e-12);
    }

    #[test]
    fn murphy_small_ad_limit_is_one() {
        assert!((YieldModel::Murphy.yield_fraction(1e-9, 1e-9) - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn yield_in_unit_interval(area in 1.0..5000.0f64, d0 in 0.0..5.0f64) {
            for (_, m) in YieldModel::standard_suite() {
                let y = m.yield_fraction(area, d0);
                prop_assert!((0.0..=1.0).contains(&y));
            }
        }

        #[test]
        fn yield_monotone_decreasing_in_area(
            a1 in 1.0..2000.0f64,
            delta in 1.0..2000.0f64,
            d0 in 0.01..2.0f64,
        ) {
            for (_, m) in YieldModel::standard_suite() {
                let y1 = m.yield_fraction(a1, d0);
                let y2 = m.yield_fraction(a1 + delta, d0);
                prop_assert!(y2 <= y1 + 1e-12);
            }
        }

        #[test]
        fn yield_monotone_decreasing_in_d0(
            area in 1.0..2000.0f64,
            d1 in 0.0..2.0f64,
            delta in 0.001..2.0f64,
        ) {
            for (_, m) in YieldModel::standard_suite() {
                let y1 = m.yield_fraction(area, d1);
                let y2 = m.yield_fraction(area, d1 + delta);
                prop_assert!(y2 <= y1 + 1e-12);
            }
        }

        #[test]
        fn split_gain_at_least_one(
            area in 10.0..2000.0f64,
            d0 in 0.0..2.0f64,
            n in 1u32..16,
        ) {
            for (_, m) in YieldModel::standard_suite() {
                prop_assert!(m.split_yield_gain(area, d0, n) >= 1.0 - 1e-12);
            }
        }
    }
}
