//! Manufacturing cost models: wafer → good die → packaged GPU.
//!
//! The Lite-GPU paper argues (§2) that quartering the compute die roughly
//! halves compute-silicon manufacturing cost (yield gain × reduced edge
//! waste), and that simpler packages (no CoWoS-class interposer, air
//! cooling) compound the saving. This module makes each of those terms an
//! explicit, parameterized model with public-estimate defaults, so the
//! claim can be recomputed and stress-tested.

use crate::wafer::{DieGeometry, Wafer};
use crate::yield_model::YieldModel;
use crate::{check_non_negative, check_positive, Result};

/// Leading-edge logic process nodes with public wafer-price estimates
/// (USD per 300 mm wafer; CSET/industry-press figures, order-of-magnitude
/// correct which is all the comparison needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProcessNode {
    /// 7 nm-class node.
    N7,
    /// 5 nm-class node (H100's N4 is a derivative; use N5 pricing class).
    N5,
    /// 4 nm-class node.
    N4,
    /// 3 nm-class node.
    N3,
}

impl ProcessNode {
    /// Estimated wafer price in USD.
    pub fn wafer_cost_usd(&self) -> f64 {
        match self {
            ProcessNode::N7 => 9_350.0,
            ProcessNode::N5 => 13_400.0,
            ProcessNode::N4 => 14_500.0,
            ProcessNode::N3 => 18_000.0,
        }
    }

    /// A representative defect density for a mature process of this class,
    /// in defects/cm².
    pub fn mature_defect_density(&self) -> f64 {
        match self {
            ProcessNode::N7 => 0.09,
            ProcessNode::N5 => 0.10,
            ProcessNode::N4 => 0.10,
            ProcessNode::N3 => 0.12,
        }
    }
}

/// Cost model for bare dies of a given geometry on a given wafer/process.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DieCostModel {
    /// Wafer geometry.
    pub wafer: Wafer,
    /// Die geometry.
    pub die: DieGeometry,
    /// Process node (sets wafer cost).
    pub node: ProcessNode,
    /// Yield model used to predict good dies.
    pub yield_model: YieldModel,
    /// Defect density in defects/cm².
    pub defect_density: f64,
}

impl DieCostModel {
    /// Creates a die cost model with the node's mature defect density.
    pub fn new(die: DieGeometry, node: ProcessNode, yield_model: YieldModel) -> Self {
        Self {
            wafer: Wafer::w300(),
            die,
            node,
            yield_model,
            defect_density: node.mature_defect_density(),
        }
    }

    /// Gross dies per wafer (exact grid placement).
    pub fn gross_dies(&self) -> Result<usize> {
        self.wafer.gross_dies(&self.die)
    }

    /// Die yield fraction under the configured model.
    pub fn yield_fraction(&self) -> f64 {
        self.yield_model
            .yield_fraction(self.die.area_mm2(), self.defect_density)
    }

    /// Expected good dies per wafer.
    pub fn good_dies_per_wafer(&self) -> Result<f64> {
        Ok(self.gross_dies()? as f64 * self.yield_fraction())
    }

    /// Cost per *good* die in USD: wafer cost amortized over good dies.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_fab::cost::{DieCostModel, ProcessNode};
    /// use litegpu_fab::wafer::DieGeometry;
    /// use litegpu_fab::yield_model::YieldModel;
    ///
    /// let h100 = DieCostModel::new(
    ///     DieGeometry::with_aspect(814.0, 1.0).unwrap(),
    ///     ProcessNode::N4,
    ///     YieldModel::Poisson,
    /// );
    /// let c = h100.cost_per_good_die().unwrap();
    /// assert!(c > 300.0 && c < 800.0, "H100-class die cost, got {c}");
    /// ```
    pub fn cost_per_good_die(&self) -> Result<f64> {
        let good = self.good_dies_per_wafer()?;
        check_positive("good dies per wafer", good)?;
        Ok(self.node.wafer_cost_usd() / good)
    }
}

/// Package class, determining interposer and assembly costs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PackageClass {
    /// Conventional organic flip-chip package (what a Lite-GPU would use).
    FlipChip,
    /// 2.5D silicon-interposer package (CoWoS-class; what H100 uses).
    SiliconInterposer {
        /// Interposer area in mm² (must cover dies + HBM stacks).
        interposer_area_mm2: f64,
    },
}

/// Cost model for a complete packaged GPU: compute die(s) + HBM + package.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PackageCostModel {
    /// Cost model for one compute die.
    pub die_cost: DieCostModel,
    /// Number of compute dies in the package (2 for Blackwell-class).
    pub compute_dies: u32,
    /// Package class.
    pub class: PackageClass,
    /// Number of HBM stacks.
    pub hbm_stacks: u32,
    /// Cost per HBM stack in USD.
    pub hbm_stack_cost_usd: f64,
    /// Fixed assembly + substrate + test cost in USD.
    pub assembly_cost_usd: f64,
    /// Probability the assembly step succeeds (scrapping all components on
    /// failure — the multi-die risk the paper calls out).
    pub assembly_yield: f64,
}

/// Cost per mm² of silicon interposer (USD), a public CoWoS-class estimate.
pub const INTERPOSER_COST_PER_MM2: f64 = 0.07;

impl PackageCostModel {
    /// Creates a package model with validation.
    pub fn new(
        die_cost: DieCostModel,
        compute_dies: u32,
        class: PackageClass,
        hbm_stacks: u32,
        hbm_stack_cost_usd: f64,
        assembly_cost_usd: f64,
        assembly_yield: f64,
    ) -> Result<Self> {
        check_non_negative("hbm_stack_cost_usd", hbm_stack_cost_usd)?;
        check_non_negative("assembly_cost_usd", assembly_cost_usd)?;
        check_positive("assembly_yield", assembly_yield)?;
        if assembly_yield > 1.0 {
            return Err(crate::FabError::InvalidParameter {
                name: "assembly_yield",
                value: assembly_yield,
            });
        }
        Ok(Self {
            die_cost,
            compute_dies: compute_dies.max(1),
            class,
            hbm_stacks,
            hbm_stack_cost_usd,
            assembly_cost_usd,
            assembly_yield,
        })
    }

    /// Interposer cost in USD (zero for flip-chip packages).
    pub fn interposer_cost(&self) -> f64 {
        match self.class {
            PackageClass::FlipChip => 0.0,
            PackageClass::SiliconInterposer {
                interposer_area_mm2,
            } => interposer_area_mm2 * INTERPOSER_COST_PER_MM2,
        }
    }

    /// Bill-of-materials cost of one assembly attempt, in USD.
    pub fn bom_cost(&self) -> Result<f64> {
        let die = self.die_cost.cost_per_good_die()? * self.compute_dies as f64;
        let hbm = self.hbm_stacks as f64 * self.hbm_stack_cost_usd;
        Ok(die + hbm + self.interposer_cost() + self.assembly_cost_usd)
    }

    /// Expected cost per *shipped* package: the BoM is amortized over the
    /// assembly yield (failed assemblies scrap their components).
    pub fn cost_per_shipped_package(&self) -> Result<f64> {
        Ok(self.bom_cost()? / self.assembly_yield)
    }
}

/// Side-by-side manufacturing comparison between a "big GPU" package and
/// the `n` Lite-GPU packages that replace it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ManufacturingComparison {
    /// Number of Lite-GPUs replacing one big GPU.
    pub replacement_ratio: u32,
    /// Big-GPU die yield fraction.
    pub big_yield: f64,
    /// Lite-GPU die yield fraction.
    pub lite_yield: f64,
    /// Yield gain (lite / big) — paper expects ≈1.8 at 1/4 area.
    pub yield_gain: f64,
    /// Cost of one big compute die (USD).
    pub big_die_cost: f64,
    /// Cost of `n` lite compute dies (USD).
    pub lite_dies_cost: f64,
    /// Compute-silicon saving fraction — paper expects ≈0.5 at 1/4 area.
    pub silicon_saving: f64,
    /// Cost of one big packaged GPU (USD).
    pub big_package_cost: f64,
    /// Cost of `n` lite packaged GPUs (USD).
    pub lite_packages_cost: f64,
    /// Package-level saving fraction.
    pub package_saving: f64,
}

impl ManufacturingComparison {
    /// Compares a big-GPU package against `n` equal-silicon Lite packages.
    pub fn compare(big: &PackageCostModel, lite: &PackageCostModel, n: u32) -> Result<Self> {
        let n = n.max(1);
        let big_yield = big.die_cost.yield_fraction();
        let lite_yield = lite.die_cost.yield_fraction();
        let big_die_cost = big.die_cost.cost_per_good_die()?;
        let lite_dies_cost = lite.die_cost.cost_per_good_die()? * n as f64;
        let big_package_cost = big.cost_per_shipped_package()?;
        let lite_packages_cost = lite.cost_per_shipped_package()? * n as f64;
        Ok(Self {
            replacement_ratio: n,
            big_yield,
            lite_yield,
            yield_gain: lite_yield / big_yield,
            big_die_cost,
            lite_dies_cost,
            silicon_saving: 1.0 - lite_dies_cost / big_die_cost,
            big_package_cost,
            lite_packages_cost,
            package_saving: 1.0 - lite_packages_cost / big_package_cost,
        })
    }
}

/// Builds the paper's default H100-vs-4×Lite comparison.
///
/// H100: ~814 mm² die, CoWoS-class interposer, 5 HBM stacks (one of the six
/// sites is a dummy), liquid-adjacent assembly cost. Lite-H100: 1/4 die, one
/// quarter of the HBM, flip-chip class packaging with co-packaged optics
/// assumed part of assembly cost.
pub fn h100_vs_lite_comparison() -> Result<ManufacturingComparison> {
    let (big, lite) = h100_and_lite_package_models()?;
    ManufacturingComparison::compare(&big, &lite, 4)
}

/// The default H100 and Lite-H100 package cost models used by the paper
/// reproduction (public-estimate parameters).
pub fn h100_and_lite_package_models() -> Result<(PackageCostModel, PackageCostModel)> {
    Ok((package_model_for_divisor(1)?, package_model_for_divisor(4)?))
}

/// The package cost model for an H100-class die shrunk by `divisor`.
///
/// `divisor == 1` is the H100 package itself (CoWoS-class interposer,
/// five HBM stacks, liquid-adjacent assembly). Larger divisors follow the
/// Lite-GPU recipe — flip-chip packaging, two down-sized HBM stacks, and
/// assembly cost/risk shrinking with the die — on a continuous family
/// that reproduces the paper's Lite-H100 parameters exactly at
/// `divisor == 4`. This is the capex-side knob the TCO design sweep
/// turns: one function prices every die size on the same assumptions.
pub fn package_model_for_divisor(divisor: u32) -> Result<PackageCostModel> {
    if divisor == 0 {
        return Err(crate::FabError::InvalidParameter {
            name: "divisor",
            value: 0.0,
        });
    }
    let h100_die = DieGeometry::with_aspect(814.0, 1.1)?;
    if divisor == 1 {
        return PackageCostModel::new(
            DieCostModel::new(h100_die, ProcessNode::N4, YieldModel::Poisson),
            1,
            PackageClass::SiliconInterposer {
                interposer_area_mm2: 2500.0,
            },
            5,
            120.0,
            150.0,
            0.95,
        );
    }
    let d = divisor as f64;
    let die = h100_die.shrink(divisor)?;
    PackageCostModel::new(
        DieCostModel::new(die, ProcessNode::N4, YieldModel::Poisson),
        1,
        PackageClass::FlipChip,
        2, // Two down-sized stacks keep capacity at 1/divisor with shoreline to spare.
        120.0 / d,
        180.0 / d,
        1.0 - 0.04 / d,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn h100_die_model() -> DieCostModel {
        DieCostModel::new(
            DieGeometry::with_aspect(814.0, 1.0).unwrap(),
            ProcessNode::N4,
            YieldModel::Poisson,
        )
    }

    #[test]
    fn node_costs_increase_with_density() {
        assert!(ProcessNode::N7.wafer_cost_usd() < ProcessNode::N5.wafer_cost_usd());
        assert!(ProcessNode::N5.wafer_cost_usd() < ProcessNode::N3.wafer_cost_usd());
    }

    #[test]
    fn good_dies_below_gross_dies() {
        let m = h100_die_model();
        assert!(m.good_dies_per_wafer().unwrap() < m.gross_dies().unwrap() as f64);
    }

    #[test]
    fn quartering_roughly_halves_silicon_cost() {
        // Paper §2: "almost 50% reduction in manufacturing cost".
        let cmp = h100_vs_lite_comparison().unwrap();
        assert!(
            cmp.silicon_saving > 0.40 && cmp.silicon_saving < 0.60,
            "silicon saving = {}",
            cmp.silicon_saving
        );
        assert!(
            (cmp.yield_gain - 1.8).abs() < 0.1,
            "yield gain = {}",
            cmp.yield_gain
        );
    }

    #[test]
    fn package_level_saving_is_positive() {
        let cmp = h100_vs_lite_comparison().unwrap();
        assert!(
            cmp.package_saving > 0.0,
            "package saving = {}",
            cmp.package_saving
        );
    }

    #[test]
    fn interposer_cost_only_for_cowos() {
        let m = h100_die_model();
        let flip =
            PackageCostModel::new(m, 1, PackageClass::FlipChip, 2, 30.0, 40.0, 0.99).unwrap();
        assert_eq!(flip.interposer_cost(), 0.0);
        let cowos = PackageCostModel::new(
            m,
            1,
            PackageClass::SiliconInterposer {
                interposer_area_mm2: 1000.0,
            },
            2,
            30.0,
            40.0,
            0.99,
        )
        .unwrap();
        assert!((cowos.interposer_cost() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn assembly_yield_amortizes_bom() {
        let m = h100_die_model();
        let p = PackageCostModel::new(m, 1, PackageClass::FlipChip, 0, 0.0, 100.0, 0.5).unwrap();
        let bom = p.bom_cost().unwrap();
        assert!((p.cost_per_shipped_package().unwrap() - 2.0 * bom).abs() < 1e-9);
    }

    #[test]
    fn invalid_assembly_yield_rejected() {
        let m = h100_die_model();
        assert!(PackageCostModel::new(m, 1, PackageClass::FlipChip, 0, 0.0, 0.0, 0.0).is_err());
        assert!(PackageCostModel::new(m, 1, PackageClass::FlipChip, 0, 0.0, 0.0, 1.5).is_err());
    }

    #[test]
    fn divisor_family_reproduces_the_paper_endpoints() {
        // The generalized family must hit the pinned H100 and Lite-H100
        // models exactly, so the TCO sweep prices the same packages as
        // the §2 manufacturing comparison.
        let (big, lite) = h100_and_lite_package_models().unwrap();
        assert_eq!(big, package_model_for_divisor(1).unwrap());
        assert_eq!(lite, package_model_for_divisor(4).unwrap());
        assert_eq!(lite.hbm_stack_cost_usd, 30.0);
        assert_eq!(lite.assembly_cost_usd, 45.0);
        assert_eq!(lite.assembly_yield, 0.99);
        assert!(package_model_for_divisor(0).is_err());
    }

    #[test]
    fn divisor_family_cheapens_packages_monotonically() {
        // Per-package cost must fall as the die shrinks: yield gain plus
        // smaller HBM/assembly shares. (Total fleet silicon cost is a
        // different question — that's what the TCO optimizer weighs.)
        let costs: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|&d| {
                package_model_for_divisor(d)
                    .unwrap()
                    .cost_per_shipped_package()
                    .unwrap()
            })
            .collect();
        for w in costs.windows(2) {
            assert!(
                w[0] > w[1],
                "package cost must shrink with the die: {costs:?}"
            );
        }
    }

    #[test]
    fn cost_per_good_mm2_smaller_for_small_dies() {
        let big = h100_die_model();
        let small = DieCostModel::new(
            DieGeometry::with_aspect(814.0 / 4.0, 1.0).unwrap(),
            ProcessNode::N4,
            YieldModel::Poisson,
        );
        let per_mm2 = |m: &DieCostModel| m.cost_per_good_die().unwrap() / m.die.area_mm2();
        assert!(per_mm2(&small) < per_mm2(&big));
    }

    #[test]
    fn zero_defect_density_yields_every_die() {
        let m = DieCostModel {
            defect_density: 0.0,
            ..h100_die_model()
        };
        assert!((m.yield_fraction() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn silicon_saving_positive_for_any_reasonable_d0(d0 in 0.02..0.5f64) {
            let h100_die = DieGeometry::with_aspect(814.0, 1.1).unwrap();
            let lite_die = h100_die.shrink(4).unwrap();
            let big = DieCostModel {
                defect_density: d0,
                ..DieCostModel::new(h100_die, ProcessNode::N4, YieldModel::Poisson)
            };
            let lite = DieCostModel {
                defect_density: d0,
                ..DieCostModel::new(lite_die, ProcessNode::N4, YieldModel::Poisson)
            };
            let saving =
                1.0 - 4.0 * lite.cost_per_good_die().unwrap() / big.cost_per_good_die().unwrap();
            prop_assert!(saving > 0.0, "saving = {saving} at d0 = {d0}");
        }
    }
}
