//! Semiconductor manufacturing economics models for the `litegpu` suite.
//!
//! This crate is the *fab substrate* behind §2 of the Lite-GPU paper
//! ("Good things come in small packages", HotOS '25). The paper claims that
//! quartering an H100-class compute die raises yield by ~1.8× and cuts
//! manufacturing cost by ~50%. Those numbers come from standard die-yield
//! calculators; this crate implements the published models such calculators
//! are built from, so every economic claim in the paper can be recomputed
//! and swept:
//!
//! - [`wafer`]: wafer geometry and dies-per-wafer (analytic approximation
//!   and exact grid placement).
//! - [`yield_model`]: Poisson, Murphy, Seeds, Bose-Einstein and
//!   negative-binomial yield models, plus a radial defect-density profile
//!   (after Teets, 1996).
//! - [`cost`]: wafer cost → cost per good die → packaged GPU cost,
//!   including interposer (CoWoS-class) and HBM stack accounting.
//!
//! # Examples
//!
//! Reproduce the paper's §2 claim (1.8× yield at 1/4 area):
//!
//! ```
//! use litegpu_fab::yield_model::YieldModel;
//!
//! let d0 = 0.1; // defects per cm^2, a typical leading-edge figure
//! let h100_area = 814.0; // mm^2
//! let lite_area = h100_area / 4.0;
//! let model = YieldModel::Poisson;
//! let ratio = model.yield_fraction(lite_area, d0) / model.yield_fraction(h100_area, d0);
//! assert!((ratio - 1.8).abs() < 0.1, "paper claims ~1.8x, got {ratio}");
//! ```

pub mod cost;
pub mod wafer;
pub mod yield_model;

pub use cost::{DieCostModel, ManufacturingComparison, PackageCostModel, ProcessNode};
pub use wafer::{DieGeometry, Wafer};
pub use yield_model::YieldModel;

/// Errors produced by fab-model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FabError {
    /// A geometric or physical parameter was non-positive or non-finite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The die does not fit on the wafer's usable area at all.
    DieTooLarge {
        /// Die area in mm².
        die_area_mm2: f64,
        /// Usable wafer diameter in mm.
        usable_diameter_mm: f64,
    },
}

impl core::fmt::Display for FabError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabError::InvalidParameter { name, value } => {
                write!(f, "invalid fab parameter {name} = {value}")
            }
            FabError::DieTooLarge {
                die_area_mm2,
                usable_diameter_mm,
            } => write!(
                f,
                "die of {die_area_mm2} mm^2 does not fit a usable wafer diameter of \
                 {usable_diameter_mm} mm"
            ),
        }
    }
}

impl std::error::Error for FabError {}

/// Result alias for fab-model operations.
pub type Result<T> = core::result::Result<T, FabError>;

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(FabError::InvalidParameter { name, value })
    }
}

pub(crate) fn check_non_negative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(FabError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_positive_accepts_positive() {
        assert_eq!(check_positive("x", 1.5).unwrap(), 1.5);
    }

    #[test]
    fn check_positive_rejects_zero_negative_nan() {
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", -1.0).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
        assert!(check_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn check_non_negative_accepts_zero() {
        assert_eq!(check_non_negative("x", 0.0).unwrap(), 0.0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = FabError::InvalidParameter {
            name: "area",
            value: -1.0,
        };
        assert!(e.to_string().contains("area"));
        let e = FabError::DieTooLarge {
            die_area_mm2: 1e6,
            usable_diameter_mm: 294.0,
        };
        assert!(e.to_string().contains("294"));
    }
}
