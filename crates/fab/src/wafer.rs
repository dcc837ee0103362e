//! Wafer geometry and dies-per-wafer computation.
//!
//! [`Wafer::gross_dies`] is an exact rectangular grid placement that counts
//! dies whose four corners all fall inside the usable radius. This is what
//! a real shot map does.

use crate::{check_non_negative, check_positive, FabError, Result};

/// Rectangular die geometry, in millimetres.
///
/// The scribe lane (kerf) is the sawing allowance added on each side of the
/// die; it consumes wafer area but is not part of the sold die.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DieGeometry {
    /// Die width in mm (excluding scribe).
    pub width_mm: f64,
    /// Die height in mm (excluding scribe).
    pub height_mm: f64,
    /// Scribe lane width in mm, applied between adjacent dies.
    pub scribe_mm: f64,
}

impl DieGeometry {
    /// Creates a die geometry, validating that all dimensions are positive
    /// (scribe may be zero).
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_fab::wafer::DieGeometry;
    /// let die = DieGeometry::new(28.0, 29.0, 0.1).unwrap();
    /// assert!((die.area_mm2() - 812.0).abs() < 1e-9);
    /// ```
    pub fn new(width_mm: f64, height_mm: f64, scribe_mm: f64) -> Result<Self> {
        Ok(Self {
            width_mm: check_positive("die width_mm", width_mm)?,
            height_mm: check_positive("die height_mm", height_mm)?,
            scribe_mm: check_non_negative("die scribe_mm", scribe_mm)?,
        })
    }

    /// Creates a rectangular die with the given area and aspect ratio
    /// (width / height).
    pub fn with_aspect(area_mm2: f64, aspect: f64) -> Result<Self> {
        let area = check_positive("die area_mm2", area_mm2)?;
        let aspect = check_positive("die aspect", aspect)?;
        let height = (area / aspect).sqrt();
        Self::new(height * aspect, height, DEFAULT_SCRIBE_MM)
    }

    /// Die area in mm² (excluding scribe).
    pub fn area_mm2(&self) -> f64 {
        self.width_mm * self.height_mm
    }

    /// Die perimeter in mm — the "shoreline" that bounds escape bandwidth.
    pub fn perimeter_mm(&self) -> f64 {
        2.0 * (self.width_mm + self.height_mm)
    }

    /// Horizontal pitch (width + scribe) in mm.
    pub fn pitch_x_mm(&self) -> f64 {
        self.width_mm + self.scribe_mm
    }

    /// Vertical pitch (height + scribe) in mm.
    pub fn pitch_y_mm(&self) -> f64 {
        self.height_mm + self.scribe_mm
    }

    /// Returns a die with `1/n` of this die's area, preserving aspect ratio
    /// and scribe width.
    ///
    /// This is the paper's Lite-GPU construction: a "Lite-H100" is
    /// `h100_die.shrink(4)`.
    pub fn shrink(&self, n: u32) -> Result<Self> {
        if n == 0 {
            return Err(FabError::InvalidParameter {
                name: "shrink factor",
                value: 0.0,
            });
        }
        let s = (n as f64).sqrt();
        Self::new(self.width_mm / s, self.height_mm / s, self.scribe_mm)
    }
}

/// Default scribe lane width in mm (a typical modern kerf allowance).
pub const DEFAULT_SCRIBE_MM: f64 = 0.1;

/// Position of a die site on a wafer, used by radial yield models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSite {
    /// X coordinate of the die centre relative to the wafer centre, mm.
    pub center_x_mm: f64,
    /// Y coordinate of the die centre relative to the wafer centre, mm.
    pub center_y_mm: f64,
    /// Radial distance of the die centre from the wafer centre, mm.
    pub radius_mm: f64,
}

/// A silicon wafer with an edge-exclusion zone.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Wafer {
    /// Wafer diameter in mm (300 for the standard leading-edge wafer).
    pub diameter_mm: f64,
    /// Edge exclusion in mm: the outer ring unusable for product dies.
    pub edge_exclusion_mm: f64,
}

impl Wafer {
    /// Standard 300 mm wafer with a 3 mm edge exclusion.
    pub fn w300() -> Self {
        Self {
            diameter_mm: 300.0,
            edge_exclusion_mm: 3.0,
        }
    }

    /// Usable radius (diameter/2 minus edge exclusion), mm.
    pub fn usable_radius_mm(&self) -> f64 {
        self.diameter_mm / 2.0 - self.edge_exclusion_mm
    }

    /// Exact gross die count by rectangular grid placement.
    ///
    /// Dies are placed on a regular grid centred on the wafer; a die counts
    /// if all four corners fall within the usable radius. This matches how
    /// shot maps are laid out in practice and agrees with the classic
    /// closed-form approximation to within a few percent for realistic die
    /// sizes.
    pub fn gross_dies(&self, die: &DieGeometry) -> Result<usize> {
        Ok(self.die_sites(die)?.len())
    }

    /// Enumerates all die sites that fit on the wafer, with their centre
    /// positions.
    pub fn die_sites(&self, die: &DieGeometry) -> Result<Vec<DieSite>> {
        let r = self.usable_radius_mm();
        let px = die.pitch_x_mm();
        let py = die.pitch_y_mm();
        if px > 2.0 * r || py > 2.0 * r {
            return Err(FabError::DieTooLarge {
                die_area_mm2: die.area_mm2(),
                usable_diameter_mm: 2.0 * r,
            });
        }
        let half_w = die.width_mm / 2.0;
        let half_h = die.height_mm / 2.0;
        let nx = (2.0 * r / px).ceil() as i64 + 2;
        let ny = (2.0 * r / py).ceil() as i64 + 2;
        let mut sites = Vec::new();
        // The grid is offset by half a pitch so no die straddles the centre;
        // this is the common "even" shot-map layout.
        for iy in -ny..=ny {
            for ix in -nx..=nx {
                let cx = (ix as f64 + 0.5) * px;
                let cy = (iy as f64 + 0.5) * py;
                let corners = [
                    (cx - half_w, cy - half_h),
                    (cx + half_w, cy - half_h),
                    (cx - half_w, cy + half_h),
                    (cx + half_w, cy + half_h),
                ];
                if corners.iter().all(|(x, y)| (x * x + y * y).sqrt() <= r) {
                    sites.push(DieSite {
                        center_x_mm: cx,
                        center_y_mm: cy,
                        radius_mm: (cx * cx + cy * cy).sqrt(),
                    });
                }
            }
        }
        Ok(sites)
    }
}

impl Default for Wafer {
    fn default() -> Self {
        Self::w300()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic closed-form dies-per-wafer approximation most
    /// calculators use, `DPW = π·r²/S − π·(2r)/√(2·S)` with `S` the die
    /// footprint including scribe: the oracle for the exact grid count.
    fn gross_dies_analytic(w: &Wafer, die: &DieGeometry) -> f64 {
        let s = die.pitch_x_mm() * die.pitch_y_mm();
        let r = w.usable_radius_mm();
        let pi = core::f64::consts::PI;
        (pi * r * r / s - pi * (2.0 * r) / (2.0 * s).sqrt()).max(0.0)
    }

    #[test]
    fn square_die_geometry() {
        let d = DieGeometry::with_aspect(100.0, 1.0).unwrap();
        assert!((d.width_mm - 10.0).abs() < 1e-12);
        assert!((d.area_mm2() - 100.0).abs() < 1e-12);
        assert!((d.perimeter_mm() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn aspect_die_geometry() {
        let d = DieGeometry::with_aspect(200.0, 2.0).unwrap();
        assert!((d.area_mm2() - 200.0).abs() < 1e-9);
        assert!((d.width_mm / d.height_mm - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shrink_preserves_aspect_and_quarters_area() {
        let d = DieGeometry::with_aspect(814.0, 1.2).unwrap();
        let s = d.shrink(4).unwrap();
        assert!((s.area_mm2() - 814.0 / 4.0).abs() < 1e-9);
        assert!((s.width_mm / s.height_mm - 1.2).abs() < 1e-9);
        assert!(d.shrink(0).is_err());
    }

    #[test]
    fn shrink_by_four_doubles_total_perimeter() {
        // The paper's shoreline argument: 4 dies of 1/4 area have 2x the
        // total perimeter of the original die.
        let d = DieGeometry::with_aspect(814.0, 1.0).unwrap();
        let s = d.shrink(4).unwrap();
        let ratio = 4.0 * s.perimeter_mm() / d.perimeter_mm();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn usable_area() {
        let w = Wafer::w300();
        assert!((w.usable_radius_mm() - 147.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_close_to_exact_for_h100_class() {
        let w = Wafer::w300();
        let die = DieGeometry::with_aspect(814.0, 1.0).unwrap();
        let analytic = gross_dies_analytic(&w, &die);
        let exact = w.gross_dies(&die).unwrap() as f64;
        let rel = (analytic - exact).abs() / exact;
        assert!(rel < 0.15, "analytic {analytic} vs exact {exact}");
    }

    #[test]
    fn smaller_dies_give_superlinear_count() {
        // Quartering the die more than quadruples the die count because
        // edge losses shrink.
        let w = Wafer::w300();
        let big = DieGeometry::with_aspect(814.0, 1.0).unwrap();
        let small = big.shrink(4).unwrap();
        let n_big = w.gross_dies(&big).unwrap();
        let n_small = w.gross_dies(&small).unwrap();
        assert!(
            n_small > 4 * n_big,
            "expected >4x dies, got {n_small} vs {n_big}"
        );
    }

    #[test]
    fn die_too_large_is_rejected() {
        let w = Wafer::w300();
        let die = DieGeometry::new(400.0, 400.0, 0.1).unwrap();
        assert!(matches!(
            w.gross_dies(&die),
            Err(FabError::DieTooLarge { .. })
        ));
    }

    #[test]
    fn sites_lie_within_usable_radius() {
        let w = Wafer::w300();
        let die = DieGeometry::with_aspect(100.0, 1.0).unwrap();
        for site in w.die_sites(&die).unwrap() {
            assert!(site.radius_mm <= w.usable_radius_mm());
        }
    }

    #[test]
    fn scribe_reduces_die_count() {
        let w = Wafer::w300();
        let no_scribe = DieGeometry::new(10.0, 10.0, 0.0).unwrap();
        let wide_scribe = DieGeometry::new(10.0, 10.0, 1.0).unwrap();
        assert!(w.gross_dies(&no_scribe).unwrap() > w.gross_dies(&wide_scribe).unwrap());
    }
}
