//! Cooling feasibility modeling.
//!
//! §2/§3 of the paper: "smaller single-die GPUs can be air-cooled
//! separately and even sustain higher clock frequencies", and a Lite-GPU
//! rack "can eliminate the need for liquid cooling racks". The decisive
//! quantity is per-package heat: a 700 W H100 needs exotic airflow or cold
//! plates, while a 175 W Lite-GPU sits comfortably in a forced-air
//! envelope, leaving thermal headroom that can be spent on sustained
//! overclocking (the `Lite+...+FLOPS` Table 1 variant).

use crate::gpu::GpuSpec;
use crate::power::PowerModel;
use crate::Result;

/// Cooling technology classes, ordered by capability.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum CoolingClass {
    /// Passive or low-airflow heatsink.
    PassiveAir,
    /// Forced air: server fans and conventional heatsinks.
    ForcedAir,
    /// High-end air: oversized heatsinks, very high CFM (DGX-class).
    AdvancedAir,
    /// Direct-to-chip liquid cold plates.
    Liquid,
    /// Immersion cooling.
    Immersion,
}

impl CoolingClass {
    /// Maximum per-package power this class can sustainably remove, W.
    pub fn limit_w(&self) -> f64 {
        match self {
            CoolingClass::PassiveAir => 75.0,
            CoolingClass::ForcedAir => 350.0,
            CoolingClass::AdvancedAir => 800.0,
            CoolingClass::Liquid => 1_500.0,
            CoolingClass::Immersion => 4_000.0,
        }
    }

    /// The cheapest class able to remove `power_w` per package.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_specs::cooling::CoolingClass;
    /// assert_eq!(CoolingClass::required_for(175.0), CoolingClass::ForcedAir);
    /// assert_eq!(CoolingClass::required_for(700.0), CoolingClass::AdvancedAir);
    /// assert_eq!(CoolingClass::required_for(1200.0), CoolingClass::Liquid);
    /// ```
    pub fn required_for(power_w: f64) -> CoolingClass {
        [
            CoolingClass::PassiveAir,
            CoolingClass::ForcedAir,
            CoolingClass::AdvancedAir,
            CoolingClass::Liquid,
            CoolingClass::Immersion,
        ]
        .into_iter()
        .find(|c| c.limit_w() >= power_w)
        .unwrap_or(CoolingClass::Immersion)
    }
}

/// A cooling assessment for a GPU spec.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoolingAssessment {
    /// Required cooling class at TDP.
    pub class: CoolingClass,
    /// Thermal headroom: class limit minus TDP, W.
    pub headroom_w: f64,
    /// Maximum sustained clock factor the headroom permits (full load).
    pub max_sustained_clock: f64,
}

/// Assesses the cooling needs and overclock headroom of a GPU.
pub fn assess(spec: &GpuSpec) -> Result<CoolingAssessment> {
    let class = CoolingClass::required_for(spec.tdp_w);
    let model = PowerModel::for_spec(spec);
    let max_sustained_clock = model.max_clock_factor(class.limit_w())?;
    Ok(CoolingAssessment {
        class,
        headroom_w: class.limit_w() - spec.tdp_w,
        max_sustained_clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn classes_ordered_by_limit() {
        let all = [
            CoolingClass::PassiveAir,
            CoolingClass::ForcedAir,
            CoolingClass::AdvancedAir,
            CoolingClass::Liquid,
            CoolingClass::Immersion,
        ];
        for w in all.windows(2) {
            assert!(w[0].limit_w() < w[1].limit_w());
        }
    }

    #[test]
    fn required_for_extremes() {
        assert_eq!(CoolingClass::required_for(10.0), CoolingClass::PassiveAir);
        assert_eq!(CoolingClass::required_for(9999.0), CoolingClass::Immersion);
    }

    #[test]
    fn lite_gpu_stays_on_forced_air() {
        let a = assess(&catalog::lite_base()).unwrap();
        assert_eq!(a.class, CoolingClass::ForcedAir);
        assert!(a.headroom_w > 100.0);
    }

    #[test]
    fn h100_needs_advanced_air_with_little_headroom() {
        let a = assess(&catalog::h100()).unwrap();
        assert_eq!(a.class, CoolingClass::AdvancedAir);
        // The paper: cutting-edge GPUs "already throttle compute frequency
        // to avoid overheating" - headroom is thin.
        assert!(a.max_sustained_clock < 1.1);
    }

    #[test]
    fn lite_overclock_headroom_covers_table1_flops_variant() {
        // Lite+NetBW+FLOPS needs a sustained +10% clock; the forced-air
        // envelope of a 175 W package must permit it.
        let a = assess(&catalog::lite_base()).unwrap();
        assert!(
            a.max_sustained_clock >= 1.10,
            "sustained clock headroom {}",
            a.max_sustained_clock
        );
    }

    #[test]
    fn overclocked_lite_variant_still_air_cooled() {
        let a = assess(&catalog::lite_net_bw_flops()).unwrap();
        assert!(a.class <= CoolingClass::ForcedAir);
    }
}
