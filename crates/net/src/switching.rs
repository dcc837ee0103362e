//! Packet vs. circuit switching models.
//!
//! §3 of the paper (citing Sirius): "Circuit switching presents the
//! following benefits over packet switching: (i) more than 50% better
//! energy efficiency, (ii) lower latency, and (iii) more ports at high
//! bandwidth, which allows for larger and flatter networks." This module
//! encodes both switch classes with public parameters so the claim is a
//! computed comparison, not an assertion.

use crate::{check_non_negative, check_positive, Result};

/// An electrical packet switch (Tomahawk/Spectrum-class).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PacketSwitch {
    /// Port count at full bandwidth.
    pub radix: u32,
    /// Per-port bandwidth, GB/s per direction.
    pub port_bw_gbps: f64,
    /// Switching energy per bit (buffers, crossbar, SerDes), pJ.
    pub energy_pj_per_bit: f64,
    /// Port-to-port forwarding latency, seconds.
    pub latency_s: f64,
}

impl PacketSwitch {
    /// A 51.2 Tb/s-class electrical packet switch: 64 ports × 100 GB/s,
    /// ~18 pJ/bit end-to-end, ~500 ns port-to-port.
    pub fn tomahawk_class() -> Self {
        Self {
            radix: 64,
            port_bw_gbps: 100.0,
            energy_pj_per_bit: 18.0,
            latency_s: 500e-9,
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        check_positive("port_bw_gbps", self.port_bw_gbps)?;
        check_positive("energy_pj_per_bit", self.energy_pj_per_bit)?;
        check_non_negative("latency_s", self.latency_s)?;
        if self.radix == 0 {
            return Err(crate::NetError::InvalidParameter {
                name: "radix",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// An optical circuit switch (Sirius/OCS-class): no per-packet processing,
/// so the data plane adds no energy beyond the endpoint lasers; the cost
/// is a reconfiguration delay when the circuit set changes.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CircuitSwitch {
    /// Port count.
    pub radix: u32,
    /// Per-port bandwidth, GB/s per direction (rate-agnostic mirrors/AWGR,
    /// so this tracks the endpoint line rate).
    pub port_bw_gbps: f64,
    /// Endpoint energy attributable to the switched path, pJ/bit (tunable
    /// laser + SerDes share).
    pub energy_pj_per_bit: f64,
    /// Pass-through latency, seconds (propagation only).
    pub latency_s: f64,
    /// Reconfiguration time to change the circuit set, seconds.
    pub reconfigure_s: f64,
}

impl CircuitSwitch {
    /// A Sirius-class nanosecond-reconfigurable optical switch: high radix,
    /// ~8 pJ/bit at the endpoints, ~50 ns pass-through, ~100 ns retune.
    pub fn sirius_class() -> Self {
        Self {
            radix: 256,
            port_bw_gbps: 100.0,
            energy_pj_per_bit: 8.0,
            latency_s: 50e-9,
            reconfigure_s: 100e-9,
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        check_positive("port_bw_gbps", self.port_bw_gbps)?;
        check_positive("energy_pj_per_bit", self.energy_pj_per_bit)?;
        check_non_negative("latency_s", self.latency_s)?;
        check_non_negative("reconfigure_s", self.reconfigure_s)?;
        if self.radix == 0 {
            return Err(crate::NetError::InvalidParameter {
                name: "radix",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// The computed §3 comparison.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SwitchComparison {
    /// Energy-efficiency gain of circuit over packet:
    /// `1 − pJ_circuit / pJ_packet`.
    pub energy_saving: f64,
    /// Latency advantage: packet latency − circuit latency, seconds.
    pub latency_advantage_s: f64,
    /// Radix ratio (circuit / packet).
    pub radix_ratio: f64,
}

impl SwitchComparison {
    /// Compares a circuit switch against a packet switch.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_net::switching::{CircuitSwitch, PacketSwitch, SwitchComparison};
    /// let cmp = SwitchComparison::compare(
    ///     &CircuitSwitch::sirius_class(),
    ///     &PacketSwitch::tomahawk_class(),
    /// );
    /// // The paper's §3 claim: >50% better energy efficiency.
    /// assert!(cmp.energy_saving > 0.5);
    /// ```
    pub fn compare(circuit: &CircuitSwitch, packet: &PacketSwitch) -> Self {
        Self {
            energy_saving: 1.0 - circuit.energy_pj_per_bit / packet.energy_pj_per_bit,
            latency_advantage_s: packet.latency_s - circuit.latency_s,
            radix_ratio: circuit.radix as f64 / packet.radix as f64,
        }
    }

    /// True when all three of the paper's claims hold.
    pub fn paper_claims_hold(&self) -> bool {
        self.energy_saving > 0.5 && self.latency_advantage_s > 0.0 && self.radix_ratio > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_validate() {
        PacketSwitch::tomahawk_class().validate().unwrap();
        CircuitSwitch::sirius_class().validate().unwrap();
    }

    #[test]
    fn paper_claims_hold_for_sirius_class() {
        let cmp = SwitchComparison::compare(
            &CircuitSwitch::sirius_class(),
            &PacketSwitch::tomahawk_class(),
        );
        assert!(
            cmp.energy_saving > 0.5,
            "energy saving {}",
            cmp.energy_saving
        );
        assert!(cmp.latency_advantage_s > 0.0);
        assert!(cmp.radix_ratio > 1.0);
        assert!(cmp.paper_claims_hold());
    }

    #[test]
    fn invalid_radix_rejected() {
        let mut s = PacketSwitch::tomahawk_class();
        s.radix = 0;
        assert!(s.validate().is_err());
        let mut c = CircuitSwitch::sirius_class();
        c.radix = 0;
        assert!(c.validate().is_err());
    }
}
