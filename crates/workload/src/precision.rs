//! Numeric precision formats.

/// A numeric format used for weights, activations and KV-cache entries.
///
/// Table 1's "H100 = 2000 TFLOPS" is the FP8 dense figure, so the paper's
/// evaluation implicitly runs weights, activations and KV cache in FP8;
/// that is the suite's default. Other formats are provided for ablations
/// (FP16 halves the roofline's compute ceiling *and* doubles every byte
/// count, which shifts the memory-bound crossovers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// 8-bit floating point (E4M3/E5M2 class).
    Fp8,
    /// 16-bit floating point (IEEE half).
    Fp16,
    /// bfloat16.
    Bf16,
    /// 32-bit floating point.
    Fp32,
}

impl Precision {
    /// Bytes per element.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_workload::precision::Precision;
    /// assert_eq!(Precision::Fp8.bytes(), 1.0);
    /// assert_eq!(Precision::Bf16.bytes(), 2.0);
    /// ```
    pub fn bytes(&self) -> f64 {
        match self {
            Precision::Fp8 => 1.0,
            Precision::Fp16 | Precision::Bf16 => 2.0,
            Precision::Fp32 => 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_widths() {
        assert_eq!(Precision::Fp8.bytes(), 1.0);
        assert_eq!(Precision::Fp16.bytes(), 2.0);
        assert_eq!(Precision::Bf16.bytes(), 2.0);
        assert_eq!(Precision::Fp32.bytes(), 4.0);
    }
}
