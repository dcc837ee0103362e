//! Unit conventions and conversion helpers.
//!
//! The suite stores quantities in the units the paper's Table 1 uses
//! (TFLOPS, GB, GB/s) and converts to base SI units (FLOP/s, bytes,
//! bytes/s, seconds) at computation boundaries. All conversions live here
//! so the factor-of-10⁹ conventions are written exactly once.
//!
//! Decimal (SI) prefixes are used throughout — `1 GB = 10⁹ bytes` — which
//! matches how vendors quote both HBM bandwidth and network bandwidth.

/// Bytes per gigabyte (decimal, as in vendor bandwidth/capacity specs).
pub const BYTES_PER_GB: f64 = 1e9;

/// FLOP/s per TFLOPS.
pub const FLOPS_PER_TFLOPS: f64 = 1e12;

/// Converts TFLOPS to FLOP/s.
///
/// # Examples
///
/// ```
/// assert_eq!(litegpu_specs::units::tflops_to_flops(2.0), 2.0e12);
/// ```
pub fn tflops_to_flops(tflops: f64) -> f64 {
    tflops * FLOPS_PER_TFLOPS
}

/// Converts GB to bytes.
pub fn gb_to_bytes(gb: f64) -> f64 {
    gb * BYTES_PER_GB
}

/// Converts GB/s to bytes/s.
pub fn gbps_to_bytes_per_s(gbps: f64) -> f64 {
    gbps * BYTES_PER_GB
}

/// Formats a duration in seconds with an adaptive unit (s / ms / µs / ns).
///
/// # Examples
///
/// ```
/// assert_eq!(litegpu_specs::units::format_seconds(0.0123), "12.30 ms");
/// ```
pub fn format_seconds(seconds: f64) -> String {
    let abs = seconds.abs();
    if abs >= 1.0 {
        format!("{seconds:.2} s")
    } else if abs >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else if abs >= 1e-6 {
        format!("{:.2} µs", seconds * 1e6)
    } else {
        format!("{:.2} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(gb_to_bytes(80.0), 80e9);
        assert_eq!(gbps_to_bytes_per_s(3.352), 3.352e9);
        assert_eq!(tflops_to_flops(0.5), 5e11);
    }

    #[test]
    fn seconds_formatting_covers_ranges() {
        assert_eq!(format_seconds(2.0), "2.00 s");
        assert_eq!(format_seconds(5e-5), "50.00 µs");
        assert_eq!(format_seconds(3e-9), "3.00 ns");
    }
}
