//! Derived metrics: normalization.

/// Normalizes a series so that the entry named `baseline` equals 1.0.
///
/// Returns `None` when the baseline is missing or non-positive.
///
/// # Examples
///
/// ```
/// use litegpu_roofline::metrics::normalize_to;
/// let series = [("H100".to_string(), 4.0), ("Lite".to_string(), 3.0)];
/// let n = normalize_to(&series, "H100").unwrap();
/// assert_eq!(n[1].1, 0.75);
/// ```
pub fn normalize_to(series: &[(String, f64)], baseline: &str) -> Option<Vec<(String, f64)>> {
    let base = series.iter().find(|(n, _)| n == baseline)?.1;
    if base <= 0.0 {
        return None;
    }
    Some(series.iter().map(|(n, v)| (n.clone(), v / base)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        let series = vec![
            ("H100".to_string(), 10.0),
            ("Lite".to_string(), 8.0),
            ("Lite+MemBW".to_string(), 14.0),
        ];
        let n = normalize_to(&series, "H100").unwrap();
        assert_eq!(n[0].1, 1.0);
        assert_eq!(n[1].1, 0.8);
        assert!((n[2].1 - 1.4).abs() < 1e-12);
        assert!(normalize_to(&series, "missing").is_none());
        let zero = vec![("H100".to_string(), 0.0)];
        assert!(normalize_to(&zero, "H100").is_none());
    }
}
