//! Order statistics of the measured latencies and rates.

/// The `p`-quantile of `v` (sorted in place), interpolated between the
/// two nearest ranks; 0 for an empty slice.
pub fn quantile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
}

/// Median of floating-point samples; 0 for an empty slice.
pub fn median_f64(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&mut [4, 1, 3, 2], 0.5), 2.5);
        assert_eq!(quantile(&mut [7], 0.99), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
