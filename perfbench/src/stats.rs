//! Sample statistics the benchmark reports.

/// Median of a timing sample: `NaN` for an empty one, so a missing
/// measurement can never pass for a fast one (`cextend_core::metrics::median`
/// reads 0 there).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of a sample by linear interpolation between order
/// statistics (`q = 0.5` is the usual median). `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as a whole percent, or `None` when `n < 11` leaves
/// no such percentile.
pub fn supported_percentile(n: usize) -> Option<u32> {
    if n <= 10 {
        return None;
    }
    // Samples strictly above the p-th percentile: about n * (1 - p/100).
    Some((100 * (n - 10) / n) as u32)
}

/// Maps an error that is 0 when perfect to a score in `(0, 1]` that is 1
/// when perfect and never 0: `1 / (1 + err)`. For small errors the score
/// falls by about the error itself, so a relative bound `b` on the score
/// admits about an absolute rise `b` in the error.
pub fn fit(err: f64) -> f64 {
    1.0 / (1.0 + err.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 1.0), 4.0);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn fit_is_one_when_exact_and_tracks_small_errors() {
        assert_eq!(fit(0.0), 1.0);
        assert!((1.0 - fit(0.0008) - 0.0008).abs() < 1e-6);
        assert!(fit(1e9) > 0.0);
        assert_eq!(fit(-1.0), 1.0);
    }
}
