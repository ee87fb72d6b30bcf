//! Order statistics for the benchmark's own numbers.
//!
//! Percentiles are nearest-rank: the value at rank `ceil(q·n)` of the
//! ascending sample, so every reported percentile is a measured value. A
//! tail percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise the run is too short to support it and the caller
//! gets an error instead of a number dominated by one or two samples.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the `q`-quantile of `n` samples under nearest-rank.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Like [`percentile`], but refuses a tail the sample cannot support: at
/// least [`MIN_BEYOND`] samples must rank above the returned one.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let beyond = n - rank(n, q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted[rank(n, q) - 1])
}

/// Sorts a sample ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample; `0.0` when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 0.99), Ok(990.0));
        // One sample fewer leaves only 9 beyond rank 990 (ceil(989.01)).
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(supported_percentile(&short, 0.99).is_err());
        // p999 needs 10,000 samples.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_percentile(&big, 0.999), Ok(9990.0));
        assert!(supported_percentile(&v, 0.999).is_err());
        assert!(supported_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
