//! Order statistics for the end-to-end metrics.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `sorted`, an ascending
/// sample. Returns `None` unless at least [`MIN_BEYOND`] samples rank
/// above it, so a tail percentile is never read off a handful of points.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if !(p > 0.0 && p <= 1.0) || sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // 1-based nearest rank: the smallest value with at least p·n
    // samples at or below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
