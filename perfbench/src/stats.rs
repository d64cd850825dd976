//! Order statistics for the reported timings.

/// Percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile for it to mean
/// something.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps binary rounding (99.9% of 10 000 is 9990.000000000002)
/// from pushing an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()) - 1])
}

/// Median (nearest rank, lower middle for even counts); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least [`MIN_BEYOND`] samples beyond it, for `n` samples; `None` when
/// even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(p, n) >= MIN_BEYOND)
}
