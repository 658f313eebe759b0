//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the reported value is always one of the
//! measured samples. A tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, the tail is a guess
//! about a handful of outliers, so [`tail`] returns `None` and the metric
//! is omitted rather than zeroed.

/// Samples that must lie strictly above a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `[0, 1]`) of an ascending slice.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `samples` ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50); `None` without samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| percentile(&sorted(samples), 0.5))
}

/// Arithmetic mean; `None` without samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Tail percentile `q`, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return None;
    }
    Some(percentile(&sorted(samples), q))
}

/// The fewest samples for which [`tail`] reports percentile `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, q) >= MIN_BEYOND)
        .expect("q < 1")
}
