//! Order statistics with the benchmark's reporting rule: the median is
//! the estimator, and a tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median (mean of the two middle samples for an even count), or
/// `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let xs = sorted(samples);
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
    }
}

/// Nearest-rank index of percentile `p` (0 < p < 1) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `p` percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
#[must_use]
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let k = rank(p, n);
    (n - (k + 1) >= MIN_BEYOND).then(|| sorted(samples)[k])
}

/// The highest whole-number percentile that has at least [`MIN_BEYOND`]
/// samples beyond it (capped at p99), with its value: what the guide
/// calls "the highest percentile with ten samples beyond it".
#[must_use]
pub fn highest_tail(samples: &[f64]) -> Option<(u32, f64)> {
    (51..=99)
        .rev()
        .find_map(|pct| tail_percentile(samples, f64::from(pct) / 100.0).map(|v| (pct, v)))
}

/// First and third quartiles (nearest rank), for spread reporting.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let xs = sorted(samples);
    let n = xs.len();
    (n > 0).then(|| (xs[rank(0.25, n)], xs[rank(0.75, n)]))
}
