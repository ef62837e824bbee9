//! Percentiles, medians, and a robust line fit.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentile, or an error when fewer than [`MIN_BEYOND`] samples
/// lie beyond it: such a tail is a handful of outliers, not a
/// distribution, and reporting it would invite reading noise as signal.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err("no samples".to_string());
    }
    let beyond = sorted.len() - rank(sorted.len(), q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "only {beyond} of {} samples lie beyond p{}, need {MIN_BEYOND}",
            sorted.len(),
            q * 100.0
        ));
    }
    Ok(percentile(sorted, q))
}

/// Median of unordered values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What `cost` would read with no time stolen: the intercept of a
/// Theil-Sen line through `(stolen, cost)` points — the median of the
/// slopes between every two points that differ in `stolen`, not below
/// zero, then the median of each point's cost less that slope times its
/// `stolen`. On a shared host the cpu time a fixed piece of work takes
/// rises with the time the host withholds around it (the work resumes on
/// cold caches), in phases longer than a run, so the median window of a
/// run moves with the host; the fit reads every window back to the same
/// condition. With nothing stolen anywhere it is the median.
///
/// # Panics
///
/// Panics on no points or a NaN.
pub fn at_no_steal(points: &[(f64, f64)]) -> f64 {
    let mut slopes = Vec::new();
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            if a.0 != b.0 {
                slopes.push((b.1 - a.1) / (b.0 - a.0));
            }
        }
    }
    let slope = if slopes.is_empty() { 0.0 } else { median(&slopes).max(0.0) };
    let levelled: Vec<f64> = points.iter().map(|(stolen, cost)| cost - slope * stolen).collect();
    median(&levelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Ok(990));
        // 999 samples: rank 990 again, only nine beyond.
        let short: Vec<u64> = (1..=999).collect();
        assert!(tail_percentile(&short, 0.99).unwrap_err().contains("only 9"));
        assert!(tail_percentile(&[], 0.99).is_err());
        // The median of 20 has ten beyond it.
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Ok(10));
    }

    #[test]
    fn steal_fit_reads_every_window_back_to_an_unshared_host() {
        // cost = 20 + 50 * stolen, whatever share of the windows is noisy.
        let line = |stolen: f64| (stolen, 20.0 + 50.0 * stolen);
        let quiet: Vec<_> = [0.0, 0.0, 0.01, 0.0, 0.02, 0.01].map(line).to_vec();
        let noisy: Vec<_> = [0.10, 0.30, 0.25, 0.12, 0.02, 0.28].map(line).to_vec();
        assert!((at_no_steal(&quiet) - 20.0).abs() < 1e-9);
        assert!((at_no_steal(&noisy) - 20.0).abs() < 1e-9);
        // One window hit by something else does not move the fit.
        let mut spiked = noisy.clone();
        spiked[1].1 += 40.0;
        assert!((at_no_steal(&spiked) - 20.0).abs() < 1.0);
        // No steal reported, or the same everywhere: the median.
        assert_eq!(at_no_steal(&[(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)]), 2.0);
        // Cost that falls as steal rises is not a host effect: no slope.
        assert_eq!(at_no_steal(&[(0.0, 3.0), (0.1, 2.0), (0.2, 1.0)]), 2.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
