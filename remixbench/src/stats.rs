//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule: the `q` percentile of `n` sorted
//! samples is the sample at rank `ceil(q * n)`. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it; fewer than
//! that and a single outlier decides the number.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `q`
/// percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Sorts a copy of `values` (NaN-free by construction: every sample is a
/// measured duration or rate).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// Median and one tail percentile of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    /// `None` when too few samples lie beyond the tail percentile.
    pub tail: Option<f64>,
}

impl Summary {
    pub fn of(values: &[f64], tail_q: f64) -> Summary {
        let s = sorted(values);
        Summary {
            p50: if s.is_empty() {
                f64::NAN
            } else {
                percentile_sorted(&s, 0.5)
            },
            tail: tail_supported(s.len(), tail_q).then(|| percentile_sorted(&s, tail_q)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        // p90 needs 100.
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.9), 90.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_withholds_an_unsupported_tail() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        let s = Summary::of(&few, 0.99);
        assert_eq!(s.p50, 24.0);
        assert!(s.tail.is_none());
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(Summary::of(&many, 0.99).tail, Some(1979.0));
    }
}
