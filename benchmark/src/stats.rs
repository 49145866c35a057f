//! Order statistics used to turn repetitions into reported numbers.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller takes a median of at least one
/// repetition it just ran.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest of `values`; isolated probes report the min of k because
/// interference only ever adds time.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The middle and the tail of a set of timing samples, with the count the
/// percentiles rest on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Tail {
    /// Sorts `samples` in place; all zeros when there are none.
    pub fn of(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Tail::default();
        }
        samples.sort_by(f64::total_cmp);
        Tail {
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            samples: samples.len(),
        }
    }
}

/// `(max − min) / median`: how far repetitions of one run disagree.
pub fn rel_range(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - min(values)) / mid
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), so the spread `--compare` prints is
/// the spread the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The first quartile: what the timed pass reduces repetitions with.
///
/// Interference on a shared host only ever adds CPU time, and arrives in
/// bursts that can disturb more than half of a run's repetitions; the
/// lower quartile of many short repetitions moved a third as much between
/// runs as the median of a few long ones (README, "How the bounds were
/// derived"). A change that makes every repetition slower moves every
/// quantile alike.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    quartiles(values).0
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_k_ignores_one_outlier() {
        // Why the traced pass reduces its three reference repetitions
        // with a median: one preempted repetition must not move the value.
        assert_eq!(median(&[3.6, 3.7, 3.65, 9.0, 3.62]), 3.65);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_sorts_first_and_counts() {
        let tail = Tail::of(&mut [9.0, 1.0, 5.0]);
        assert_eq!((tail.p50, tail.p99, tail.samples), (5.0, 9.0, 3));
        assert_eq!(Tail::of(&mut []), Tail::default());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn rel_range_is_max_minus_min_over_median() {
        assert!((rel_range(&[10.0, 11.0, 12.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(rel_range(&[5.0]), 0.0);
    }
}
