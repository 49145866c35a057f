//! Measurement types behind the evaluation figures.

use dope_metrics::LocalHistogram;
use serde::{Deserialize, Serialize};

/// Accumulates per-request response times (paper Equation 1's
/// `T_response`): the interval from submission to completion.
///
/// # Memory bound and accuracy
///
/// Open workloads record one response per request, so an unbounded
/// sample vector would grow linearly for the lifetime of the service.
/// Instead the accumulator keeps **exact** `count`, `mean` (via an exact
/// running sum), `min`, and `max`, and backs [`percentile`] with a
/// fixed-size log-linear histogram ([`dope_metrics::LocalHistogram`]).
/// Memory is therefore bounded by the histogram's bucket count
/// regardless of how many responses are recorded.
///
/// The trade-off is on quantiles only: any value returned by
/// [`percentile`] is within
/// [`dope_metrics::QUANTILE_RELATIVE_ERROR`] (= 1/32 ≈ 3.125 %
/// relative error) of the true *exceedance-rank* sample percentile —
/// the smallest recorded value with strictly more than a `q` fraction
/// of samples at or below it (rank `⌊q·n⌋ + 1`, clamped to `n`) —
/// clamped to the exact observed `[min, max]` (so
/// `percentile(1.0) == max()` exactly). The exceedance convention
/// means a tail quantile such as p99 of 100 samples reports the worst
/// sample rather than hiding the single outlier. Samples are quantized
/// to nanoseconds on recording, adding at most 1 ns of absolute error.
///
/// [`percentile`]: ResponseStats::percentile
///
/// # Example
///
/// ```
/// use dope_metrics::QUANTILE_RELATIVE_ERROR;
/// use dope_workload::ResponseStats;
///
/// let mut stats = ResponseStats::new();
/// for t in [1.0, 2.0, 3.0, 10.0] {
///     stats.record(t);
/// }
/// assert_eq!(stats.count(), 4);
/// assert_eq!(stats.mean(), Some(4.0));
/// // Exceedance rank: floor(0.5 * 4) + 1 = 3rd sample => 3.0.
/// let p50 = stats.percentile(0.5).unwrap();
/// assert!((p50 - 3.0).abs() / 3.0 <= QUANTILE_RELATIVE_ERROR + 1e-9);
/// assert_eq!(stats.max(), Some(10.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseStats {
    hist: LocalHistogram,
    /// Exact running sum of recorded seconds (the histogram's own sum is
    /// nanosecond-quantized; this keeps `mean` exact).
    sum_secs: f64,
    /// Exact smallest recorded value (`f64::INFINITY` when empty).
    min_secs: f64,
    /// Exact largest recorded value.
    max_secs: f64,
}

impl Default for ResponseStats {
    fn default() -> Self {
        ResponseStats::new()
    }
}

impl ResponseStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        ResponseStats {
            hist: LocalHistogram::new(),
            sum_secs: 0.0,
            min_secs: f64::INFINITY,
            max_secs: 0.0,
        }
    }

    /// Records one response time in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn record(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "response time must be non-negative, got {secs}"
        );
        self.hist.record_secs(secs);
        self.sum_secs += secs;
        self.min_secs = self.min_secs.min(secs);
        self.max_secs = self.max_secs.max(secs);
    }

    /// Number of recorded responses.
    #[must_use]
    pub fn count(&self) -> usize {
        usize::try_from(self.hist.count()).unwrap_or(usize::MAX)
    }

    /// Mean response time (exact), or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.hist.count();
        (n > 0).then(|| self.sum_secs / n as f64)
    }

    /// The `q`-th percentile (`q` in `[0, 1]`), or `None` if empty.
    ///
    /// Backed by the bounded histogram: the result is within
    /// [`dope_metrics::QUANTILE_RELATIVE_ERROR`] of the true
    /// exceedance-rank sample percentile (rank `floor(q * n) + 1`,
    /// clamped to `n`), clamped to the exact observed `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let approx = self.hist.quantile_secs(q)?;
        Some(approx.clamp(self.min_secs, self.max_secs))
    }

    /// Minimum response time (exact), or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.hist.count() > 0).then_some(self.min_secs)
    }

    /// Maximum response time (exact), or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.hist.count() > 0).then_some(self.max_secs)
    }

    /// The underlying bounded latency histogram.
    #[must_use]
    pub fn histogram(&self) -> &LocalHistogram {
        &self.hist
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ResponseStats) {
        self.hist.merge(&other.hist);
        self.sum_secs += other.sum_secs;
        self.min_secs = self.min_secs.min(other.min_secs);
        self.max_secs = self.max_secs.max(other.max_secs);
    }
}

/// A named sequence of `(time, value)` points: one plotted line.
///
/// # Example
///
/// ```
/// use dope_workload::TimeSeries;
///
/// let mut series = TimeSeries::new("power");
/// series.push(0.0, 525.0);
/// series.push(5.0, 630.0);
/// assert_eq!(series.len(), 2);
/// assert_eq!(series.last_value(), Some(630.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, time_secs: f64, value: f64) {
        self.points.push((time_secs, value));
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The points, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no points were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value of the last point, if any.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of values from `from_secs` onward (e.g. the stable region of
    /// Figure 13/14).
    #[must_use]
    pub fn mean_after(&self, from_secs: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from_secs)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `got` is within the histogram's quantile-error bound of
    /// the exact exceedance-rank value.
    fn assert_close(got: f64, exact: f64) {
        let tolerance = exact * dope_metrics::QUANTILE_RELATIVE_ERROR + 1e-9;
        assert!(
            (got - exact).abs() <= tolerance,
            "got {got}, want {exact} +/- {tolerance}"
        );
    }

    #[test]
    fn response_percentiles_exceedance_rank() {
        let mut s = ResponseStats::new();
        for t in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(t);
        }
        assert_close(s.percentile(0.0).unwrap(), 1.0);
        assert_close(s.percentile(0.5).unwrap(), 3.0);
        // Extreme percentiles clamp to the exact observed range.
        assert_eq!(s.percentile(1.0), Some(5.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn response_count_mean_min_max_stay_exact() {
        let mut s = ResponseStats::new();
        // Values chosen to straddle histogram bucket boundaries.
        for t in [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            s.record(t);
        }
        assert_eq!(s.count(), 7);
        assert_eq!(s.mean(), Some(15.85 / 7.0));
        assert_eq!(s.min(), Some(0.1));
        assert_eq!(s.max(), Some(8.0));
    }

    #[test]
    fn response_memory_is_bounded_under_open_load() {
        let mut s = ResponseStats::new();
        for i in 0..100_000u32 {
            s.record(f64::from(i % 977) / 1000.0);
        }
        assert_eq!(s.count(), 100_000);
        // Bucket storage is capped by the histogram layout, not by the
        // number of samples.
        assert!(s.histogram().count() == 100_000);
        assert_close(s.percentile(0.5).unwrap(), 0.488);
    }

    #[test]
    fn response_empty_is_none() {
        let s = ResponseStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "response time must be non-negative")]
    fn negative_response_panics() {
        ResponseStats::new().record(-1.0);
    }

    #[test]
    fn response_merge_combines() {
        let mut a = ResponseStats::new();
        a.record(1.0);
        let mut b = ResponseStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn time_series_mean_after() {
        let mut s = TimeSeries::new("t");
        s.push(0.0, 10.0);
        s.push(10.0, 2.0);
        s.push(20.0, 4.0);
        assert_eq!(s.mean_after(10.0), Some(3.0));
        assert_eq!(s.mean_after(100.0), None);
    }
}
