//! Log-linear ("HDR-style") fixed-bucket latency histograms.
//!
//! Values are nanoseconds stored as `u64`. The bucket layout is
//! *log-linear*: bucket widths double every octave but each octave is
//! subdivided linearly, bounding the **relative** quantile error by the
//! sub-bucket resolution instead of wasting memory on linear buckets or
//! precision on purely exponential ones.
//!
//! Concretely, with [`SUB_BITS`] = 6:
//!
//! * group 0 covers `[0, 64)` ns with 64 buckets of width 1 (exact);
//! * group `g >= 1` covers `[64 << (g-1), 64 << g)` ns with 32 buckets
//!   of width `2^g`.
//!
//! Every recorded value lands in a bucket whose width is at most
//! `value / 32`, so any quantile read from bucket upper bounds is within
//! [`QUANTILE_RELATIVE_ERROR`] (= 1/32 ≈ 3.125 %) of the true sample
//! quantile. 1920 buckets cover the full `u64` range (~584 years in
//! nanoseconds), so recording can never overflow or clamp.
//!
//! Two concrete types share the layout:
//!
//! * [`Histogram`] — atomics per bucket, for concurrent hot paths (the
//!   monitor's record of a timed invocation is one `fetch_add` each for
//!   the bucket, count and sum, and a read-modify-write of min or max
//!   only when the value moves one of them). It is only written to;
//!   every reading goes through a [`snapshot`](Histogram::snapshot);
//! * [`LocalHistogram`] — a plain single-threaded variant with
//!   grow-on-demand storage, `Clone`/`PartialEq`, and `merge`, used by
//!   `ResponseStats`, the offline `dope-trace stats` summarizer and
//!   every reading of a [`Histogram`].
//!
//! ```
//! use dope_metrics::Histogram;
//!
//! let h = Histogram::new();
//! for ms in [1_u64, 2, 3, 4, 100] {
//!     h.record_secs(ms as f64 / 1e3);
//! }
//! let reading = h.snapshot();
//! assert_eq!(reading.count(), 5);
//! let p50 = reading.quantile_secs(0.50).unwrap();
//! assert!((p50 - 0.003).abs() / 0.003 < 0.04, "p50 = {p50}");
//! let p99 = reading.quantile_secs(0.99).unwrap();
//! assert!((p99 - 0.100).abs() / 0.100 < 0.04, "p99 = {p99}");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS; // 64
const SUB_HALF: u64 = SUB_COUNT / 2; // 32

/// Number of value groups: group 0 plus one per remaining octave of u64.
const GROUPS: usize = (64 - SUB_BITS as usize) + 1; // 59

/// Total number of buckets in the layout.
pub const BUCKET_COUNT: usize = SUB_COUNT as usize + (GROUPS - 1) * SUB_HALF as usize; // 1920

/// Worst-case relative error of any quantile reported by these
/// histograms, by construction of the bucket widths.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.0 / SUB_HALF as f64;

/// Maps a nanosecond value to its bucket index. Total over all of `u64`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    // Highest set bit; value >= 64 so msb >= SUB_BITS.
    let msb = 63 - value.leading_zeros();
    let group = (msb - (SUB_BITS - 1)) as u64; // >= 1
    let sub = (value >> group) - SUB_HALF; // in [0, 32)
    (SUB_COUNT + (group - 1) * SUB_HALF + sub) as usize
}

/// The half-open nanosecond range `[low, high)` covered by bucket `index`.
///
/// The final bucket's upper bound saturates at `u64::MAX`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB_COUNT {
        return (index, index + 1);
    }
    let group = (index - SUB_COUNT) / SUB_HALF + 1;
    let sub = (index - SUB_COUNT) % SUB_HALF;
    let low = (SUB_HALF + sub) << group;
    let high = low.saturating_add(1 << group);
    (low, high)
}

const NANOS_PER_SEC: f64 = 1e9;

fn secs_to_nanos(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC;
    if nanos >= u64::MAX as f64 {
        u64::MAX // covers +Inf
    } else {
        nanos as u64
    }
}

/// Shared quantile logic over any bucket iterator: the upper bounds
/// (in ns) of the buckets holding each of `ranks`, in one pass.
///
/// `ranks` are 1-based (the k-th smallest recorded value) and ascending.
/// A rank beyond the counts seen reports the highest non-empty bucket.
fn rank_bucket_uppers<const N: usize>(
    counts: impl Iterator<Item = (usize, u64)>,
    ranks: [u64; N],
) -> [u64; N] {
    let upper = |idx| {
        bucket_bounds(idx)
            .1
            .saturating_sub(1)
            .max(bucket_bounds(idx).0)
    };
    let mut out = [0; N];
    let (mut seen, mut next, mut top) = (0u64, 0, None);
    for (idx, c) in counts.filter(|&(_, c)| c > 0) {
        seen += c;
        top = Some(idx);
        while next < N && seen >= ranks[next] {
            out[next] = upper(idx);
            next += 1;
        }
        if next == N {
            return out;
        }
    }
    out[next..].fill(top.map_or(0, upper));
    out
}

/// 1-based rank of the `q`-quantile under the *exceedance* convention:
/// the smallest rank strictly greater than `q * count` (clamped to
/// `[1, count]`).
///
/// The previous nearest-rank rule (`ceil(q * count)`) hid exactly the
/// observations tail quantiles exist to expose: with 100 samples, 99
/// fast and 1 slow, `p99` ranked `ceil(99) = 99` and reported a *fast*
/// sample. `floor(q * count) + 1` ranks 100 and reports the outlier,
/// while agreeing with nearest-rank everywhere `q * count` is not an
/// exact integer.
fn quantile_rank(q: f64, count: u64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    (((q * count as f64).floor()) as u64)
        .saturating_add(1)
        .clamp(1, count)
}

/// A concurrent log-linear histogram of nanosecond latencies.
///
/// All operations are lock-free (`Relaxed` atomics). A
/// [`snapshot`](Histogram::snapshot) taken while writers are active may
/// miss their latest records, but its count is the sum of the buckets it
/// read, so its buckets, quantiles and count agree with each other.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        // Box<[AtomicU64; N]> without a large stack temporary.
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> = (0..BUCKET_COUNT)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length is BUCKET_COUNT"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond value.
    pub fn record_nanos(&self, nanos: u64) {
        self.record_weighted(nanos, 1);
    }

    /// Records `weight` observations of one nanosecond value: a sampled
    /// measurement standing for the unmeasured ones around it.
    pub fn record_weighted(&self, nanos: u64, weight: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(weight, Ordering::Relaxed);
        self.count.fetch_add(weight, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(nanos.saturating_mul(weight), Ordering::Relaxed);
        // The extremes only ever tighten, so a value inside them needs no
        // read-modify-write — whatever other writers do meanwhile.
        if nanos < self.min_nanos.load(Ordering::Relaxed) {
            self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        }
        if nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Records one duration expressed in seconds (negative or non-finite
    /// values clamp to 0).
    pub fn record_secs(&self, secs: f64) {
        self.record_nanos(secs_to_nanos(secs));
    }

    /// A point-in-time single-threaded copy of this histogram.
    #[must_use]
    pub fn snapshot(&self) -> LocalHistogram {
        let mut local = LocalHistogram::new();
        self.merge_into(&mut local);
        local
    }

    /// Folds a point-in-time reading of this histogram straight into
    /// `into`, with no intermediate copy. Only the buckets up to the
    /// largest value recorded so far are visited, and the count folded
    /// is the sum of the buckets read, so `into` stays self-consistent
    /// (every quantile rank lands in a bucket) under concurrent writers.
    pub fn merge_into(&self, into: &mut LocalHistogram) {
        let max_nanos = self.max_nanos.load(Ordering::Relaxed);
        let top = bucket_index(max_nanos);
        if into.buckets.len() <= top {
            into.buckets.resize(top + 1, 0);
        }
        let mut count = 0;
        for (slot, bucket) in into.buckets.iter_mut().zip(&self.buckets[..=top]) {
            let c = bucket.load(Ordering::Relaxed);
            *slot += c;
            count += c;
        }
        into.count += count;
        into.sum_nanos = into
            .sum_nanos
            .saturating_add(self.sum_nanos.load(Ordering::Relaxed));
        into.min_nanos = into.min_nanos.min(self.min_nanos.load(Ordering::Relaxed));
        into.max_nanos = into.max_nanos.max(max_nanos);
    }
}

/// A plain (non-atomic) log-linear histogram with the same bucket layout
/// as [`Histogram`].
///
/// Storage grows on demand, so an empty or low-latency histogram stays
/// tiny. Used where `Clone`/`PartialEq`/`merge` matter more than
/// concurrency: `dope-workload`'s `ResponseStats` and the offline trace
/// summarizer.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    /// Bucket counts; trailing zero buckets may be absent.
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for LocalHistogram {
    fn eq(&self, other: &Self) -> bool {
        if (self.count, self.sum_nanos) != (other.count, other.sum_nanos) {
            return false;
        }
        if self.count > 0 && (self.min_nanos, self.max_nanos) != (other.min_nanos, other.max_nanos)
        {
            return false;
        }
        // Compare buckets, padding the shorter Vec with zeros.
        let longest = self.buckets.len().max(other.buckets.len());
        (0..longest).all(|i| {
            self.buckets.get(i).copied().unwrap_or(0) == other.buckets.get(i).copied().unwrap_or(0)
        })
    }
}

impl LocalHistogram {
    /// An empty histogram (no bucket storage allocated yet).
    #[must_use]
    pub fn new() -> Self {
        LocalHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// Forgets every recorded value but keeps the bucket storage, so a
    /// histogram merged into over and over stops allocating once it has
    /// seen its widest value.
    pub fn clear(&mut self) {
        self.buckets.clear();
        *self = LocalHistogram {
            buckets: std::mem::take(&mut self.buckets),
            ..LocalHistogram::new()
        };
    }

    fn add_bucket(&mut self, index: usize, n: u64) {
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += n;
    }

    /// Records one nanosecond value.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.add_bucket(bucket_index(nanos), 1);
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Records one duration expressed in seconds (negative or non-finite
    /// values clamp to 0).
    pub fn record_secs(&mut self, secs: f64) {
        self.record_nanos(secs_to_nanos(secs));
    }

    /// Absorbs every recorded value of `other` into `self`.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (i, &c) in other.buckets.iter().enumerate() {
            if c > 0 {
                self.add_bucket(i, c);
            }
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values, in seconds.
    #[must_use]
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos as f64 / NANOS_PER_SEC
    }

    /// Mean recorded value in seconds (`None` when empty).
    #[must_use]
    pub fn mean_secs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_secs() / self.count as f64)
    }

    /// Smallest recorded value in seconds (`None` when empty).
    #[must_use]
    pub fn min_secs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_nanos as f64 / NANOS_PER_SEC)
    }

    /// Largest recorded value in seconds (`None` when empty).
    #[must_use]
    pub fn max_secs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_nanos as f64 / NANOS_PER_SEC)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in seconds, within
    /// [`QUANTILE_RELATIVE_ERROR`] of the true sample quantile, clamped
    /// to the observed `[min, max]`. `None` when empty.
    #[must_use]
    pub fn quantile_secs(&self, q: f64) -> Option<f64> {
        self.quantiles_secs([q]).map(|[v]| v)
    }

    /// Several quantiles (ascending `qs`) from one pass over the buckets;
    /// each as [`LocalHistogram::quantile_secs`] reports it.
    #[must_use]
    pub fn quantiles_secs<const N: usize>(&self, qs: [f64; N]) -> Option<[f64; N]> {
        if self.count == 0 {
            return None;
        }
        let nanos = rank_bucket_uppers(
            self.buckets.iter().copied().enumerate(),
            qs.map(|q| quantile_rank(q, self.count)),
        );
        Some(nanos.map(|n| n.clamp(self.min_nanos, self.max_nanos) as f64 / NANOS_PER_SEC))
    }

    /// Number of recorded values `<= upper_secs` (cumulative, Prometheus
    /// `le` semantics, conservative: a fine bucket counts when its whole
    /// range lies at or below the boundary).
    #[must_use]
    pub fn cumulative_le_secs(&self, upper_secs: f64) -> u64 {
        let upper = secs_to_nanos(upper_secs);
        let mut total = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (_, high) = bucket_bounds(i);
            // Bucket range [low, high) fits under `upper` iff high-1 <= upper.
            if high.saturating_sub(1) <= upper {
                total += c;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        let probes = [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1_000,
            1_000_000,
            1_000_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < BUCKET_COUNT, "index {idx} out of range for {v}");
            if let Some(prev) = last {
                assert!(idx >= prev, "index not monotone at {v}");
            }
            last = Some(idx);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_bounds_round_trip() {
        for idx in 0..BUCKET_COUNT {
            let (low, high) = bucket_bounds(idx);
            assert!(low < high, "empty bucket {idx}");
            assert_eq!(bucket_index(low), idx, "low bound of {idx}");
            assert_eq!(bucket_index(high - 1), idx, "high bound of {idx}");
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for &v in &[64u64, 100, 999, 12_345, 1 << 40] {
            let (low, high) = bucket_bounds(bucket_index(v));
            let width = (high - low) as f64;
            assert!(
                width / low as f64 <= QUANTILE_RELATIVE_ERROR + 1e-12,
                "bucket [{low},{high}) too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_bound() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect(); // 1..1000 ms
        for &v in &values {
            h.record_nanos(v);
        }
        values.sort_unstable();
        let h = h.snapshot();
        for &q in &[0.5f64, 0.9, 0.95, 0.99, 1.0] {
            let exact = values[((q * 1000.0).ceil() as usize).clamp(1, 1000) - 1] as f64 / 1e9;
            let approx = h.quantile_secs(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(rel <= QUANTILE_RELATIVE_ERROR, "q={q}: {approx} vs {exact}");
        }
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new().snapshot();
        assert_eq!(h.count(), 0);
        assert!(h.quantile_secs(0.5).is_none());
        assert!(h.mean_secs().is_none());
        assert!(h.min_secs().is_none());
        assert!(h.max_secs().is_none());
        let l = LocalHistogram::new();
        assert!(l.quantile_secs(0.99).is_none());
    }

    #[test]
    fn single_value_quantiles_clamp_to_observation() {
        let h = Histogram::new();
        h.record_secs(0.010);
        let h = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_secs(q).unwrap();
            assert!(
                (v - 0.010).abs() / 0.010 <= QUANTILE_RELATIVE_ERROR,
                "q={q}: {v}"
            );
        }
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        let h = Histogram::new();
        h.record_secs(-1.0);
        h.record_secs(f64::NAN);
        let h = h.snapshot();
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_secs(1.0), Some(0.0));
    }

    #[test]
    fn cumulative_le_matches_manual_count() {
        let h = Histogram::new();
        for ms in [1u64, 2, 5, 10, 20, 50] {
            h.record_secs(ms as f64 / 1e3);
        }
        let h = h.snapshot();
        assert_eq!(h.cumulative_le_secs(0.0005), 0);
        assert!(h.cumulative_le_secs(0.011) >= 4);
        assert_eq!(h.cumulative_le_secs(1.0), 6);
        assert_eq!(h.cumulative_le_secs(f64::INFINITY), 6);
    }

    #[test]
    fn local_merge_equals_combined_recording() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        let mut combined = LocalHistogram::new();
        for v in [10u64, 200, 3_000] {
            a.record_nanos(v);
            combined.record_nanos(v);
        }
        for v in [40_000u64, 500_000] {
            b.record_nanos(v);
            combined.record_nanos(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn local_partial_eq_ignores_trailing_zero_buckets() {
        let mut a = LocalHistogram::new();
        a.record_nanos(5);
        let mut b = a.clone();
        // Force b to have longer (all-zero) storage.
        b.add_bucket(500, 1);
        b.buckets[500] = 0;
        assert_eq!(a, b);
    }

    #[test]
    fn merge_into_folds_weighted_records_like_repeated_ones() {
        let (weighted, repeated) = (Histogram::new(), Histogram::new());
        for (v, w) in [(7u64, 3u64), (4_096, 1), (1_000_000, 64)] {
            weighted.record_weighted(v, w);
            for _ in 0..w {
                repeated.record_nanos(v);
            }
        }
        assert_eq!(weighted.snapshot(), repeated.snapshot());
        // Folding into a populated aggregate adds, bucket by bucket.
        let mut into = repeated.snapshot();
        weighted.merge_into(&mut into);
        let mut twice = repeated.snapshot();
        twice.merge(&repeated.snapshot());
        assert_eq!(into, twice);
        // An empty histogram folds to nothing.
        Histogram::new().merge_into(&mut into);
        assert_eq!(into, twice);
    }

    #[test]
    fn one_pass_quantiles_equal_the_single_quantile_reads() {
        let mut h = LocalHistogram::new();
        for i in 1..=1000u64 {
            h.record_nanos(i * 1_000);
        }
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0];
        let together = h.quantiles_secs(qs).unwrap();
        for (q, got) in qs.into_iter().zip(together) {
            assert_eq!(Some(got), h.quantile_secs(q), "q={q}");
        }
        assert!(LocalHistogram::new().quantiles_secs(qs).is_none());
    }

    #[test]
    fn atomic_snapshot_equals_local_recording() {
        let h = Histogram::new();
        let mut l = LocalHistogram::new();
        for v in [1u64, 70, 4_096, 1_000_000] {
            h.record_nanos(v);
            l.record_nanos(v);
        }
        assert_eq!(h.snapshot(), l);
    }

    #[test]
    fn a_cleared_local_histogram_is_empty_and_keeps_its_storage() {
        let mut h = LocalHistogram::new();
        h.record_secs(0.5);
        let capacity = h.buckets.capacity();
        h.clear();
        assert_eq!(h, LocalHistogram::new());
        assert!(h.min_secs().is_none() && h.quantile_secs(0.5).is_none());
        h.record_secs(0.5);
        assert_eq!(
            h.buckets.capacity(),
            capacity,
            "re-recording must not regrow"
        );
        assert_eq!(h.min_secs(), Some(0.5));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_nanos(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 4000);
    }
}
