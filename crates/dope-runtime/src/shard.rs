//! Per-worker monitoring shards: the contention-free task-completion
//! record path.
//!
//! Every pool worker that executes a task path owns a private
//! [`RecorderShard`]. Recording a completed `begin`..`end` interval
//! touches only that shard — a handful of arithmetic operations on
//! words no other thread writes, and **zero lock acquisitions**
//! (enforced by `lockrank::acquisitions_on_this_thread` in the
//! `record_path_acquires_no_locks` test). The monitor thread merges all
//! of a path's shards into one view at snapshot or scrape time.
//!
//! # Single-writer discipline and memory ordering
//!
//! A shard has exactly one writer: shards are keyed by `ThreadId`, a
//! pool worker runs one job at a time, and a job drives one `LiveCx`.
//! Every field is therefore written by one thread and read by another
//! (the monitor), which is why plain `Relaxed` loads and stores are
//! enough but for one ordered pair:
//!
//! * **Writer side** — each store is a private read-modify-write; there
//!   is no competing writer to order against, so no compare-and-swap is
//!   needed on the per-record path.
//! * **Reader side** — the monitor discovers a shard by locking the
//!   path's shard list; the lock acquisition that *published* the shard
//!   synchronizes-with the monitor's acquisition, so the shard's
//!   initialized state is visible. Counts read afterwards are `Relaxed`
//!   and may trail the writer by a few operations — the same
//!   approximately-consistent contract Prometheus scrapes already have.
//!   Nothing is ever torn: each field is one `AtomicU64`, and the
//!   histogram is a row of them.
//! * **The ordered pair** — a timing record clears the in-flight stamp
//!   before its `Release` add of busy time, and a read loads busy time
//!   `Acquire` before the stamp, so no interval counts twice.
//!
//! The invocation count and the EWMA *rely* on the single-writer
//! invariant (their load-then-store sequences would lose updates under
//! concurrent writers); the busy time and the histogram are `fetch_add`
//! based and merely become contention-free under it.
//!
//! # Counted always, timed sometimes
//!
//! A shard keeps two kinds of state. The invocation count is bumped for
//! every completed invocation ([`RecorderShard::count`]) and is exact at
//! every reading. Everything measured with a clock — busy time, EWMA,
//! histogram — is fed by [`RecorderShard::record_timing`] with a
//! *weight*: the live context times one invocation in k (see
//! `instance.rs`) and records it as standing for the k − 1 untimed ones
//! before it. [`RecorderShard::record`] is the two together at weight 1.
//! A timed invocation under way is busy from its begin stamp on, so one
//! longer than a control period is busy in every period it spans.

use dope_core::Ewma;
use dope_metrics::{Histogram, LocalHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `f64` bit pattern marking "no EWMA sample yet" (NaN never appears as
/// a real EWMA value: samples are finite durations).
const EWMA_EMPTY: u64 = f64::NAN.to_bits();

/// The in-flight stamp between timed invocations: a begin that never
/// comes, so the time since it saturates to zero.
const IDLE: u64 = u64::MAX;

/// One worker's private measurement state for one task path.
#[derive(Debug)]
pub(crate) struct RecorderShard {
    /// Completed invocations, timed or not. Single-writer:
    /// load/modify/store.
    invocations: AtomicU64,
    /// Timing records taken, whatever their weight. Single-writer:
    /// load/modify/store.
    timings: AtomicU64,
    busy_nanos: AtomicU64,
    /// When the timed invocation under way began, in nanoseconds after
    /// the shard was made (`anchor`); [`IDLE`] when none is.
    in_flight_since: AtomicU64,
    anchor: Instant,
    /// Current EWMA of execution seconds as `f64` bits ([`EWMA_EMPTY`]
    /// before the first sample). Single-writer: load/modify/store.
    ewma_bits: AtomicU64,
    /// Per-shard execution-latency histogram; uncontended `fetch_add`s.
    exec_hist: Histogram,
    /// The monitor-wide self-overhead accumulator (nanoseconds), shared
    /// across every shard and the snapshot path.
    overhead_nanos: Arc<AtomicU64>,
}

impl RecorderShard {
    pub(crate) fn new(overhead_nanos: Arc<AtomicU64>) -> Self {
        RecorderShard {
            invocations: AtomicU64::new(0),
            timings: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            in_flight_since: AtomicU64::new(IDLE),
            anchor: Instant::now(),
            ewma_bits: AtomicU64::new(EWMA_EMPTY),
            exec_hist: Histogram::new(),
            overhead_nanos,
        }
    }

    /// Records one completed, timed `begin`..`end` interval at weight 1.
    pub(crate) fn record(&self, exec: Duration) {
        self.count();
        self.record_timing(exec, 1);
    }

    /// Counts one completed invocation. A plain store: there is no other
    /// writer to lose an update to.
    pub(crate) fn count(&self) {
        let n = self.invocations.load(Ordering::Relaxed);
        self.invocations.store(n + 1, Ordering::Relaxed);
    }

    /// Notes the timed invocation under way since `at` (`None`: none is),
    /// whose time so far reads as busy until its timing record.
    pub(crate) fn set_in_flight(&self, at: Option<Instant>) {
        let since = at.map_or(IDLE, |at| nanos(at.saturating_duration_since(self.anchor)));
        self.in_flight_since.store(since, Ordering::Relaxed);
    }

    /// Records the measured `exec` of one invocation as standing for
    /// `weight` of them (itself and the untimed completions before it),
    /// ending the timed invocation under way. Lock-free: plain atomic
    /// arithmetic on this shard's private state. Does not count
    /// invocations — see [`RecorderShard::count`].
    pub(crate) fn record_timing(&self, exec: Duration, weight: u64) {
        let nanos = nanos(exec);
        let timings = self.timings.load(Ordering::Relaxed);
        self.timings.store(timings + 1, Ordering::Relaxed);
        self.set_in_flight(None);
        self.busy_nanos
            .fetch_add(nanos.saturating_mul(weight), Ordering::Release);
        self.exec_hist.record_weighted(nanos, weight);

        // EWMA fold: single-writer load/modify/store. One fold whatever
        // the weight, so the smoothing horizon is counted in samples.
        let next = Ewma::fold(self.ewma_secs(), exec.as_secs_f64());
        self.ewma_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Charges the monitor's self-overhead meter with the time since
    /// `since` (by a clock read of its own) plus `clock_nanos`: what a
    /// live context spent on a timing record, and on the clock reads
    /// behind it, after it read `since`.
    pub(crate) fn charge_since(&self, since: Instant, clock_nanos: u64) {
        let charge = nanos(Instant::now().saturating_duration_since(since));
        self.overhead_nanos
            .fetch_add(charge.saturating_add(clock_nanos), Ordering::Relaxed);
    }

    /// Completed invocations counted into this shard.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// `begin`..`end` work nanoseconds as of `now`: those recorded plus
    /// the time so far of the timed invocation under way.
    pub(crate) fn busy_nanos_at(&self, now: Instant) -> u64 {
        let recorded = self.busy_nanos.load(Ordering::Acquire);
        let since = self.in_flight_since.load(Ordering::Relaxed);
        recorded + nanos(now.saturating_duration_since(self.anchor)).saturating_sub(since)
    }

    /// This shard's execution-time EWMA, `None` before any record.
    pub(crate) fn ewma_secs(&self) -> Option<f64> {
        let value = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
        (!value.is_nan()).then_some(value)
    }

    /// Timing records taken so far: how many invocations paid for clock
    /// reads, against [`RecorderShard::invocations`] that were counted.
    pub(crate) fn timings(&self) -> u64 {
        self.timings.load(Ordering::Relaxed)
    }

    /// Folds this shard's latency histogram into `into`.
    pub(crate) fn merge_hist_into(&self, into: &mut LocalHistogram) {
        self.exec_hist.merge_into(into);
    }
}

fn nanos(span: Duration) -> u64 {
    u64::try_from(span.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_metrics::QUANTILE_RELATIVE_ERROR;

    /// How far busy time and mean execution time may sit from the exact
    /// figures when one invocation in 64 is timed.
    const SAMPLED_MEAN_ERROR: f64 = 0.05;
    /// The same for p50 / p99, on top of the histogram's own resolution.
    const SAMPLED_QUANTILE_ERROR: f64 = QUANTILE_RELATIVE_ERROR + 0.05;

    fn shard() -> RecorderShard {
        RecorderShard::new(Arc::new(AtomicU64::new(0)))
    }

    fn busy(s: &RecorderShard) -> u64 {
        s.busy_nanos_at(Instant::now())
    }

    fn hist(s: &RecorderShard) -> LocalHistogram {
        let mut hist = LocalHistogram::new();
        s.merge_hist_into(&mut hist);
        hist
    }

    #[test]
    fn counts_and_busy_accumulate() {
        let s = shard();
        s.record(Duration::from_millis(2));
        s.record(Duration::from_millis(3));
        assert_eq!(s.invocations(), 2);
        assert_eq!(busy(&s), 5_000_000);
        assert_eq!(hist(&s).count(), 2);
    }

    /// A timed invocation under way reads as busy for its time so far,
    /// and its timing record replaces that reading instead of adding to
    /// it.
    #[test]
    fn an_invocation_under_way_is_busy_until_its_record_lands() {
        let s = shard();
        s.record(Duration::from_millis(5));
        let began = s.anchor + Duration::from_secs(1);
        s.set_in_flight(Some(began));
        let later = |millis| began + Duration::from_millis(millis);
        assert_eq!(s.busy_nanos_at(later(30)), 35_000_000);
        assert_eq!(s.busy_nanos_at(later(80)), 85_000_000);
        s.record_timing(Duration::from_millis(90), 1);
        assert_eq!(s.busy_nanos_at(later(9_000)), 95_000_000);
    }

    #[test]
    fn ewma_matches_the_struct_fold() {
        let s = shard();
        let mut reference = Ewma::default();
        for ms in [10u64, 30, 20, 5] {
            s.record(Duration::from_millis(ms));
            reference.update(ms as f64 / 1e3);
        }
        assert_eq!(s.ewma_secs(), reference.value());
    }

    /// Deterministic log-normal execution times: 2 µs median, σ = 0.5.
    fn log_normal_nanos(n: usize) -> Vec<u64> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let z = (-2.0 * uniform().ln()).sqrt() * (std::f64::consts::TAU * uniform()).cos();
                (2_000.0 * (0.5 * z).exp()) as u64
            })
            .collect()
    }

    #[test]
    fn thinned_weighted_recording_tracks_the_exact_reference() {
        // The worst case the live context produces: one invocation in
        // MAX_STRIDE timed, each standing for the 63 before it.
        const K: usize = 64;
        const N: usize = 256_000;
        let execs = log_normal_nanos(N);
        let (exact, thinned) = (shard(), shard());
        let (mut exact_ewma, mut thinned_ewma) = (0.0, 0.0);
        for (i, &nanos) in execs.iter().enumerate() {
            let exec = Duration::from_nanos(nanos);
            exact.record(exec);
            thinned.count();
            if i % K == K - 1 {
                thinned.record_timing(exec, K as u64);
            }
            assert_eq!(thinned.invocations(), exact.invocations());
            // The EWMA is a noisy reading by design; compare its level
            // over the run, not two realizations of its last value.
            if i % (N / 64) == N / 64 - 1 {
                exact_ewma += exact.ewma_secs().unwrap();
                thinned_ewma += thinned.ewma_secs().unwrap();
            }
        }
        let (exact_hist, thinned_hist) = (hist(&exact), hist(&thinned));
        assert_eq!(thinned.invocations(), N as u64);
        assert_eq!(thinned_hist.count(), exact_hist.count());
        assert_eq!(thinned.timings(), (N / K) as u64);

        let within = |what: &str, got: f64, want: f64, tolerance: f64| {
            let error = (got - want).abs() / want;
            assert!(error <= tolerance, "{what}: {got} vs {want} ({error:.4})");
        };
        within(
            "busy",
            busy(&thinned) as f64,
            busy(&exact) as f64,
            SAMPLED_MEAN_ERROR,
        );
        within("ewma", thinned_ewma, exact_ewma, SAMPLED_MEAN_ERROR);
        for q in [0.50, 0.99] {
            within(
                "quantile",
                thinned_hist.quantile_secs(q).unwrap(),
                exact_hist.quantile_secs(q).unwrap(),
                SAMPLED_QUANTILE_ERROR,
            );
        }
    }

    #[test]
    fn charging_advances_the_overhead_meter() {
        let overhead = Arc::new(AtomicU64::new(0));
        let s = RecorderShard::new(Arc::clone(&overhead));
        s.record(Duration::from_millis(1));
        assert_eq!(
            overhead.load(Ordering::Relaxed),
            0,
            "a bare record is unmetered"
        );
        s.charge_since(Instant::now(), 40);
        assert!(overhead.load(Ordering::Relaxed) >= 40);
    }
}
