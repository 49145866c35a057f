//! Per-worker monitoring shards: the contention-free task-completion
//! record path.
//!
//! Every pool worker that executes a task path owns a private
//! [`RecorderShard`]. Recording a completed `begin`..`end` interval
//! touches only that shard — a handful of arithmetic operations on
//! cache lines no other writer shares, and **zero lock acquisitions**
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
//! enough:
//!
//! * **Writer side** — each store is a private read-modify-write; there
//!   is no competing writer to order against, so no compare-and-swap
//!   and no `Release` fences are needed on the per-record path.
//! * **Reader side** — the monitor discovers a shard by locking the
//!   path's shard list; the lock acquisition that *published* the shard
//!   synchronizes-with the monitor's acquisition, so the shard's
//!   initialized state is visible. Counts read afterwards are `Relaxed`
//!   and may trail the writer by a few operations — the same
//!   approximately-consistent contract Prometheus scrapes already have.
//!   Nothing is ever torn: every cell is a single `AtomicU64`, and the
//!   completion ring packs `(tick, count)` into one word so a slot is
//!   read atomically.
//!
//! The invocation count, the EWMA and the completion ring *rely* on the
//! single-writer invariant (their load-then-store sequences would lose
//! updates under concurrent writers); the busy time and the histogram
//! are `fetch_add` based and merely become contention-free under it.
//!
//! # Counted always, timed sometimes
//!
//! A shard keeps two kinds of state. The invocation count is bumped for
//! every completed invocation ([`RecorderShard::count`]) and is exact at
//! every reading. Everything measured with a clock — busy time, EWMA,
//! histogram, completion ring — is fed by [`RecorderShard::record_timing`]
//! with a *weight*: the live context times one invocation in k (see
//! `instance.rs`) and records it as standing for the k − 1 untimed ones
//! before it. [`RecorderShard::record`] is the two together at weight 1.

use dope_core::Ewma;
use dope_metrics::{Histogram, LocalHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slots in the completion ring. One ring spans one throughput window,
/// so each slot covers `window / RING_SLOTS` — the quantization error of
/// the recent-completions count is bounded by one slot (~3 % of the
/// window).
pub(crate) const RING_SLOTS: u64 = 32;

/// `f64` bit pattern marking "no EWMA sample yet" (NaN never appears as
/// a real EWMA value: samples are finite durations).
const EWMA_EMPTY: u64 = f64::NAN.to_bits();

/// One worker's private measurement state for one task path.
#[derive(Debug)]
pub(crate) struct RecorderShard {
    /// The owning `PathStats` cell's creation instant — the shared
    /// anchor all shards of a path quantize ring ticks against.
    created: Instant,
    /// Completed invocations, timed or not. Single-writer:
    /// load/modify/store.
    invocations: AtomicU64,
    /// Timing records taken, whatever their weight. Single-writer:
    /// load/modify/store.
    timings: AtomicU64,
    busy_nanos: AtomicU64,
    /// Current EWMA of execution seconds as `f64` bits ([`EWMA_EMPTY`]
    /// before the first sample). Single-writer: load/modify/store.
    ewma_bits: AtomicU64,
    /// Completion ring: slot `tick % RING_SLOTS` packs
    /// `(tick as u32) << 32 | count`. Single-writer: load/modify/store.
    ring: [AtomicU64; RING_SLOTS as usize],
    /// Per-shard execution-latency histogram; uncontended `fetch_add`s.
    exec_hist: Histogram,
    /// The monitor-wide self-overhead accumulator (nanoseconds), shared
    /// across every shard and the snapshot path.
    overhead_nanos: Arc<AtomicU64>,
}

/// Nanoseconds per ring slot for `window` (at least 1 to avoid division
/// by zero on degenerate windows).
fn slot_width_nanos(window: Duration) -> u64 {
    ((window.as_nanos() / u128::from(RING_SLOTS)) as u64).max(1)
}

fn pack(tick: u64, count: u64) -> u64 {
    ((tick & 0xffff_ffff) << 32) | (count & 0xffff_ffff)
}

fn unpack(word: u64) -> (u64, u64) {
    (word >> 32, word & 0xffff_ffff)
}

impl RecorderShard {
    pub(crate) fn new(created: Instant, overhead_nanos: Arc<AtomicU64>) -> Self {
        RecorderShard {
            created,
            invocations: AtomicU64::new(0),
            timings: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            ewma_bits: AtomicU64::new(EWMA_EMPTY),
            ring: std::array::from_fn(|_| AtomicU64::new(0)),
            exec_hist: Histogram::new(),
            overhead_nanos,
        }
    }

    fn elapsed_nanos(&self, now: Instant) -> u64 {
        u64::try_from(now.saturating_duration_since(self.created).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one completed, timed `begin`..`end` interval at weight 1.
    pub(crate) fn record(&self, exec: Duration, now: Instant, window: Duration) {
        self.count();
        self.record_timing(exec, 1, now, window);
    }

    /// Counts one completed invocation. A plain store: there is no other
    /// writer to lose an update to.
    pub(crate) fn count(&self) {
        let n = self.invocations.load(Ordering::Relaxed);
        self.invocations.store(n + 1, Ordering::Relaxed);
    }

    /// Records the measured `exec` of one invocation as standing for
    /// `weight` of them (itself and the untimed completions before it),
    /// all attributed to `now`. Lock-free: plain relaxed atomic
    /// arithmetic on this shard's private cache lines. Does not count
    /// invocations — see [`RecorderShard::count`].
    pub(crate) fn record_timing(
        &self,
        exec: Duration,
        weight: u64,
        now: Instant,
        window: Duration,
    ) {
        let nanos = u64::try_from(exec.as_nanos()).unwrap_or(u64::MAX);
        let timings = self.timings.load(Ordering::Relaxed);
        self.timings.store(timings + 1, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(nanos.saturating_mul(weight), Ordering::Relaxed);
        self.exec_hist.record_weighted(nanos, weight);

        // EWMA fold: single-writer load/modify/store. One fold whatever
        // the weight, so the smoothing horizon is counted in samples.
        let prev = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
        let prev = if prev.is_nan() { None } else { Some(prev) };
        let next = Ewma::fold(prev, exec.as_secs_f64());
        self.ewma_bits.store(next.to_bits(), Ordering::Relaxed);

        // Completion ring: bump the current tick's slot, or claim it if
        // it still holds a tick from a previous lap.
        let tick = self.elapsed_nanos(now) / slot_width_nanos(window);
        let slot = &self.ring[(tick % RING_SLOTS) as usize];
        let (stored_tick, count) = unpack(slot.load(Ordering::Relaxed));
        let count = if stored_tick == (tick & 0xffff_ffff) {
            count.saturating_add(weight).min(0xffff_ffff)
        } else {
            weight.min(0xffff_ffff)
        };
        slot.store(pack(tick, count), Ordering::Relaxed);
    }

    /// Charges the monitor's self-overhead meter with the time since
    /// `since` (by a clock read of its own) plus `clock_nanos`: what a
    /// live context spent on a timing record, and on the clock reads
    /// behind it, after it read `since`.
    pub(crate) fn charge_since(&self, since: Instant, clock_nanos: u64) {
        let spent = Instant::now().saturating_duration_since(since);
        let charge = u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX);
        self.overhead_nanos
            .fetch_add(charge.saturating_add(clock_nanos), Ordering::Relaxed);
    }

    /// Completions recorded within the trailing `window` ending at
    /// `now`, quantized to ring slots (error at most one slot width).
    pub(crate) fn recent_completions(&self, now: Instant, window: Duration) -> u64 {
        let slot_w = slot_width_nanos(window);
        let now_tick = self.elapsed_nanos(now) / slot_w;
        let oldest = now_tick.saturating_sub(RING_SLOTS - 1);
        let mut total = 0;
        for (i, slot) in self.ring.iter().enumerate() {
            let (stored_lo, count) = unpack(slot.load(Ordering::Relaxed));
            if count == 0 {
                continue;
            }
            // The only tick in [oldest, now_tick] mapping to slot `i`.
            let lag = (now_tick % RING_SLOTS + RING_SLOTS - i as u64) % RING_SLOTS;
            let candidate = now_tick.saturating_sub(lag);
            if candidate >= oldest && (candidate & 0xffff_ffff) == stored_lo {
                total += count;
            }
        }
        total
    }

    /// Completed invocations counted into this shard.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Accumulated `begin`..`end` work nanoseconds.
    pub(crate) fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    /// This shard's execution-time EWMA, `None` before any record.
    pub(crate) fn ewma_secs(&self) -> Option<f64> {
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        let value = f64::from_bits(bits);
        if value.is_nan() {
            None
        } else {
            Some(value)
        }
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
        RecorderShard::new(Instant::now(), Arc::new(AtomicU64::new(0)))
    }

    fn record(s: &RecorderShard, exec: Duration, now: Instant, window: Duration) {
        s.record(exec, now, window);
    }

    fn hist(s: &RecorderShard) -> LocalHistogram {
        let mut hist = LocalHistogram::new();
        s.merge_hist_into(&mut hist);
        hist
    }

    #[test]
    fn counts_and_busy_accumulate() {
        let s = shard();
        let now = Instant::now();
        let w = Duration::from_secs(10);
        record(&s, Duration::from_millis(2), now, w);
        record(&s, Duration::from_millis(3), now, w);
        assert_eq!(s.invocations(), 2);
        assert_eq!(s.busy_nanos(), 5_000_000);
        assert_eq!(hist(&s).count(), 2);
    }

    #[test]
    fn ewma_matches_the_struct_fold() {
        let s = shard();
        let now = Instant::now();
        let w = Duration::from_secs(10);
        let mut reference = Ewma::default();
        for ms in [10u64, 30, 20, 5] {
            record(&s, Duration::from_millis(ms), now, w);
            reference.update(ms as f64 / 1e3);
        }
        assert_eq!(s.ewma_secs(), reference.value());
    }

    #[test]
    fn ring_counts_recent_and_ages_out() {
        let s = shard();
        let w = Duration::from_secs(10);
        let recording = s.created + Duration::from_secs(1);
        for _ in 0..50 {
            record(&s, Duration::from_micros(10), recording, w);
        }
        assert_eq!(s.recent_completions(recording, w), 50);
        // Two windows later every completion has aged out — including
        // the slot the stale tick still physically occupies.
        let later = s.created + Duration::from_secs(20);
        assert_eq!(s.recent_completions(later, w), 0);
    }

    #[test]
    fn ring_laps_reclaim_stale_slots() {
        let s = shard();
        let w = Duration::from_secs(32); // 1 s slots
        let early = s.created + Duration::from_secs(1);
        record(&s, Duration::from_micros(1), early, w);
        // One full lap later the same slot index is reused: the stale
        // count must be replaced, not added to.
        let lap = s.created + Duration::from_secs(33);
        record(&s, Duration::from_micros(1), lap, w);
        assert_eq!(s.recent_completions(lap, w), 1);
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
        let w = Duration::from_secs(3_200); // 100 s slots: nothing ages out
        let (exact, thinned) = (shard(), shard());
        let (mut exact_ewma, mut thinned_ewma) = (0.0, 0.0);
        for (i, &nanos) in execs.iter().enumerate() {
            let exec = Duration::from_nanos(nanos);
            let now = exact.created + Duration::from_micros(i as u64 * 10);
            exact.record(exec, now, w);
            thinned.count();
            if i % K == K - 1 {
                thinned.record_timing(exec, K as u64, now, w);
            }
            assert_eq!(thinned.invocations(), exact.invocations());
            // The EWMA is a noisy reading by design; compare its level
            // over the run, not two realizations of its last value.
            if i % (N / 64) == N / 64 - 1 {
                exact_ewma += exact.ewma_secs().unwrap();
                thinned_ewma += thinned.ewma_secs().unwrap();
            }
        }
        let end = exact.created + Duration::from_secs(3);
        let (exact_hist, thinned_hist) = (hist(&exact), hist(&thinned));
        assert_eq!(thinned.invocations(), N as u64);
        assert_eq!(thinned_hist.count(), exact_hist.count());
        assert_eq!(thinned.recent_completions(end, w), N as u64);
        assert_eq!(exact.recent_completions(end, w), N as u64);
        assert_eq!(thinned.timings(), (N / K) as u64);

        let within = |what: &str, got: f64, want: f64, tolerance: f64| {
            let error = (got - want).abs() / want;
            assert!(error <= tolerance, "{what}: {got} vs {want} ({error:.4})");
        };
        within(
            "busy",
            thinned.busy_nanos() as f64,
            exact.busy_nanos() as f64,
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
        let s = RecorderShard::new(Instant::now(), Arc::clone(&overhead));
        s.record(
            Duration::from_millis(1),
            Instant::now(),
            Duration::from_secs(10),
        );
        assert_eq!(
            overhead.load(Ordering::Relaxed),
            0,
            "a bare record is unmetered"
        );
        s.charge_since(Instant::now(), 40);
        assert!(overhead.load(Ordering::Relaxed) >= 40);
    }
}
