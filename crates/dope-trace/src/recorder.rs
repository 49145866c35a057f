//! The flight recorder proper: a lock-light, bounded ring buffer.
//!
//! A [`Recorder`] is a cheap, cloneable handle. A *disabled* recorder
//! ([`Recorder::disabled`]) carries no allocation and every call on it is
//! a no-op guarded by a single `Option` check — instrumented code pays
//! nothing when tracing is off. An *enabled* recorder
//! ([`Recorder::bounded`]) shares one ring buffer among all clones: the
//! executive thread, the monitor, worker pools, and platform callbacks
//! can all hold handles and append concurrently.
//!
//! When the ring is full the **oldest** events are evicted and a drop
//! counter advances; sequence numbers are never reused, so gaps in `seq`
//! tell a reader exactly how much was lost.
//!
//! # Example
//!
//! ```
//! use dope_trace::{Recorder, TraceEvent};
//!
//! let recorder = Recorder::bounded(2);
//! for watts in [100.0, 200.0, 300.0] {
//!     recorder.record(TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: watts,
//!     });
//! }
//! let records = recorder.records();
//! assert_eq!(records.len(), 2); // capacity 2: the first event was evicted
//! assert_eq!(records[0].seq, 1); // the gap at seq 0 marks the drop
//! assert_eq!(recorder.dropped(), 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::codec::to_jsonl;
use crate::event::{TraceEvent, TraceRecord};

/// Shared state behind an enabled recorder.
struct Inner {
    /// Wall-clock origin; `record` stamps seconds since this instant.
    start: Instant,
    /// Events evicted because the ring was full.
    dropped: AtomicU64,
    /// Maximum records retained.
    capacity: usize,
    /// The ring itself.
    ring: Mutex<Ring>,
}

/// The state behind the ring lock. The sequence counter lives here, not
/// in an atomic beside the lock, so numbers are handed out in the order
/// records enter the ring: two racing writers can never enqueue `6`
/// before `5`.
#[derive(Default)]
struct Ring {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Retained records, oldest first.
    records: VecDeque<TraceRecord>,
}

/// A cloneable handle onto a (possibly absent) ring buffer of
/// [`TraceRecord`]s.
///
/// See the [module documentation](self) for the contract.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => f
                .debug_struct("Recorder")
                .field("capacity", &inner.capacity)
                .field("len", &inner.ring.lock().records.len())
                .field("dropped", &inner.dropped.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl Recorder {
    /// A recorder that discards everything. All methods are no-ops; this
    /// is the zero-cost default instrumented code should hold.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder retaining at most `capacity` records (minimum 1).
    ///
    /// Clones share the same buffer, start instant, and counters.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the recorder's single sanctioned clock anchor — every record path derives its time_secs from this instant"
                )]
                start: Instant::now(),
                dropped: AtomicU64::new(0),
                capacity: capacity.max(1),
                ring: Mutex::new(Ring::default()),
            })),
        }
    }

    /// `true` if this handle actually records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds elapsed since the recorder was created (0 when disabled).
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |inner| inner.start.elapsed().as_secs_f64())
    }

    /// Records `event` stamped with the current wall-clock offset.
    pub fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let time_secs = inner.start.elapsed().as_secs_f64();
            Self::push(inner, time_secs, event);
        }
    }

    /// Records `event` stamped with an explicit timestamp (used by
    /// simulated sources, which stamp simulated seconds).
    pub fn record_at(&self, time_secs: f64, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            Self::push(inner, time_secs, event);
        }
    }

    /// Records the event produced by `make`, but only when enabled.
    ///
    /// Use this when *building* the event is itself costly (cloning a
    /// snapshot, formatting a goal): the closure never runs on a
    /// disabled recorder.
    pub fn record_with(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let time_secs = inner.start.elapsed().as_secs_f64();
            Self::push(inner, time_secs, make());
        }
    }

    fn push(inner: &Inner, time_secs: f64, event: TraceEvent) {
        let mut ring = inner.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.records.len() >= inner.capacity {
            ring.records.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.records.push_back(TraceRecord {
            seq,
            time_secs,
            event,
        });
    }

    /// A snapshot of the retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.ring.lock().records.iter().cloned().collect()
        })
    }

    /// Removes and returns the retained records, oldest first, in a `Vec`
    /// exactly as large as its contents.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            // The ring's own buffer is handed over, not copied record by
            // record, then trimmed in place: it grew by doubling, and a kept
            // recording would hold up to half of it empty.
            let mut records = Vec::from(std::mem::take(&mut inner.ring.lock().records));
            records.shrink_to_fit();
            records
        })
    }

    /// How many events the ring evicted so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.dropped.load(Ordering::Relaxed))
    }

    /// How many records are currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().records.len())
    }

    /// `true` when nothing is retained (always `true` when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the retained records as schema-versioned JSONL.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::disabled();
        recorder.record(TraceEvent::FeatureRead {
            feature: "SystemPower".to_string(),
            value: 1.0,
        });
        assert!(!recorder.is_enabled());
        assert!(recorder.is_empty());
        assert_eq!(recorder.dropped(), 0);
        assert_eq!(recorder.to_jsonl(), "");
    }

    #[test]
    fn record_with_never_runs_when_disabled() {
        let recorder = Recorder::disabled();
        recorder.record_with(|| panic!("must not be called"));
    }

    #[test]
    fn clones_share_the_ring() {
        let a = Recorder::bounded(8);
        let b = a.clone();
        a.record(TraceEvent::FeatureRead {
            feature: "SystemPower".to_string(),
            value: 1.0,
        });
        b.record(TraceEvent::FeatureRead {
            feature: "SystemPower".to_string(),
            value: 2.0,
        });
        let records = a.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let recorder = Recorder::bounded(3);
        for i in 0..5 {
            recorder.record_at(
                f64::from(i),
                TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: f64::from(i),
                },
            );
        }
        let records = recorder.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 2);
        assert_eq!(records[2].seq, 4);
        assert_eq!(recorder.dropped(), 2);
    }

    #[test]
    fn racing_writers_enqueue_in_sequence_order() {
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 2_000;
        // Smaller than the total, so eviction races the writers too.
        let recorder = Recorder::bounded(4_096);
        let barrier = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..PER_WRITER {
                        recorder.record_at(
                            0.0,
                            TraceEvent::FeatureRead {
                                feature: "SystemPower".to_string(),
                                value: 1.0,
                            },
                        );
                    }
                });
            }
        });
        let records = recorder.records();
        assert!(
            records.windows(2).all(|w| w[0].seq < w[1].seq),
            "retained sequence numbers must be strictly increasing"
        );
        let recorded = WRITERS * PER_WRITER;
        assert_eq!(records.len() as u64 + recorder.dropped(), recorded);
        assert_eq!(records.last().map(|r| r.seq), Some(recorded - 1));
    }

    #[test]
    fn drain_empties_the_ring() {
        let recorder = Recorder::bounded(4);
        recorder.record_at(
            0.0,
            TraceEvent::Finished {
                completed: 1,
                reconfigurations: 0,
                dropped_events: 0,
            },
        );
        assert_eq!(recorder.drain().len(), 1);
        assert!(recorder.is_empty());
    }

    #[test]
    fn explicit_timestamps_are_kept_verbatim() {
        let recorder = Recorder::bounded(4);
        recorder.record_at(
            12.5,
            TraceEvent::Finished {
                completed: 1,
                reconfigurations: 0,
                dropped_events: 0,
            },
        );
        assert_eq!(recorder.records()[0].time_secs, 12.5);
    }
}
