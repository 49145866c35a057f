//! The work queue: an admission-gated FIFO that closes to drain.
//!
//! [`AdmissionQueue`] is the crate's one queue ([`WorkQueue`](crate::WorkQueue)
//! is it under `AdmissionPolicy::Open`); the policy decides what an offer
//! past saturation does:
//!
//! * `Open` — every offer is admitted (the unbounded queue);
//! * `Block` — offers block the producer while occupancy is at
//!   capacity (closed-loop backpressure: the arrival process slows, no
//!   request is lost);
//! * `Shed` — offers made at or above the high watermark are dropped
//!   immediately, **without taking the queue lock**: the shed verdict
//!   reads an atomic occupancy mirror only, so overload cannot create
//!   lock contention at the front door (the same discipline as the
//!   monitor's lock-free record path);
//! * `Deadline` — offers are stamped on admission and a request whose
//!   queue delay exceeds the budget when a worker would pick it up is
//!   dropped at dispatch instead of served.
//!
//! Closing lets consumers take until the queue is empty, then observe
//! [`DequeueOutcome::Drained`] — the drain the paper's `FiniCB` sentinel
//! cascade uses to steer a nest into a globally consistent state.
//!
//! # Stamps
//!
//! Only `Deadline` *judges* by the admission stamp; under the other
//! policies it feeds one statistic, the mean queue delay, so the live
//! clock is read for a sample of the traffic, not for every item:
//! `offer` stamps every 16th admitted item and every hand-off to a parked
//! consumer (an item that finds the queue empty and a consumer parked),
//! and `take` reads the clock when it pops a stamped item, after any park.
//! Sparse traffic is therefore stamped throughout, while a burst offered
//! during one wake-up is sampled one in 16. `offer_at` /
//! `take_at`, whose caller supplies the time, stamp and judge everything;
//! `take_at` reads the wall clock only to time a park, which is how
//! `dope-sim` queues its requests in this gate (it takes with a zero
//! timeout, and only from a non-empty gate).
//!
//! # Counter invariants
//!
//! `offered == admitted + shed_high_water` in every [`stats`] read (the
//! gate adds the two up rather than counting offers), and `shed_deadline
//! <= admitted` (deadline drops happen at dispatch). Offers rejected by a
//! closed queue touch no counter: the run is over. Only the shed path does
//! a locked read-modify-write; the other counters are written under the
//! queue lock with a plain load and store.
//!
//! [`stats`]: AdmissionQueue::stats
//!
//! # Wake-ups
//!
//! Consumers park on `not_empty`, `Block` producers on `not_full`, and
//! each side is woken only when one of its threads is actually parked
//! (the rule and its invariant live in `handoff.rs`): an admitted offer
//! wakes at most one consumer, a dispatch wakes at most one blocked
//! producer — which under `Open`, `Shed` and `Deadline` never exists —
//! and a saturated gate makes no syscall at all. `close` wakes both
//! sides. A `take`'s timeout bounds the whole call, not each park
//! inside it.
//!
//! A task body waits in [`take_for`](AdmissionQueue::take_for) instead:
//! no timer, and a suspend of the body's path is the third thing that
//! wakes it (`handoff.rs`, "Suspension").
//!
//! # Example
//!
//! ```
//! use dope_core::AdmissionPolicy;
//! use dope_workload::admission::{AdmissionQueue, OfferOutcome};
//!
//! let q = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 2 });
//! assert_eq!(q.offer_at("a", 0.0), OfferOutcome::Admitted);
//! assert_eq!(q.offer_at("b", 0.1), OfferOutcome::Admitted);
//! // Occupancy is at the high watermark: the next offer is shed.
//! assert_eq!(q.offer_at("c", 0.2), OfferOutcome::Shed("c"));
//! let stats = q.stats();
//! assert_eq!(stats.offered, 3);
//! assert_eq!(stats.admitted, 2);
//! assert_eq!(stats.shed_high_water, 1);
//! ```

use crate::handoff::{Sleepers, WaitBudget};
use crate::queue::{DequeueOutcome, Waited};
use dope_core::{AdmissionPolicy, AdmissionStats, ParkedQueue, TaskCx};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened to one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome<T> {
    /// The request entered the queue (possibly after blocking).
    Admitted,
    /// The request was shed by the high-watermark policy; the item is
    /// returned so the producer can account for it.
    Shed(T),
    /// The queue was closed; the item is returned. Not counted as
    /// offered traffic.
    Closed(T),
}

/// Under `Open`, `Block` and `Shed` a live `offer` stamps one admitted
/// item in this many. A saturated gate moves an item every ~100 ns, so
/// one in 16 still stamps hundreds of thousands a second for a mean that
/// is read at most a hundred times a second, and spreads one clock read
/// (~25-50 ns, the most expensive step of an uncontended offer) to ~2-3
/// ns per item.
const STAMP_EVERY: u64 = 16;

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    /// `(push index, seconds)` of the queued items that were stamped,
    /// oldest first: an unstamped item occupies just its `T`.
    stamps: VecDeque<(u64, f64)>,
    /// Items ever pushed: the next push index, and the phase of the
    /// one-in-`STAMP_EVERY` stamp.
    pushed: u64,
    closed: bool,
}

impl<T> Inner<T> {
    /// The oldest item, with its stamp if it got one.
    fn pop(&mut self) -> Option<(T, Option<f64>)> {
        let item = self.items.pop_front()?;
        let index = self.pushed - self.items.len() as u64 - 1;
        let stamp = self.stamps.pop_front_if(|&mut (at, _)| at == index);
        Some((item, stamp.map(|(_, secs)| secs)))
    }
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Consumers parked in `take`, woken by an admitted offer.
    not_empty: Sleepers,
    /// Producers parked by `Block` at capacity, woken by a dispatch.
    not_full: Sleepers,
    /// Lock-free mirror of `inner.items.len()`, written only while the
    /// lock is held but readable without it — the shed fast path.
    occupancy: AtomicU64,
    /// `inner.pushed`, readable without the lock.
    admitted: AtomicU64,
    /// The one counter written without the lock, by the shed path.
    shed_high_water: AtomicU64,
    shed_deadline: AtomicU64,
    /// Served dispatches of *stamped* items and the bits of their
    /// cumulative queue delay, an `f64` of seconds summed in dispatch
    /// order. Not integer nanoseconds: a simulated run's mean lands in its
    /// recording, and rounding each delay would move those bytes.
    dispatched: AtomicU64,
    delay_secs: AtomicU64,
}

impl<T: Send> ParkedQueue for Shared<T> {
    fn wake_parked(&self) {
        // Through the lock: a consumer between its flag check and its
        // wait holds it (`handoff.rs`, "Suspension").
        drop(self.inner.lock());
        self.not_empty.wake_all();
    }
}

/// `counter += 1` for a counter written only under the queue lock: the
/// lock orders the writers, so a plain load and store is enough.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Relaxed) + 1, Relaxed);
}

/// An admission-gated FIFO work queue shared by cloning.
///
/// Methods come in two flavours: `offer`/`take` read an internal
/// monotonic clock when a stamp is needed (what live producers and
/// workers use; see the module docs, "Stamps"), and `offer_at`/`take_at`
/// accept explicit seconds (the simulators and deterministic tests).
pub struct AdmissionQueue<T> {
    policy: AdmissionPolicy,
    start: Instant,
    shared: Arc<Shared<T>>,
}

impl<T> Clone for AdmissionQueue<T> {
    fn clone(&self) -> Self {
        AdmissionQueue {
            policy: self.policy,
            start: self.start,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for AdmissionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionQueue")
            .field("policy", &self.policy)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> AdmissionQueue<T> {
    /// An empty, open queue gated by `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails
    /// [`validate`](AdmissionPolicy::validate) — construct from
    /// validated policies (the runtime builder and the simulator both
    /// validate first and surface `DV017` as an error).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        policy.validate().expect("admission policy must validate");
        AdmissionQueue {
            policy,
            start: Instant::now(),
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    items: VecDeque::new(),
                    // Reserved so the item buffer grows in place: stamps
                    // grown beside it cost `pipe_fine` ~0.2 MB of peak RSS.
                    stamps: VecDeque::with_capacity(1024),
                    pushed: 0,
                    closed: false,
                }),
                not_empty: Sleepers::new(),
                not_full: Sleepers::new(),
                occupancy: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                shed_high_water: AtomicU64::new(0),
                shed_deadline: AtomicU64::new(0),
                dispatched: AtomicU64::new(0),
                delay_secs: AtomicU64::new(0),
            }),
        }
    }

    /// The policy this queue was built with.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Seconds on the internal clock.
    fn clock_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Offers an item on the internal clock, which is read only when the
    /// item is to be stamped: always under `Deadline`; otherwise for one
    /// admitted item in 16 and for every hand-off to a parked consumer
    /// (module docs, "Stamps"). The mean queue delay in
    /// [`AdmissionStats`] is the mean over the stamped dispatches.
    pub fn offer(&self, item: T) -> OfferOutcome<T> {
        let judged = matches!(self.policy, AdmissionPolicy::Deadline { .. });
        self.offer_inner(item, judged.then(|| self.clock_secs()))
    }

    /// Offers an item at an explicit time (seconds on the caller's clock;
    /// the same clock must be used for `take_at`). Every admitted item is
    /// stamped.
    ///
    /// Under `Shed`, an offer made while occupancy is at or above the
    /// high watermark returns [`OfferOutcome::Shed`] after touching only
    /// atomics — it never contends on the queue lock. Under `Block`,
    /// the call blocks while occupancy is at capacity and the queue is
    /// open.
    pub fn offer_at(&self, item: T, now_secs: f64) -> OfferOutcome<T> {
        self.offer_inner(item, Some(now_secs))
    }

    /// `offer_at` when the caller has the time, `offer`'s sampled stamp
    /// when it does not.
    fn offer_inner(&self, item: T, now_secs: Option<f64>) -> OfferOutcome<T> {
        // Lock-free shed verdict: the occupancy mirror is enough. A racing
        // dispatch may admit one extra request right at the watermark; the
        // bound is on occupancy, not a turnstile. Only a shedding gate reads
        // the mirror here: every take writes it, so another gate's offer
        // would pay a cache miss for a verdict that cannot fire.
        if matches!(self.policy, AdmissionPolicy::Shed { .. })
            && self.policy.sheds(self.shared.occupancy.load(Acquire))
        {
            self.shared.shed_high_water.fetch_add(1, Relaxed);
            return OfferOutcome::Shed(item);
        }
        let mut inner = self.shared.inner.lock();
        if inner.closed {
            return OfferOutcome::Closed(item);
        }
        while self.policy.holds(inner.items.len() as u64) {
            self.shared.not_full.wait(&mut inner, None);
            if inner.closed {
                return OfferOutcome::Closed(item);
            }
        }
        let stamp = now_secs.or_else(|| {
            let sampled = inner.pushed.is_multiple_of(STAMP_EVERY)
                || (inner.items.is_empty() && self.shared.not_empty.any_parked(&inner));
            sampled.then(|| self.clock_secs())
        });
        if let Some(secs) = stamp {
            let at = inner.pushed;
            inner.stamps.push_back((at, secs));
        }
        inner.pushed += 1;
        inner.items.push_back(item);
        self.shared
            .occupancy
            .store(inner.items.len() as u64, Release);
        self.shared.admitted.store(inner.pushed, Relaxed);
        self.shared.not_empty.unlock_and_wake_one(inner);
        OfferOutcome::Admitted
    }

    /// Takes the next serviceable item on the internal clock, which is
    /// read when a stamped item is popped — after any park, so the queue
    /// delay of a hand-off to a parked consumer includes the wake-up —
    /// and not at all for an unstamped one.
    pub fn take(&self, timeout: Duration) -> DequeueOutcome<T> {
        self.take_inner(None, Some(timeout))
    }

    /// `take` with no timeout: parked with no timer armed until an offer
    /// or `close` wakes it, so it never returns `TimedOut`.
    pub(crate) fn take_untimed(&self) -> DequeueOutcome<T> {
        self.take_inner(None, None)
    }

    /// Takes the next item for the task body running under `cx`, parked
    /// with no timer armed until an offer, `close` or a suspend of the
    /// body's path wakes it: the one wait every body makes.
    ///
    /// The directive is read first, so a busy path suspends between two
    /// items. A call that finds the queue empty calls
    /// [`TaskCx::parking`] and re-reads the directive under the queue lock
    /// before every park; one that finds an item takes the lock once and
    /// nothing else. Under a context that never suspends, this is the
    /// untimed take.
    pub fn take_for(&self, cx: &mut dyn TaskCx) -> Waited<T>
    where
        T: Send + 'static,
    {
        if cx.directive().wants_suspend() {
            return Waited::Suspended;
        }
        let outcome = match self.take_parking(None, |_| false) {
            DequeueOutcome::TimedOut => {
                // Outside the queue lock: a suspend takes the registry's
                // lock, then this one.
                let queue: Arc<dyn ParkedQueue> = self.shared.clone();
                cx.parking(&queue);
                self.take_parking(None, |inner| {
                    !cx.directive().wants_suspend() && self.shared.not_empty.wait(inner, None)
                })
            }
            found => found,
        };
        match outcome {
            DequeueOutcome::Item(item) => Waited::Item(item),
            DequeueOutcome::Drained => Waited::Closed,
            DequeueOutcome::TimedOut => Waited::Suspended,
        }
    }

    /// Takes the next serviceable item at an explicit dispatch time.
    ///
    /// Under `Deadline`, requests whose queue delay already exceeds the
    /// budget are dropped (counted as `shed_deadline`) and the scan
    /// continues — the caller only ever sees requests still worth
    /// serving. Waits up to `timeout` in total for one. Returns
    /// [`DequeueOutcome::Drained`] once the queue is closed and empty.
    pub fn take_at(&self, now_secs: f64, timeout: Duration) -> DequeueOutcome<T> {
        self.take_inner(Some(now_secs), Some(timeout))
    }

    fn take_inner(&self, now_secs: Option<f64>, timeout: Option<Duration>) -> DequeueOutcome<T> {
        let mut budget = timeout.map(WaitBudget::new);
        self.take_parking(now_secs, |inner| {
            self.shared.not_empty.wait(inner, budget.as_mut())
        })
    }

    /// Pops the next serviceable item, calling `park` with the queue lock
    /// held whenever there is none and the queue is open; once `park`
    /// returns `false` the call returns `TimedOut`.
    fn take_parking(
        &self,
        now_secs: Option<f64>,
        mut park: impl FnMut(&mut MutexGuard<'_, Inner<T>>) -> bool,
    ) -> DequeueOutcome<T> {
        let mut inner = self.shared.inner.lock();
        loop {
            // The dispatch time of this scan: the caller's, or the
            // internal clock read once, at the first stamped item.
            let mut now_secs = now_secs;
            while let Some((item, stamp)) = inner.pop() {
                self.shared
                    .occupancy
                    .store(inner.items.len() as u64, Release);
                if let Some(stamp) = stamp {
                    let now = *now_secs.get_or_insert_with(|| self.clock_secs());
                    let delay = (now - stamp).max(0.0);
                    if self.policy.expired(delay) {
                        bump(&self.shared.shed_deadline);
                        continue;
                    }
                    bump(&self.shared.dispatched);
                    let delay_secs = f64::from_bits(self.shared.delay_secs.load(Relaxed)) + delay;
                    self.shared.delay_secs.store(delay_secs.to_bits(), Relaxed);
                }
                // A dispatch frees one slot: one `Block` producer, if
                // any is parked, can use it. Other consumers have
                // nothing to gain from a dispatch and are not woken.
                self.shared.not_full.unlock_and_wake_one(inner);
                return DequeueOutcome::Item(item);
            }
            if inner.closed {
                return DequeueOutcome::Drained;
            }
            if !park(&mut inner) {
                return DequeueOutcome::TimedOut;
            }
        }
    }

    /// Closes the queue: offers are rejected, blocked producers wake
    /// with [`OfferOutcome::Closed`], consumers drain then observe
    /// [`DequeueOutcome::Drained`].
    pub fn close(&self) {
        self.shared.inner.lock().closed = true;
        self.shared.not_empty.wake_all();
        self.shared.not_full.wake_all();
    }

    /// Current occupancy, from the lock-free mirror.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.occupancy.load(Acquire) as usize
    }

    /// `true` if no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the gate's cumulative counters.
    ///
    /// Lock-free; individual counters are each exact, and `offered` is
    /// `admitted + shed_high_water` of this very read.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        let load = |counter: &AtomicU64| counter.load(Relaxed);
        let admitted = load(&self.shared.admitted);
        let shed_high_water = load(&self.shared.shed_high_water);
        let dispatched = load(&self.shared.dispatched);
        AdmissionStats {
            offered: admitted + shed_high_water,
            admitted,
            shed_high_water,
            shed_deadline: load(&self.shared.shed_deadline),
            mean_queue_delay_secs: if dispatched == 0 {
                0.0
            } else {
                f64::from_bits(load(&self.shared.delay_secs)) / dispatched as f64
            },
        }
    }

    /// A probe closure the runtime's monitor can poll for
    /// [`AdmissionStats`] without knowing the queue's item type.
    pub fn stats_probe(&self) -> impl Fn() -> AdmissionStats + Send + Sync + 'static
    where
        T: Send + 'static,
    {
        let q = self.clone();
        move || q.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handoff::scenarios;
    use std::sync::atomic::Ordering;
    use std::thread;

    impl<T> AdmissionQueue<T> {
        /// Where this queue's consumers park, for the hand-off scenarios.
        pub(crate) fn consumers(&self) -> &Sleepers {
            &self.shared.not_empty
        }

        /// Holds the queue lock, so a test can prove the shed verdict path
        /// never touches it.
        fn hold_lock_for_test(&self) -> parking_lot::MutexGuard<'_, Inner<T>> {
            self.shared.inner.lock()
        }
    }

    #[test]
    fn block_hand_off_loses_no_wakeup_on_either_side() {
        // Capacity 1: producers park on `not_full` and consumers on
        // `not_empty` over and over, and a `Block` producer's wait has
        // no timeout to rescue it.
        let q = AdmissionQueue::new(AdmissionPolicy::Block { capacity: 1 });
        scenarios::conserves_items(q.clone(), 2, 2, 10_000);
        let stats = q.stats();
        assert_eq!(stats.offered, 20_000);
        assert_eq!(stats.admitted, 20_000);
    }

    #[test]
    fn open_policy_admits_everything() {
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        for i in 0..100 {
            assert_eq!(q.offer_at(i, 0.0), OfferOutcome::Admitted);
        }
        let stats = q.stats();
        assert_eq!(stats.offered, 100);
        assert_eq!(stats.admitted, 100);
        assert_eq!(stats.shed(), 0);
        assert_eq!(q.len(), 100);
        // Nobody is parked on either side: no hand-off notifies anybody.
        for i in 0..100 {
            assert_eq!(q.take_at(1.0, Duration::ZERO), DequeueOutcome::Item(i));
        }
        assert_eq!(q.shared.not_empty.notifies(), 0);
        assert_eq!(q.shared.not_full.notifies(), 0);
    }

    #[test]
    fn shed_drops_above_high_water_and_counts() {
        let q = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 3 });
        for i in 0..10 {
            q.offer_at(i, 0.0);
        }
        let stats = q.stats();
        assert_eq!(stats.offered, 10);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed_high_water, 7);
        // Draining re-opens the gate.
        assert!(matches!(
            q.take_at(0.1, Duration::from_millis(1)),
            DequeueOutcome::Item(0)
        ));
        assert_eq!(q.offer_at(99, 0.2), OfferOutcome::Admitted);
    }

    #[test]
    fn shed_verdict_never_touches_the_queue_lock() {
        let q = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 1 });
        assert_eq!(q.offer_at(0, 0.0), OfferOutcome::Admitted);
        // Hold the queue lock on this thread; a shed offer from another
        // thread must still return promptly (atomics only).
        let guard = q.hold_lock_for_test();
        let q2 = q.clone();
        let shedder = thread::spawn(move || q2.offer_at(1, 0.1));
        assert_eq!(shedder.join().unwrap(), OfferOutcome::Shed(1));
        drop(guard);
    }

    #[test]
    fn block_policy_throttles_the_producer() {
        let q = AdmissionQueue::new(AdmissionPolicy::Block { capacity: 2 });
        assert_eq!(q.offer_at("a", 0.0), OfferOutcome::Admitted);
        assert_eq!(q.offer_at("b", 0.0), OfferOutcome::Admitted);
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.offer_at("c", 0.1));
        // The producer is parked at capacity; a dispatch releases it,
        // through `not_full` alone.
        q.shared.not_full.await_parked(1);
        assert_eq!(q.len(), 2);
        assert!(matches!(
            q.take_at(0.2, Duration::from_millis(1)),
            DequeueOutcome::Item("a")
        ));
        assert_eq!(producer.join().unwrap(), OfferOutcome::Admitted);
        assert_eq!(q.shared.not_full.notifies(), 1);
        assert_eq!(q.shared.not_empty.notifies(), 0);
        let stats = q.stats();
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn block_producer_wakes_closed_on_close() {
        let q = AdmissionQueue::new(AdmissionPolicy::Block { capacity: 1 });
        assert_eq!(q.offer_at(1, 0.0), OfferOutcome::Admitted);
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.offer_at(2, 0.1));
        q.shared.not_full.await_parked(1);
        q.close();
        assert_eq!(producer.join().unwrap(), OfferOutcome::Closed(2));
    }

    #[test]
    fn deadline_drops_stale_requests_at_dispatch() {
        let q = AdmissionQueue::new(AdmissionPolicy::Deadline { budget_secs: 0.5 });
        q.offer_at("stale", 0.0);
        q.offer_at("fresh", 1.0);
        // At t=1.2 the first request is 1.2s old (> 0.5 budget): dropped;
        // the second is 0.2s old: served.
        assert!(matches!(
            q.take_at(1.2, Duration::from_millis(1)),
            DequeueOutcome::Item("fresh")
        ));
        let stats = q.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed_deadline, 1);
        assert!((stats.mean_queue_delay_secs - 0.2).abs() < 1e-9);
    }

    #[test]
    fn deadline_drain_sheds_residual_stale_items() {
        let q = AdmissionQueue::new(AdmissionPolicy::Deadline { budget_secs: 0.1 });
        q.offer_at(1, 0.0);
        q.offer_at(2, 0.0);
        q.close();
        assert_eq!(
            q.take_at(5.0, Duration::from_millis(1)),
            DequeueOutcome::Drained
        );
        assert_eq!(q.stats().shed_deadline, 2);
    }

    #[test]
    fn closed_offers_touch_no_counters() {
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        q.close();
        assert_eq!(q.offer_at(7, 0.0), OfferOutcome::Closed(7));
        assert_eq!(q.stats().offered, 0);
    }

    #[test]
    fn take_blocks_until_offer_and_drains_on_close() {
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.take(Duration::from_secs(5)));
        q.shared.not_empty.await_parked(1);
        q.offer(42u32);
        assert!(matches!(consumer.join().unwrap(), DequeueOutcome::Item(42)));
        let q3 = q.clone();
        let consumer = thread::spawn(move || q3.take_untimed());
        q.shared.not_empty.await_parked(1);
        q.close();
        assert_eq!(consumer.join().unwrap(), DequeueOutcome::Drained);
    }

    #[test]
    fn a_parked_hand_off_counts_its_wake_up_as_queue_delay() {
        // The dispatch clock used to be read before `take` parked, so an
        // item that arrived during the park was judged against a reading
        // older than its own stamp and contributed exactly zero delay.
        const OFFERS: u64 = 200;
        let timeout = Duration::from_secs(10);
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        let taken = Arc::new(AtomicU64::new(0));
        let (q2, taken2) = (q.clone(), Arc::clone(&taken));
        let consumer = thread::spawn(move || {
            (0..OFFERS)
                .map(|_| {
                    let t0 = Instant::now();
                    assert!(matches!(q2.take(timeout), DequeueOutcome::Item(_)));
                    taken2.fetch_add(1, Ordering::Release);
                    t0.elapsed()
                })
                .max()
        });
        for i in 0..OFFERS {
            // The consumer has returned from its previous take (which
            // un-counted it), so a parked count of one means it is parked
            // in this one.
            while taken.load(Ordering::Acquire) != i {
                thread::yield_now();
            }
            q.shared.not_empty.await_parked(1);
            assert_eq!(q.offer(i), OfferOutcome::Admitted);
        }
        let slowest = consumer.join().unwrap().unwrap();
        assert!(slowest < timeout / 4, "a take waited {slowest:?}");
        // Every offer found the consumer parked, so every one was stamped.
        assert_eq!(q.shared.dispatched.load(Ordering::Relaxed), OFFERS);
        assert!(q.stats().mean_queue_delay_secs > 0.0);
    }

    #[test]
    fn live_offers_stamp_a_sample_unless_the_policy_judges_by_the_stamp() {
        // Returns the stamped dispatches, and the stamps held at the peak.
        let stamped_of_64 = |policy| {
            let q = AdmissionQueue::new(policy);
            for i in 0..64 {
                assert_eq!(q.offer(i), OfferOutcome::Admitted);
            }
            let held = q.hold_lock_for_test().stamps.len();
            for i in 0..64 {
                assert_eq!(q.take(Duration::ZERO), DequeueOutcome::Item(i));
            }
            assert_eq!(q.stats().admitted, 64);
            (q.shared.dispatched.load(Ordering::Relaxed), held as u64)
        };
        // Nobody parked: one item in 16 carries a stamp, and only those
        // items hold one while queued...
        let sampled = 64 / STAMP_EVERY;
        assert_eq!(stamped_of_64(AdmissionPolicy::Open), (sampled, sampled));
        // ...except where freshness is judged by it.
        let deadline = AdmissionPolicy::Deadline { budget_secs: 60.0 };
        assert_eq!(stamped_of_64(deadline), (64, 64));
        // An explicit time always stamps.
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        for i in 0..5 {
            q.offer_at(i, 1.0);
            assert!(matches!(
                q.take_at(1.5, Duration::ZERO),
                DequeueOutcome::Item(_)
            ));
        }
        assert_eq!(q.shared.dispatched.load(Ordering::Relaxed), 5);
        assert!((q.stats().mean_queue_delay_secs - 0.5).abs() < 1e-9);
    }

    #[test]
    fn conservation_holds_under_concurrent_offer_storm() {
        let q = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 8 });
        // A reader polls the counters throughout the storm: every read
        // balances, not just the quiescent one.
        let storming = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let reader = {
            let (q, storming) = (q.clone(), Arc::clone(&storming));
            thread::spawn(move || {
                let mut reads = 0u64;
                while storming.load(Ordering::Acquire) {
                    let stats = q.stats();
                    assert_eq!(stats.offered, stats.admitted + stats.shed_high_water);
                    reads += 1;
                }
                reads
            })
        };
        // Every admitted item is taken exactly once...
        scenarios::conserves_items(q.clone(), 4, 3, 5_000);
        storming.store(false, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
        // ...and every offer is either admitted or shed.
        let stats = q.stats();
        assert_eq!(stats.offered, 20_000);
        assert_eq!(stats.offered, stats.admitted + stats.shed_high_water);
    }

    #[test]
    fn stats_probe_reflects_traffic() {
        let q = AdmissionQueue::new(AdmissionPolicy::Open);
        let probe = q.stats_probe();
        q.offer_at(1, 0.0);
        assert_eq!(probe().admitted, 1);
    }
}
