//! The gate's hand-off rule: wake only sleepers.
//!
//! `std::sync::Condvar::notify_*` (which the in-tree `parking_lot` shim
//! forwards to) issues a `futex_wake` syscall whether or not anybody is
//! waiting. On a saturated queue nobody is, so every hand-off paid
//! ~180 ns for nothing. [`Sleepers`] pairs the condvar with a count of
//! the threads parked on it and skips the notify when that count is
//! zero.
//!
//! # Why no wake-up is lost
//!
//! * The count is written only by a waiter, around its own wait, **while
//!   it holds the queue mutex** ([`Sleepers::wait`] takes the guard), and
//!   read only by a notifier **while it holds the same mutex**
//!   ([`Sleepers::unlock_and_wake_one`] consumes the guard). The mutex
//!   orders every access, so the atomic is `Relaxed`: it is an atomic
//!   only because the condvar wait needs `&self`.
//! * *Under-counting is impossible.* A waiter holds the mutex from its
//!   "nothing for me" check, through the increment, until the condvar
//!   wait atomically releases it. A notifier that changes the condition
//!   afterwards must take the mutex first, so it sees the increment and
//!   notifies after unlocking — by which time the waiter is on the
//!   condvar.
//! * *Over-counting is safe, and not free.* A waiter that was notified
//!   or timed out but has not yet re-acquired the mutex is still counted,
//!   and **every** hand-off in that ~50 µs window issues a notify that
//!   finds nobody: on `pipe_fine`, per 100 000 offers, the gate issued
//!   6 199 notifies for 8 parks and the stage queue 2 010 for 57. A
//!   `parked > waking` token variant passed the scenarios below and read
//!   1.908 against 1.905 µs per job over 5 pairs, so it is declined.
//!   Every waiter re-checks its condition under the mutex after every
//!   wait, whatever ended it.
//!
//! A parked peer still costs a real wake (`workload.queue_wake_us` in
//! the benchmark): the rule removes the syscall only where it had no
//! receiver.
//!
//! # Suspension
//!
//! A task body parks in `take_for` with no timer armed, so a suspend of
//! its path must wake it. The consumer registers its queue with the
//! path's [`SuspendFlag`] before it parks and re-reads the flag **under
//! the queue mutex** before every park; [`SuspendFlag::set`] stores the
//! flag, then passes **through the same mutex** of every registered
//! queue before it notifies. A setter that read the registry before the
//! registration stored the flag before the consumer's check, which sees
//! it; otherwise it takes the queue mutex before that check (which sees
//! the flag) or after it — when the consumer is on the condvar.

use dope_core::ParkedQueue;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A top-level path's suspend flag, read by every replica under the path,
/// and the queues those replicas park on, which a suspend wakes (module
/// docs, "Suspension").
#[derive(Debug, Default)]
pub struct SuspendFlag {
    set: AtomicBool,
    /// Each queue once; dropped ones go at the next registration.
    queues: Mutex<Vec<Weak<dyn ParkedQueue>>>,
}

impl SuspendFlag {
    /// `true` while the path is asked to suspend. Inlined: every
    /// `begin`, `end` and `directive` of a live context reads it.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.set.load(Acquire)
    }

    /// Asks the path to suspend, and wakes every consumer parked on a
    /// queue registered here.
    pub fn set(&self) {
        self.set.store(true, Release);
        for queue in self.queues.lock().iter().filter_map(Weak::upgrade) {
            queue.wake_parked();
        }
    }

    /// Lets the path run again: its relaunch clears the flag before the
    /// new replicas start.
    pub fn clear(&self) {
        self.set.store(false, Release);
    }

    /// Registers `queue` to be woken by [`set`](Self::set), once.
    pub fn watch(&self, queue: &Arc<dyn ParkedQueue>) {
        let mut queues = self.queues.lock();
        queues
            .retain(|q| q.strong_count() > 0 && !std::ptr::addr_eq(q.as_ptr(), Arc::as_ptr(queue)));
        queues.push(Arc::downgrade(queue));
    }
}

/// The time a blocking call may spend parked, counted once for the whole
/// call however many times it parks: a spurious wake-up, or an item a
/// sibling consumer took first, resumes the countdown instead of
/// restarting it.
pub(crate) struct WaitBudget {
    timeout: Duration,
    first_park: Option<Instant>,
}

impl WaitBudget {
    pub(crate) fn new(timeout: Duration) -> Self {
        WaitBudget {
            timeout,
            first_park: None,
        }
    }

    /// Time left to park, `None` once it is spent. The clock is first read
    /// here, not in `new`, so a call that finds an item never reads it.
    fn remaining(&mut self) -> Option<Duration> {
        let left = match self.first_park {
            None => {
                self.first_park = Some(Instant::now());
                self.timeout
            }
            Some(first_park) => self.timeout.saturating_sub(first_park.elapsed()),
        };
        (!left.is_zero()).then_some(left)
    }
}

/// A condvar that knows how many threads are parked on it (see the
/// module docs for the invariant).
pub(crate) struct Sleepers {
    cvar: Condvar,
    parked: AtomicUsize,
    /// Notifies actually issued, for the tests that prove the rule.
    #[cfg(test)]
    notifies: AtomicUsize,
}

impl Sleepers {
    pub(crate) const fn new() -> Self {
        Sleepers {
            cvar: Condvar::new(),
            parked: AtomicUsize::new(0),
            #[cfg(test)]
            notifies: AtomicUsize::new(0),
        }
    }

    /// Parks until notified or, given a `budget`, until it runs out; with
    /// none, no timer is armed. Returns `false` without parking once the
    /// budget is spent; after `true` the caller re-checks its condition.
    pub(crate) fn wait<T>(
        &self,
        held: &mut MutexGuard<'_, T>,
        budget: Option<&mut WaitBudget>,
    ) -> bool {
        let left = match budget.map(WaitBudget::remaining) {
            Some(None) => return false,
            left => left.flatten(),
        };
        self.parked.fetch_add(1, Relaxed);
        match left {
            Some(left) => _ = self.cvar.wait_for(held, left),
            None => self.cvar.wait(held),
        }
        self.parked.fetch_sub(1, Relaxed);
        true
    }

    /// `true` if a thread is parked here, as of the queue mutex `held`.
    pub(crate) fn any_parked<T>(&self, _held: &MutexGuard<'_, T>) -> bool {
        self.parked.load(Relaxed) > 0
    }

    /// Releases the queue mutex, then wakes one sleeper if any was parked
    /// while it was held.
    pub(crate) fn unlock_and_wake_one<T>(&self, held: MutexGuard<'_, T>) {
        let parked = self.any_parked(&held);
        drop(held);
        if parked {
            #[cfg(test)]
            self.notifies.fetch_add(1, Relaxed);
            self.cvar.notify_one();
        }
    }

    /// Wakes every sleeper, unconditionally: the cold path (`close`).
    pub(crate) fn wake_all(&self) {
        #[cfg(test)]
        self.notifies.fetch_add(1, Relaxed);
        self.cvar.notify_all();
    }

    #[cfg(test)]
    pub(crate) fn notifies(&self) -> usize {
        self.notifies.load(Relaxed)
    }

    /// Spins until exactly `n` threads are parked, so a test can force
    /// the interleaving it checks instead of sleeping and hoping.
    #[cfg(test)]
    pub(crate) fn await_parked(&self, n: usize) {
        while self.parked.load(Relaxed) != n {
            std::thread::yield_now();
        }
    }
}

/// The hand-off scenarios, written once against the little the two faces
/// of the gate share and run through each (`WorkQueue` and
/// `AdmissionQueue`), timed and untimed.
#[cfg(test)]
pub(crate) mod scenarios {
    use super::{Sleepers, SuspendFlag};
    use crate::{AdmissionQueue, DequeueOutcome, OfferOutcome, Waited, WorkQueue};
    use dope_core::{Directive, ParkedQueue, TaskCx};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    /// The consumers' timeout, far longer than any legitimate wait here: a
    /// lost wake-up surfaces as a take that sat out the whole of it (and
    /// then found its item on the timed-out re-check) instead of being
    /// papered over by a short poll.
    const STALL: Duration = Duration::from_secs(10);

    /// A queue of `u64`s, as the scenarios see it.
    pub(crate) trait Port: Clone + Send + 'static {
        /// Hands `v` over; `false` if it was refused (shed).
        fn put(&self, v: u64) -> bool;
        fn take(&self, timeout: Duration) -> DequeueOutcome<u64>;
        /// Takes with no timeout: never `TimedOut`.
        fn take_untimed(&self) -> DequeueOutcome<u64>;
        /// Takes on behalf of a task body.
        fn take_for(&self, cx: &mut dyn TaskCx) -> Waited<u64>;
        fn close(&self);
        /// Where this queue's consumers park.
        fn consumers(&self) -> &Sleepers;
    }

    impl Port for AdmissionQueue<u64> {
        fn put(&self, v: u64) -> bool {
            self.offer(v) == OfferOutcome::Admitted
        }
        fn take(&self, timeout: Duration) -> DequeueOutcome<u64> {
            AdmissionQueue::take(self, timeout)
        }
        fn take_untimed(&self) -> DequeueOutcome<u64> {
            AdmissionQueue::take_untimed(self)
        }
        fn take_for(&self, cx: &mut dyn TaskCx) -> Waited<u64> {
            AdmissionQueue::take_for(self, cx)
        }
        fn close(&self) {
            AdmissionQueue::close(self);
        }
        fn consumers(&self) -> &Sleepers {
            AdmissionQueue::consumers(self)
        }
    }

    impl Port for WorkQueue<u64> {
        fn put(&self, v: u64) -> bool {
            self.enqueue(v).is_ok()
        }
        fn take(&self, timeout: Duration) -> DequeueOutcome<u64> {
            self.dequeue_timeout(timeout)
        }
        fn take_untimed(&self) -> DequeueOutcome<u64> {
            self.dequeue()
                .map_or(DequeueOutcome::Drained, DequeueOutcome::Item)
        }
        fn take_for(&self, cx: &mut dyn TaskCx) -> Waited<u64> {
            self.dequeue_for(cx)
        }
        fn close(&self) {
            WorkQueue::close(self);
        }
        fn consumers(&self) -> &Sleepers {
            self.0.consumers()
        }
    }

    /// A queue taken from with no timeout: a lost wake-up is a hang, not
    /// a stall, so [`within`] bounds the scenario from outside.
    #[derive(Clone)]
    struct Blocking<P>(P);

    impl<P: Port> Port for Blocking<P> {
        fn put(&self, v: u64) -> bool {
            self.0.put(v)
        }
        fn take(&self, _timeout: Duration) -> DequeueOutcome<u64> {
            self.0.take_untimed()
        }
        fn take_untimed(&self) -> DequeueOutcome<u64> {
            self.0.take_untimed()
        }
        fn take_for(&self, cx: &mut dyn TaskCx) -> Waited<u64> {
            self.0.take_for(cx)
        }
        fn close(&self) {
            self.0.close();
        }
        fn consumers(&self) -> &Sleepers {
            self.0.consumers()
        }
    }

    fn within(scenario: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            scenario();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the scenario panicked, or an untimed take was never woken");
    }

    fn take_or_stall<P: Port>(port: &P) -> Option<u64> {
        let t0 = Instant::now();
        let outcome = port.take(STALL);
        let waited = t0.elapsed();
        match outcome {
            DequeueOutcome::Item(v) if waited < STALL / 2 => Some(v),
            DequeueOutcome::Drained => None,
            _ => {
                port.close();
                panic!("a consumer stalled for {waited:?}: lost wake-up");
            }
        }
    }

    /// A thousand hand-offs with nobody parked notify nobody; one parked
    /// consumer gets exactly the one wake it needs.
    fn wakes_only_sleepers<P: Port>(port: P) {
        for round in 0..10 {
            for v in 0..100 {
                assert!(port.put(round * 100 + v));
            }
            for v in 0..100 {
                assert_eq!(take_or_stall(&port), Some(round * 100 + v));
            }
        }
        assert_eq!(port.consumers().notifies(), 0);

        let consumer = {
            let port = port.clone();
            thread::spawn(move || take_or_stall(&port))
        };
        port.consumers().await_parked(1);
        assert!(port.put(7));
        assert_eq!(consumer.join().unwrap(), Some(7));
        assert_eq!(port.consumers().notifies(), 1);
        assert!(port.put(8));
        assert_eq!(port.consumers().notifies(), 1);
    }

    /// Two threads bounce one token `tokens` times: each side parks almost
    /// every round, so a skipped notify that was needed stalls the run.
    fn ping_pong<P: Port>(ping: P, pong: P, tokens: u64) {
        let echo = {
            let (ping, pong) = (ping.clone(), pong.clone());
            thread::spawn(move || {
                while let Some(v) = take_or_stall(&ping) {
                    assert!(pong.put(v));
                }
            })
        };
        for v in 0..tokens {
            assert!(ping.put(v));
            assert_eq!(take_or_stall(&pong), Some(v));
        }
        ping.close();
        echo.join().unwrap();
    }

    /// `producers` x `consumers` threads with one wake per hand-off: every
    /// item that was accepted is taken exactly once.
    pub(crate) fn conserves_items<P: Port>(port: P, producers: u64, consumers: u64, each: u64) {
        let takers: Vec<_> = (0..consumers)
            .map(|_| {
                let port = port.clone();
                thread::spawn(move || {
                    let mut taken = Vec::new();
                    while let Some(v) = take_or_stall(&port) {
                        taken.push(v);
                    }
                    taken
                })
            })
            .collect();
        let givers: Vec<_> = (0..producers)
            .map(|p| {
                let port = port.clone();
                thread::spawn(move || {
                    let ids = p * each..(p + 1) * each;
                    ids.filter(|&v| port.put(v)).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut accepted: Vec<u64> = givers.into_iter().flat_map(|g| g.join().unwrap()).collect();
        port.close();
        let mut taken: Vec<u64> = takers.into_iter().flat_map(|t| t.join().unwrap()).collect();
        accepted.sort_unstable();
        taken.sort_unstable();
        assert!(!accepted.is_empty());
        assert_eq!(taken, accepted);
    }

    /// A consumer whose every wake-up finds the item already taken by a
    /// sibling still times out on schedule: the timeout bounds the call,
    /// not each park inside it.
    fn timeout_bounds_the_whole_call<P: Port>(port: P) {
        const TIMEOUT: Duration = Duration::from_millis(100);
        let done = Arc::new(AtomicBool::new(false));
        let sibling = {
            let (port, done) = (port.clone(), Arc::clone(&done));
            thread::spawn(move || {
                // Put-then-take wakes the parked loser and (nearly always)
                // wins the item back before it gets the lock. Capped so the
                // test ends even when the loser never times out.
                let t0 = Instant::now();
                while !done.load(Ordering::Relaxed) && t0.elapsed() < 10 * TIMEOUT {
                    port.put(0);
                    let _ = port.take(Duration::ZERO);
                    thread::sleep(TIMEOUT / 10);
                }
            })
        };
        loop {
            let t0 = Instant::now();
            // The rare wake-up the loser wins is not the case under test.
            if port.take(TIMEOUT) == DequeueOutcome::TimedOut {
                let waited = t0.elapsed();
                done.store(true, Ordering::Relaxed);
                sibling.join().unwrap();
                assert!(waited < 2 * TIMEOUT, "a {TIMEOUT:?} take waited {waited:?}");
                return;
            }
        }
    }

    /// A context whose path can be suspended: the live context's suspend
    /// side, without its monitor.
    struct Suspendable(Arc<SuspendFlag>);

    impl TaskCx for Suspendable {
        fn begin(&mut self) -> Directive {
            self.directive()
        }
        fn end(&mut self) -> Directive {
            self.directive()
        }
        fn directive(&self) -> Directive {
            if self.0.is_set() {
                Directive::Suspend
            } else {
                Directive::Continue
            }
        }
        fn parking(&mut self, queue: &Arc<dyn ParkedQueue>) {
            self.0.watch(queue);
        }
    }

    /// A consumer in `take_for` on an empty queue returns `Suspended`
    /// whenever its path's flag is set: before the call, anywhere between
    /// its registration, its flag check and its wait, or once it is
    /// parked. A suspend lost in that window leaves it parked for good.
    fn a_suspend_racing_a_park<P: Port>(port: P) {
        for round in 0..1_500u32 {
            let flag = Arc::new(SuspendFlag::default());
            let consumer = {
                let (port, flag) = (port.clone(), Arc::clone(&flag));
                thread::spawn(move || port.take_for(&mut Suspendable(flag)))
            };
            match round % 3 {
                0 => {}
                1 => port.consumers().await_parked(1),
                _ => (0..round % 101 * 8).for_each(|_| std::hint::spin_loop()),
            }
            flag.set();
            assert_eq!(consumer.join().unwrap(), Waited::Suspended);
        }
    }

    /// One `#[test]` per scenario and face: `$open` builds an open queue.
    macro_rules! through_each_face {
        ($($face:ident: $open:expr;)*) => {$(
            mod $face {
                use super::*;

                #[test]
                fn wakes_only_sleepers() {
                    super::wakes_only_sleepers($open);
                }

                #[test]
                fn ping_pong_loses_no_wakeup() {
                    ping_pong($open, $open, 100_000);
                }

                #[test]
                fn conserves_items() {
                    super::conserves_items($open, 4, 3, 5_000);
                }

                #[test]
                fn timeout_bounds_the_whole_call() {
                    super::timeout_bounds_the_whole_call($open);
                }

                #[test]
                fn untimed_ping_pong_loses_no_wakeup() {
                    within(|| ping_pong(Blocking($open), Blocking($open), 100_000));
                }

                #[test]
                fn untimed_takes_conserve_items() {
                    within(|| super::conserves_items(Blocking($open), 4, 3, 5_000));
                }

                #[test]
                fn a_suspend_racing_a_park_is_never_lost() {
                    within(|| super::a_suspend_racing_a_park($open));
                }
            }
        )*};
    }

    through_each_face! {
        work_queue: WorkQueue::<u64>::new();
        admission_queue: AdmissionQueue::<u64>::new(dope_core::AdmissionPolicy::Open);
    }
}
