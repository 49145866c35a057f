//! Instrumented, closeable work queues.
//!
//! Queues connect pipeline stages and carry the open workload into the
//! application. They support the drain idiom the paper's `FiniCB`
//! callbacks implement with sentinel tokens: *closing* a queue lets
//! consumers keep dequeuing until it is empty, after which they observe
//! [`DequeueOutcome::Drained`] and terminate — steering the nest into a
//! globally consistent state.
//!
//! An enqueue wakes a consumer only if one is parked (the rule and its
//! invariant live in `handoff.rs`): on a saturated queue no hand-off
//! makes a syscall. A timed dequeue's timeout bounds the whole call, not
//! each park inside it.

use crate::handoff::{Sleepers, WaitBudget};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Result of a timed dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueOutcome<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    TimedOut,
    /// The queue is closed and empty; no item will ever arrive.
    Drained,
}

impl<T> DequeueOutcome<T> {
    /// The item, if one was dequeued.
    pub fn item(self) -> Option<T> {
        match self {
            DequeueOutcome::Item(item) => Some(item),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    enqueued: u64,
    dequeued: u64,
}

/// A thread-safe FIFO work queue shared by cloning.
///
/// Clones share the same queue. Occupancy and cumulative counters feed the
/// paper's `LoadCB` callbacks and the executive's monitor.
///
/// # Example
///
/// ```
/// use dope_workload::{DequeueOutcome, WorkQueue};
/// use std::time::Duration;
///
/// let q = WorkQueue::new();
/// q.enqueue("frame");
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.try_dequeue(), Some("frame"));
/// q.close();
/// assert_eq!(
///     q.dequeue_timeout(Duration::from_millis(1)),
///     DequeueOutcome::Drained,
/// );
/// ```
pub struct WorkQueue<T> {
    inner: Arc<(Mutex<Inner<T>>, Sleepers)>,
}

impl<T> Clone for WorkQueue<T> {
    fn clone(&self) -> Self {
        WorkQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for WorkQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.inner.0.lock();
        f.debug_struct("WorkQueue")
            .field("len", &guard.queue.len())
            .field("closed", &guard.closed)
            .field("enqueued", &guard.enqueued)
            .field("dequeued", &guard.dequeued)
            .finish()
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        WorkQueue::new()
    }
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> Self {
        WorkQueue {
            inner: Arc::new((
                Mutex::new(Inner {
                    queue: VecDeque::new(),
                    closed: false,
                    enqueued: 0,
                    dequeued: 0,
                }),
                Sleepers::new(),
            )),
        }
    }

    /// Enqueues an item. Returns `false` (dropping nothing — the item is
    /// returned to the caller via `Err`) if the queue is closed.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is closed.
    pub fn enqueue(&self, item: T) -> Result<(), T> {
        let (lock, consumers) = &*self.inner;
        let mut inner = lock.lock();
        if inner.closed {
            return Err(item);
        }
        inner.queue.push_back(item);
        inner.enqueued += 1;
        consumers.unlock_and_wake_one(inner);
        Ok(())
    }

    /// Dequeues without blocking.
    pub fn try_dequeue(&self) -> Option<T> {
        let (lock, _) = &*self.inner;
        let mut inner = lock.lock();
        let item = inner.queue.pop_front();
        if item.is_some() {
            inner.dequeued += 1;
        }
        item
    }

    /// Dequeues, waiting up to `timeout` in total for an item.
    ///
    /// Returns [`DequeueOutcome::Drained`] once the queue is closed *and*
    /// empty, so consumers drain residual items before terminating.
    pub fn dequeue_timeout(&self, timeout: Duration) -> DequeueOutcome<T> {
        let (lock, consumers) = &*self.inner;
        let mut budget = WaitBudget::new(timeout);
        let mut inner = lock.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                inner.dequeued += 1;
                return DequeueOutcome::Item(item);
            }
            if inner.closed {
                return DequeueOutcome::Drained;
            }
            if !consumers.wait_within(&mut inner, &mut budget) {
                return DequeueOutcome::TimedOut;
            }
        }
    }

    /// Dequeues, parked with no timer armed until an enqueue or `close`
    /// wakes it. Returns `None` once the queue is closed and empty.
    pub fn dequeue(&self) -> Option<T> {
        let (lock, consumers) = &*self.inner;
        let mut inner = lock.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                inner.dequeued += 1;
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            consumers.wait(&mut inner);
        }
    }

    /// Closes the queue: no further enqueues; consumers drain then stop.
    pub fn close(&self) {
        let (lock, consumers) = &*self.inner;
        lock.lock().closed = true;
        consumers.wake_all();
    }

    /// `true` once [`WorkQueue::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.0.lock().closed
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.0.lock().queue.len()
    }

    /// `true` if no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current occupancy as a float — the shape `LoadCB` callbacks return.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len() as f64
    }

    /// Items enqueued since creation.
    #[must_use]
    pub fn total_enqueued(&self) -> u64 {
        self.inner.0.lock().enqueued
    }

    /// Items dequeued since creation.
    #[must_use]
    pub fn total_dequeued(&self) -> u64 {
        self.inner.0.lock().dequeued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handoff::scenarios::{self, Port};
    use std::thread;

    impl Port for WorkQueue<u64> {
        fn put(&self, v: u64) -> bool {
            self.enqueue(v).is_ok()
        }
        fn take(&self, timeout: Duration) -> DequeueOutcome<u64> {
            self.dequeue_timeout(timeout)
        }
        fn close(&self) {
            WorkQueue::close(self);
        }
        fn consumers(&self) -> &Sleepers {
            &self.inner.1
        }
    }

    /// The same queue taken from through [`WorkQueue::dequeue`], which
    /// parks with no timeout: a lost wake-up is a hang, not a stall, so
    /// [`within`] bounds the scenario from outside.
    #[derive(Clone)]
    struct Blocking(WorkQueue<u64>);

    impl Port for Blocking {
        fn put(&self, v: u64) -> bool {
            self.0.put(v)
        }
        fn take(&self, _timeout: Duration) -> DequeueOutcome<u64> {
            self.0
                .dequeue()
                .map_or(DequeueOutcome::Drained, DequeueOutcome::Item)
        }
        fn close(&self) {
            self.0.close();
        }
        fn consumers(&self) -> &Sleepers {
            self.0.consumers()
        }
    }

    fn within(limit: Duration, scenario: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            scenario();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(limit)
            .expect("the scenario panicked, or a blocking dequeue was never woken");
    }

    #[test]
    fn blocking_dequeue_ping_pong_loses_no_wakeup() {
        within(Duration::from_secs(120), || {
            scenarios::ping_pong(
                Blocking(WorkQueue::new()),
                Blocking(WorkQueue::new()),
                100_000,
            );
        });
    }

    #[test]
    fn blocking_dequeue_conserves_items() {
        let q = WorkQueue::new();
        let port = Blocking(q.clone());
        within(Duration::from_secs(120), || {
            scenarios::conserves_items(port, 4, 3, 5_000);
        });
        assert_eq!((q.total_enqueued(), q.total_dequeued()), (20_000, 20_000));
    }

    #[test]
    fn enqueue_wakes_only_a_parked_consumer() {
        scenarios::wakes_only_sleepers(WorkQueue::new());
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        scenarios::ping_pong(WorkQueue::new(), WorkQueue::new(), 100_000);
    }

    #[test]
    fn dequeue_timeout_bounds_the_whole_call() {
        scenarios::timeout_bounds_the_whole_call(WorkQueue::new());
    }

    #[test]
    fn fifo_order() {
        let q = WorkQueue::new();
        for i in 0..5 {
            q.enqueue(i).unwrap();
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.try_dequeue()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn counters_track_traffic() {
        let q = WorkQueue::new();
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        let _ = q.try_dequeue();
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.total_dequeued(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.occupancy(), 1.0);
    }

    #[test]
    fn enqueue_after_close_returns_item() {
        let q = WorkQueue::new();
        q.close();
        assert_eq!(q.enqueue(9), Err(9));
    }

    #[test]
    fn drain_after_close_yields_residual_items() {
        let q = WorkQueue::new();
        q.enqueue("a").unwrap();
        q.close();
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::Item("a")
        );
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::Drained
        );
    }

    #[test]
    fn timeout_on_open_empty_queue() {
        let q: WorkQueue<u8> = WorkQueue::new();
        assert_eq!(
            q.dequeue_timeout(Duration::from_millis(1)),
            DequeueOutcome::TimedOut
        );
    }

    #[test]
    fn blocking_dequeue_wakes_on_enqueue() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(10));
        q.enqueue(42u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn blocking_dequeue_returns_none_when_drained() {
        let q: WorkQueue<u8> = WorkQueue::new();
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn clones_share_state() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        q.enqueue(1).unwrap();
        assert_eq!(q2.len(), 1);
        q2.close();
        assert!(q.is_closed());
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = WorkQueue::new();
        scenarios::conserves_items(q.clone(), 4, 3, 5_000);
        assert_eq!(q.total_enqueued(), 20_000);
        assert_eq!(q.total_dequeued(), 20_000);
    }

    #[test]
    fn outcome_item_accessor() {
        assert_eq!(DequeueOutcome::Item(3).item(), Some(3));
        assert_eq!(DequeueOutcome::<i32>::TimedOut.item(), None);
        assert_eq!(DequeueOutcome::<i32>::Drained.item(), None);
    }
}
