//! The work queue between pipeline stages: the open admission gate.
//!
//! A [`WorkQueue`] is an [`AdmissionQueue`] built with `AdmissionPolicy::Open`,
//! under the names the stages use: its hand-off (wake only a parked
//! consumer), timed wait, close-to-drain and counters are the gate's.

use crate::admission::{AdmissionQueue, OfferOutcome};
use dope_core::{AdmissionPolicy, TaskCx};
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

/// Result of a take on behalf of a task body
/// ([`AdmissionQueue::take_for`], [`WorkQueue::dequeue_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waited<T> {
    /// An item was taken.
    Item(T),
    /// The body's path is asked to suspend: no item was taken, and the
    /// body should steer into a consistent state and return
    /// `TaskStatus::Suspended`.
    Suspended,
    /// The queue is closed and empty; no item will ever arrive.
    Closed,
}

/// A thread-safe FIFO work queue shared by cloning: the open gate.
///
/// Clones share the same queue. Occupancy and the enqueue counter feed
/// the paper's `LoadCB` callbacks and the executive's monitor.
///
/// # Example
///
/// ```
/// use dope_workload::{DequeueOutcome, WorkQueue};
/// use std::time::Duration;
///
/// let q = WorkQueue::new();
/// q.enqueue("frame").unwrap();
/// q.close();
/// assert_eq!(q.enqueue("late"), Err("late"));
/// assert_eq!(q.dequeue(), Some("frame"));
/// assert_eq!(q.dequeue_timeout(Duration::from_millis(1)), DequeueOutcome::Drained);
/// ```
pub struct WorkQueue<T>(pub(crate) AdmissionQueue<T>);

impl<T> Clone for WorkQueue<T> {
    fn clone(&self) -> Self {
        WorkQueue(self.0.clone())
    }
}

impl<T> std::fmt::Debug for WorkQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("WorkQueue").field(&self.0).finish()
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
        WorkQueue(AdmissionQueue::new(AdmissionPolicy::Open))
    }

    /// Enqueues an item, or hands it back as the `Err` if the queue is
    /// closed.
    pub fn enqueue(&self, item: T) -> Result<(), T> {
        match self.0.offer(item) {
            OfferOutcome::Admitted => Ok(()),
            OfferOutcome::Shed(item) | OfferOutcome::Closed(item) => Err(item),
        }
    }

    /// Dequeues, waiting up to `timeout` in total for an item. Returns
    /// [`DequeueOutcome::Drained`] once the queue is closed *and* empty,
    /// so consumers drain residual items before terminating.
    pub fn dequeue_timeout(&self, timeout: Duration) -> DequeueOutcome<T> {
        self.0.take(timeout)
    }

    /// Dequeues, parked with no timer armed until an enqueue or `close`
    /// wakes it. Returns `None` once the queue is closed and empty.
    pub fn dequeue(&self) -> Option<T> {
        self.0.take_untimed().item()
    }

    /// Dequeues on behalf of the task body running under `cx`: see
    /// [`AdmissionQueue::take_for`].
    pub fn dequeue_for(&self, cx: &mut dyn TaskCx) -> Waited<T>
    where
        T: Send + 'static,
    {
        self.0.take_for(cx)
    }

    /// Closes the queue: no further enqueues; consumers drain then stop.
    pub fn close(&self) {
        self.0.close();
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Current occupancy as a float — the shape `LoadCB` callbacks return.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len() as f64
    }

    /// Items enqueued since creation.
    #[must_use]
    pub fn total_enqueued(&self) -> u64 {
        self.0.stats().admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_counters() {
        let q = WorkQueue::new();
        for i in 0..5 {
            q.enqueue(i).unwrap();
        }
        assert_eq!((q.len(), q.occupancy(), q.total_enqueued()), (5, 5.0, 5));
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.dequeue()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.total_enqueued(), 5);
    }

    #[test]
    fn enqueue_after_close_returns_item() {
        let q = WorkQueue::new();
        q.close();
        assert_eq!(q.enqueue(9), Err(9));
        assert_eq!(q.total_enqueued(), 0);
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
    fn blocking_dequeue_wakes_on_enqueue_and_drains_on_close() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || (q2.dequeue(), q2.dequeue()));
        q.0.consumers().await_parked(1);
        q.enqueue(42u32).unwrap();
        q.0.consumers().await_parked(1);
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(42), None));
    }

    #[test]
    fn clones_share_state() {
        let q = WorkQueue::new();
        let q2 = q.clone();
        q.enqueue(1).unwrap();
        assert_eq!(q2.len(), 1);
        q2.close();
        assert_eq!(q.enqueue(2), Err(2));
    }

    #[test]
    fn outcome_item_accessor() {
        assert_eq!(DequeueOutcome::Item(3).item(), Some(3));
        assert_eq!(DequeueOutcome::<i32>::TimedOut.item(), None);
        assert_eq!(DequeueOutcome::<i32>::Drained.item(), None);
    }
}
