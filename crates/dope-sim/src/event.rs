//! Event time, the event agenda and the time average the simulators use.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A finite `f64` with a total order, usable as a heap key.
///
/// # Example
///
/// ```
/// use dope_sim::OrdF64;
///
/// let mut times = vec![OrdF64::new(2.0), OrdF64::new(0.5)];
/// times.sort();
/// assert_eq!(times[0].get(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a finite value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "event time must be finite, got {value}");
        OrdF64(value)
    }

    /// The wrapped value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("OrdF64 values are finite")
    }
}

impl From<OrdF64> for f64 {
    fn from(v: OrdF64) -> f64 {
        v.get()
    }
}

/// The pending events of a discrete-event loop: popped earliest first,
/// and events due at the same instant in the order they were pushed.
///
/// That tie rule is the whole of the simulators' event ordering, so it is
/// written here once. A run's figures depend on it: two completions due
/// at one instant release their contexts in dispatch order.
///
/// # Example
///
/// ```
/// use dope_sim::event::Agenda;
///
/// let mut agenda = Agenda::new();
/// agenda.push(2.0, "late");
/// agenda.push(1.0, "first");
/// agenda.push(1.0, "second");
/// assert_eq!(agenda.peek_time(), Some(1.0));
/// assert_eq!(agenda.pop(), Some((1.0, "first")));
/// assert_eq!(agenda.pop(), Some((1.0, "second")));
/// assert_eq!(agenda.pop(), Some((2.0, "late")));
/// assert_eq!(agenda.pop(), None);
/// ```
#[derive(Debug)]
pub struct Agenda<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    pushed: u64,
}

/// One pending event, ordered by its `(time, push count)` key alone.
#[derive(Debug)]
struct Entry<E> {
    key: (OrdF64, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for Agenda<E> {
    fn default() -> Self {
        Agenda::new()
    }
}

impl<E> Agenda<E> {
    /// An empty agenda.
    #[must_use]
    pub fn new() -> Self {
        Agenda {
            heap: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Schedules `event` at `at` seconds, after every event already due
    /// then.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite.
    pub fn push(&mut self, at: f64, event: E) {
        let key = (OrdF64::new(at), self.pushed);
        self.pushed += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Removes the next event, with its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse(Entry { key, event }) = self.heap.pop()?;
        Some((key.0.get(), event))
    }

    /// When the next event is due.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(entry)| entry.key.0.get())
    }
}

/// A level held over simulated time, and its time average: the one rule
/// both simulators measure busy capacity and power draw by. A change
/// charges the level held so far up to `now`, then moves it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Accrual<L> {
    level: L,
    /// Up to when `level` is charged into `area`.
    since: f64,
    /// Level-seconds since the window opened at `from`.
    area: f64,
    from: f64,
}

impl<L: Copy + Into<f64>> Accrual<L> {
    /// `level`, held from `now`.
    pub(crate) fn new(now: f64, level: L) -> Self {
        Accrual {
            level,
            since: now,
            area: 0.0,
            from: now,
        }
    }

    /// The level held now.
    pub(crate) fn level(&self) -> L {
        self.level
    }

    /// Charges the level held so far up to `now`, then moves it to `level`.
    pub(crate) fn set(&mut self, now: f64, level: L) {
        self.area += self.level.into() * (now - self.since);
        self.since = now;
        self.level = level;
    }

    /// The time average of the level since the previous call (or since
    /// [`new`](Self::new)), and a new window from `now`. An empty window
    /// reads the level held now.
    pub(crate) fn mean(&mut self, now: f64) -> f64 {
        self.set(now, self.level);
        let span = now - std::mem::replace(&mut self.from, now);
        let area = std::mem::take(&mut self.area);
        if span > 0.0 {
            area / span
        } else {
            self.level.into()
        }
    }

    /// A snapshot row's `utilization`: the mean busy level since the
    /// previous consult over `capacity`, capped at 1, as the live monitor
    /// reads it.
    pub(crate) fn utilization(&mut self, now: f64, capacity: u32) -> f64 {
        (self.mean(now) / f64::from(capacity.max(1))).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_like_f64() {
        assert!(OrdF64::new(1.0) < OrdF64::new(2.0));
        assert_eq!(OrdF64::new(3.0), OrdF64::new(3.0));
    }

    #[test]
    fn pops_earliest_then_first_pushed() {
        let mut agenda = Agenda::new();
        for (at, name) in [
            (3.0, "c"),
            (1.0, "a1"),
            (2.0, "b"),
            (1.0, "a2"),
            (1.0, "a3"),
        ] {
            agenda.push(at, name);
        }
        let order: Vec<_> = std::iter::from_fn(|| agenda.pop()).collect();
        assert_eq!(
            order,
            [
                (1.0, "a1"),
                (1.0, "a2"),
                (1.0, "a3"),
                (2.0, "b"),
                (3.0, "c")
            ]
        );
        assert_eq!(agenda.peek_time(), None);
    }

    #[test]
    fn an_accrual_charges_the_level_held_before_each_change() {
        let mut busy = Accrual::new(0.0, 0_u32);
        busy.set(0.25, 2);
        busy.set(0.375, 0);
        assert_eq!(busy.level(), 0);
        // 2 for 0.125 s of the first 0.5 s.
        assert_eq!(busy.mean(0.5), 0.5);
        busy.set(0.5, 1);
        assert_eq!(busy.utilization(1.0, 2), 0.5);
        // An empty window reads the level held now.
        assert_eq!(busy.mean(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn nan_panics() {
        let _ = OrdF64::new(f64::NAN);
    }
}
