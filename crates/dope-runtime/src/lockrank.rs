//! Debug-only lock-rank enforcement: the runtime's lock order, declared
//! once in [`rank`] and checked on every acquisition.
//!
//! Every runtime lock is a [`RankedMutex`] built from one row of the
//! table; each acquisition pushes onto a thread-local stack of held
//! ranks, and acquiring a rank less than or equal to the current top
//! panics with both lock names. The guard sees the acquisitions that
//! actually happen — through closures, trait objects and scrape callbacks
//! too — so any debug test that reaches a lock site checks it.
//!
//! Release builds compile all bookkeeping out: a [`RankedMutex`] is a
//! `parking_lot::Mutex` plus two words of identity, and `lock()` is a
//! plain acquisition.

use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard};

/// One row of the lock order: a rank and the lock's name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Rank(pub u32, pub &'static str);

/// The lock order, mirrored for readers in `docs/static-analysis.md`.
pub(crate) mod rank {
    use super::Rank;

    /// Each row declares the constant and its entry in `ORDER`.
    macro_rules! lock_order {
        ($($(#[$doc:meta])* $name:ident = $rank:literal, $lock:literal;)+) => {
            $($(#[$doc])* pub const $name: Rank = Rank($rank, $lock);)+
            /// Every row, outermost lock first.
            #[cfg(test)]
            pub const ORDER: &[Rank] = &[$($name),+];
        };
    }

    lock_order! {
        /// `MonitorShared::paths` (one row per running leaf: its task,
        /// extent, load callbacks, failure marks, cell and period marks).
        PATHS = 10, "paths";
        /// `PathStats::shards` (the per-path shard list; the shards
        /// themselves are lock-free).
        SHARDS = 70, "shards";
        /// `carrier::Role::idle` (the idle carriers of one role; held
        /// only to push or pop one).
        CARRIERS = 80, "carriers";
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The locks this thread currently holds, in acquisition order.
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };

    /// How often this thread has produced each chain of held ranks (the
    /// acquired lock last), so tests can assert that a path is lock-free
    /// or that a nesting was exercised instead of trusting a comment.
    static CHAINS: std::cell::RefCell<std::collections::BTreeMap<Vec<u32>, u64>> =
        const { std::cell::RefCell::new(std::collections::BTreeMap::new()) };
}

/// The distinct chains of ranks the calling thread has held, each ending
/// in the lock acquired, with their counts (debug builds only; empty in
/// release builds, where the bookkeeping is compiled out).
#[cfg(test)]
pub(crate) fn chains_on_this_thread() -> std::collections::BTreeMap<Vec<u32>, u64> {
    #[cfg(debug_assertions)]
    {
        CHAINS.with(|chains| chains.borrow().clone())
    }
    #[cfg(not(debug_assertions))]
    {
        std::collections::BTreeMap::new()
    }
}

/// Total [`RankedMutex`] acquisitions performed by the calling thread so
/// far (always 0 in release builds).
#[cfg(test)]
pub(crate) fn acquisitions_on_this_thread() -> u64 {
    chains_on_this_thread().values().sum()
}

/// A `parking_lot::Mutex` that knows its place in the lock order.
pub(crate) struct RankedMutex<T> {
    rank: Rank,
    raw: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex at `rank` of the lock order.
    pub(crate) const fn new(rank: Rank, value: T) -> Self {
        RankedMutex {
            rank,
            raw: Mutex::new(value),
        }
    }

    /// Acquires the mutex.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this thread already holds a lock of
    /// equal (re-entrant) or higher rank — the inversion a release
    /// build would deadlock on some interleaving of.
    pub(crate) fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let Rank(rank, name) = self.rank;
            if let Some(&Rank(top_rank, top_name)) = held.last() {
                assert!(
                    rank > top_rank,
                    "lock-order violation: acquiring `{name}` (rank {rank}) while holding \
                     `{top_name}` (rank {top_rank}) — ranks must strictly ascend; \
                     see `lockrank::rank`",
                );
            }
            held.push(self.rank);
            let chain = held.iter().map(|rank| rank.0).collect();
            CHAINS.with(|chains| *chains.borrow_mut().entry(chain).or_insert(0) += 1);
        });
        RankedGuard {
            guard: self.raw.lock(),
            #[cfg(debug_assertions)]
            mutex: self,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedMutex")
            .field("rank", &self.rank)
            .field("value", &self.raw)
            .finish()
    }
}

/// RAII guard of a [`RankedMutex`]; releasing pops the held-rank stack.
pub(crate) struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    mutex: &'a RankedMutex<T>,
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        // Guards may be released out of LIFO order (ascending
        // acquisition does not require nested release), so pop the
        // matching entry wherever it sits.
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&rank| rank == self.mutex.rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_fine() {
        let a = RankedMutex::new(Rank(10, "a"), 1u32);
        let b = RankedMutex::new(Rank(20, "b"), 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn out_of_lifo_release_unwinds_correctly() {
        let a = RankedMutex::new(Rank(10, "a"), ());
        let b = RankedMutex::new(Rank(20, "b"), ());
        let c = RankedMutex::new(Rank(30, "c"), ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the outer lock first
        let gc = c.lock(); // still ascending from `b`
        drop(gb);
        drop(gc);
        // The stack is empty again: rank 10 is acquirable.
        let _ga = a.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "rank checking is compiled out in release builds"
    )]
    #[should_panic(expected = "lock-order violation")]
    fn descending_acquisition_panics_in_debug() {
        let a = RankedMutex::new(Rank(10, "a"), ());
        let b = RankedMutex::new(Rank(20, "b"), ());
        let _gb = b.lock();
        let _ga = a.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "rank checking is compiled out in release builds"
    )]
    #[should_panic(expected = "lock-order violation")]
    fn reentrant_acquisition_panics_in_debug() {
        let a = RankedMutex::new(Rank(10, "a"), ());
        let _first = a.lock();
        let _second = a.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the acquisition counters are compiled out in release builds"
    )]
    fn acquisitions_are_counted_per_chain_of_held_ranks() {
        let outer = RankedMutex::new(Rank(10, "a"), ());
        let inner = RankedMutex::new(Rank(20, "b"), ());
        let before = acquisitions_on_this_thread();
        drop(inner.lock());
        let held = outer.lock();
        drop(inner.lock());
        drop(held);
        assert_eq!(acquisitions_on_this_thread(), before + 3);
        let chains = chains_on_this_thread();
        assert_eq!(chains[&vec![10]], 1);
        assert_eq!(chains[&vec![20]], 1, "acquired alone: a chain of one");
        assert_eq!(chains[&vec![10, 20]], 1, "acquired under `a`");
    }

    #[test]
    fn the_order_ascends_and_the_book_shows_the_same_table() {
        let ranks: Vec<u32> = rank::ORDER.iter().map(|r| r.0).collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
        // docs/static-analysis.md rows: "| 10 | `paths` | ... |".
        let documented: Vec<(u32, &str)> = include_str!("../../../docs/static-analysis.md")
            .lines()
            .filter_map(|line| {
                let mut cells = line.strip_prefix("| ")?.split(" | ");
                let rank = cells.next()?.parse().ok()?;
                Some((rank, cells.next()?.trim_matches('`')))
            })
            .collect();
        let declared: Vec<(u32, &str)> = rank::ORDER.iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(documented, declared, "book table vs `lockrank::rank`");
    }

    #[test]
    fn guards_deref_to_the_value() {
        let m = RankedMutex::new(Rank(10, "a"), vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        assert!(format!("{m:?}").contains("rank"));
    }
}
