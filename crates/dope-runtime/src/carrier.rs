//! Parked carrier threads, reused across launches.
//!
//! The paper's executive "maintains a Thread Pool with as many threads as
//! constrained by the performance goals" (§5): its threads outlive each
//! parallel region. A carrier is an OS thread that runs one closure at a
//! time for one [`Role`] and, between closures, parks on its own
//! hand-off channel instead of exiting. [`spawn`] is a drop-in for
//! `std::thread::Builder::spawn` plus `JoinHandle::join`: it hands `f`
//! to an idle carrier of the role (starting one only if none is idle),
//! and the carrier runs it under `catch_unwind`, puts itself back on the
//! idle list, and only then delivers the result or panic payload to the
//! [`Joiner`]. So whoever joined a launch's threads finds them idle at
//! the next launch: a second launch in one process starts no thread.
//!
//! There is no knob. Carriers are never retired, so the idle ones never
//! outnumber the process's peak concurrent demand per role; each is
//! named after its role (`dope-worker`, `dope-executive`).

use crate::lockrank::{rank, RankedMutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

/// What a carrier runs: the closure, handed the carrier's way back onto
/// its idle list, which it takes between finishing and delivering.
type Job = Box<dyn FnOnce(&dyn Fn()) + Send>;

/// What a carrier is kept for: its threads' name and its idle list.
pub(crate) struct Role {
    name: &'static str,
    /// Idle carriers, the most recently parked last (reused first, with
    /// the warmest stack and caches).
    idle: RankedMutex<Vec<SyncSender<Job>>>,
}

/// Runs [`WorkerPool`](crate::WorkerPool) worker loops.
pub(crate) static WORKER: Role = Role::new("dope-worker");
/// Runs an executive's control loop.
pub(crate) static EXECUTIVE: Role = Role::new("dope-executive");

impl Role {
    const fn new(name: &'static str) -> Self {
        Role {
            name,
            idle: RankedMutex::new(rank::CARRIERS, Vec::new()),
        }
    }
}

/// The way to one closure's result, like a `JoinHandle`'s. Dropping it
/// detaches the closure, which still runs to the end.
#[derive(Debug)]
pub(crate) struct Joiner<T> {
    result: Receiver<thread::Result<T>>,
}

impl<T> Joiner<T> {
    /// Waits for the closure: its value, or the payload it panicked with.
    /// Its carrier is already idle again when this returns.
    pub(crate) fn join(self) -> thread::Result<T> {
        self.result.recv().unwrap_or_else(|_| {
            let vanished: Box<dyn Any + Send> = Box::new("the carrier thread ended mid-closure");
            Err(vanished)
        })
    }
}

/// Runs `f` on an idle carrier of `role`, or on a new one if none is
/// idle.
///
/// # Errors
///
/// The OS refused a new thread; `f` is dropped unrun.
pub(crate) fn spawn<T, F>(role: &'static Role, f: F) -> std::io::Result<Joiner<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (deliver, result) = sync_channel(1);
    let mut job: Job = Box::new(move |park: &dyn Fn()| {
        let outcome = catch_unwind(AssertUnwindSafe(f));
        park();
        // The joiner may be gone (a detached run); nobody is owed it then.
        let _ = deliver.send(outcome);
    });
    let idle = role.idle.lock().pop();
    if let Some(carrier) = idle {
        // An idle carrier's channel is empty, so this cannot block; it
        // fails only if the carrier is gone, and then a new one runs `job`.
        match carrier.send(job) {
            Ok(()) => return Ok(Joiner { result }),
            Err(refused) => job = refused.0,
        }
    }
    let (hand_off, jobs) = sync_channel::<Job>(1);
    let _ = hand_off.send(job);
    thread::Builder::new()
        .name(role.name.to_string())
        .spawn(move || carry(role, &hand_off, &jobs))?;
    Ok(Joiner { result })
}

/// A carrier's life: run each job handed to it, parking in between.
fn carry(role: &'static Role, hand_off: &SyncSender<Job>, jobs: &Receiver<Job>) {
    let park = || role.idle.lock().push(hand_off.clone());
    // `hand_off` lives here, so the channel never disconnects.
    while let Ok(job) = jobs.recv() {
        job(&park);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_panic_reaches_the_joiner() {
        let panicked = spawn(&WORKER, || -> u32 { panic!("boom") }).unwrap();
        let payload = panicked.join().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn carriers_are_named_by_role() {
        for role in [&WORKER, &EXECUTIVE] {
            let name = spawn(role, || thread::current().name().map(str::to_string))
                .unwrap()
                .join()
                .unwrap();
            assert_eq!(name.as_deref(), Some(role.name));
        }
    }

    #[test]
    fn concurrent_closures_get_distinct_carriers() {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
        let joiners: Vec<_> = (0..3)
            .map(|_| {
                let barrier = std::sync::Arc::clone(&barrier);
                spawn(&WORKER, move || {
                    barrier.wait();
                    thread::current().id()
                })
                .unwrap()
            })
            .collect();
        let ids: HashSet<_> = joiners.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(ids.len(), 3);
    }
}
