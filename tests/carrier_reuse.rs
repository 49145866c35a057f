//! Launches run on parked carrier threads, reused across launches.
//!
//! Its own test binary: tests side by side in one process share the
//! carriers, so a second launch could borrow another test's threads.
//! The tests here also take [`SERIAL`] for that reason.
//!
//! `std` never reuses a `ThreadId`, so "the second launch ran on a subset
//! of the first launch's threads" means it started none of its own.

use dope_core::{body_fn, Error, Goal, TaskBody, TaskKind, TaskSpec, TaskStatus, WorkerSlot};
use dope_runtime::Dope;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;
use support::Scripted;

mod support;

static SERIAL: Mutex<()> = Mutex::new(());

/// What one launch saw: the threads its bodies and its control loop ran
/// on, how many replicas started, and whether the mechanism was
/// consulted yet.
#[derive(Default)]
struct Seen {
    threads: Mutex<HashSet<ThreadId>>,
    started: AtomicU32,
    consulted: AtomicBool,
}

impl Seen {
    fn record(&self) {
        self.threads.lock().unwrap().insert(thread::current().id());
    }

    fn threads(&self) -> HashSet<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

/// A leaf whose one replica records its thread and runs until both
/// leaves' replicas have started (so the two hold both pool threads at
/// once) and the mechanism has been consulted.
fn leaf(name: &str, seen: &Arc<Seen>) -> TaskSpec {
    let seen = Arc::clone(seen);
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
        let seen = Arc::clone(&seen);
        let mut first = true;
        Box::new(body_fn(move |_cx| {
            if std::mem::take(&mut first) {
                seen.record();
                seen.started.fetch_add(1, Ordering::AcqRel);
            }
            if seen.started.load(Ordering::Acquire) == 2 && seen.consulted.load(Ordering::Acquire) {
                TaskStatus::Finished
            } else {
                thread::sleep(Duration::from_micros(200));
                TaskStatus::Executing
            }
        })) as Box<dyn TaskBody>
    })
}

/// Launches the two-leaf program on a 2-thread budget and waits for it.
fn run(explode: bool) -> (Arc<Seen>, dope_core::Result<()>) {
    let seen = Arc::new(Seen::default());
    // Records the control thread, then holds, or panics if `explode`.
    let consulted = Arc::clone(&seen);
    let mechanism = Scripted::new(move |_, _| {
        consulted.record();
        consulted.consulted.store(true, Ordering::Release);
        assert!(!explode, "mechanism exploded");
        None
    });
    let result = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(mechanism))
        .control_period(Duration::from_millis(1))
        .launch(vec![leaf("a", &seen), leaf("b", &seen)])
        .and_then(Dope::wait)
        .map(drop);
    (seen, result)
}

fn assert_reused(first: &HashSet<ThreadId>, second: &HashSet<ThreadId>) {
    assert_eq!(first.len(), 3, "two workers and a control thread");
    assert!(
        second.is_subset(first),
        "the second launch started threads: {second:?} not within {first:?}"
    );
}

#[test]
fn a_second_launch_runs_on_the_first_launchs_threads() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (first, result) = run(false);
    result.unwrap();
    let (second, result) = run(false);
    result.unwrap();
    assert_eq!(second.threads().len(), 3);
    assert_reused(&first.threads(), &second.threads());
}

#[test]
fn a_panicking_control_loop_surfaces_and_its_carriers_run_the_next_launch() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (first, result) = run(true);
    match result {
        Err(Error::Usage(text)) => {
            assert!(text.contains("executive control thread panicked"), "{text}");
            assert!(text.contains("mechanism exploded"), "{text}");
        }
        other => panic!("expected the control thread's panic, got {other:?}"),
    }
    let (second, result) = run(false);
    result.unwrap();
    assert_reused(&first.threads(), &second.threads());
}
