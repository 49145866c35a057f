//! Control-loop regression tests for bugs the full-epoch drain used to
//! hide: tick starvation under completion floods, restart backoff
//! blocking shutdown, a stop waiting for a tick, and the final decision
//! audit going missing or being scored over a sliver of a period.

use dope_core::{
    body_fn, FailurePolicy, FailureVerdict, Goal, TaskBody, TaskCx, TaskKind, TaskPath, TaskSpec,
    TaskStatus, WorkerSlot,
};
use dope_runtime::Dope;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::WorkQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use support::{check, closed_queue, Leaf, Scripted};

mod support;

/// Counts consults into `consults`; never proposes, always explains.
fn auditor(consults: &Arc<AtomicU64>) -> Box<Scripted> {
    let consults = Arc::clone(consults);
    Box::new(
        Scripted::new(move |_, _| {
            consults.fetch_add(1, Ordering::SeqCst);
            None
        })
        .explained(),
    )
}

/// Replica completions arriving faster than the control period must not
/// starve the mechanism: the tick deadline is absolute, not reset by
/// every message. Sixteen replicas finish 6 ms apart — every gap is
/// shorter than the 10 ms control period, so a timer that restarts on
/// each completion would never fire.
#[test]
fn control_ticks_survive_completion_floods() {
    let consults = Arc::new(AtomicU64::new(0));
    let spec = TaskSpec::leaf("stagger", TaskKind::Par, move |slot: WorkerSlot| {
        let delay = Duration::from_millis(6 * (u64::from(slot.worker) + 1));
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            cx.begin();
            std::thread::sleep(delay);
            cx.end();
            TaskStatus::Finished
        })) as Box<dyn TaskBody>
    });
    let dope = Dope::builder(Goal::MaxThroughput { threads: 16 })
        .mechanism(auditor(&consults))
        .control_period(Duration::from_millis(10))
        .launch(vec![spec])
        .expect("launch");
    dope.wait().expect("completes");
    assert!(
        consults.load(Ordering::SeqCst) >= 2,
        "a ~96 ms run with a 10 ms control period must consult the \
         mechanism several times even while completions flood in \
         (got {})",
        consults.load(Ordering::SeqCst)
    );
}

/// A stop request must interrupt the restart policy's backoff sleep —
/// shutdown cannot block behind a multi-second backoff.
#[test]
fn restart_backoff_yields_to_stop() {
    let started = Instant::now();
    let spec = TaskSpec::leaf("bomb", TaskKind::Par, move |_slot: WorkerSlot| {
        Box::new(body_fn(move |_cx: &mut dyn TaskCx| -> TaskStatus {
            panic!("always detonates");
        })) as Box<dyn TaskBody>
    });
    let dope = Dope::builder(Goal::MaxThroughput { threads: 1 })
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Restart {
            max_retries: 1_000,
            backoff: Duration::from_secs(5),
        })
        .launch(vec![spec])
        .expect("launch");
    std::thread::sleep(Duration::from_millis(200));
    dope.stop();
    let report = dope.wait().expect("stop lands cleanly mid-backoff");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(2_500),
        "stop must interrupt the 5 s backoff, took {elapsed:?}"
    );
    assert!(report.task_failures >= 1);
    assert!(report.failure_verdict >= FailureVerdict::Recovered);
}

/// A stop wakes the control thread itself: with a 10 s control period no
/// tick comes to notice it, yet every path — a nest's replicas and a
/// leaf — suspends, and `wait()` returns promptly with nothing lost.
#[test]
fn stop_lands_without_waiting_for_a_tick() {
    // Never closed: without the stop the run would not end.
    let queue: WorkQueue<u64> = WorkQueue::new();
    let inner = queue.clone();
    let specs = vec![
        TaskSpec::nest("outer", TaskKind::Par, move |_replica: u32| {
            vec![Leaf::new("inner", inner.clone()).spec()]
        }),
        Leaf::new("leaf", queue).spec(),
    ];
    let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
        .control_period(Duration::from_secs(10))
        .launch(specs)
        .expect("launch");
    std::thread::sleep(Duration::from_millis(50));
    let asked = Instant::now();
    dope.stop();
    // Waited for off-thread, so a lost wake-up fails here instead of
    // hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(dope.wait()));
    let report = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("wait() returns after stop()")
        .expect("stops cleanly");
    let took = asked.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "wait() returned {took:?} after stop()"
    );
    assert_eq!(report.lost_jobs, 0);
    assert_eq!(report.failure_verdict, FailureVerdict::Clean);
}

/// Every consult the audit holds must reach the trace: the decision
/// pending when the run ends is flushed — scored against a final
/// snapshot — instead of being dropped.
#[test]
fn every_consult_reaches_the_decision_trace() {
    let consults = Arc::new(AtomicU64::new(0));
    let spec = Leaf::new("drain", closed_queue(120))
        .work(Duration::from_millis(1))
        .spec();
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(auditor(&consults))
        .control_period(Duration::from_millis(10))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    dope.wait().expect("completes");
    check(&recorder.records(), true);

    let decisions: Vec<Option<f64>> = recorder
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::DecisionTraced {
                realized_throughput,
                ..
            } => Some(*realized_throughput),
            _ => None,
        })
        .collect();
    let consulted = consults.load(Ordering::SeqCst);
    assert!(consulted >= 2, "run too short to exercise the flush");
    assert_eq!(
        decisions.len() as u64,
        consulted,
        "every consult must produce exactly one DecisionTraced event"
    );
    assert!(
        decisions.last().is_some_and(Option::is_some),
        "the final flushed decision is scored against a last snapshot"
    );
}

/// A read a moment after a tick, and the held decision a stop right then
/// leaves to be scored, cover a whole control period, not the sliver
/// since the tick: the saturated leaf reads busy, and completing at the
/// rate the tick saw.
#[test]
fn a_stop_right_after_a_tick_scores_over_a_whole_period() {
    let (tx, ticks) = mpsc::sync_channel(0);
    let spec = TaskSpec::leaf("spin", TaskKind::Par, |_slot: WorkerSlot| {
        Box::new(body_fn(|cx: &mut dyn TaskCx| {
            let directive = cx.begin();
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            cx.end();
            if directive.wants_suspend() {
                TaskStatus::Suspended
            } else {
                TaskStatus::Executing
            }
        })) as Box<dyn TaskBody>
    });
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 1 })
        // Holds at every consult, and hands each tick to a waiting test
        // thread: only a receiver already waiting takes it, so the control
        // thread never blocks.
        .mechanism(Box::new(
            Scripted::new(move |_, _| {
                let _ = tx.try_send(());
                None
            })
            .explained(),
        ))
        .control_period(Duration::from_millis(20))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    for _ in 0..5 {
        ticks.recv().expect("a tick");
    }
    let read = dope.monitor().snapshot();
    dope.stop();
    dope.wait().expect("stops cleanly");

    let path: TaskPath = "0".parse().unwrap();
    let records = recorder.records();
    check(&records, true);
    let tick_rate = records
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            TraceEvent::SnapshotTaken { snapshot } => Some(snapshot.task(&path)?.throughput),
            _ => None,
        })
        .expect("ticks were recorded");
    let scored = records
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            TraceEvent::DecisionTraced {
                realized_throughput,
                ..
            } => Some(*realized_throughput),
            _ => None,
        })
        .expect("the held decision is scored");
    let sane = |rate: f64| rate > tick_rate / 2.0 && rate < tick_rate * 2.0;
    let row = read.task(&path).expect("the leaf ran");
    assert!(
        row.utilization >= 0.8,
        "the spinning leaf reads utilization {:.3}",
        row.utilization
    );
    assert!(
        sane(row.throughput),
        "read {:.0}/s against the tick's {tick_rate:.0}/s",
        row.throughput
    );
    assert!(
        scored.is_some_and(sane),
        "scored {scored:?} against the tick's {tick_rate:.0}/s"
    );
}
