//! Failure injection: the executive must stay correct when tasks are slow
//! to suspend, mechanisms misbehave, tasks panic mid-run, or the power
//! meter goes quiet.

use dope_core::{
    body_fn, Config, DiagCode, FailurePolicy, FailureVerdict, Goal, Mechanism, MonitorSnapshot,
    ProgramShape, Resources, TaskBody, TaskConfig, TaskCx, TaskKind, TaskSpec, TaskStatus,
    WorkerSlot,
};
use dope_metrics::MetricsRegistry;
use dope_runtime::Dope;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::{DequeueOutcome, WorkQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A mechanism that always proposes a configuration violating the budget.
#[derive(Debug)]
struct Hostile;

impl Mechanism for Hostile {
    fn name(&self) -> &'static str {
        "Hostile"
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        _current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        // 1000 workers on a tiny budget: must be rejected, not applied.
        Some(Config::new(vec![TaskConfig::leaf("drain", 1000)]))
    }
}

fn drain_spec(queue: WorkQueue<u64>, hits: Arc<AtomicU64>) -> TaskSpec {
    TaskSpec::leaf("drain", TaskKind::Par, move |_slot: WorkerSlot| {
        let queue = queue.clone();
        let hits = Arc::clone(&hits);
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            cx.begin();
            let outcome = queue.dequeue_timeout(Duration::from_millis(2));
            let status = match outcome {
                DequeueOutcome::Item(_) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    TaskStatus::Executing
                }
                DequeueOutcome::Drained => TaskStatus::Finished,
                DequeueOutcome::TimedOut => {
                    if cx.directive().wants_suspend() {
                        TaskStatus::Suspended
                    } else {
                        TaskStatus::Executing
                    }
                }
            };
            cx.end();
            status
        })) as Box<dyn TaskBody>
    })
}

#[test]
fn invalid_proposals_are_rejected_and_counted() {
    let queue = WorkQueue::new();
    for i in 0..300u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(Hostile))
        .control_period(Duration::from_millis(5))
        .launch(vec![drain_spec(queue, Arc::clone(&hits))])
        .expect("launch");
    let report = dope.wait().expect("completes despite hostile mechanism");
    assert_eq!(hits.load(Ordering::Relaxed), 300);
    assert_eq!(report.reconfigurations, 0, "invalid configs never applied");
}

/// A body that keeps working for a while after being asked to suspend —
/// the executive must wait for it, not lose its work.
#[test]
fn slow_suspenders_drain_before_relaunch() {
    struct Flipper {
        target: Config,
        flipped: bool,
    }
    impl std::fmt::Debug for Flipper {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Flipper")
        }
    }
    impl Mechanism for Flipper {
        fn name(&self) -> &'static str {
            "Flipper"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            if self.flipped || *current == self.target {
                return None;
            }
            self.flipped = true;
            Some(self.target.clone())
        }
    }

    let queue = WorkQueue::new();
    for i in 0..400u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let spec = {
        let queue = queue.clone();
        let hits = Arc::clone(&hits);
        TaskSpec::leaf("drain", TaskKind::Par, move |_slot: WorkerSlot| {
            let queue = queue.clone();
            let hits = Arc::clone(&hits);
            let mut ignored_suspends = 0u32;
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                let directive = cx.begin();
                let outcome = queue.dequeue_timeout(Duration::from_millis(2));
                let status = match outcome {
                    DequeueOutcome::Item(_) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(300));
                        // Slow to yield: honour only the fourth suspend.
                        if directive.wants_suspend() {
                            ignored_suspends += 1;
                            if ignored_suspends >= 4 {
                                cx.end();
                                return TaskStatus::Suspended;
                            }
                        }
                        TaskStatus::Executing
                    }
                    DequeueOutcome::Drained => TaskStatus::Finished,
                    DequeueOutcome::TimedOut => {
                        if directive.wants_suspend() {
                            TaskStatus::Suspended
                        } else {
                            TaskStatus::Executing
                        }
                    }
                };
                cx.end();
                status
            })) as Box<dyn TaskBody>
        })
    };

    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(Flipper {
            target: Config::new(vec![TaskConfig::leaf("drain", 1)]),
            flipped: false,
        }))
        .control_period(Duration::from_millis(5))
        .launch(vec![spec])
        .expect("launch");
    let report = dope.wait().expect("completes");
    assert_eq!(
        hits.load(Ordering::Relaxed),
        400,
        "slow suspension must not lose work"
    );
    assert_eq!(report.reconfigurations, 1);
    assert_eq!(report.final_config.total_threads(), 1);
}

/// A task whose replica 0 of the *first* instantiation panics before
/// touching the queue; every later instantiation behaves. `armed`
/// counts factory calls so re-instantiated epochs run clean bodies.
fn bomb_once_spec(
    name: &str,
    queue: WorkQueue<u64>,
    hits: Arc<AtomicU64>,
    armed: Arc<AtomicU64>,
) -> TaskSpec {
    TaskSpec::leaf(name, TaskKind::Par, move |slot: WorkerSlot| {
        let queue = queue.clone();
        let hits = Arc::clone(&hits);
        let instance = armed.fetch_add(1, Ordering::SeqCst);
        let exploding = instance == 0 && slot.worker == 0;
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            if exploding {
                panic!("injected failure");
            }
            cx.begin();
            let outcome = queue.dequeue_timeout(Duration::from_millis(2));
            cx.end();
            match outcome {
                DequeueOutcome::Item(_) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    TaskStatus::Executing
                }
                DequeueOutcome::Drained => TaskStatus::Finished,
                DequeueOutcome::TimedOut => {
                    if cx.directive().wants_suspend() {
                        TaskStatus::Suspended
                    } else {
                        TaskStatus::Executing
                    }
                }
            }
        })) as Box<dyn TaskBody>
    })
}

fn counter_value(render: &str, metric: &str) -> Option<f64> {
    render
        .lines()
        .find(|l| l.starts_with(metric) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}

/// Tentpole acceptance: a replica panics mid-run; no worker thread dies
/// (the sibling replica drains the whole queue), the run terminates per
/// the default `Abort` policy with the panic message in the error, the
/// `TaskFailed` event is recorded, and the failure counter fires.
#[test]
fn panicking_replica_aborts_without_killing_workers() {
    let queue = WorkQueue::new();
    for i in 0..300u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let armed = Arc::new(AtomicU64::new(0));
    let recorder = Recorder::bounded(4096);
    let registry = MetricsRegistry::new();
    // threads=2 over one leaf: extent 2, worker 0 explodes, worker 1
    // must finish all 300 items on the surviving (unkilled) thread.
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .metrics(registry.clone())
        .launch(vec![bomb_once_spec(
            "drain",
            queue,
            Arc::clone(&hits),
            Arc::clone(&armed),
        )])
        .expect("launch");
    let err = dope.wait().expect_err("abort policy fails the run");
    assert_eq!(err.code(), DiagCode::TaskFailed);
    let text = err.to_string();
    assert!(text.contains("injected failure"), "{text}");
    assert_eq!(
        hits.load(Ordering::Relaxed),
        300,
        "the surviving replica drains everything: no worker died"
    );
    let failed: Vec<_> = recorder
        .records()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::TaskFailed {
                path,
                reason,
                policy,
            } => Some((path, reason, policy)),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 1, "exactly one replica failed");
    assert_eq!(failed[0].2, "abort");
    assert!(failed[0].1.contains("injected failure"));
    // The error exit goes through the control core's `finish`: whatever
    // consults preceded the abort each reached the trace, yet an aborted
    // run is not a complete trace.
    assert_audit_trail_closed(&recorder);
    let render = registry.render();
    assert_eq!(
        counter_value(&render, "dope_task_failures_total"),
        Some(1.0),
        "{render}"
    );
    assert_eq!(
        counter_value(&render, "dope_pool_panics_caught_total"),
        Some(0.0),
        "executive-level supervision reports the panic; the pool's own \
         net stays untouched"
    );
}

/// A leaf that finishes cleanly and then panics in `fini` fails the run
/// with that panic's text within a few control periods, while its sibling
/// still runs: the report is not left to a pool that never goes idle.
#[test]
fn a_fini_panic_after_a_clean_finish_fails_the_run_promptly() {
    struct FiniBomb;
    impl TaskBody for FiniBomb {
        fn invoke(&mut self, _cx: &mut dyn TaskCx) -> TaskStatus {
            TaskStatus::Finished
        }
        fn fini(&mut self, _status: TaskStatus) {
            panic!("fini exploded");
        }
    }
    let bomb = TaskSpec::leaf("a", TaskKind::Seq, |_slot: WorkerSlot| {
        Box::new(FiniBomb) as Box<dyn TaskBody>
    });
    // Honours a suspend; finishes on its own after 2 s, so a lost report
    // fails the test instead of hanging it.
    let sibling = TaskSpec::leaf("b", TaskKind::Seq, |_slot: WorkerSlot| {
        let started = Instant::now();
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            std::thread::sleep(Duration::from_millis(1));
            if cx.directive().wants_suspend() {
                TaskStatus::Suspended
            } else if started.elapsed() > Duration::from_secs(2) {
                TaskStatus::Finished
            } else {
                TaskStatus::Executing
            }
        })) as Box<dyn TaskBody>
    });
    let started = Instant::now();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .launch(vec![bomb, sibling])
        .expect("launch");
    let err = dope.wait().expect_err("the fini panic fails the run");
    let elapsed = started.elapsed();
    assert_eq!(err.code(), DiagCode::TaskFailed);
    assert!(err.to_string().contains("fini exploded"), "{err}");
    assert!(
        elapsed < Duration::from_secs(1),
        "the failure took {elapsed:?} to surface"
    );
}

/// The audit-trail invariants of a run that ended in an error: one
/// `DecisionTraced` per consult, every accepted proposal applied or
/// superseded, and no `Finished` record.
fn assert_audit_trail_closed(recorder: &Recorder) {
    let records = recorder.records();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    assert_eq!(count("DecisionTraced"), count("SnapshotTaken"));
    assert_eq!(count("Finished"), 0);
    let verdicts = |wanted: &str| {
        records
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::ProposalEvaluated { verdict, .. } if format!("{verdict:?}") == wanted))
            .count()
    };
    assert_eq!(
        verdicts("Accepted"),
        verdicts("Superseded") + count("ReconfigureEpoch")
    );
}

/// The abort-path hole: a proposal is accepted, the replica it steers
/// to a consistent point detonates, and the default `Abort` policy
/// fails the run. The consult that preceded the failure must still
/// yield its `DecisionTraced` and the accepted target must be retired
/// as `superseded` before the error propagates.
#[test]
fn abort_after_an_accepted_proposal_keeps_the_audit_trail() {
    struct NarrowOnce {
        fired: bool,
    }
    impl Mechanism for NarrowOnce {
        fn name(&self) -> &'static str {
            "NarrowOnce"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            _current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            (!std::mem::replace(&mut self.fired, true))
                .then(|| Config::new(vec![TaskConfig::leaf("drain", 2)]))
        }
        fn explain(&self) -> Option<dope_core::DecisionTrace> {
            Some(dope_core::DecisionTrace::new(
                dope_core::Rationale::Hold,
                "narrow",
            ))
        }
    }
    // Never closed: replicas spin until told to suspend, and the first
    // one to see the directive panics instead.
    let queue: WorkQueue<u64> = WorkQueue::new();
    let spec = TaskSpec::leaf("drain", TaskKind::Par, move |_slot: WorkerSlot| {
        let queue = queue.clone();
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            let directive = cx.begin();
            let _ = queue.dequeue_timeout(Duration::from_millis(1));
            cx.end();
            assert!(!directive.wants_suspend(), "panicked at the drain");
            TaskStatus::Executing
        })) as Box<dyn TaskBody>
    });
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .mechanism(Box::new(NarrowOnce { fired: false }))
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    let err = dope.wait().expect_err("abort policy fails the run");
    assert_eq!(err.code(), DiagCode::TaskFailed);
    assert_audit_trail_closed(&recorder);
    let kinds: Vec<&str> = recorder.records().iter().map(|r| r.event.kind()).collect();
    assert!(kinds.contains(&"DecisionTraced"), "{kinds:?}");
    assert!(
        recorder.records().iter().any(|r| matches!(
            &r.event,
            TraceEvent::ProposalEvaluated { verdict, .. } if format!("{verdict:?}") == "Superseded"
        )),
        "{kinds:?}"
    );
}

/// Under `Restart` the failed replica is re-instantiated next epoch and
/// the run completes, reporting an honest `Recovered` verdict.
#[test]
fn restart_policy_reinstates_the_replica_and_completes() {
    let queue = WorkQueue::new();
    for i in 0..200u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let armed = Arc::new(AtomicU64::new(0));
    let recorder = Recorder::bounded(4096);
    let registry = MetricsRegistry::new();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        })
        .recorder(recorder.clone())
        .metrics(registry.clone())
        .launch(vec![bomb_once_spec(
            "drain",
            queue,
            Arc::clone(&hits),
            Arc::clone(&armed),
        )])
        .expect("launch");
    let report = dope.wait().expect("restart recovers the run");
    assert_eq!(hits.load(Ordering::Relaxed), 200, "no work lost");
    assert_eq!(report.task_failures, 1);
    assert_eq!(report.task_restarts, 1);
    assert_eq!(report.lost_jobs, 0);
    assert_eq!(report.failure_verdict, FailureVerdict::Recovered);
    assert!(recorder.records().iter().any(|r| matches!(
        &r.event,
        TraceEvent::TaskFailed { policy, .. } if policy == "restart"
    )));
    let render = registry.render();
    assert_eq!(
        counter_value(&render, "dope_task_restarts_total"),
        Some(1.0),
        "{render}"
    );
    assert_eq!(
        counter_value(&render, "dope_task_failed_replicas"),
        Some(0.0),
        "the relaunch starts with every replica alive"
    );
    // Pool-capacity regression: every dispatched job parked its worker
    // again, panic or not — a leak here starves later epochs.
    assert_eq!(
        counter_value(&render, "dope_pool_jobs_dispatched_total"),
        counter_value(&render, "dope_pool_worker_parks_total"),
        "{render}"
    );
}

/// A replica that panics on *every* instantiation exhausts the restart
/// budget and the run fails with the budget in the error text.
#[test]
fn restart_budget_exhaustion_aborts_the_run() {
    let spec = TaskSpec::leaf("always-bomb", TaskKind::Par, move |_slot: WorkerSlot| {
        Box::new(body_fn(move |_cx: &mut dyn TaskCx| -> TaskStatus {
            panic!("hopeless");
        })) as Box<dyn TaskBody>
    });
    let registry = MetricsRegistry::new();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 1 })
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Restart {
            max_retries: 2,
            backoff: Duration::ZERO,
        })
        .metrics(registry.clone())
        .launch(vec![spec])
        .expect("launch");
    let err = dope.wait().expect_err("budget exhausted");
    let text = err.to_string();
    assert!(text.contains("restart budget of 2 exhausted"), "{text}");
    let render = registry.render();
    assert_eq!(
        counter_value(&render, "dope_task_restarts_total"),
        Some(2.0),
        "{render}"
    );
    assert_eq!(
        counter_value(&render, "dope_task_failures_total"),
        Some(3.0),
        "one failure per epoch: two restarted, the third aborted"
    );
    assert_eq!(
        counter_value(&render, "dope_task_failed_replicas"),
        Some(1.0),
        "the replica that aborted the run is still dead"
    );
}

/// Under `Degrade` the failed replica's DoP is dropped and the epoch
/// relaunches with the survivors only.
#[test]
fn degrade_policy_drops_the_failed_replicas_dop() {
    let queue = WorkQueue::new();
    for i in 0..200u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let armed = Arc::new(AtomicU64::new(0));
    let recorder = Recorder::bounded(4096);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Degrade)
        .recorder(recorder.clone())
        .launch(vec![bomb_once_spec(
            "drain",
            queue,
            Arc::clone(&hits),
            Arc::clone(&armed),
        )])
        .expect("launch");
    let report = dope.wait().expect("degrade keeps the run alive");
    assert_eq!(hits.load(Ordering::Relaxed), 200, "survivors drain it all");
    assert_eq!(report.task_failures, 1);
    assert_eq!(report.task_restarts, 0);
    assert_eq!(report.failure_verdict, FailureVerdict::Degraded);
    assert_eq!(
        report.final_config.total_threads(),
        1,
        "extent dropped from 2 to the single survivor"
    );
    assert!(
        report.reconfigurations >= 1,
        "degrading is a reconfiguration"
    );
    assert!(recorder.records().iter().any(|r| matches!(
        &r.event,
        TraceEvent::TaskFailed { policy, .. } if policy == "degrade"
    )));
}

/// A task that loses its *only* replica cannot be degraded: the run
/// aborts instead of continuing with a hole in the pipeline.
#[test]
fn degrade_with_no_survivors_aborts() {
    let spec = TaskSpec::leaf("solo-bomb", TaskKind::Par, move |_slot: WorkerSlot| {
        Box::new(body_fn(move |_cx: &mut dyn TaskCx| -> TaskStatus {
            panic!("sole replica down");
        })) as Box<dyn TaskBody>
    });
    let dope = Dope::builder(Goal::MaxThroughput { threads: 1 })
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Degrade)
        .launch(vec![spec])
        .expect("launch");
    let err = dope.wait().expect_err("nothing left to degrade to");
    let text = err.to_string();
    assert!(text.contains("cannot degrade below one"), "{text}");
    assert!(text.contains("sole replica down"), "{text}");
}

/// A panic racing a reconfiguration drain: the proposal is accepted and
/// the suspend directive goes out, but a replica detonates instead of
/// suspending. The failure policy must win the race — handled first,
/// with the stale reconfiguration target retired as `superseded` in the
/// trace rather than silently discarded — and the run still completes
/// with nothing lost.
#[test]
fn panic_during_reconfiguration_drain_is_handled_first() {
    struct Widen {
        target: Config,
    }
    impl Mechanism for Widen {
        fn name(&self) -> &'static str {
            "Widen"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            (*current != self.target).then(|| self.target.clone())
        }
    }

    let queue = WorkQueue::new();
    for i in 0..400u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let exploded = Arc::new(AtomicU64::new(0));
    let spec = {
        let queue = queue.clone();
        let hits = Arc::clone(&hits);
        let exploded = Arc::clone(&exploded);
        TaskSpec::leaf("drain", TaskKind::Par, move |slot: WorkerSlot| {
            let queue = queue.clone();
            let hits = Arc::clone(&hits);
            let exploded = Arc::clone(&exploded);
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                let directive = cx.begin();
                // The first replica to observe the drain directive blows
                // up exactly at the suspension point (once per run).
                if directive.wants_suspend()
                    && slot.worker == 0
                    && exploded
                        .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    cx.end();
                    panic!("panicked while draining");
                }
                let outcome = queue.dequeue_timeout(Duration::from_millis(2));
                cx.end();
                match outcome {
                    DequeueOutcome::Item(_) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(200));
                        TaskStatus::Executing
                    }
                    DequeueOutcome::Drained => TaskStatus::Finished,
                    DequeueOutcome::TimedOut => {
                        if directive.wants_suspend() {
                            TaskStatus::Suspended
                        } else {
                            TaskStatus::Executing
                        }
                    }
                }
            })) as Box<dyn TaskBody>
        })
    };
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .mechanism(Box::new(Widen {
            target: Config::new(vec![TaskConfig::leaf("drain", 2)]),
        }))
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Restart {
            max_retries: 4,
            backoff: Duration::ZERO,
        })
        .launch(vec![spec])
        .expect("launch");
    let report = dope.wait().expect("restart absorbs the race");
    assert_eq!(hits.load(Ordering::Relaxed), 400, "no items lost");
    // The panic may land before, during, or after the drain settles, so
    // only the honest accounting is asserted, not the exact schedule.
    if exploded.load(Ordering::SeqCst) == 1 {
        assert_eq!(report.task_failures, 1);
        assert_eq!(report.task_restarts, 1);
        assert!(report.failure_verdict >= FailureVerdict::Recovered);
    } else {
        assert_eq!(report.failure_verdict, FailureVerdict::Clean);
    }
    assert_eq!(report.lost_jobs, 0);
}

/// The partial-drain interleaving: a single-leaf extent change is
/// accepted and takes the delta path, but the replica it steers to a
/// consistent point detonates the moment it observes the per-path
/// suspend directive. The failure must escalate to a full drain, the
/// accepted-but-unapplied target must be retired as `superseded` in the
/// trace (not dropped silently), and the degrade policy then shrinks
/// the failed path — all without losing a single item.
#[test]
fn failure_during_partial_drain_supersedes_the_target() {
    struct Narrow {
        fired: bool,
        target: Config,
    }
    impl Mechanism for Narrow {
        fn name(&self) -> &'static str {
            "Narrow"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            _current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            if self.fired {
                None
            } else {
                self.fired = true;
                Some(self.target.clone())
            }
        }
    }

    let queue = WorkQueue::new();
    for i in 0..400u64 {
        queue.enqueue(i).unwrap();
    }
    queue.close();
    let hits = Arc::new(AtomicU64::new(0));
    let exploded = Arc::new(AtomicU64::new(0));
    let spec = {
        let queue = queue.clone();
        let hits = Arc::clone(&hits);
        let exploded = Arc::clone(&exploded);
        TaskSpec::leaf("drain", TaskKind::Par, move |slot: WorkerSlot| {
            let queue = queue.clone();
            let hits = Arc::clone(&hits);
            let exploded = Arc::clone(&exploded);
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                let directive = cx.begin();
                // Detonate exactly at the partial drain's suspension
                // point (once per run): the per-path flag is the only
                // suspend source until the failure escalates it.
                if directive.wants_suspend()
                    && slot.worker == 0
                    && exploded
                        .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    cx.end();
                    panic!("panicked during the partial drain");
                }
                let outcome = queue.dequeue_timeout(Duration::from_millis(2));
                cx.end();
                match outcome {
                    DequeueOutcome::Item(_) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(200));
                        TaskStatus::Executing
                    }
                    DequeueOutcome::Drained => TaskStatus::Finished,
                    DequeueOutcome::TimedOut => {
                        if directive.wants_suspend() {
                            TaskStatus::Suspended
                        } else {
                            TaskStatus::Executing
                        }
                    }
                }
            })) as Box<dyn TaskBody>
        })
    };
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .mechanism(Box::new(Narrow {
            fired: false,
            target: Config::new(vec![TaskConfig::leaf("drain", 2)]),
        }))
        .control_period(Duration::from_millis(5))
        .failure_policy(FailurePolicy::Degrade)
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    let report = dope.wait().expect("degrade absorbs the race");

    assert_eq!(hits.load(Ordering::Relaxed), 400, "no items lost");
    assert_eq!(exploded.load(Ordering::SeqCst), 1, "the bomb armed");
    assert_eq!(report.task_failures, 1);
    assert_eq!(report.failure_verdict, FailureVerdict::Degraded);
    assert_eq!(report.lost_jobs, 0);
    // Degrade shrank the live (pre-target) extent 4 by the one dead
    // replica; the superseded target was never applied.
    assert_eq!(report.final_config.total_threads(), 3);

    let verdicts: Vec<String> = recorder
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ProposalEvaluated { verdict, .. } => Some(format!("{verdict:?}")),
            _ => None,
        })
        .collect();
    assert!(
        verdicts.iter().any(|v| v.contains("Accepted")),
        "the proposal was accepted first: {verdicts:?}"
    );
    assert!(
        verdicts.iter().any(|v| v.contains("Superseded")),
        "the discarded target must be traced as superseded: {verdicts:?}"
    );
}

#[test]
fn tpc_survives_a_dead_power_meter() {
    use dope_mechanisms::Tpc;
    use dope_sim::pipeline::{run_pipeline, PipelineParams, Source};

    // No power attachment at all: every snapshot has `power_watts: None`.
    let model = dope_apps::ferret::sim_model();
    let mut tpc = Tpc::default();
    let out = run_pipeline(
        &model,
        &Source::Saturated,
        &mut tpc,
        Resources::threads(24).with_power_budget(630.0),
        &PipelineParams {
            horizon_secs: 20.0,
            ..PipelineParams::default()
        },
    );
    // The controller holds its initial configuration but the pipeline
    // still makes progress.
    assert!(out.completed > 0);
    assert_eq!(out.config_history.len(), 0);
}

#[test]
fn stale_power_samples_pause_the_controller() {
    use dope_mechanisms::Tpc;
    use dope_platform::PowerModel;
    use dope_sim::pipeline::{run_pipeline, PipelineParams, PowerSim, Source};

    // A meter so slow it produces one fresh sample per minute: TPC may
    // only act on fresh samples, so reconfigurations are bounded by the
    // sample count, not the tick count.
    let model = dope_apps::ferret::sim_model();
    let mut tpc = Tpc::default();
    let horizon = 120.0;
    let out = run_pipeline(
        &model,
        &Source::Saturated,
        &mut tpc,
        Resources::threads(24).with_power_budget(630.0),
        &PipelineParams {
            horizon_secs: horizon,
            control_period_secs: 1.0,
            power: Some(PowerSim {
                model: PowerModel::default(),
                sample_interval_secs: 60.0,
                seed: 5,
            }),
            ..PipelineParams::default()
        },
    );
    let fresh_samples = (horizon / 60.0) as usize + 1;
    assert!(
        out.config_history.len() <= fresh_samples,
        "{} reconfigurations from {fresh_samples} fresh samples",
        out.config_history.len()
    );
}
