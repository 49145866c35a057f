//! The live executive through its public API: the launch gate, a run's
//! report and recording, a stop, and the admission wiring.

use dope_core::{
    AdmissionPolicy, Config, DiagCode, Error, FailureVerdict, Goal, StaticMechanism, TaskConfig,
    TaskKind, TaskSpec,
};
use dope_metrics::MetricsRegistry;
use dope_runtime::Dope;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::{AdmissionQueue, WorkQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{check, closed_queue, EvenStart, Leaf, Scripted};

mod support;

fn drain(extent: u32) -> Config {
    Config::new(vec![TaskConfig::leaf("drain", extent)])
}

/// A nest whose only alternative is empty matches the arity rule
/// (zero tasks against zero tasks) and would replicate nothing:
/// `launch` refuses it with DV008, in debug and release alike.
#[test]
fn launch_gate_rejects_empty_nest() {
    let spec = TaskSpec::nest("hollow", TaskKind::Par, |_replica: u32| Vec::new());
    let refused = Dope::builder(Goal::MaxThroughput { threads: 4 }).launch(vec![spec]);
    match refused {
        Err(err) => assert_eq!(err.code(), DiagCode::EmptyNest, "{err}"),
        Ok(_) => panic!("an empty nest launched"),
    }
}

/// A pool smaller than the budget would leave replicas of the even
/// split queued behind the ones it can run: with 4 threads of budget,
/// one pool thread and two leaves, 3 of the 4 replicas never started.
/// `launch` refuses it and names both numbers.
#[test]
fn launch_refuses_a_pool_below_the_budget() {
    let leaf = |name: &str| Leaf::new(name, WorkQueue::new()).spec();
    let refused = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .pool_threads(1)
        .launch(vec![leaf("a"), leaf("b")]);
    match refused {
        Err(Error::Usage(text)) => {
            assert!(text.contains("pool_threads(1)"), "{text}");
            assert!(text.contains("budget of 4"), "{text}");
        }
        Err(err) => panic!("refused for another reason: {err}"),
        Ok(dope) => {
            dope.stop();
            panic!("a 1-thread pool launched under a 4-thread budget");
        }
    }
}

/// An empty alternative the configuration does not select is the
/// analyzer's lint (DV008), not a reason to refuse the launch: the
/// verdict is `Config::validate`'s, in debug and release alike.
#[test]
fn an_unselected_empty_alternative_launches_in_every_build() {
    let queue = closed_queue(100);
    let hits = Arc::new(AtomicU64::new(0));
    let work = {
        let hits = Arc::clone(&hits);
        move |_replica: u32| vec![Leaf::new("drain", queue.clone()).hits(&hits).spec()]
    };
    let hollow = |_replica: u32| Vec::new();
    let spec = TaskSpec::nest_choice("txn", TaskKind::Par, vec![Arc::new(work), Arc::new(hollow)]);
    let report = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .launch(vec![spec])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 100);
    assert_eq!(report.failure_verdict, FailureVerdict::Clean);
}

/// A descriptor with no tasks is refused at launch: nothing would
/// ever report, so the run could only end by a stop.
#[test]
fn an_empty_descriptor_is_refused() {
    let err = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .launch(Vec::new())
        .unwrap_err();
    assert_eq!(err.code(), DiagCode::Usage);
}

/// A recorded run captures the whole decision loop: launch, the
/// accepted proposal, the reconfiguration epoch with its measured
/// pause/relaunch latencies, and the terminal summary.
#[test]
fn attached_recorder_captures_the_decision_loop() {
    // Each item takes ~1 ms so the run outlives several control
    // periods and the mechanism actually gets consulted. The take
    // honors the directive before every item, so the drain finishes
    // while the queue still holds work: the delta path is observable.
    let spec = Leaf::new("drain", closed_queue(200))
        .work(Duration::from_millis(1))
        .spec();
    // Starts on the executive's even split, then proposes the pinned
    // config at every decision point — guaranteeing exactly the
    // reconfiguration this test wants to see traced.
    let recorder = Recorder::bounded(4096);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .mechanism(Box::new(Scripted::new(|_, _| Some(drain(2)))))
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .unwrap();
    let report = dope.wait().unwrap();
    assert!(report.reconfigurations >= 1);

    let records = recorder.records();
    let counts = check(&records, true);
    // A control period is recorded once: the snapshot carries the task
    // rows (`check` refuses a flattened sample beside it).
    assert!(records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::SnapshotTaken { snapshot } if !snapshot.tasks.is_empty()
    )));
    assert!(counts.kind("ProposalEvaluated") > 0, "{counts:?}");
    let epoch = records
        .iter()
        .find_map(|r| match &r.event {
            TraceEvent::ReconfigureEpoch {
                pause_secs,
                relaunch_secs,
                jobs,
                config,
                scope,
                paths_drained,
            } => Some((
                *pause_secs,
                *relaunch_secs,
                *jobs,
                config.clone(),
                scope.clone(),
                *paths_drained,
            )),
            _ => None,
        })
        .expect("a ReconfigureEpoch event");
    assert!(epoch.0 >= 0.0 && epoch.1 >= 0.0);
    assert_eq!(epoch.2, 2, "new epoch runs the pinned extent-2 jobs");
    assert_eq!(*epoch.3, drain(2));
    assert_eq!(
        epoch.4, "partial",
        "a single-leaf extent change takes the delta path"
    );
    assert_eq!(epoch.5, 1, "exactly the changed path drained");
}

/// A clean run reports a clean verdict and zero failure counters —
/// the honest-report fields must not cry wolf.
#[test]
fn clean_run_reports_clean_verdict() {
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .launch(vec![Leaf::new("drain", closed_queue(100)).spec()])
        .unwrap();
    let report = dope.wait().unwrap();
    assert_eq!(report.task_failures, 0);
    assert_eq!(report.task_restarts, 0);
    assert_eq!(report.lost_jobs, 0);
    assert_eq!(report.failure_verdict, FailureVerdict::Clean);
}

/// If the control thread itself dies, `wait` must surface the panic
/// payload — "the executive died" without a *why* is undebuggable.
#[test]
fn wait_surfaces_control_thread_panic_payload() {
    // A finite but slow drain: the run outlives the first control
    // tick (which detonates the mechanism), yet the workers finish
    // on their own so the pool can be torn down afterwards.
    let spec = Leaf::new("drain", closed_queue(100))
        .work(Duration::from_millis(1))
        .spec();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(Scripted::new(|_, _| panic!("mechanism exploded"))))
        .control_period(Duration::from_millis(5))
        .launch(vec![spec])
        .unwrap();
    let err = dope.wait().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("executive control thread panicked"), "{text}");
    assert!(text.contains("mechanism exploded"), "{text}");
}

#[test]
fn runs_to_completion_and_counts_work() {
    let hits = Arc::new(AtomicU64::new(0));
    let spec = Leaf::new("drain", closed_queue(500)).hits(&hits).spec();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .launch(vec![spec])
        .unwrap();
    let report = dope.wait().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 500);
    assert_eq!(report.reconfigurations, 0);
}

#[test]
fn stop_interrupts_long_run() {
    // Never closed: tasks would run forever.
    let spec = Leaf::new("drain", WorkQueue::new()).spec();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(5))
        .launch(vec![spec])
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    dope.stop();
    let report = dope.wait().unwrap();
    assert!(report.elapsed >= Duration::from_millis(30));
}

/// A degenerate admission policy must die at `launch`, not at the
/// first offer: the builder validates and surfaces `DV017`.
#[test]
fn degenerate_admission_policy_fails_launch() {
    let err = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .admission(AdmissionPolicy::Shed { high_water: 0 })
        .launch(vec![Leaf::new("drain", closed_queue(0)).spec()])
        .unwrap_err();
    assert_eq!(err.code().to_string(), "DV017");
}

/// End-to-end admission wiring: producers offer through a shedding
/// `AdmissionQueue`, workers drain it, and the builder-installed
/// probe makes the pressure visible — in the monitor's snapshots,
/// as the `AdmissionDecision` rows a reader derives from the trace,
/// and in the gate's exported counters, which end at the gate's own
/// totals.
#[test]
fn admission_gate_pressure_reaches_snapshots_trace_and_metrics() {
    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 4 });
    let hits = Arc::new(AtomicU64::new(0));
    let spec = Leaf::new("serve", gate.clone())
        .work(Duration::from_millis(1))
        .hits(&hits)
        .spec();
    let recorder = Recorder::bounded(4096);
    let registry = MetricsRegistry::new();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .admission(gate.policy())
        .admission_probe(gate.stats_probe())
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .metrics(registry.clone())
        .launch(vec![spec])
        .unwrap();
    // An offer storm against slow workers: the watermark guarantees
    // sheds, the drain guarantees completions.
    for i in 0..400u64 {
        let _ = gate.offer(i);
    }
    // Let at least one pressured control period elapse, then close
    // the gate so the epoch drains.
    std::thread::sleep(Duration::from_millis(40));
    gate.close();
    dope.wait().unwrap();

    let stats = gate.stats();
    assert_eq!(stats.offered, 400);
    assert!(stats.shed_high_water > 0, "the storm must overflow");
    assert_eq!(stats.offered, stats.admitted + stats.shed_high_water);
    assert_eq!(hits.load(Ordering::Relaxed), stats.admitted);
    // The policy is declared once, at launch; a pressured period's
    // snapshot reads as a shed window.
    let records = recorder.records();
    check(&records, true);
    assert!(matches!(
        &records[0].event,
        TraceEvent::Launched { admission, .. } if admission == "shed"
    ));
    let timeline = dope_trace::render_timeline(&records);
    assert!(
        timeline.contains("ADMIT    shed verdict=shed"),
        "{timeline}"
    );
    let text = registry.render();
    let admitted = format!("dope_admitted_total {}", stats.admitted);
    assert!(text.contains(&admitted), "{text}");
    let shed = format!(
        "dope_shed_total{{reason=\"high_water\"}} {}",
        stats.shed_high_water
    );
    assert!(text.contains(&shed), "{text}");
    assert!(
        text.contains("dope_shed_total{reason=\"deadline\"} 0"),
        "{text}"
    );
}

/// A static mechanism launched under the even split moves the run to its
/// pinned configuration once, then holds: the queue closes only after the
/// mechanism has held its configuration in force for three consults.
#[test]
fn static_mechanism_reconfigures_once_then_settles() {
    let queue = WorkQueue::new();
    for i in 0..2000u64 {
        queue.enqueue(i).unwrap();
    }
    let hits = Arc::new(AtomicU64::new(0));
    let spec = Leaf::new("drain", queue.clone()).hits(&hits).spec();
    let recorder = Recorder::bounded(4096);
    // Pins extent 3, while the initial even split uses 4.
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        .mechanism(Box::new(EvenStart(StaticMechanism::new(drain(3)))))
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .unwrap();
    let holds = || {
        (recorder.records().iter())
            .filter(|r| matches!(&r.event, TraceEvent::DecisionTraced { chosen, .. } if chosen == "hold"))
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while holds() < 3 {
        assert!(
            Instant::now() < deadline,
            "the pinned configuration never held"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    queue.close();
    let report = dope.wait().unwrap();
    check(&recorder.records(), true);
    assert_eq!(hits.load(Ordering::Relaxed), 2000);
    assert_eq!(report.reconfigurations, 1);
    assert_eq!(report.final_config, drain(3));
    assert_eq!(*report.config_history[0].1, drain(4));
}
