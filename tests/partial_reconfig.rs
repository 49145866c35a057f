//! End-to-end partial (delta) reconfiguration: an extents-only change
//! on a top-level leaf drains *only* that path — replicas of untouched
//! paths run straight through the boundary — while structural or
//! disabled-delta transitions drain and relaunch every top-level path.

use dope_core::{
    body_fn, Config, Goal, NestFactory, TaskBody, TaskConfig, TaskCx, TaskKind, TaskPath, TaskSpec,
    TaskStatus, WorkerSlot,
};
use dope_metrics::MetricsRegistry;
use dope_runtime::Dope;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::WorkQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{check, closed_queue, counter_value, Counts, Leaf, Point, Scripted};

mod support;

/// `fast` and `slow` leaves at these extents.
fn pair(fast: u32, slow: u32) -> Config {
    Config::new(vec![
        TaskConfig::leaf("fast", fast),
        TaskConfig::leaf("slow", slow),
    ])
}

/// Waits up to 10 s for the first `ReconfigureEpoch` in `recorder`.
fn await_epoch(recorder: &Recorder) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Counts::of(&recorder.records()).kind("ReconfigureEpoch") == 0 {
        assert!(Instant::now() < deadline, "the nest never switched");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `(scope, paths_drained)` of every epoch in `recorder`.
fn epochs(recorder: &Recorder) -> Vec<(String, u64)> {
    recorder
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ReconfigureEpoch {
                scope,
                paths_drained,
                ..
            } => Some((scope.to_string(), *paths_drained)),
            _ => None,
        })
        .collect()
}

/// Tentpole acceptance: bumping the fast leaf's extent drains only that
/// path. The slow leaf's replica is instantiated exactly once — it runs
/// across the boundary — while the fast leaf is rebuilt at the new
/// extent; the `ReconfigureEpoch` record says `scope: "partial"` with
/// one path drained, and the partial counter metric fires.
#[test]
fn partial_reconfig_keeps_untouched_paths_running() {
    let [fast_made, slow_made, fast_hits, slow_hits] =
        [(); 4].map(|()| Arc::new(AtomicU64::new(0)));
    let specs = vec![
        Leaf::new("fast", closed_queue(200))
            .work(Duration::from_millis(1))
            .hits(&fast_hits)
            .made(&fast_made)
            .spec(),
        Leaf::new("slow", closed_queue(25))
            .work(Duration::from_millis(10))
            .hits(&slow_hits)
            .made(&slow_made)
            .spec(),
    ];
    let registry = MetricsRegistry::new();
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
        .mechanism(Box::new(Scripted::once(0, pair(2, 1)).starting(pair(1, 1))))
        .control_period(Duration::from_millis(10))
        .metrics(registry.clone())
        .recorder(recorder.clone())
        .launch(specs)
        .expect("launch");
    let report = dope.wait().expect("completes");
    check(&recorder.records(), true);

    assert_eq!(fast_hits.load(Ordering::Relaxed), 200, "fast items drained");
    assert_eq!(slow_hits.load(Ordering::Relaxed), 25, "slow items drained");
    assert_eq!(report.reconfigurations, 1);
    assert_eq!(report.final_config, pair(2, 1));
    assert_eq!(
        slow_made.load(Ordering::SeqCst),
        1,
        "the untouched path's replica must run through the boundary, not relaunch"
    );
    assert_eq!(
        fast_made.load(Ordering::SeqCst),
        3,
        "the changed path relaunches at the new extent (1 initial + 2 relaunched)"
    );
    assert_eq!(
        epochs(&recorder),
        vec![("partial".to_string(), 1)],
        "exactly one boundary, delta-scoped, one path drained"
    );

    let render = registry.render();
    assert_eq!(
        counter_value(&render, "dope_reconfig_partial_total"),
        Some(1.0),
        "partial counter fires once:\n{render}"
    );
    assert!(
        render.contains("dope_reconfig_paths_drained"),
        "paths-drained histogram registered:\n{render}"
    );
}

/// The same transition with delta reconfiguration disabled takes the
/// classic full drain: every path pauses and relaunches, and the trace
/// says so.
#[test]
fn disabling_delta_falls_back_to_the_full_drain() {
    let [slow_made, fast_hits, slow_hits] = [(); 3].map(|()| Arc::new(AtomicU64::new(0)));
    let specs = vec![
        Leaf::new("fast", closed_queue(120))
            .work(Duration::from_millis(1))
            .hits(&fast_hits)
            .spec(),
        Leaf::new("slow", closed_queue(15))
            .work(Duration::from_millis(8))
            .hits(&slow_hits)
            .made(&slow_made)
            .spec(),
    ];
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
        .mechanism(Box::new(Scripted::once(0, pair(2, 1)).starting(pair(1, 1))))
        .control_period(Duration::from_millis(10))
        .delta_reconfig(false)
        .recorder(recorder.clone())
        .launch(specs)
        .expect("launch");
    let report = dope.wait().expect("completes");
    check(&recorder.records(), true);

    assert_eq!(fast_hits.load(Ordering::Relaxed), 120);
    assert_eq!(slow_hits.load(Ordering::Relaxed), 15);
    assert_eq!(report.reconfigurations, 1);
    assert_eq!(report.final_config, pair(2, 1));
    assert!(
        slow_made.load(Ordering::SeqCst) >= 2,
        "a full drain rebuilds the untouched path too"
    );
    assert_eq!(epochs(&recorder), vec![("full".to_string(), 2)]);
}

/// A leaf whose every invocation takes ~1 ms and is counted into `hits`
/// before it ends — so `hits` never trails what the monitor recorded —
/// and which suspends whenever asked.
fn ticking_leaf(name: &'static str, hits: &Arc<AtomicU64>) -> TaskSpec {
    let hits = Arc::clone(hits);
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
        let hits = Arc::clone(&hits);
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            let directive = cx.begin();
            std::thread::sleep(Duration::from_millis(1));
            hits.fetch_add(1, Ordering::SeqCst);
            cx.end();
            if directive.wants_suspend() {
                TaskStatus::Suspended
            } else {
                TaskStatus::Executing
            }
        })) as Box<dyn TaskBody>
    })
}

/// A structural reconfiguration leaves no ghost rows: after nest `outer`
/// switches from `[a, b]` to `[fused]`, the snapshot has no row for `b`
/// (which no longer runs, and whose decaying rate would otherwise be the
/// bottleneck every decision is scored against), and row `0.0` counts
/// `fused` alone, not `a` and `fused` merged.
#[test]
fn a_structural_relaunch_drops_the_rows_it_no_longer_runs() {
    let (a, b, fused) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
    );
    let pair: Arc<dyn NestFactory> = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Arc::new(move |_replica: u32| vec![ticking_leaf("a", &a), ticking_leaf("b", &b)])
    };
    let single: Arc<dyn NestFactory> = {
        let fused = Arc::clone(&fused);
        Arc::new(move |_replica: u32| vec![ticking_leaf("fused", &fused)])
    };
    let spec = TaskSpec::nest_choice("outer", TaskKind::Par, vec![pair, single]);
    let start = Config::new(vec![TaskConfig::nest(
        "outer",
        1,
        0,
        vec![TaskConfig::leaf("a", 1), TaskConfig::leaf("b", 1)],
    )]);
    let target = Config::new(vec![TaskConfig::nest(
        "outer",
        1,
        1,
        vec![TaskConfig::leaf("fused", 1)],
    )]);
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
        .mechanism(Box::new(Scripted::once(0, target.clone()).starting(start)))
        .control_period(Duration::from_millis(20))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");

    await_epoch(&recorder);
    std::thread::sleep(Duration::from_millis(50));
    let snap = dope.monitor().snapshot();
    let fused_ran = fused.load(Ordering::SeqCst);
    dope.stop();
    let report = dope.wait().expect("stops cleanly");
    check(&recorder.records(), true);

    assert_eq!(report.final_config, target);
    assert!(a.load(Ordering::SeqCst) > 0 && b.load(Ordering::SeqCst) > 0);
    let rows: Vec<String> = snap
        .tasks
        .iter()
        .map(|(path, _)| path.to_string())
        .collect();
    assert_eq!(rows, ["0.0"], "only fused's row: {snap:?}");
    let row = snap.task(&"0.0".parse::<TaskPath>().unwrap()).unwrap();
    assert!(
        row.invocations <= fused_ran,
        "row 0.0 counts {} invocations, fused ran {fused_ran}: a's were merged in",
        row.invocations
    );
}

/// A leaf whose every invocation spins ~0.5 ms between `begin` and `end`,
/// so its one worker is busy all the time it runs.
fn spinning_leaf(name: &'static str) -> TaskSpec {
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            let directive = cx.begin();
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(500) {
                std::hint::spin_loop();
            }
            cx.end();
            if directive.wants_suspend() {
                TaskStatus::Suspended
            } else {
                TaskStatus::Executing
            }
        })) as Box<dyn TaskBody>
    })
}

/// A relaunched path's utilization is its busy time over the last
/// control period, not over the run: 100 ms after nest `outer` switches
/// from `[a]` to `[fused]` half a second in, `fused` — saturated since
/// it started — reads near 1, not the ~0.17 its 0.1 s of work over the
/// run's 0.6 s would give.
#[test]
fn a_relaunched_path_reads_utilization_over_the_last_period() {
    let single = |name: &'static str| -> Arc<dyn NestFactory> {
        Arc::new(move |_replica: u32| vec![spinning_leaf(name)])
    };
    let spec = TaskSpec::nest_choice("outer", TaskKind::Par, vec![single("a"), single("fused")]);
    let nest = |alternative, leaf| {
        Config::new(vec![TaskConfig::nest(
            "outer",
            1,
            alternative,
            vec![TaskConfig::leaf(leaf, 1)],
        )])
    };
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(
            Scripted::once(24, nest(1, "fused")).starting(nest(0, "a")),
        ))
        .control_period(Duration::from_millis(20))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");

    await_epoch(&recorder);
    std::thread::sleep(Duration::from_millis(100));
    let snap = dope.monitor().snapshot();
    dope.stop();
    dope.wait().expect("stops cleanly");
    check(&recorder.records(), true);

    let row = snap.task(&"0.0".parse::<TaskPath>().unwrap()).unwrap();
    assert!(
        row.utilization >= 0.8,
        "fused ran saturated but reads utilization {:.3} at {:.2} s",
        row.utilization,
        snap.time_secs
    );
}

/// A top-level path kept busy suspends within one item of its flag being
/// set: its body waits in `dequeue_for`, which reads the flag before it
/// takes an item, so a queue that never runs dry cannot hold a drain open.
#[test]
fn a_busy_path_suspends_within_one_item_of_its_flag() {
    let queue = WorkQueue::new();
    // Items that finished with the flag already set.
    let late = Arc::new(AtomicU64::new(0));
    let spec = {
        let late = Arc::clone(&late);
        Leaf::new("busy", queue.clone())
            .work(Duration::from_micros(200))
            .fault(move |_, point| {
                if point == (Point::Ended { asked: true }) {
                    late.fetch_add(1, Ordering::SeqCst);
                }
                true
            })
            .spec()
    };
    let busy = |extent| Config::new(vec![TaskConfig::leaf("busy", extent)]);
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(Scripted::once(2, busy(2)).starting(busy(1))))
        .control_period(Duration::from_millis(10))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    // Keep the queue from running dry until the boundary lands.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut next = 0u64;
    while Counts::of(&recorder.records()).kind("ReconfigureEpoch") == 0 && Instant::now() < deadline
    {
        while queue.len() < 8 {
            queue.enqueue(next).unwrap();
            next += 1;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    queue.close();
    let report = dope.wait().expect("completes");
    check(&recorder.records(), true);

    assert_eq!(report.reconfigurations, 1);
    let late = late.load(Ordering::SeqCst);
    assert!(late <= 1, "{late} items finished after the flag was set");
}

/// A partial drain of an idle path is a wake-up, not a poll period: its
/// replicas are parked in `dequeue_for`, and setting the flag wakes them.
#[test]
fn an_idle_path_pauses_for_a_wake_up_not_a_poll() {
    // Never fed: every replica is parked whenever it is asked to suspend.
    let spec = Leaf::new("idle", WorkQueue::new()).spec();
    let idle = |extent| Config::new(vec![TaskConfig::leaf("idle", extent)]);
    // Flips the leaf between extents 1 and 2 at every consult.
    let flip = Scripted::new(move |_, current| Some(idle(3 - current.tasks[0].extent)));
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .mechanism(Box::new(flip.starting(idle(1))))
        .control_period(Duration::from_millis(5))
        .recorder(recorder.clone())
        .launch(vec![spec])
        .expect("launch");
    let pauses = || -> Vec<f64> {
        recorder
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ReconfigureEpoch {
                    scope, pause_secs, ..
                } if scope == "partial" => Some(*pause_secs),
                _ => None,
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while pauses().len() < 120 {
        assert!(
            Instant::now() < deadline,
            "{} partial epochs",
            pauses().len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    dope.stop();
    dope.wait().expect("stops cleanly");
    check(&recorder.records(), true);

    let mut pauses = pauses();
    pauses.sort_by(f64::total_cmp);
    let median = pauses[pauses.len() / 2];
    assert!(
        median < 500e-6,
        "median pause {:.0} µs over {} partial epochs",
        median * 1e6,
        pauses.len()
    );
}
