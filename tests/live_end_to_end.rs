//! End-to-end tests of the live DoPE runtime driving the paper's
//! applications with the paper's mechanisms.

use dope_apps::kernels::search::Corpus;
use dope_apps::pipeline_live::{LivePipeline, PipeItem, StageDef};
use dope_apps::{dedup, ferret, swaptions, transcode};
use dope_core::TaskPath;
use dope_core::{AdmissionPolicy, Goal, Resources};
use dope_mechanisms::{for_goal, Tbf, Tpc, WqLinear, WqtH};
use dope_platform::FeatureRegistry;
use dope_runtime::Dope;
use dope_trace::{Recorder, RecordingObserver, TraceEvent};
use dope_workload::{AdmissionQueue, ArrivalSchedule};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use support::{check, Counts};

mod support;

/// The record kinds of a control period, each of which a busy run writes.
const PERIOD: [&str; 4] = [
    "DecisionTraced",
    "SnapshotTaken",
    "ProposalEvaluated",
    "ReconfigureEpoch",
];

/// Every kind of a control period appears, over at least two periods.
fn assert_every_period_kind(counts: &Counts) {
    assert!(counts.kind("SnapshotTaken") >= 2, "{counts:?}");
    for kind in PERIOD {
        assert!(counts.kind(kind) > 0, "no {kind} in {counts:?}");
    }
}

#[test]
fn transcoding_service_adapts_and_conserves_work() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    // Light phase, then a burst that must push WQ-Linear to narrow widths.
    for id in 0..8u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    for id in 8..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    service.queue.close();
    let report = dope.wait().expect("drains");

    assert_eq!(service.stats.completed(), 48, "every video transcoded");
    assert_eq!(service.stats.response().count(), 48);
    assert!(
        report.reconfigurations >= 1,
        "the burst must trigger at least one reconfiguration"
    );
}

#[test]
fn ferret_conserves_queries_across_reconfigurations() {
    let corpus = Arc::new(Corpus::synthetic(1500, 3));
    let (pipe, descriptor) = ferret::live_pipeline(corpus);
    ferret::submit_queries(&pipe, 600);
    pipe.source.close();

    // A release build serves the 600 queries in tens of milliseconds: a
    // 2 ms period reaches ticks before they are done in either build.
    let dope = Dope::builder(Goal::MaxThroughput { threads: 6 })
        .mechanism(Box::new(Tbf::new()))
        .control_period(Duration::from_millis(2))
        .queue_probe(pipe.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let report = dope.wait().expect("batch completes");

    assert_eq!(
        pipe.stats.completed(),
        600,
        "no query may be lost across suspend/relaunch cycles"
    );
    // TBF balances or fuses; either way it must have acted at least once
    // (the initial even split is not balanced for ferret).
    assert!(report.reconfigurations >= 1);
}

/// A live snapshot has one row per running leaf: every `SnapshotTaken`
/// names exactly the leaf paths of the configuration in force when it
/// was taken, each leaf's row from its relaunch on, across TBF's
/// rebalancing and its switch to the fused alternative.
#[test]
fn every_live_snapshot_names_the_leaves_in_force() {
    let corpus = Arc::new(Corpus::synthetic(1500, 3));
    let (pipe, descriptor) = ferret::live_pipeline(corpus);
    ferret::submit_queries(&pipe, 2_000);
    pipe.source.close();
    let recorder = Recorder::bounded(1 << 14);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 6 })
        .mechanism(Box::new(Tbf::new()))
        .control_period(Duration::from_millis(2))
        .queue_probe(pipe.queue_probe())
        .recorder(recorder.clone())
        .launch(descriptor)
        .expect("launch");
    dope.wait().expect("batch completes");
    check(&recorder.records(), true);

    let mut in_force = None;
    let mut alternatives = BTreeSet::new();
    let mut snapshots = 0;
    for record in recorder.records() {
        match &record.event {
            TraceEvent::Launched { config, .. } | TraceEvent::ReconfigureEpoch { config, .. } => {
                let nest = config.tasks[0].nested.as_ref().expect("ferret is one nest");
                alternatives.insert(nest.alternative);
                in_force = Some(Arc::clone(config));
            }
            TraceEvent::SnapshotTaken { snapshot } => {
                let config = in_force.as_ref().expect("a snapshot after launch");
                let rows: Vec<&TaskPath> = snapshot.tasks.iter().map(|(path, _)| path).collect();
                let mut leaves = config.leaf_paths();
                leaves.sort();
                assert_eq!(
                    rows,
                    leaves.iter().collect::<Vec<_>>(),
                    "at {}",
                    snapshot.time_secs
                );
                snapshots += 1;
            }
            _ => {}
        }
    }
    assert!(snapshots > 2, "{snapshots} snapshots");
    assert_eq!(alternatives.len(), 2, "no switch to the fused alternative");
}

#[test]
fn dedup_pipeline_deduplicates_under_dope() {
    let (pipe, descriptor, store) = dedup::live_pipeline();
    dedup::submit_streams(&pipe, 12, 30_000, 0.5);
    pipe.source.close();

    let dope = Dope::builder(Goal::MaxThroughput { threads: 5 })
        .mechanism(Box::new(Tbf::without_fusion()))
        .control_period(Duration::from_millis(25))
        .queue_probe(pipe.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let _report = dope.wait().expect("batch completes");

    assert_eq!(pipe.stats.completed(), 12);
    let unique = store.lock().len();
    assert!(unique > 0, "chunks were stored");
}

#[test]
fn default_mechanism_for_goal_runs_a_service() {
    let (service, descriptor) = swaptions::live_service();
    let goal = Goal::MinResponseTime { threads: 3 };
    let dope = Dope::builder(goal)
        .mechanism(for_goal(goal))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = swaptions::PricingParams {
        trials: 400,
        steps: 8,
        chunks: 4,
    };
    for id in 0..20u64 {
        service
            .queue
            .enqueue(swaptions::make_request(id, params))
            .unwrap();
    }
    service.queue.close();
    dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 20);
}

#[test]
fn wqt_h_live_switches_modes() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqtH::new(3.0, 4, 2, 2)))
        .control_period(Duration::from_millis(8))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = transcode::VideoParams {
        frames: 2,
        width: 32,
        height: 32,
    };
    // WQT-H starts SEQ; a long light phase must flip it to PAR.
    for id in 0..30u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(12));
    }
    service.queue.close();
    let report = dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 30);
    assert!(
        report.reconfigurations >= 1,
        "light load must flip WQT-H into the PAR state"
    );
}

#[test]
fn recorded_live_trace_replays_identically() {
    let recorder = Recorder::bounded(1 << 14);
    let (service, descriptor) = transcode::live_service();
    // A power feature and a declared `Shed` gate, so a period's snapshot
    // carries every reading a period has.
    let features = FeatureRegistry::new();
    features.register("SystemPower", || 612.5);
    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 4 });
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .features(features.clone())
        .admission(gate.policy())
        .admission_probe(gate.stats_probe())
        .recorder(recorder.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    // Same slow-then-burst load as the adaptation test above so WQ-Linear
    // is forced through at least one reconfiguration epoch.
    for id in 0..8u64 {
        let _ = gate.offer(id);
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    for id in 8..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    service.queue.close();
    let report = dope.wait().expect("drains");
    assert!(report.reconfigurations >= 1, "burst must force an epoch");
    // Launching reads the caller's registry; it installs nothing on it.
    assert_eq!(features.names(), ["SystemPower"]);

    // The flight recording round-trips through the JSONL wire format.
    let jsonl = recorder.to_jsonl();
    let records = dope_trace::parse_jsonl(&jsonl).expect("live trace parses");

    // A live period reads like a simulated one, every kind in its place.
    assert_every_period_kind(&check(&records, true));

    // The human-readable timeline renders every phase of the decision loop.
    let timeline = dope_trace::render_timeline(&records);
    assert!(timeline.contains("LAUNCH"), "timeline: {timeline}");
    assert!(timeline.contains("SNAPSHOT"));
    assert!(timeline.contains("PROPOSE"));
    assert!(timeline.contains("EPOCH"));
    assert!(timeline.contains("FINISH"));
    // A control period is one record: the task rows, the queue, the power
    // reading and the gate's window render from the snapshot (`check`
    // refuses a flattened sample beside it).
    for tag in [
        "STATS",
        "QUEUE",
        "FEATURE  SystemPower=612.5",
        "ADMIT    shed",
    ] {
        assert!(timeline.contains(tag), "no {tag} in {timeline}");
    }

    // Replaying the trace through dope-sim reproduces the exact sequence
    // of accepted configurations the live executive committed.
    let outcome = dope_trace::replay_into_sim(&records).expect("replay");
    assert!(
        outcome.matches(),
        "live trace must replay to the same accepted-config sequence: \
         recorded {:?} vs replayed {:?}",
        outcome.recorded,
        outcome.replayed
    );
    assert!(
        outcome.recorded.len() >= 2,
        "launch config plus at least one epoch"
    );
}

/// The simulators' recordings hold to the same rules: the system
/// simulator under a shedding gate, the pipeline simulator with a power
/// meter.
#[test]
fn simulated_recordings_share_the_live_period_grammar() {
    use dope_sim::pipeline::{run_pipeline_observed, PipelineParams, PowerSim, Source};
    use dope_sim::system::{run_system_observed, SystemParams};

    let model = transcode::sim_model();
    let params = SystemParams {
        admission: AdmissionPolicy::Shed { high_water: 8 },
        ..SystemParams::default()
    };
    let schedule = ArrivalSchedule::for_load_factor(2.0, model.max_throughput(24, 1), 200, 7);
    let recorder = Recorder::bounded(1 << 14);
    let mut observer =
        RecordingObserver::new(recorder.clone()).with_admission_policy(params.admission.kind());
    let outcome = run_system_observed(
        &model,
        &schedule,
        &mut WqLinear::new(1, 8, 12.0),
        Resources::threads(24),
        &params,
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    let records = recorder.records();
    assert_every_period_kind(&check(&records, true));
    assert!(dope_trace::render_timeline(&records).contains("ADMIT    shed verdict=shed"));

    let recorder = Recorder::bounded(1 << 14);
    let mut observer = RecordingObserver::new(recorder.clone());
    let outcome = run_pipeline_observed(
        &ferret::sim_model(),
        &Source::Saturated,
        &mut Tpc::default(),
        Resources::threads(24).with_power_budget(500.0),
        &PipelineParams {
            horizon_secs: 60.0,
            power: Some(PowerSim::default()),
            ..PipelineParams::default()
        },
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_history.len() as u64);
    let records = recorder.records();
    assert!(check(&records, true).kind("SnapshotTaken") >= 2);
    assert!(dope_trace::render_timeline(&records).contains("FEATURE  SystemPower="));
}

#[test]
fn early_stop_is_orderly() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 2 })
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = transcode::VideoParams {
        frames: 2,
        width: 32,
        height: 32,
    };
    for id in 0..4u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(60));
    dope.stop();
    let report = dope.wait().expect("stops cleanly");
    assert!(report.elapsed >= Duration::from_millis(50));
}

/// A stage path's statistics count items, not idle waits: fed 20 items at
/// least 5 ms apart, each stage parks between items and still ends with
/// exactly 20 invocations of a microsecond or so each. The time bound is
/// on the median, so a few invocations preempted for milliseconds on a
/// loaded host cannot turn it red, while a stage that timed its ~5 ms
/// wait would.
#[test]
fn stage_paths_count_items_not_idle_polls() {
    const ITEMS: u64 = 20;
    let pipe = LivePipeline::new();
    let stages = vec![
        StageDef::seq("first", |item| item),
        StageDef::par("second", |item| item),
    ];
    let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
        .control_period(Duration::from_millis(10))
        .queue_probe(pipe.queue_probe())
        .launch(pipe.descriptor("paced", vec![stages]))
        .expect("launch");
    let monitor = dope.monitor();
    for id in 0..ITEMS {
        pipe.source
            .enqueue(PipeItem::new(id, Box::new(())))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    pipe.source.close();
    dope.wait().expect("drains");
    assert_eq!(pipe.stats.completed(), ITEMS);

    let snapshot = monitor.snapshot();
    let stage_rows: Vec<_> = snapshot
        .tasks
        .iter()
        .filter(|(path, _)| ["0.0", "0.1"].contains(&path.to_string().as_str()))
        .collect();
    assert_eq!(stage_rows.len(), 2, "{:?}", snapshot.tasks);
    for (path, stats) in stage_rows {
        assert_eq!(stats.invocations, ITEMS, "{path}: {stats:?}");
        assert!(
            stats.p50_exec_secs > 0.0 && stats.p50_exec_secs < 1e-3,
            "{path}: {stats:?}"
        );
    }
}
