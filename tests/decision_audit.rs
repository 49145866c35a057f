//! Decision-audit acceptance tests.
//!
//! Every mechanism must explain every decision it takes — a non-empty
//! [`DecisionTrace`](dope_core::DecisionTrace) with a stable rationale
//! code, the signals it read, and the candidates it weighed — and the
//! live executive must turn those explanations into scored
//! `DecisionTraced` events (predicted vs realized throughput) plus
//! prediction-error metrics in the live scrape.

use dope_apps::transcode;
use dope_core::{
    Config, Goal, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources, ShapeNode,
    TaskConfig, TaskKind, TaskPath, TaskStats,
};
use dope_mechanisms::{Fdp, Oracle, Proportional, Seda, Tbf, Tpc, WqLinear, WqLinearH, WqtH};
use dope_metrics::{names, MetricsRegistry};
use dope_runtime::Dope;
use dope_trace::{explain, parse_jsonl, Recorder, TraceEvent};
use std::time::{Duration, Instant};

fn pipeline_shape() -> ProgramShape {
    ProgramShape::new(vec![ShapeNode {
        name: "pipe".into(),
        kind: TaskKind::Par,
        max_extent: Some(1),
        alternatives: vec![
            vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("a", TaskKind::Par),
                ShapeNode::leaf("b", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ],
            vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("fused", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ],
        ],
    }])
}

fn two_level_shape() -> ProgramShape {
    ProgramShape::new(vec![ShapeNode {
        name: "txn".into(),
        kind: TaskKind::Par,
        max_extent: None,
        alternatives: vec![
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("work", TaskKind::Par),
            ],
            vec![ShapeNode::leaf("whole", TaskKind::Seq)],
        ],
    }])
}

fn pipeline_config(extents: &[u32]) -> Config {
    Config::new(vec![TaskConfig::nest(
        "pipe",
        1,
        0,
        extents
            .iter()
            .zip(["in", "a", "b", "out"])
            .map(|(&e, n)| TaskConfig::leaf(n, e))
            .collect(),
    )])
}

fn snapshot(
    time_secs: f64,
    execs: &[f64],
    loads: &[f64],
    queue_occupancy: f64,
    power: Option<f64>,
    dispatches: u64,
) -> MonitorSnapshot {
    let mut snap = MonitorSnapshot::at(time_secs);
    for (i, (&e, &l)) in execs.iter().zip(loads).enumerate() {
        snap.tasks.insert(
            TaskPath::root_child(0).child(i as u16),
            TaskStats {
                invocations: 100 + dispatches,
                mean_exec_secs: e,
                throughput: if e > 0.0 { 1.0 / e } else { 0.0 },
                load: l,
                utilization: 0.7,
                ..TaskStats::default()
            },
        );
    }
    snap.queue.occupancy = queue_occupancy;
    snap.power_watts = power;
    snap.dispatches_since_reconfig = dispatches;
    snap
}

/// What a mechanism's explanations looked like over a snapshot grid.
struct AuditTally {
    consults: usize,
    explained: usize,
    with_observed: usize,
    with_candidates: usize,
    with_prediction: usize,
}

/// Consults `mech` over `snaps`, applying valid proposals, and demands
/// a well-formed explanation after every consult.
fn drive_and_audit(
    mech: &mut dyn Mechanism,
    shape: &ProgramShape,
    initial: Config,
    threads: u32,
    snaps: &[MonitorSnapshot],
) -> AuditTally {
    let res = Resources::threads(threads).with_power_budget(630.0);
    let mut current = mech
        .initial(shape, &res)
        .filter(|c| c.validate(shape, threads).is_ok())
        .unwrap_or(initial);
    let mut tally = AuditTally {
        consults: 0,
        explained: 0,
        with_observed: 0,
        with_candidates: 0,
        with_prediction: 0,
    };
    for snap in snaps {
        let proposal = mech.reconfigure(snap, &current, shape, &res);
        tally.consults += 1;
        let trace = mech
            .explain()
            .unwrap_or_else(|| panic!("{} did not explain a consult", mech.name()));
        assert!(
            !trace.chosen.is_empty(),
            "{} explained an unlabeled decision",
            mech.name()
        );
        assert!(
            proposal.is_none() || trace.chosen != "hold",
            "{} audited a proposal as `hold`",
            mech.name()
        );
        assert_eq!(
            Rationale::from_code(trace.rationale.code()),
            Some(trace.rationale),
            "{} used a rationale whose code does not round-trip",
            mech.name()
        );
        for candidate in &trace.candidates {
            assert!(
                !candidate.action.is_empty(),
                "{} weighed an unlabeled candidate",
                mech.name()
            );
        }
        tally.explained += 1;
        if !trace.observed.is_empty() {
            tally.with_observed += 1;
        }
        if !trace.candidates.is_empty() {
            tally.with_candidates += 1;
        }
        if trace.predicted_throughput.is_some() {
            tally.with_prediction += 1;
        }
        if let Some(p) = proposal {
            if p.validate(shape, threads).is_ok() {
                current = p.clone();
                mech.applied(&p);
            }
        }
    }
    tally
}

fn assert_audit(name: &str, tally: &AuditTally) {
    assert_eq!(
        tally.explained,
        tally.consults,
        "{name} skipped explaining {} of {} consults",
        tally.consults - tally.explained,
        tally.consults
    );
    assert!(
        tally.with_observed >= 1,
        "{name} never reported an observed signal"
    );
    assert!(
        tally.with_candidates >= 1,
        "{name} never reported a candidate set"
    );
    assert!(
        tally.with_prediction >= 1,
        "{name} never predicted a throughput"
    );
}

/// A pipeline grid that sweeps from imbalanced to balanced stages, with
/// the queue filling and the power signal crossing the budget, so each
/// mechanism's decision logic exercises more than one branch.
fn pipeline_grid() -> Vec<MonitorSnapshot> {
    (0..16u64)
        .map(|i| {
            let t = i as f64;
            let skew = 1.0 + (15 - i) as f64 / 4.0;
            let execs = [0.002, 0.01 * skew, 0.008, 0.002];
            let loads = [0.5, 3.0 * skew, 2.0, 0.5];
            let power = Some(560.0 + 12.0 * t); // crosses the 630 W budget
            snapshot(t, &execs, &loads, t, power, i * 40)
        })
        .collect()
}

/// A two-level grid sweeping queue occupancy up and back down.
fn two_level_grid() -> Vec<MonitorSnapshot> {
    (0..16u64)
        .map(|i| {
            let t = i as f64;
            let occ = if i < 8 {
                2.0 * t
            } else {
                2.0 * (15 - i) as f64
            };
            snapshot(t, &[0.01], &[occ], occ, None, i * 25)
        })
        .collect()
}

#[test]
fn every_pipeline_mechanism_explains_every_consult() {
    let shape = pipeline_shape();
    let initial = pipeline_config(&[1, 1, 1, 1]);
    let grid = pipeline_grid();
    let mut mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(Proportional::new()),
        Box::new(Tbf::new()),
        Box::new(Tbf::without_fusion()),
        Box::new(Fdp::default()),
        Box::new(Tpc::default()),
        Box::new(Seda::default()),
    ];
    for mech in &mut mechanisms {
        let name = mech.name();
        let tally = drive_and_audit(mech.as_mut(), &shape, initial.clone(), 24, &grid);
        assert_audit(name, &tally);
    }
}

#[test]
fn every_two_level_mechanism_explains_every_consult() {
    let shape = two_level_shape();
    let nest = dope_core::nest::find_two_level(&shape).expect("two-level");
    let initial = dope_core::nest::config_for_width(&shape, &nest, 24, 4);
    let grid = two_level_grid();
    let mut mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(WqLinear::new(1, 8, 16.0)),
        Box::new(WqLinearH::new(1, 8, 16.0, 2)),
        Box::new(WqtH::new(4.0, 8, 2, 2)),
        Box::new(Oracle::from_table(vec![(2.0, 8), (8.0, 2)], 1)),
    ];
    for mech in &mut mechanisms {
        let name = mech.name();
        let tally = drive_and_audit(mech.as_mut(), &shape, initial.clone(), 24, &grid);
        assert_audit(name, &tally);
    }
}

#[test]
fn live_run_records_scored_decisions_and_prediction_metrics() {
    let (service, descriptor) = transcode::live_service();
    let registry = MetricsRegistry::new();
    let recorder = Recorder::bounded(65_536);
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .metrics(registry.clone())
        .recorder(recorder.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 6,
        width: 48,
        height: 48,
    };
    for id in 0..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    // The service keeps running until the queue closes, so wait (bounded)
    // for a decision to be scored against a follow-up snapshot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let scored = recorder.records().iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::DecisionTraced {
                    prediction_error: Some(_),
                    ..
                }
            )
        });
        if scored {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    service.queue.close();
    dope.wait().expect("drains");

    let records = parse_jsonl(&recorder.to_jsonl()).expect("live trace parses strictly");
    let decisions: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::DecisionTraced { .. }))
        .collect();
    assert!(
        !decisions.is_empty(),
        "a live adaptive run must record decisions"
    );
    let scored = decisions
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::DecisionTraced {
                    prediction_error: Some(_),
                    realized_throughput: Some(_),
                    ..
                }
            )
        })
        .count();
    assert!(
        scored >= 1,
        "no decision was scored against a follow-up snapshot ({} unscored)",
        decisions.len()
    );

    // The audit renders from the live trace and re-emits strict JSONL.
    let report = explain(&records);
    assert_eq!(report.len(), decisions.len());
    let text = report.render();
    assert!(text.contains("decision audit"), "{text}");
    assert!(text.contains("WQ-Linear/"), "{text}");
    assert!(text.contains("error "), "{text}");
    let reparsed = parse_jsonl(&report.to_jsonl()).expect("audit JSONL parses strictly");
    assert_eq!(reparsed.len(), report.len());

    // The metrics plane saw the same decisions: rationale counters and
    // the sign-labelled prediction-error histogram are in the scrape.
    let rendered = registry.render();
    assert!(
        rendered.contains(names::DECISION_RATIONALE_TOTAL),
        "{rendered}"
    );
    assert!(
        rendered.contains(&format!(
            "rationale=\"{}\"",
            Rationale::OccupancyLinear.code()
        )),
        "{rendered}"
    );
    assert!(
        rendered.contains(&format!("{}_count", names::MECHANISM_PREDICTION_ERROR)),
        "{rendered}"
    );
    assert!(rendered.contains("sign=\"over\""), "{rendered}");
    assert!(rendered.contains("sign=\"under\""), "{rendered}");
    let error_count: u64 = rendered
        .lines()
        .filter(|l| l.starts_with(&format!("{}_count", names::MECHANISM_PREDICTION_ERROR)))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(
        error_count as usize >= scored,
        "histogram count {error_count} lags the {scored} scored decisions"
    );
}
