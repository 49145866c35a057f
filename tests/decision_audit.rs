//! Decision-audit acceptance test on real threads.
//!
//! The live executive must turn a mechanism's explanations into scored
//! `DecisionTraced` events (predicted vs realized throughput) plus
//! prediction-error metrics in the live scrape. That every mechanism
//! explains every consult is checked in `tests/mechanisms.rs`.

use dope_apps::transcode;
use dope_core::{Goal, Rationale};
use dope_mechanisms::WqLinear;
use dope_metrics::{names, MetricsRegistry};
use dope_runtime::Dope;
use dope_trace::{explain, parse_jsonl, Recorder, TraceEvent};
use std::time::{Duration, Instant};
use support::check;

mod support;

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
    check(&records, true);
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
