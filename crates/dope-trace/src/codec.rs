//! The strict JSONL codec for traces.
//!
//! Every [`TraceRecord`] serializes to one line of JSON with the shape
//! `{"v": 1, "seq": N, "t": SECS, "kind": "...", ...}` — see
//! `docs/event-schema.md` for the field-by-field contract. Encoding and
//! parsing are built on [`dope_core::json`], the same hand-rolled strict
//! codec the `dope-verify` CLI uses (the vendored `serde` is a no-op
//! shim), so traces parse with byte-offset errors and round-trip
//! losslessly.
//!
//! Which keys a kind carries is declared once, in the schema table of
//! [`crate::event`]; every value inside a record is written and read by
//! its [`Wire`] impl in `dope-core`, the one typed codec. This module
//! holds the four-key envelope around them.
//!
//! # Example
//!
//! ```
//! use dope_trace::codec::{parse_line, to_jsonl_line};
//! use dope_trace::{TraceEvent, TraceRecord};
//!
//! let record = TraceRecord {
//!     seq: 7,
//!     time_secs: 1.5,
//!     event: TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: 612.5,
//!     },
//! };
//! let line = to_jsonl_line(&record);
//! assert_eq!(
//!     line,
//!     r#"{"v": 1, "seq": 7, "t": 1.5, "kind": "FeatureRead", "feature": "SystemPower", "value": 612.5}"#
//! );
//! assert_eq!(parse_line(&line).unwrap(), record);
//! ```

use crate::event::{TraceEvent, TraceRecord, SCHEMA_VERSION};
use dope_core::json::{parse, JsonError, Value, Wire};
use dope_core::Label;

/// Appends a record's JSONL line (no trailing newline) to `out`.
fn write_line(record: &TraceRecord, out: &mut String) {
    // Room for the envelope plus the widest kind (eight payload keys).
    let mut fields = Vec::with_capacity(12);
    SCHEMA_VERSION.put_field("v", &mut fields);
    record.seq.put_field("seq", &mut fields);
    record.time_secs.put_field("t", &mut fields);
    fields.push((
        "kind".to_string(),
        Value::String(record.event.kind().to_string()),
    ));
    record.event.put_payload(&mut fields);
    Value::Object(fields).write_json(out);
}

/// Renders a record as one JSONL line (no trailing newline).
#[must_use]
pub fn to_jsonl_line(record: &TraceRecord) -> String {
    let mut line = String::new();
    write_line(record, &mut line);
    line
}

/// Renders a whole trace as JSONL, one record per line, newline-terminated.
#[must_use]
pub fn to_jsonl<'r>(records: impl IntoIterator<Item = &'r TraceRecord>) -> String {
    let mut out = String::new();
    for record in records {
        write_line(record, &mut out);
        out.push('\n');
    }
    out
}

/// Parses one JSONL line.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON, unknown schema versions,
/// unknown `kind`s, or missing / mistyped fields (named by their key
/// path, e.g. `snapshot.queue.occupancy`).
pub fn parse_line(line: &str) -> Result<TraceRecord, JsonError> {
    let value = parse(line)?;
    let version = u64::take_field(&value, "v", None)?;
    if version != SCHEMA_VERSION {
        return Err(JsonError::decode(format!(
            "unsupported trace schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let kind = Label::take_field(&value, "kind", None)?;
    Ok(TraceRecord {
        seq: Wire::take_field(&value, "seq", None)?,
        time_secs: Wire::take_field(&value, "t", None)?,
        event: TraceEvent::take_payload(&kind, &value)?,
    })
}

/// Parses a whole JSONL trace; blank lines are skipped.
///
/// # Errors
///
/// Returns the first [`JsonError`], annotated with the 1-based line
/// number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, JsonError> {
    /// No record line is shorter than its bare envelope, so valid text
    /// never meets this bound, and junk lines cannot make the reservation
    /// larger than a few times the text.
    const SHORTEST_LINE: usize = r#"{"v":1,"seq":0,"t":0,"kind":""}"#.len();
    let blank = |line: &str| line.trim().is_empty();
    // Sized once, from the line count, rather than grown by doubling.
    let lines = text.lines().filter(|line| !blank(line)).count();
    let mut records = Vec::with_capacity(lines.min(text.len() / SHORTEST_LINE));
    for (lineno, line) in text.lines().enumerate() {
        if blank(line) {
            continue;
        }
        records.push(
            parse_line(line)
                .map_err(|err| JsonError::decode(format!("line {}: {err}", lineno + 1)))?,
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Verdict;
    use dope_core::{
        AdmissionStats, Config, DecisionCandidate, DiagCode, MonitorSnapshot, ProgramShape,
        QueueStats, Rationale, ShapeNode, TaskConfig, TaskKind, TaskStats,
    };
    use std::sync::Arc;

    fn sample_config() -> Arc<Config> {
        Arc::new(Config::new(vec![TaskConfig::nest(
            "transcode",
            2,
            0,
            vec![
                TaskConfig::leaf("read", 1),
                TaskConfig::leaf("work", 2),
                TaskConfig::leaf("write", 1),
            ],
        )]))
    }

    fn sample_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::nest(
            "transcode",
            TaskKind::Par,
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("work", TaskKind::Par).with_max_extent(8),
                ShapeNode::leaf("write", TaskKind::Seq),
            ],
        )])
    }

    fn sample_snapshot() -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.25);
        snap.tasks.insert(
            "0.1".parse().unwrap(),
            TaskStats {
                invocations: 42,
                mean_exec_secs: 0.0125,
                throughput: 33.5,
                load: 4.0,
                utilization: 0.875,
                p50_exec_secs: 0.011,
                p95_exec_secs: 0.02,
                p99_exec_secs: 0.045,
            },
        );
        snap.queue = QueueStats {
            occupancy: 3.0,
            arrival_rate: 2.5,
            enqueued: 50,
            completed: 47,
        };
        snap.power_watts = Some(612.5);
        snap.dispatches_since_reconfig = 9;
        snap.admission = AdmissionStats {
            offered: 64,
            admitted: 50,
            shed_high_water: 12,
            shed_deadline: 2,
            mean_queue_delay_secs: 0.035,
        };
        snap
    }

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Launched {
                mechanism: "WQ-Linear".into(),
                goal: "MinResponseTime(4 threads)".to_string(),
                threads: 4,
                shape: sample_shape(),
                config: sample_config(),
                admission: "shed".into(),
            },
            TraceEvent::SnapshotTaken {
                snapshot: sample_snapshot(),
            },
            TraceEvent::TaskStatsSample {
                path: "0.1".parse().unwrap(),
                stats: TaskStats {
                    invocations: 7,
                    mean_exec_secs: 0.5,
                    throughput: 14.0,
                    load: 0.0,
                    utilization: 1.0,
                    p50_exec_secs: 0.4,
                    p95_exec_secs: 0.9,
                    p99_exec_secs: 1.2,
                },
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "WQ-Linear".into(),
                proposal: sample_config(),
                verdict: Verdict::Accepted,
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "TBF".into(),
                proposal: sample_config(),
                verdict: Verdict::Rejected {
                    code: DiagCode::BudgetExceeded,
                },
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "WQT-H".into(),
                proposal: sample_config(),
                verdict: Verdict::Superseded,
            },
            TraceEvent::ReconfigureEpoch {
                pause_secs: 0.00125,
                relaunch_secs: 0.0005,
                jobs: 6,
                config: sample_config(),
                scope: "full".into(),
                paths_drained: 5,
            },
            TraceEvent::ReconfigureEpoch {
                pause_secs: 0.0002,
                relaunch_secs: 0.0001,
                jobs: 7,
                config: sample_config(),
                scope: "partial".into(),
                paths_drained: 1,
            },
            TraceEvent::FeatureRead {
                feature: "SystemPower".to_string(),
                value: 612.5,
            },
            TraceEvent::QueueSample {
                queue: QueueStats {
                    occupancy: 12.0,
                    arrival_rate: 3.25,
                    enqueued: 60,
                    completed: 48,
                },
            },
            TraceEvent::TaskFailed {
                path: "0.1".parse().unwrap(),
                reason: "index out of bounds: the len is 4 but the index is 7".to_string(),
                policy: "restart".into(),
            },
            TraceEvent::DecisionTraced {
                mechanism: "WQ-Linear".into(),
                rationale: Rationale::OccupancyLinear,
                observed: vec![
                    ("queue_occupancy".into(), 3.0),
                    ("current_width".into(), 4.0),
                ],
                candidates: vec![
                    DecisionCandidate {
                        action: "width=4".into(),
                        score: -2.0,
                        predicted_throughput: Some(33.5),
                    },
                    DecisionCandidate {
                        action: "width=6".into(),
                        score: 0.0,
                        predicted_throughput: Some(50.25),
                    },
                ],
                chosen: "width=6".into(),
                predicted_throughput: Some(50.25),
                realized_throughput: Some(48.0),
                prediction_error: Some((50.25 - 48.0) / 48.0),
            },
            TraceEvent::DecisionTraced {
                mechanism: "TBF".into(),
                rationale: Rationale::Hold,
                observed: vec![],
                candidates: vec![],
                chosen: "hold".into(),
                predicted_throughput: None,
                realized_throughput: None,
                prediction_error: None,
            },
            TraceEvent::AdmissionDecision {
                policy: "shed".into(),
                verdict: "shed".to_string(),
                reason: "high_water".to_string(),
                queue_delay_secs: 0.035,
                offered: 64,
                admitted: 50,
                shed: 14,
            },
            TraceEvent::AdmissionDecision {
                policy: "block".into(),
                verdict: "admitted".to_string(),
                reason: "none".to_string(),
                queue_delay_secs: 0.002,
                offered: 10,
                admitted: 10,
                shed: 0,
            },
            TraceEvent::Finished {
                completed: 48,
                reconfigurations: 2,
                dropped_events: 0,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for (seq, event) in all_events().into_iter().enumerate() {
            let record = TraceRecord {
                seq: seq as u64,
                time_secs: seq as f64 * 0.25,
                event,
            };
            let line = to_jsonl_line(&record);
            let back = parse_line(&line).unwrap();
            assert_eq!(back, record, "{line}");
        }
    }

    #[test]
    fn jsonl_round_trips_with_blank_lines() {
        let records: Vec<TraceRecord> = all_events()
            .into_iter()
            .enumerate()
            .map(|(seq, event)| TraceRecord {
                seq: seq as u64,
                time_secs: 0.5,
                event,
            })
            .collect();
        let mut text = to_jsonl(&records);
        text.push('\n'); // extra blank line
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn task_rows_decode_sorted_last_wins_and_encode_in_path_order() {
        // Rows out of path order, `0.1` twice: the table keeps one row
        // per path — the last one given — and is written back sorted.
        let row = |path: &str, invocations: u64| {
            format!(
                r#"{{"path": "{path}", "invocations": {invocations}, "mean_exec_secs": 0.5, "throughput": 2.5, "load": 0.25, "utilization": 0.75, "p50_exec_secs": 0.125, "p95_exec_secs": 0.25, "p99_exec_secs": 0.5}}"#
            )
        };
        let line = |rows: &[String]| {
            format!(
                r#"{{"v": 1, "seq": 1, "t": 0.5, "kind": "SnapshotTaken", "snapshot": {{"time_secs": 0.5, "tasks": [{}], "queue": {{"occupancy": 0, "arrival_rate": 0, "enqueued": 0, "completed": 0}}, "power_watts": null, "dispatches_since_reconfig": 0, "admission": {{"offered": 0, "admitted": 0, "shed_high_water": 0, "shed_deadline": 0, "mean_queue_delay_secs": 0}}}}}}"#,
                rows.join(", ")
            )
        };
        let given = line(&[row("1", 10), row("0.1", 20), row("0", 30), row("0.1", 40)]);
        let record = parse_line(&given).unwrap();
        let TraceEvent::SnapshotTaken { snapshot } = &record.event else {
            panic!("wrong kind");
        };
        let rows: Vec<(String, u64)> = snapshot
            .tasks
            .iter()
            .map(|(path, stats)| (path.to_string(), stats.invocations))
            .collect();
        assert_eq!(
            rows,
            [
                ("0".to_string(), 30),
                ("0.1".to_string(), 40),
                ("1".to_string(), 10)
            ]
        );
        let sorted = line(&[row("0", 30), row("0.1", 40), row("1", 10)]);
        assert_eq!(to_jsonl_line(&record), sorted);
        assert_eq!(parse_line(&sorted).unwrap(), record);
    }

    #[test]
    fn the_reader_accepts_the_nulls_the_writer_emits_for_non_finite_floats() {
        // One stale sensor reading (NaN) and one unbounded score must not
        // make the whole trace unreadable: the writer encodes both as
        // `null`, so the reader has to take `null` back in a required
        // number — as NaN.
        let records = vec![
            TraceRecord {
                seq: 0,
                time_secs: 0.5,
                event: TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: f64::NAN,
                },
            },
            TraceRecord {
                seq: 1,
                time_secs: 0.75,
                event: TraceEvent::DecisionTraced {
                    mechanism: "TPC".into(),
                    rationale: Rationale::Hold,
                    observed: vec![("power_watts".into(), f64::INFINITY)],
                    candidates: vec![DecisionCandidate {
                        action: "hold".into(),
                        score: f64::NEG_INFINITY,
                        predicted_throughput: None,
                    }],
                    chosen: "hold".into(),
                    predicted_throughput: None,
                    realized_throughput: None,
                    prediction_error: None,
                },
            },
        ];
        let text = to_jsonl(&records);
        assert!(
            text.contains(r#""feature": "SystemPower", "value": null}"#),
            "{text}"
        );
        let back = parse_jsonl(&text).expect("the writer's own output must parse");
        let TraceEvent::FeatureRead { value, .. } = &back[0].event else {
            panic!("wrong kind");
        };
        assert!(value.is_nan());
        let TraceEvent::DecisionTraced {
            observed,
            candidates,
            ..
        } = &back[1].event
        else {
            panic!("wrong kind");
        };
        assert!(observed[0].1.is_nan() && candidates[0].score.is_nan());
        // Re-encoding is a fixed point, and a mistyped value still errors.
        assert_eq!(to_jsonl(&back), text);
        assert!(parse_line(&text.lines().next().unwrap().replace("null", "\"hot\"")).is_err());

        // An *additive* number keeps its documented reading of `null`:
        // a non-finite percentile comes back as the default, 0.0.
        let stats = TaskStats {
            p99_exec_secs: f64::NAN,
            ..TaskStats::default()
        };
        let Value::Object(wire) = stats.put() else {
            panic!("stats encode as an object");
        };
        assert_eq!(
            wire.last(),
            Some(&("p99_exec_secs".to_string(), Value::Null))
        );
        let back = TaskStats::take(&Value::Object(wire)).unwrap();
        assert_eq!(back.p99_exec_secs, 0.0);
    }

    #[test]
    fn superseded_verdict_round_trips_and_unknowns_reject() {
        let line = r#"{"v": 1, "seq": 2, "t": 0.5, "kind": "ProposalEvaluated", "mechanism": "WQT-H", "proposal": {"tasks": [{"name": "t", "extent": 1}]}, "verdict": "superseded"}"#;
        let record = parse_line(line).unwrap();
        assert_eq!(to_jsonl_line(&record), line);
        let bad = line.replace("superseded", "retracted");
        assert!(parse_line(&bad).is_err());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let err = parse_line(r#"{"v": 99, "seq": 0, "t": 0, "kind": "Finished"}"#).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind() {
        let err = parse_line(r#"{"v": 1, "seq": 0, "t": 0, "kind": "Mystery"}"#).unwrap_err();
        assert!(err.to_string().contains("Mystery"), "{err}");
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = to_jsonl_line(&TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Finished {
                completed: 0,
                reconfigurations: 0,
                dropped_events: 0,
            },
        });
        let text = format!("{good}\nnot json\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn shape_kind_survives_round_trip() {
        let record = TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Launched {
                mechanism: "Static".into(),
                goal: "g".to_string(),
                threads: 24,
                shape: sample_shape(),
                config: sample_config(),
                admission: "".into(),
            },
        };
        let back = parse_line(&to_jsonl_line(&record)).unwrap();
        if let TraceEvent::Launched { shape, .. } = &back.event {
            let work = shape.node(&"0.1".parse().unwrap()).expect("node 0.1");
            assert_eq!(work.kind, TaskKind::Par);
            assert_eq!(work.max_extent, Some(8));
        } else {
            panic!("kind changed");
        }
    }
}
