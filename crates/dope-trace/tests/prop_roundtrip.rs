//! Property-based round-trip tests of the JSONL event codec.
//!
//! Arbitrary events (and whole event sequences) must survive the trip
//! through `to_jsonl` / `parse_jsonl` byte-identically at the value
//! level. The generators stick to finite floats: the codec canonicalizes
//! non-finite values to `null` by design (see `dope_core::json`), so
//! NaN/infinity round-trips are covered by the codec's own unit tests.
//! The free-text fields carry arbitrary strings, control characters and
//! multi-byte UTF-8 included.

use dope_core::{
    AdmissionStats, Config, DecisionCandidate, DiagCode, MonitorSnapshot, NestConfig, ProgramShape,
    QueueStats, Rationale, ShapeNode, TaskConfig, TaskKind, TaskPath, TaskStats,
};
use dope_trace::{
    parse_jsonl, parse_line, to_jsonl, to_jsonl_line, TraceEvent, TraceRecord, Verdict,
};
use proptest::prelude::*;

/// Fixed name pools: the proptest shim has no string strategy, so names
/// are indexed out of small tables (including escape-worthy characters,
/// and names of 22 and 23 bytes: the two sides of `Label`'s in-place
/// limit, the shorter one ending in a two-byte character).
const NAMES: [&str; 6] = [
    "work",
    "rank \"stage\"",
    "emit\nnl",
    "päth",
    "twenty-two-bytes-widé",
    "twenty-three-bytes-wide",
];
const MECHANISMS: [&str; 4] = [
    "WQ-Linear",
    "TBF",
    "Static",
    "Work-Queue-Threshold-Hysteresis",
];

/// The pieces arbitrary strings are built from (the proptest shim has no
/// string strategy): every kind of byte the codec must escape or carry —
/// control characters, quotes, backslashes — and one-, two-, three- and
/// four-byte UTF-8.
const PIECES: [&str; 18] = [
    "a", "Z", " ", "/", "\"", "\\", "\n", "\t", "\r", "\u{0}", "\u{8}", "\u{c}", "\u{1f}",
    "\u{7f}", "ä", "€", "\u{2028}", "😀",
];

/// The string the `picks` spell out of [`PIECES`].
fn text(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&pick| PIECES[pick % PIECES.len()])
        .collect()
}

/// Puts `text` into the event's free-text fields: a failure's reason, a
/// feature's name, a decision's labels and a launch's mechanism.
fn with_text(event: TraceEvent, text: &str) -> TraceEvent {
    match event {
        TraceEvent::TaskFailed { path, policy, .. } => TraceEvent::TaskFailed {
            path,
            reason: text.to_string(),
            policy,
        },
        TraceEvent::FeatureRead { value, .. } => TraceEvent::FeatureRead {
            feature: text.to_string(),
            value,
        },
        TraceEvent::DecisionTraced {
            rationale,
            mut observed,
            mut candidates,
            predicted_throughput,
            realized_throughput,
            prediction_error,
            ..
        } => {
            for (label, _) in &mut observed {
                *label = text.into();
            }
            for candidate in &mut candidates {
                candidate.action = text.into();
            }
            TraceEvent::DecisionTraced {
                mechanism: text.into(),
                rationale,
                observed,
                candidates,
                chosen: text.into(),
                predicted_throughput,
                realized_throughput,
                prediction_error,
            }
        }
        TraceEvent::Launched {
            goal,
            threads,
            shape,
            config,
            admission,
            ..
        } => TraceEvent::Launched {
            mechanism: text.into(),
            goal,
            threads,
            shape,
            config,
            admission,
        },
        other => other,
    }
}

fn name(idx: usize) -> String {
    NAMES[idx % NAMES.len()].to_string()
}

fn mechanism(idx: usize) -> String {
    MECHANISMS[idx % MECHANISMS.len()].to_string()
}

/// An arbitrary (not necessarily valid) configuration: validity is a
/// `validate` concern, not a codec concern.
fn config(extents: &[u32], alt: usize, nested: bool) -> Config {
    let tasks = extents
        .iter()
        .enumerate()
        .map(|(i, &extent)| {
            let inner = if nested && i == 0 {
                Some(NestConfig {
                    alternative: alt,
                    tasks: vec![TaskConfig::leaf(name(i + 1), extent)],
                })
            } else {
                None
            };
            TaskConfig {
                name: name(i).into(),
                extent,
                nested: inner,
            }
        })
        .collect();
    Config::new(tasks)
}

/// A small two-level shape exercising caps and alternatives.
fn shape(cap: Option<u32>) -> ProgramShape {
    let mut par = ShapeNode::leaf("work", TaskKind::Par);
    par.max_extent = cap;
    ProgramShape::new(vec![ShapeNode {
        name: "outer".into(),
        kind: TaskKind::Par,
        max_extent: None,
        alternatives: vec![
            vec![ShapeNode::leaf("read", TaskKind::Seq), par],
            vec![ShapeNode::leaf("whole", TaskKind::Seq)],
        ],
    }])
}

fn task_path(parts: &[u32]) -> TaskPath {
    let text = parts
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(".");
    text.parse().expect("dotted indices parse")
}

fn queue_stats(occupancy: f64, arrival_rate: f64, enqueued: u64, completed: u64) -> QueueStats {
    QueueStats {
        occupancy,
        arrival_rate,
        enqueued,
        completed,
    }
}

fn task_stats(invocations: u64, mean: f64, throughput: f64, load: f64, util: f64) -> TaskStats {
    TaskStats {
        invocations,
        mean_exec_secs: mean,
        throughput,
        load,
        utilization: util,
        // Derived non-zero percentiles so round-trips cover the
        // additive v1 fields alongside the original five.
        p50_exec_secs: mean,
        p95_exec_secs: mean * 1.5,
        p99_exec_secs: mean * 2.0,
    }
}

/// Builds one arbitrary event of the `kind`-th schema variant from a
/// bag of generated primitives.
#[allow(clippy::too_many_arguments)]
fn build_event(
    kind: usize,
    idx: usize,
    extents: &[u32],
    alt: usize,
    nested: bool,
    cap: Option<u32>,
    path_parts: &[u32],
    power: Option<f64>,
    f_small: f64,
    f_big: f64,
    n_small: u64,
    n_big: u64,
    verdict_sel: usize,
    code_idx: usize,
    threads: u32,
) -> TraceEvent {
    match kind % TraceEvent::KINDS.len() {
        0 => TraceEvent::Launched {
            mechanism: mechanism(idx).into(),
            goal: format!("MinResponseTime(threads={threads})"),
            threads,
            shape: shape(cap),
            config: config(extents, alt, nested).into(),
            admission: ["", "open", "shed"][idx % 3].into(),
        },
        1 => {
            let mut snapshot = MonitorSnapshot {
                time_secs: f_big,
                tasks: Default::default(),
                queue: queue_stats(f_small, f_big, n_small, n_big),
                power_watts: power,
                dispatches_since_reconfig: n_small,
                admission: AdmissionStats {
                    offered: n_big,
                    admitted: n_small,
                    shed_high_water: n_small % 5,
                    shed_deadline: n_small % 3,
                    mean_queue_delay_secs: f_small,
                },
            };
            for (i, &part) in path_parts.iter().enumerate() {
                snapshot.tasks.insert(
                    task_path(&[part, i as u32]),
                    task_stats(n_big, f_small, f_big, f_small, f_small % 1.0),
                );
            }
            TraceEvent::SnapshotTaken { snapshot }
        }
        2 => TraceEvent::TaskStatsSample {
            path: task_path(path_parts),
            stats: task_stats(n_small, f_big, f_small, f_big, f_small % 1.0),
        },
        3 => TraceEvent::ProposalEvaluated {
            mechanism: mechanism(idx).into(),
            proposal: config(extents, alt, nested).into(),
            verdict: match verdict_sel % 4 {
                0 => Verdict::Accepted,
                1 => Verdict::Unchanged,
                2 => Verdict::Superseded,
                _ => Verdict::Rejected {
                    code: DiagCode::ALL[code_idx % DiagCode::ALL.len()],
                },
            },
        },
        4 => TraceEvent::ReconfigureEpoch {
            pause_secs: f_small,
            relaunch_secs: f_big,
            jobs: n_small,
            config: config(extents, alt, nested).into(),
            scope: if verdict_sel.is_multiple_of(2) {
                "full"
            } else {
                "partial"
            }
            .into(),
            paths_drained: n_small % 9,
        },
        5 => TraceEvent::FeatureRead {
            feature: name(idx),
            value: f_big,
        },
        6 => TraceEvent::QueueSample {
            queue: queue_stats(f_big, f_small, n_big, n_small),
        },
        7 => TraceEvent::TaskFailed {
            path: task_path(path_parts),
            // Escape-worthy payloads: panic messages quote user code.
            reason: format!("panicked: {}", name(idx)),
            policy: ["abort", "restart", "degrade"][verdict_sel % 3].into(),
        },
        8 => TraceEvent::DecisionTraced {
            mechanism: mechanism(idx).into(),
            rationale: Rationale::ALL[code_idx % Rationale::ALL.len()],
            observed: (0..(n_small % 4) as usize)
                .map(|i| (format!("{}_{i}", name(i)).into(), f_big * (i as f64 + 1.0)))
                .collect(),
            candidates: (0..=verdict_sel)
                .map(|i| DecisionCandidate {
                    action: format!("{}: width={i}", name(i)).into(),
                    score: f_small * i as f64 - 1.0,
                    predicted_throughput: (i % 2 == 0).then_some(f_big),
                })
                .collect(),
            chosen: name(idx).into(),
            predicted_throughput: power.map(|p| p + f_big),
            realized_throughput: power,
            prediction_error: power.map(|p| (f_big - p) / p.max(1.0)),
        },
        9 => TraceEvent::AdmissionDecision {
            policy: ["open", "block", "shed", "deadline"][verdict_sel % 4].into(),
            verdict: if n_small.is_multiple_of(2) {
                "admitted"
            } else {
                "shed"
            }
            .to_string(),
            reason: ["none", "high_water", "deadline"][code_idx % 3].to_string(),
            queue_delay_secs: f_small,
            offered: n_big,
            admitted: n_small,
            shed: n_big.saturating_sub(n_small),
        },
        _ => TraceEvent::Finished {
            completed: n_big,
            reconfigurations: n_small,
            dropped_events: n_small % 7,
        },
    }
}

/// The generator's `kind` index follows `KINDS` order and reaches every
/// entry — a kind added to the schema table without a generator arm
/// falls into the `_` arm above and is caught here.
#[test]
fn the_generator_reaches_every_kind() {
    for (index, kind) in TraceEvent::KINDS.iter().enumerate() {
        let event = build_event(
            index,
            0,
            &[1],
            0,
            false,
            None,
            &[0],
            None,
            0.5,
            2.0,
            1,
            2,
            0,
            0,
            4,
        );
        assert_eq!(event.kind(), *kind, "build_event({index})");
    }
}

/// A failure reason or feature name holding a carriage return once made
/// the whole recording unreadable: the encoder passed it through raw and
/// the decoder refused raw control characters.
#[test]
fn a_carriage_return_round_trips() {
    for event in [
        TraceEvent::FeatureRead {
            feature: "a\rb".to_string(),
            value: 1.0,
        },
        TraceEvent::TaskFailed {
            path: task_path(&[0]),
            reason: "line one\r\nline two\u{0}".to_string(),
            policy: "abort".into(),
        },
    ] {
        let record = TraceRecord {
            seq: 0,
            time_secs: 0.5,
            event,
        };
        let line = to_jsonl_line(&record);
        assert!(!line.contains('\r'), "{line}");
        assert_eq!(parse_line(&line), Ok(record));
    }
}

/// `parse_jsonl` on hostile `text` returns `Ok`, or an `Err` whose message
/// starts by naming a line of `text` (`line N: ...`) — and does not panic.
fn parses_or_names_the_line(text: &str) -> Result<(), TestCaseError> {
    let Err(err) = parse_jsonl(text) else {
        return Ok(());
    };
    let message = err.to_string();
    let line = message
        .strip_prefix("line ")
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(n, _)| n.parse::<usize>().ok());
    prop_assert!(
        line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
        "`{message}` names no line of the input"
    );
    Ok(())
}

proptest! {
    /// A trace cut short at any char boundary, or with any one ASCII byte
    /// replaced by any other, degrades to an error naming its line (or
    /// still parses) — truncated and bit-flipped recordings never take
    /// the reader down.
    #[test]
    fn truncated_or_corrupted_jsonl_errs_with_a_line_number(
        kinds in prop::collection::vec(0usize..TraceEvent::KINDS.len(), 1..10),
        idx in 0usize..16,
        power in prop::option::of(0.0f64..900.0),
        f_small in 0.0f64..1.0,
        f_big in 0.0f64..1.0e6,
        n_big in any::<u64>(),
        cuts in prop::collection::vec(0.0f64..1.0, 8),
        spots in prop::collection::vec(0.0f64..1.0, 8),
        bytes in prop::collection::vec(0u8..128, 8),
    ) {
        let records: Vec<TraceRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceRecord {
                seq: i as u64,
                time_secs: f_small + i as f64,
                event: build_event(
                    kind, idx + i, &[3, 1], i % 2, i % 3 == 0, Some(4), &[1, i as u32 % 5],
                    power, f_small, f_big, i as u64, n_big, i, idx, 8,
                ),
            })
            .collect();
        let jsonl = to_jsonl(&records);
        for cut in cuts {
            let mut end = (cut * jsonl.len() as f64) as usize;
            while !jsonl.is_char_boundary(end) {
                end -= 1;
            }
            parses_or_names_the_line(&jsonl[..end])?;
        }
        let ascii: Vec<usize> = (0..jsonl.len()).filter(|&i| jsonl.as_bytes()[i].is_ascii()).collect();
        for (spot, byte) in spots.into_iter().zip(bytes) {
            let mut corrupted = jsonl.clone().into_bytes();
            corrupted[ascii[(spot * ascii.len() as f64) as usize]] = byte;
            let text = String::from_utf8(corrupted).expect("an ASCII byte for an ASCII byte");
            parses_or_names_the_line(&text)?;
        }
    }

    /// Any single record of any event kind round-trips through one
    /// JSONL line without loss.
    #[test]
    fn any_record_roundtrips_through_a_jsonl_line(
        kind in 0usize..TraceEvent::KINDS.len(),
        idx in 0usize..16,
        seq in any::<u64>(),
        t in 0.0f64..1.0e9,
        extents in prop::collection::vec(1u32..40, 1..4),
        alt in 0usize..3,
        nested in any::<bool>(),
        cap in prop::option::of(1u32..16),
        path_parts in prop::collection::vec(0u32..9, 0..4),
        power in prop::option::of(0.0f64..900.0),
        f_small in 0.0f64..1.0,
        f_big in 0.0f64..1.0e6,
        n_small in 0u64..1_000,
        n_big in any::<u64>(),
        verdict_sel in 0usize..4,
        code_idx in 0usize..16,
        threads in 1u32..256,
        picks in prop::collection::vec(0usize..PIECES.len(), 0..24),
    ) {
        let event = build_event(
            kind, idx, &extents, alt, nested, cap, &path_parts, power,
            f_small, f_big, n_small, n_big, verdict_sel, code_idx, threads,
        );
        let record = TraceRecord {
            seq,
            time_secs: t,
            event: with_text(event, &text(&picks)),
        };
        let line = to_jsonl_line(&record);
        prop_assert!(!line.contains('\n'), "one record must stay one line");
        let parsed = parse_line(&line).map_err(|e| {
            TestCaseError::fail(format!("parse failed: {e} for line {line}"))
        })?;
        prop_assert_eq!(parsed, record);
    }

    /// Whole sequences of records round-trip through a multi-line JSONL
    /// document, preserving order, count, and every field.
    #[test]
    fn any_sequence_roundtrips_through_jsonl(
        kinds in prop::collection::vec(0usize..TraceEvent::KINDS.len(), 0..12),
        extents in prop::collection::vec(1u32..12, 1..3),
        alt in 0usize..2,
        power in prop::option::of(1.0f64..400.0),
        f_small in 0.0f64..1.0,
        f_big in 0.0f64..1.0e4,
        n_small in 0u64..100,
        n_big in 0u64..1_000_000,
        code_idx in 0usize..16,
        threads in 1u32..64,
        picks in prop::collection::vec(0usize..PIECES.len(), 0..16),
    ) {
        let records: Vec<TraceRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceRecord {
                seq: i as u64 * 2, // even gaps: drops must not break parsing
                time_secs: i as f64 * 0.5 + f_small,
                event: with_text(
                    build_event(
                        kind, i, &extents, alt, i % 2 == 0, Some(8), &[0, i as u32 % 4],
                        power, f_small, f_big, n_small, n_big, i, code_idx, threads,
                    ),
                    &text(&picks[i.min(picks.len())..]),
                ),
            })
            .collect();
        let jsonl = to_jsonl(&records);
        let parsed = parse_jsonl(&jsonl).map_err(|e| {
            TestCaseError::fail(format!("parse failed: {e}"))
        })?;
        prop_assert_eq!(parsed, records);
    }
}
