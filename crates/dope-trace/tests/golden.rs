//! The wire format, frozen.
//!
//! `golden_v1.jsonl` was written by the hand-rolled per-kind encoder the
//! schema table replaced: at least one line per kind, every `Verdict`,
//! scored and unscored decisions, escapes, empty and `null` payloads.
//! After a blank line it carries three lines in *older* v1 dialects —
//! traces recorded before an additive field existed.

use dope_core::AdmissionStats;
use dope_trace::{parse_jsonl, to_jsonl, TraceEvent};

const GOLDEN: &str = include_str!("golden_v1.jsonl");

fn dialects() -> (&'static str, &'static str) {
    GOLDEN
        .split_once("\n\n")
        .expect("a blank line separates the dialects")
}

#[test]
fn current_dialect_lines_re_encode_byte_identically() {
    let (current, _) = dialects();
    let records = parse_jsonl(current).expect("golden lines parse");
    let mut kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    kinds.dedup();
    assert_eq!(
        kinds,
        TraceEvent::KINDS,
        "the golden file covers every kind"
    );
    assert_eq!(to_jsonl(&records), format!("{current}\n"));
}

#[test]
fn older_dialect_lines_decode_with_their_additive_defaults() {
    let (_, older) = dialects();
    let records = parse_jsonl(older).expect("pre-additive lines still parse");
    let [stats, epoch, snapshot] = &records[..] else {
        panic!("expected three older-dialect lines, got {}", records.len());
    };
    let TraceEvent::TaskStatsSample { stats, .. } = &stats.event else {
        panic!("wrong kind");
    };
    assert_eq!(
        (
            stats.invocations,
            stats.p50_exec_secs,
            stats.p95_exec_secs,
            stats.p99_exec_secs
        ),
        (9, 0.0, 0.0, 0.0)
    );
    let TraceEvent::ReconfigureEpoch {
        scope,
        paths_drained,
        ..
    } = &epoch.event
    else {
        panic!("wrong kind");
    };
    assert_eq!((scope.as_str(), *paths_drained), ("full", 0));
    let TraceEvent::SnapshotTaken { snapshot } = &snapshot.event else {
        panic!("wrong kind");
    };
    assert_eq!(snapshot.admission, AdmissionStats::default());
    // Re-encoding upgrades them to the current dialect, losslessly.
    assert_eq!(parse_jsonl(&to_jsonl(&records)).unwrap(), records);
}
