//! The wire format, frozen.
//!
//! `golden_v1.jsonl` was written by the hand-rolled per-kind encoder the
//! schema table replaced: at least one line per kind, every `Verdict`,
//! scored and unscored decisions, escapes, empty and `null` payloads.
//! After a blank line it carries three lines in *older* v1 dialects —
//! traces recorded before an additive field existed.

use dope_core::AdmissionStats;
use dope_trace::{parse_jsonl, render_timeline, summarize, to_jsonl, TraceEvent};

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

/// The golden file holds a period both ways, as recordings made before
/// the snapshot became the period's only record do. Its snapshots are
/// what `stats` and `timeline` read, so the same file without its sample
/// lines — what a recorder writes now — yields the same series table and
/// the same per-period rows.
#[test]
fn sample_lines_beside_snapshots_change_no_series_and_no_timeline_row() {
    let stripped: String = GOLDEN
        .lines()
        .filter(|line| !line.contains("Sample\""))
        .map(|line| format!("{line}\n"))
        .collect();
    let both = parse_jsonl(GOLDEN).expect("golden lines parse");
    let snapshots_only = parse_jsonl(&stripped).expect("stripped lines parse");
    assert_eq!(
        both.len(),
        snapshots_only.len() + 4,
        "three samples, one queue"
    );

    let series = |records| {
        let text = summarize(records).render();
        text[text.find("series").expect("the table header")..].to_string()
    };
    assert_eq!(series(&both), series(&snapshots_only));
    assert!(series(&both).contains("task[0.2].mean_exec_secs"));

    let period_rows = |records| -> Vec<String> {
        render_timeline(records)
            .lines()
            .filter(|line| {
                ["SNAPSHOT", "STATS", "QUEUE"]
                    .iter()
                    .any(|tag| line.contains(tag))
            })
            .map(str::to_string)
            .collect()
    };
    let rows = period_rows(&both);
    assert_eq!(rows, period_rows(&snapshots_only));
    // Four snapshots, each with its queue; two of them with two rows.
    assert_eq!(rows.len(), 4 + 4 + 4);
}
