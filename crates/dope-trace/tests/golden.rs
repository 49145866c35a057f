//! The wire format, frozen.
//!
//! `golden_v1.jsonl` was written by the hand-rolled per-kind encoder the
//! schema table replaced: at least one line per kind, every `Verdict`,
//! scored and unscored decisions, escapes, empty and `null` payloads.
//! After a blank line it carries four lines in *older* v1 dialects —
//! traces recorded before an additive field existed.

use dope_core::{
    AdmissionStats, Config, MonitorSnapshot, ProgramShape, Rationale, TaskPath, TaskStats,
};
use dope_trace::{parse_jsonl, render_timeline, summarize, to_jsonl, TraceEvent, TraceRecord};

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
    let [launched, stats, epoch, snapshot] = &records[..] else {
        panic!("expected four older-dialect lines, got {}", records.len());
    };
    let TraceEvent::Launched { admission, .. } = &launched.event else {
        panic!("wrong kind");
    };
    assert_eq!(admission, "", "no gate declared");
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

/// The series table from its header on: everything but the per-kind
/// record counts, which differ by construction between two forms.
fn series(records: &[TraceRecord]) -> String {
    let text = summarize(records).render();
    text[text.find("series").expect("the table header")..].to_string()
}

/// The timeline rows a control period renders as, in order.
fn period_rows(records: &[TraceRecord]) -> Vec<String> {
    render_timeline(records)
        .lines()
        .filter(|line| {
            ["ADMIT", "FEATURE", "SNAPSHOT", "STATS", "QUEUE"]
                .iter()
                .any(|tag| line.contains(tag))
        })
        .map(str::to_string)
        .collect()
}

/// The golden file holds a period both ways, as recordings made before
/// the snapshot became the period's only record do. Its snapshots are
/// what `stats` and `timeline` read, so the same file without its sample
/// lines yields the same series table and the same per-period rows.
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

    assert_eq!(series(&both), series(&snapshots_only));
    assert!(series(&both).contains("task[0.2].mean_exec_secs"));
    let rows = period_rows(&both);
    assert_eq!(rows, period_rows(&snapshots_only));
    // Four snapshots, each with its queue; two of them with two rows; the
    // first with its power reading; the one feature read no snapshot
    // carries; and the two decisions the file writes, which stand for the
    // gate's periods (a trace that writes them derives none).
    assert_eq!(rows.len(), 1 + 4 + 4 + 4 + 1 + 2, "{rows:#?}");
}

/// The same periods in the two forms this tree has written: the
/// `FeatureRead` + `AdmissionDecision` + `SnapshotTaken` form (the gate's
/// policy only in the samples), and the snapshot alone with the policy in
/// `Launched`. Both read as one series table — `admission:` section and
/// totals included — and one set of timeline period rows.
#[test]
fn a_period_written_with_its_copies_reads_as_the_snapshot_alone() {
    // (offered, admitted, shed at the high-water mark) per period, and
    // the window verdict and reason the copies carried.
    let periods = [
        (20, 20, 0, "admitted", "none"),
        (64, 50, 14, "shed", "high_water"),
        (80, 66, 14, "admitted", "none"),
    ];
    let record = |seq: &mut u64, time_secs: f64, event: TraceEvent| {
        *seq += 1;
        TraceRecord {
            seq: *seq - 1,
            time_secs,
            event,
        }
    };
    let launched = |admission: &str| TraceEvent::Launched {
        mechanism: "ShedAware<WQ-Linear>".into(),
        goal: "MaxThroughput(4 threads)".to_string(),
        threads: 4,
        shape: ProgramShape::new(vec![]),
        config: Config::default().into(),
        admission: admission.into(),
    };
    let (mut old, mut new) = (Vec::new(), Vec::new());
    let (mut old_seq, mut new_seq) = (0, 0);
    old.push(record(&mut old_seq, 0.0, launched("")));
    new.push(record(&mut new_seq, 0.0, launched("shed")));
    for (i, &(offered, admitted, shed, verdict, reason)) in periods.iter().enumerate() {
        let t = 0.25 * (i + 1) as f64;
        let mut snapshot = MonitorSnapshot::at(t);
        let stats = TaskStats {
            invocations: 10 * (i as u64 + 1),
            mean_exec_secs: 0.002 * (i + 1) as f64,
            p99_exec_secs: 0.005,
            ..TaskStats::default()
        };
        snapshot.tasks.insert(TaskPath::root_child(0), stats);
        snapshot.queue.occupancy = 4.0 + i as f64;
        snapshot.power_watts = Some(450.0 + 10.0 * i as f64);
        snapshot.admission = AdmissionStats {
            offered,
            admitted,
            shed_high_water: shed,
            shed_deadline: 0,
            mean_queue_delay_secs: 0.001,
        };
        let decision = TraceEvent::DecisionTraced {
            mechanism: "WQ-Linear".into(),
            rationale: Rationale::Hold,
            observed: vec![],
            candidates: vec![],
            chosen: "hold".into(),
            predicted_throughput: None,
            realized_throughput: None,
            prediction_error: None,
        };
        let copies = [
            TraceEvent::FeatureRead {
                feature: "SystemPower".to_string(),
                value: snapshot.power_watts.unwrap(),
            },
            TraceEvent::AdmissionDecision {
                policy: "shed".into(),
                verdict: verdict.to_string(),
                reason: reason.to_string(),
                queue_delay_secs: 0.001,
                offered,
                admitted,
                shed,
            },
        ];
        let taken = TraceEvent::SnapshotTaken { snapshot };
        old.push(record(&mut old_seq, t, decision.clone()));
        for copy in copies {
            old.push(record(&mut old_seq, t, copy));
        }
        old.push(record(&mut old_seq, t, taken.clone()));
        new.push(record(&mut new_seq, t, decision));
        new.push(record(&mut new_seq, t, taken));
    }
    let finished = TraceEvent::Finished {
        completed: 66,
        reconfigurations: 0,
        dropped_events: 0,
    };
    old.push(record(&mut old_seq, 1.0, finished.clone()));
    new.push(record(&mut new_seq, 1.0, finished));

    let text = series(&new);
    assert_eq!(series(&old), text);
    for needle in [
        "feature[SystemPower]",
        "admission:",
        "shed/admitted                            2",
        "shed/shed                                1",
        "totals: 80 offered, 66 admitted, 14 shed",
        "finished: 66 completed",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let rows = period_rows(&new);
    assert_eq!(period_rows(&old), rows);
    assert_eq!(rows.len(), 3 * 5, "{rows:#?}");
    assert!(rows[0].contains("ADMIT    shed verdict=admitted offered=20"));
    assert!(render_timeline(&new).contains("admission=\"shed\""));
    // Neither form reads as a truncated trace.
    assert!(!render_timeline(&old).contains("dropped ~~"));
    assert!(!render_timeline(&new).contains("dropped ~~"));

    // A full ring evicts `Launched` first. The snapshots still carry the
    // gate's counters, so the section and its totals survive, under an
    // unknown policy.
    let evicted = series(&new[1..]);
    for needle in [
        format!("{:<40} 2", "?/admitted"),
        format!("{:<40} 1", "?/shed"),
        "totals: 80 offered, 66 admitted, 14 shed".to_string(),
    ] {
        assert!(
            evicted.contains(&needle),
            "missing {needle:?} in:\n{evicted}"
        );
    }
    assert_eq!(period_rows(&new[1..]).len(), 3 * 5);
}
