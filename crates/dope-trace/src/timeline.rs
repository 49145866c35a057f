//! ASCII rendering of a trace as a human-readable timeline.
//!
//! One row becomes one line: a right-aligned timestamp, an upper-case
//! event tag, and the fields an operator scans for. A control period's
//! snapshot renders as the rows it stands for — `ADMIT` (a gate that saw
//! traffic), `FEATURE` (its power reading), `SNAPSHOT`, a `STATS` line
//! per task row and its `QUEUE` — all at its time, by the rule in
//! `docs/event-schema.md` ("Reading a period"). Sequence gaps (events the
//! bounded ring evicted) render as an explicit `~~ n dropped ~~` marker so
//! a reader never mistakes a truncated trace for a quiet one; derived
//! rows are never a gap.
//!
//! # Example
//!
//! ```
//! use dope_trace::{render_timeline, TraceEvent, TraceRecord};
//!
//! let records = vec![TraceRecord {
//!     seq: 0,
//!     time_secs: 0.25,
//!     event: TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: 612.5,
//!     },
//! }];
//! let timeline = render_timeline(&records);
//! assert!(timeline.contains("FEATURE"));
//! assert!(timeline.contains("SystemPower=612.5"));
//! ```

use std::fmt::Write as _;

use crate::event::{Periods, TraceEvent, TraceRecord, Verdict};

/// Renders `records` as an ASCII timeline, one line per row.
#[must_use]
pub fn render_timeline(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    let mut periods = Periods::of(records);
    let mut expected_seq: Option<u64> = None;
    for record in records {
        if let Some(expected) = expected_seq {
            if record.seq > expected {
                let _ = writeln!(out, "          ~~ {} dropped ~~", record.seq - expected);
            }
        }
        expected_seq = Some(record.seq + 1);
        periods.expand(&record.event, |row| {
            let _ = writeln!(out, "{:>9.3}s  {}", record.time_secs, describe(row));
        });
    }
    out
}

/// One-line description of an event, tag first.
fn describe(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Launched {
            mechanism,
            goal,
            threads,
            shape,
            config,
            admission,
        } => format!(
            "LAUNCH   {mechanism} goal=\"{goal}\" admission=\"{admission}\" threads={threads} \
             tasks={} config={config}",
            shape.leaf_paths().len()
        ),
        TraceEvent::SnapshotTaken { snapshot } => {
            let power = snapshot
                .power_watts
                .map_or_else(|| "-".to_string(), |w| format!("{w:.1}W"));
            format!(
                "SNAPSHOT tasks={} queue={:.1} power={power} dispatches={}",
                snapshot.tasks.len(),
                snapshot.queue.occupancy,
                snapshot.dispatches_since_reconfig
            )
        }
        TraceEvent::TaskStatsSample { path, stats } => format!(
            "STATS    {path} invocations={} exec={:.4}s thr={:.2}/s load={:.2} util={:.2}",
            stats.invocations, stats.mean_exec_secs, stats.throughput, stats.load, stats.utilization
        ),
        TraceEvent::ProposalEvaluated {
            mechanism,
            proposal,
            verdict,
        } => {
            let judged = match verdict {
                Verdict::Accepted => "ACCEPTED".to_string(),
                Verdict::Unchanged => "unchanged".to_string(),
                Verdict::Rejected { code } => format!("REJECTED {}", code.as_str()),
                Verdict::Superseded => "SUPERSEDED".to_string(),
            };
            format!("PROPOSE  {mechanism} -> {judged} proposal={proposal}")
        }
        TraceEvent::ReconfigureEpoch {
            pause_secs,
            relaunch_secs,
            jobs,
            config,
            scope,
            paths_drained,
        } => format!(
            "EPOCH    {scope} pause={:.1}ms relaunch={:.1}ms drained={paths_drained} \
             jobs={jobs} config={config}",
            pause_secs * 1e3,
            relaunch_secs * 1e3
        ),
        TraceEvent::FeatureRead { feature, value } => format!("FEATURE  {feature}={value}"),
        TraceEvent::QueueSample { queue } => format!(
            "QUEUE    occupancy={:.1} rate={:.2}/s enqueued={} completed={}",
            queue.occupancy, queue.arrival_rate, queue.enqueued, queue.completed
        ),
        TraceEvent::TaskFailed {
            path,
            reason,
            policy,
        } => format!("FAILED   {path} policy={policy} reason=\"{reason}\""),
        TraceEvent::DecisionTraced {
            mechanism,
            rationale,
            candidates,
            chosen,
            predicted_throughput,
            realized_throughput,
            prediction_error,
            ..
        } => {
            let mut line = format!(
                "DECIDE   {mechanism} rationale={} chosen=\"{chosen}\" candidates={}",
                rationale.code(),
                candidates.len()
            );
            if let Some(p) = predicted_throughput {
                let _ = write!(line, " predicted={p:.2}/s");
            }
            if let Some(r) = realized_throughput {
                let _ = write!(line, " realized={r:.2}/s");
            }
            if let Some(e) = prediction_error {
                let _ = write!(line, " error={:+.1}%", e * 100.0);
            }
            line
        }
        TraceEvent::AdmissionDecision {
            policy,
            verdict,
            reason,
            queue_delay_secs,
            offered,
            admitted,
            shed,
        } => {
            let mut line = format!(
                "ADMIT    {policy} verdict={verdict} offered={offered} admitted={admitted} \
                 shed={shed} delay={:.1}ms",
                queue_delay_secs * 1e3
            );
            if reason != "none" {
                let _ = write!(line, " reason={reason}");
            }
            line
        }
        TraceEvent::Finished {
            completed,
            reconfigurations,
            dropped_events,
        } => format!(
            "FINISH   completed={completed} reconfigurations={reconfigurations} dropped={dropped_events}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::DiagCode;
    use dope_core::{Config, QueueStats, TaskConfig, TaskPath};

    fn record(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            time_secs: seq as f64,
            event,
        }
    }

    #[test]
    fn every_kind_renders_its_tag() {
        let config = std::sync::Arc::new(Config::new(vec![TaskConfig::leaf("t", 1)]));
        let lines = render_timeline(&[
            record(
                0,
                TraceEvent::ProposalEvaluated {
                    mechanism: "WQ-Linear".into(),
                    proposal: config.clone(),
                    verdict: Verdict::Rejected {
                        code: DiagCode::BudgetExceeded,
                    },
                },
            ),
            record(
                1,
                TraceEvent::ProposalEvaluated {
                    mechanism: "WQ-Linear".into(),
                    proposal: config.clone(),
                    verdict: Verdict::Superseded,
                },
            ),
            record(
                2,
                TraceEvent::ReconfigureEpoch {
                    pause_secs: 0.0012,
                    relaunch_secs: 0.0008,
                    jobs: 8,
                    config: config.clone(),
                    scope: "full".into(),
                    paths_drained: 3,
                },
            ),
            record(
                3,
                TraceEvent::ReconfigureEpoch {
                    pause_secs: 0.0002,
                    relaunch_secs: 0.0001,
                    jobs: 9,
                    config,
                    scope: "partial".into(),
                    paths_drained: 1,
                },
            ),
        ]);
        assert!(lines.contains("PROPOSE"), "{lines}");
        assert!(lines.contains("REJECTED DV001"), "{lines}");
        assert!(lines.contains("SUPERSEDED"), "{lines}");
        assert!(lines.contains("EPOCH"), "{lines}");
        assert!(lines.contains("full pause=1.2ms"), "{lines}");
        assert!(lines.contains("drained=3"), "{lines}");
        assert!(lines.contains("partial pause=0.2ms"), "{lines}");
        assert!(lines.contains("drained=1"), "{lines}");
    }

    /// A snapshot renders its rows; sample records are rendered only by
    /// a trace that has no snapshot to read them from, and skipping them
    /// never reads as a dropped event.
    #[test]
    fn a_period_renders_its_rows_once_wherever_it_is_recorded() {
        let stats = dope_core::TaskStats {
            invocations: 7,
            mean_exec_secs: 0.0125,
            ..dope_core::TaskStats::default()
        };
        let queue = QueueStats {
            occupancy: 12.0,
            ..QueueStats::default()
        };
        let path: TaskPath = "0.1".parse().unwrap();
        let mut snapshot = dope_core::MonitorSnapshot::at(1.0);
        snapshot.tasks.insert(path.clone(), stats);
        snapshot.queue = queue;
        let samples = [
            record(0, TraceEvent::TaskStatsSample { path, stats }),
            record(1, TraceEvent::QueueSample { queue }),
        ];
        let taken = record(2, TraceEvent::SnapshotTaken { snapshot });
        let rows = |lines: &str| -> Vec<String> {
            lines
                .lines()
                .filter(|line| line.contains("STATS") || line.contains("QUEUE"))
                .map(|line| line.split_once("s  ").expect("a timestamp").1.to_string())
                .collect()
        };

        let probe_only = render_timeline(&samples);
        let taken = [taken];
        let both_forms = render_timeline(&[&samples[..], &taken[..]].concat());
        let snapshot_only = render_timeline(&taken);
        assert_eq!(rows(&snapshot_only).len(), 2, "{snapshot_only}");
        assert!(snapshot_only.contains("STATS    0.1 invocations=7"));
        assert!(snapshot_only.contains("QUEUE    occupancy=12.0"));
        assert_eq!(rows(&both_forms), rows(&snapshot_only));
        assert_eq!(rows(&probe_only), rows(&snapshot_only));
        assert!(!both_forms.contains("dropped"), "{both_forms}");
    }

    #[test]
    fn task_failures_render_path_policy_and_reason() {
        let lines = render_timeline(&[record(
            0,
            TraceEvent::TaskFailed {
                path: "0.1".parse().unwrap(),
                reason: "index out of bounds".to_string(),
                policy: "degrade".into(),
            },
        )]);
        assert!(lines.contains("FAILED"), "{lines}");
        assert!(lines.contains("0.1"), "{lines}");
        assert!(lines.contains("policy=degrade"), "{lines}");
        assert!(lines.contains("index out of bounds"), "{lines}");
    }

    #[test]
    fn admission_decisions_render_counters_and_reason() {
        let lines = render_timeline(&[
            record(
                0,
                TraceEvent::AdmissionDecision {
                    policy: "shed".into(),
                    verdict: "shed".to_string(),
                    reason: "high_water".to_string(),
                    queue_delay_secs: 0.0425,
                    offered: 64,
                    admitted: 50,
                    shed: 14,
                },
            ),
            record(
                1,
                TraceEvent::AdmissionDecision {
                    policy: "block".into(),
                    verdict: "admitted".to_string(),
                    reason: "none".to_string(),
                    queue_delay_secs: 0.002,
                    offered: 10,
                    admitted: 10,
                    shed: 0,
                },
            ),
        ]);
        assert!(lines.contains("ADMIT"), "{lines}");
        assert!(lines.contains("shed verdict=shed"), "{lines}");
        assert!(lines.contains("offered=64"), "{lines}");
        assert!(lines.contains("reason=high_water"), "{lines}");
        assert!(lines.contains("delay=42.5ms"), "{lines}");
        // A fully-admitted window omits the reason field entirely.
        assert!(lines.contains("block verdict=admitted"), "{lines}");
        assert!(!lines.contains("reason=none"), "{lines}");
    }

    #[test]
    fn sequence_gaps_render_a_drop_marker() {
        let lines = render_timeline(&[
            record(
                0,
                TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: 1.0,
                },
            ),
            record(
                5,
                TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: 2.0,
                },
            ),
        ]);
        assert!(lines.contains("~~ 4 dropped ~~"), "{lines}");
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(render_timeline(&[]), "");
    }
}
