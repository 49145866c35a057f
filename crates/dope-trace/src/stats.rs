//! Offline histogram summaries of recorded traces.
//!
//! [`summarize`] folds a parsed JSONL trace into a [`TraceSummary`]:
//! per-kind event counts plus bounded log-linear histograms
//! ([`dope_metrics::LocalHistogram`]) over every latency-like field the
//! recorder captures — per-task execution times, reconfiguration
//! pause/relaunch costs, queue occupancy and arrival rate, and platform
//! feature reads. [`TraceSummary::render`] prints them as an ASCII
//! table; this is what the `dope-trace stats` subcommand shows.
//!
//! Quantiles are within [`dope_metrics::QUANTILE_RELATIVE_ERROR`]
//! (≈ 3.1 %) of the exact sample quantiles; counts, means, and maxima
//! are exact up to the histogram's nanosecond (1e-9) value resolution.
//! Dimensionless series (occupancy, feature values) reuse the same
//! 1e-9-resolution storage — `LocalHistogram` is unit-agnostic.
//!
//! A control period is read from its `SnapshotTaken`, expanded into the
//! task, queue, power and admission rows it stands for; the copies of
//! those rows older recordings carry beside their snapshots are counted
//! under `events` and otherwise skipped, so a period feeds each series
//! once whichever way it was written (the read rule is in
//! `docs/event-schema.md`).
//!
//! Traces recorded **before** `TaskStats` grew its percentile fields
//! still summarize: the per-sample `p*_exec_secs` histograms simply
//! stay empty (the codec parses absent fields as `0.0`, and
//! [`summarize`] skips non-positive percentile samples).
//!
//! # Example
//!
//! ```
//! use dope_trace::{summarize, TraceEvent, TraceRecord};
//!
//! let records = vec![TraceRecord {
//!     seq: 0,
//!     time_secs: 1.0,
//!     event: TraceEvent::ReconfigureEpoch {
//!         pause_secs: 0.004,
//!         relaunch_secs: 0.001,
//!         jobs: 8,
//!         config: Default::default(),
//!         scope: "full".into(),
//!         paths_drained: 3,
//!     },
//! }];
//! let summary = summarize(&records);
//! assert_eq!(summary.events.get("ReconfigureEpoch"), Some(&1));
//! let text = summary.render();
//! assert!(text.contains("reconfigure.pause_secs"), "{text}");
//! ```

use crate::event::{Periods, TraceEvent, TraceRecord};
use dope_metrics::LocalHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram summaries of one parsed trace. Produced by [`summarize`].
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Events seen, by `kind` discriminator.
    pub events: BTreeMap<&'static str, u64>,
    /// Per-task-path distribution of sampled `mean_exec_secs`.
    pub task_exec_secs: BTreeMap<String, LocalHistogram>,
    /// Per-task-path distribution of sampled `p99_exec_secs` (empty for
    /// traces predating the percentile fields).
    pub task_p99_exec_secs: BTreeMap<String, LocalHistogram>,
    /// Reconfiguration pause (drain) latency.
    pub pause_secs: LocalHistogram,
    /// Reconfiguration relaunch latency.
    pub relaunch_secs: LocalHistogram,
    /// Queue occupancy, one reading per control period (dimensionless).
    pub queue_occupancy: LocalHistogram,
    /// Queue arrival rate, one reading per control period (requests/sec).
    pub queue_arrival_rate: LocalHistogram,
    /// Per-feature distribution of `FeatureRead` values (feature units).
    pub feature_values: BTreeMap<String, LocalHistogram>,
    /// Failed replicas per task path (empty for traces predating the
    /// `TaskFailed` event kind).
    pub task_failures: BTreeMap<String, u64>,
    /// Decisions per `mechanism/rationale` pair (empty for traces
    /// predating the `DecisionTraced` event kind).
    pub decision_rationales: BTreeMap<String, u64>,
    /// Absolute relative prediction error over scored decisions
    /// (dimensionless; `0.1` means the mechanism's throughput prediction
    /// was 10 % off the realized bottleneck).
    pub prediction_error_abs: LocalHistogram,
    /// Reconfiguration epochs with `scope == "partial"` (delta
    /// reconfigurations; zero for traces predating the field).
    pub partial_reconfigs: u64,
    /// `AdmissionDecision` samples per `policy/verdict` pair (empty for
    /// traces predating the admission gate).
    pub admission_verdicts: BTreeMap<String, u64>,
    /// Sampled mean queue delay (offer to dispatch) across
    /// `AdmissionDecision` events, in seconds.
    pub admission_queue_delay_secs: LocalHistogram,
    /// Final cumulative `(offered, admitted, shed)` counters from the
    /// last `AdmissionDecision` sample (`None` when the trace has none).
    pub admission_totals: Option<(u64, u64, u64)>,
    /// Requests completed, from the final `Finished` event (if any).
    pub completed: Option<u64>,
    /// Applied reconfigurations, from the final `Finished` event.
    pub reconfigurations: Option<u64>,
    /// Events dropped by the bounded recorder, from `Finished`.
    pub dropped_events: Option<u64>,
}

/// Folds `records` into histogram summaries.
#[must_use]
pub fn summarize(records: &[TraceRecord]) -> TraceSummary {
    let mut out = TraceSummary::default();
    let mut periods = Periods::of(records);
    for record in records {
        *out.events.entry(record.event.kind()).or_insert(0) += 1;
        periods.expand(&record.event, |row| out.row(row));
    }
    out
}

impl TraceSummary {
    /// Feeds one row of the trace into its series.
    fn row(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TaskStatsSample { path, stats } => {
                // Pre-percentile traces parse `p99_exec_secs` as 0.0 ("not
                // measured"); skip so old recordings stay clean.
                let feed = |series: &mut BTreeMap<String, LocalHistogram>, secs: f64| {
                    if secs > 0.0 {
                        series
                            .entry(path.to_string())
                            .or_default()
                            .record_secs(secs);
                    }
                };
                feed(&mut self.task_exec_secs, stats.mean_exec_secs);
                feed(&mut self.task_p99_exec_secs, stats.p99_exec_secs);
            }
            TraceEvent::QueueSample { queue } => {
                self.queue_occupancy.record_secs(queue.occupancy);
                self.queue_arrival_rate.record_secs(queue.arrival_rate);
            }
            TraceEvent::ReconfigureEpoch {
                pause_secs,
                relaunch_secs,
                scope,
                ..
            } => {
                self.pause_secs.record_secs(*pause_secs);
                self.relaunch_secs.record_secs(*relaunch_secs);
                if scope == "partial" {
                    self.partial_reconfigs += 1;
                }
            }
            TraceEvent::FeatureRead { feature, value } => {
                self.feature_values
                    .entry(feature.clone())
                    .or_default()
                    .record_secs(*value);
            }
            TraceEvent::TaskFailed { path, .. } => {
                *self.task_failures.entry(path.to_string()).or_insert(0) += 1;
            }
            TraceEvent::DecisionTraced {
                mechanism,
                rationale,
                prediction_error,
                ..
            } => {
                *self
                    .decision_rationales
                    .entry(format!("{mechanism}/{}", rationale.code()))
                    .or_insert(0) += 1;
                if let Some(error) = prediction_error {
                    self.prediction_error_abs.record_secs(error.abs());
                }
            }
            TraceEvent::AdmissionDecision {
                policy,
                verdict,
                queue_delay_secs,
                offered,
                admitted,
                shed,
                ..
            } => {
                *self
                    .admission_verdicts
                    .entry(format!("{policy}/{verdict}"))
                    .or_insert(0) += 1;
                if *queue_delay_secs > 0.0 {
                    self.admission_queue_delay_secs
                        .record_secs(*queue_delay_secs);
                }
                // Counters are cumulative; the last sample wins.
                self.admission_totals = Some((*offered, *admitted, *shed));
            }
            TraceEvent::Finished {
                completed,
                reconfigurations,
                dropped_events,
            } => {
                self.completed = Some(*completed);
                self.reconfigurations = Some(*reconfigurations);
                self.dropped_events = Some(*dropped_events);
            }
            TraceEvent::Launched { .. }
            | TraceEvent::SnapshotTaken { .. }
            | TraceEvent::ProposalEvaluated { .. } => {}
        }
    }

    /// Renders the summary as an ASCII table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "events:");
        for (kind, n) in &self.events {
            let _ = writeln!(out, "  {kind:<18} {n}");
        }
        let mut rows: Vec<(String, &LocalHistogram)> = Vec::new();
        for (path, hist) in &self.task_exec_secs {
            rows.push((format!("task[{path}].mean_exec_secs"), hist));
        }
        for (path, hist) in &self.task_p99_exec_secs {
            rows.push((format!("task[{path}].p99_exec_secs"), hist));
        }
        rows.push(("reconfigure.pause_secs".to_string(), &self.pause_secs));
        rows.push(("reconfigure.relaunch_secs".to_string(), &self.relaunch_secs));
        rows.push(("queue.occupancy".to_string(), &self.queue_occupancy));
        rows.push(("queue.arrival_rate".to_string(), &self.queue_arrival_rate));
        for (feature, hist) in &self.feature_values {
            rows.push((format!("feature[{feature}]"), hist));
        }
        if self.prediction_error_abs.count() > 0 {
            rows.push((
                "decision.abs_prediction_error".to_string(),
                &self.prediction_error_abs,
            ));
        }
        if self.admission_queue_delay_secs.count() > 0 {
            rows.push((
                "admission.queue_delay_secs".to_string(),
                &self.admission_queue_delay_secs,
            ));
        }
        let width = rows.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "\n{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
            "series", "count", "mean", "p50", "p95", "p99", "max"
        );
        for (name, hist) in rows {
            let _ = writeln!(
                out,
                "{name:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
                hist.count(),
                fmt_value(hist.mean_secs()),
                fmt_value(hist.quantile_secs(0.50)),
                fmt_value(hist.quantile_secs(0.95)),
                fmt_value(hist.quantile_secs(0.99)),
                fmt_value(hist.max_secs()),
            );
        }
        if !self.decision_rationales.is_empty() {
            let _ = writeln!(out, "\ndecisions:");
            for (key, n) in &self.decision_rationales {
                let _ = writeln!(out, "  {key:<40} {n}");
            }
        }
        if !self.admission_verdicts.is_empty() {
            let _ = writeln!(out, "\nadmission:");
            for (key, n) in &self.admission_verdicts {
                let _ = writeln!(out, "  {key:<40} {n}");
            }
            if let Some((offered, admitted, shed)) = self.admission_totals {
                let _ = writeln!(
                    out,
                    "  totals: {offered} offered, {admitted} admitted, {shed} shed"
                );
            }
        }
        if !self.task_failures.is_empty() {
            let _ = writeln!(out, "\nfailures:");
            for (path, n) in &self.task_failures {
                let _ = writeln!(out, "  task[{path}]  {n} failed replica(s)");
            }
        }
        if let (Some(completed), Some(reconfigs)) = (self.completed, self.reconfigurations) {
            let dropped = self.dropped_events.unwrap_or(0);
            let partial = if self.partial_reconfigs > 0 {
                format!(" ({} partial)", self.partial_reconfigs)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "\nfinished: {completed} completed, {reconfigs} reconfiguration(s){partial}, \
                 {dropped} dropped event(s)"
            );
        }
        out
    }
}

fn fmt_value(value: Option<f64>) -> String {
    match value {
        None => "-".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) if (1e-3..1e6).contains(&v.abs()) => format!("{v:.6}"),
        Some(v) => format!("{v:.3e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{QueueStats, TaskPath, TaskStats};

    fn record(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            time_secs: seq as f64 * 0.1,
            event,
        }
    }

    fn sample(path: u16, mean: f64, p99: f64) -> TraceEvent {
        TraceEvent::TaskStatsSample {
            path: TaskPath::root_child(path),
            stats: TaskStats {
                invocations: 10,
                mean_exec_secs: mean,
                p99_exec_secs: p99,
                ..TaskStats::default()
            },
        }
    }

    #[test]
    fn summarize_groups_task_samples_by_path() {
        let records = vec![
            record(0, sample(0, 0.010, 0.025)),
            record(1, sample(0, 0.020, 0.050)),
            record(2, sample(1, 0.002, 0.0)),
        ];
        let summary = summarize(&records);
        assert_eq!(summary.events.get("TaskStatsSample"), Some(&3));
        assert_eq!(summary.task_exec_secs["0"].count(), 2);
        assert_eq!(summary.task_exec_secs["1"].count(), 1);
        // p99 of 0.0 means "not measured" (pre-percentile trace).
        assert_eq!(summary.task_p99_exec_secs["0"].count(), 2);
        assert!(!summary.task_p99_exec_secs.contains_key("1"));
    }

    /// A period recorded as a snapshot, as a snapshot with the flattened
    /// copies older recordings carry beside it, or — by a probe, with no
    /// executive — as samples only, feeds every series exactly once.
    #[test]
    fn a_period_feeds_each_series_once_wherever_it_is_recorded() {
        let queue = QueueStats {
            occupancy: 12.0,
            arrival_rate: 85.0,
            enqueued: 100,
            completed: 88,
        };
        let mut snapshot = dope_core::MonitorSnapshot::at(0.5);
        snapshot.queue = queue;
        let samples: Vec<TraceEvent> = [(0, 0.010, 0.025), (1, 0.002, 0.0)]
            .into_iter()
            .map(|(path, mean, p99)| sample(path, mean, p99))
            .chain([TraceEvent::QueueSample { queue }])
            .collect();
        for event in &samples {
            if let TraceEvent::TaskStatsSample { path, stats } = event {
                snapshot.tasks.insert(path.clone(), *stats);
            }
        }
        let taken = TraceEvent::SnapshotTaken { snapshot };
        let number = |events: Vec<TraceEvent>| -> Vec<TraceRecord> {
            (0..).zip(events).map(|(seq, e)| record(seq, e)).collect()
        };
        let snapshot_only = summarize(&number(vec![taken.clone()]));
        let both_forms = summarize(&number(samples.iter().cloned().chain([taken]).collect()));
        let probe_only = summarize(&number(samples));

        assert_eq!(both_forms.events.get("TaskStatsSample"), Some(&2));
        assert_eq!(snapshot_only.events.get("TaskStatsSample"), None);
        let series = |summary: &TraceSummary| {
            let text = summary.render();
            text[text.find("series").expect("the table header")..].to_string()
        };
        assert_eq!(snapshot_only.queue_occupancy.count(), 1);
        assert_eq!(snapshot_only.task_exec_secs["0"].count(), 1);
        assert!(series(&snapshot_only).contains("task[1].mean_exec_secs"));
        assert_eq!(series(&both_forms), series(&snapshot_only));
        assert_eq!(series(&probe_only), series(&snapshot_only));
    }

    #[test]
    fn summarize_collects_reconfigure_and_queue_histograms() {
        let records = vec![
            record(
                0,
                TraceEvent::ReconfigureEpoch {
                    pause_secs: 0.004,
                    relaunch_secs: 0.001,
                    jobs: 8,
                    config: Default::default(),
                    scope: "full".into(),
                    paths_drained: 3,
                },
            ),
            record(
                3,
                TraceEvent::ReconfigureEpoch {
                    pause_secs: 0.0004,
                    relaunch_secs: 0.0001,
                    jobs: 9,
                    config: Default::default(),
                    scope: "partial".into(),
                    paths_drained: 1,
                },
            ),
            record(
                1,
                TraceEvent::QueueSample {
                    queue: QueueStats {
                        occupancy: 12.0,
                        arrival_rate: 85.0,
                        enqueued: 100,
                        completed: 88,
                    },
                },
            ),
            record(
                2,
                TraceEvent::Finished {
                    completed: 88,
                    reconfigurations: 1,
                    dropped_events: 0,
                },
            ),
        ];
        let summary = summarize(&records);
        assert_eq!(summary.pause_secs.count(), 2);
        assert_eq!(summary.relaunch_secs.count(), 2);
        assert_eq!(summary.partial_reconfigs, 1);
        assert_eq!(summary.queue_occupancy.count(), 1);
        let occ = summary.queue_occupancy.quantile_secs(0.5).unwrap();
        assert!((occ - 12.0).abs() / 12.0 < 0.04, "occupancy {occ}");
        assert_eq!(summary.completed, Some(88));
        assert_eq!(summary.reconfigurations, Some(1));
        // The finish line calls out the partial share; full-only traces
        // (see render_lists_every_series_and_the_finish_line) omit it.
        let text = summary.render();
        assert!(text.contains("1 reconfiguration(s) (1 partial)"), "{text}");
    }

    #[test]
    fn render_lists_every_series_and_the_finish_line() {
        let records = vec![
            record(0, sample(0, 0.010, 0.030)),
            record(
                1,
                TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: 612.5,
                },
            ),
            record(
                2,
                TraceEvent::Finished {
                    completed: 5,
                    reconfigurations: 0,
                    dropped_events: 2,
                },
            ),
        ];
        let text = summarize(&records).render();
        for needle in [
            "task[0].mean_exec_secs",
            "task[0].p99_exec_secs",
            "reconfigure.pause_secs",
            "queue.arrival_rate",
            "feature[SystemPower]",
            "finished: 5 completed, 0 reconfiguration(s), 2 dropped event(s)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn task_failures_are_counted_per_path_and_rendered() {
        let records = vec![
            record(
                0,
                TraceEvent::TaskFailed {
                    path: TaskPath::root_child(1),
                    reason: "boom".to_string(),
                    policy: "restart".into(),
                },
            ),
            record(
                1,
                TraceEvent::TaskFailed {
                    path: TaskPath::root_child(1),
                    reason: "boom again".to_string(),
                    policy: "restart".into(),
                },
            ),
        ];
        let summary = summarize(&records);
        assert_eq!(summary.events.get("TaskFailed"), Some(&2));
        assert_eq!(summary.task_failures["1"], 2);
        let text = summary.render();
        assert!(text.contains("failures:"), "{text}");
        assert!(text.contains("task[1]  2 failed replica(s)"), "{text}");
        // Traces without failures never print the section.
        assert!(!summarize(&[]).render().contains("failures:"));
    }

    #[test]
    fn admission_samples_are_grouped_and_totalled() {
        let records = vec![
            record(
                0,
                TraceEvent::AdmissionDecision {
                    policy: "shed".into(),
                    verdict: "admitted".to_string(),
                    reason: "none".to_string(),
                    queue_delay_secs: 0.010,
                    offered: 20,
                    admitted: 20,
                    shed: 0,
                },
            ),
            record(
                1,
                TraceEvent::AdmissionDecision {
                    policy: "shed".into(),
                    verdict: "shed".to_string(),
                    reason: "high_water".to_string(),
                    queue_delay_secs: 0.045,
                    offered: 64,
                    admitted: 50,
                    shed: 14,
                },
            ),
        ];
        let summary = summarize(&records);
        assert_eq!(summary.events.get("AdmissionDecision"), Some(&2));
        assert_eq!(summary.admission_verdicts["shed/admitted"], 1);
        assert_eq!(summary.admission_verdicts["shed/shed"], 1);
        assert_eq!(summary.admission_queue_delay_secs.count(), 2);
        // Counters are cumulative since launch; the final sample wins.
        assert_eq!(summary.admission_totals, Some((64, 50, 14)));
        let text = summary.render();
        assert!(text.contains("admission:"), "{text}");
        assert!(text.contains("shed/shed"), "{text}");
        assert!(text.contains("admission.queue_delay_secs"), "{text}");
        assert!(
            text.contains("totals: 64 offered, 50 admitted, 14 shed"),
            "{text}"
        );
        // Traces without admission samples never print the section.
        assert!(!summarize(&[]).render().contains("admission:"));
    }

    #[test]
    fn empty_trace_summarizes_to_empty_tables() {
        let summary = summarize(&[]);
        assert!(summary.events.is_empty());
        assert_eq!(summary.completed, None);
        let text = summary.render();
        assert!(text.contains("series"), "{text}");
    }
}
