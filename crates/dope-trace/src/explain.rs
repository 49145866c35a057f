//! Decision audit: renders the *why* of a trace.
//!
//! A trace's `DecisionTraced` events carry the mechanism's own account
//! of every decision: what it observed, which candidates it weighed,
//! what it chose and why (a stable [`Rationale`](dope_core::Rationale)
//! code), what throughput it predicted, and — scored one epoch later —
//! what the system actually realized. [`explain`] extracts that audit
//! trail and [`ExplainReport`] renders it for operators (or re-emits it
//! as strict JSONL for tooling).
//!
//! # Example
//!
//! ```
//! use dope_core::{DecisionCandidate, Rationale};
//! use dope_trace::{explain, TraceEvent, TraceRecord};
//!
//! let records = vec![TraceRecord {
//!     seq: 3,
//!     time_secs: 12.5,
//!     event: TraceEvent::DecisionTraced {
//!         mechanism: "WQ-Linear".into(),
//!         rationale: Rationale::OccupancyLinear,
//!         observed: vec![("occupancy".into(), 42.0)],
//!         candidates: vec![DecisionCandidate::new("width=8", 0.84).predicting(52.0)],
//!         chosen: "width=8".into(),
//!         predicted_throughput: Some(52.0),
//!         realized_throughput: Some(48.0),
//!         prediction_error: Some((52.0 - 48.0) / 48.0),
//!     },
//! }];
//! let report = explain(&records);
//! let text = report.render();
//! assert!(text.contains("OccupancyLinear"));
//! assert!(text.contains("error +8.3%"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::codec::to_jsonl;
use crate::event::{TraceEvent, TraceRecord};

/// The decision audit extracted from a trace: every `DecisionTraced`
/// record, in trace order, plus aggregate prediction-accuracy figures.
/// It borrows the records from the trace it was extracted from.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport<'a> {
    decisions: Vec<&'a TraceRecord>,
}

/// Extracts the decision audit from `records`.
///
/// Only `DecisionTraced` events contribute; a trace recorded before
/// mechanisms explained themselves (or with explanation disabled)
/// yields an empty report, which [`ExplainReport::render`] states
/// explicitly rather than printing nothing.
#[must_use]
pub fn explain(records: &[TraceRecord]) -> ExplainReport<'_> {
    ExplainReport {
        decisions: records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::DecisionTraced { .. }))
            .collect(),
    }
}

impl<'a> ExplainReport<'a> {
    /// Number of decisions in the audit.
    #[must_use]
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when the trace carried no `DecisionTraced` events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The audited records themselves, in trace order.
    #[must_use]
    pub fn decisions(&self) -> &[&'a TraceRecord] {
        &self.decisions
    }

    /// Re-emits the audited decisions as strict JSONL — the same codec
    /// as the full trace, so the output parses back with
    /// [`parse_jsonl`](crate::parse_jsonl) (sequence numbers keep their
    /// original values; the gaps are the non-decision events).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        to_jsonl(self.decisions.iter().copied())
    }

    /// Renders the audit as human-readable text: a header with scoring
    /// aggregates, one block per decision (rationale, observations,
    /// candidate table, predicted-vs-realized error), and a rationale
    /// frequency summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.decisions.is_empty() {
            out.push_str(
                "no decisions recorded: the trace carries no DecisionTraced events\n\
                 (recorded before mechanism explainability, or with a mechanism that\n\
                 does not explain itself)\n",
            );
            return out;
        }

        let mut rationales: BTreeMap<String, u64> = BTreeMap::new();
        let mut scored = 0usize;
        let mut abs_sum = 0.0f64;
        let mut worst: Option<(f64, f64)> = None; // (|error|, time)
        for record in &self.decisions {
            let TraceEvent::DecisionTraced {
                mechanism,
                rationale,
                prediction_error,
                ..
            } = &record.event
            else {
                continue;
            };
            *rationales
                .entry(format!("{mechanism}/{}", rationale.code()))
                .or_insert(0) += 1;
            if let Some(error) = prediction_error {
                scored += 1;
                abs_sum += error.abs();
                if worst.is_none_or(|(w, _)| error.abs() > w) {
                    worst = Some((error.abs(), record.time_secs));
                }
            }
        }

        let _ = writeln!(out, "decision audit: {} decision(s)", self.decisions.len());
        if scored > 0 {
            let mean = abs_sum / scored as f64;
            let _ = write!(
                out,
                "  scored: {scored}/{}  mean |error| {:.1}%",
                self.decisions.len(),
                mean * 100.0
            );
            if let Some((w, at)) = worst {
                let _ = write!(out, "  worst {:.1}% at {at:.3}s", w * 100.0);
            }
            out.push('\n');
        } else {
            let _ = writeln!(
                out,
                "  scored: 0/{} (no decision carried both a prediction and a follow-up snapshot)",
                self.decisions.len()
            );
        }
        out.push('\n');

        for record in &self.decisions {
            let TraceEvent::DecisionTraced {
                mechanism,
                rationale,
                observed,
                candidates,
                chosen,
                predicted_throughput,
                realized_throughput,
                prediction_error,
            } = &record.event
            else {
                continue;
            };
            let _ = writeln!(
                out,
                "[{:>9.3}s] {mechanism}  {}  chosen \"{chosen}\"",
                record.time_secs,
                rationale.code()
            );
            if !observed.is_empty() {
                let pairs: Vec<String> = observed
                    .iter()
                    .map(|(signal, value)| format!("{signal}={value:.2}"))
                    .collect();
                let _ = writeln!(out, "    observed   {}", pairs.join("  "));
            }
            for candidate in candidates {
                let marker = if candidate.action == *chosen {
                    "->"
                } else {
                    "  "
                };
                let _ = write!(
                    out,
                    "    {marker} {:<32} score {:>8.3}",
                    candidate.action, candidate.score
                );
                if let Some(p) = candidate.predicted_throughput {
                    let _ = write!(out, "  predicted {p:.2}/s");
                }
                out.push('\n');
            }
            let mut tail = String::new();
            if let Some(p) = predicted_throughput {
                let _ = write!(tail, "predicted {p:.2}/s");
            }
            if let Some(r) = realized_throughput {
                if !tail.is_empty() {
                    tail.push_str("  ");
                }
                let _ = write!(tail, "realized {r:.2}/s");
            }
            if let Some(e) = prediction_error {
                if !tail.is_empty() {
                    tail.push_str("  ");
                }
                let _ = write!(tail, "error {:+.1}%", e * 100.0);
            }
            if !tail.is_empty() {
                let _ = writeln!(out, "    {tail}");
            }
        }

        out.push('\n');
        out.push_str("rationales:\n");
        let width = rationales.keys().map(String::len).max().unwrap_or(0);
        for (key, count) in &rationales {
            let _ = writeln!(out, "  {key:<width$}  {count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{DecisionCandidate, Rationale};

    fn decision(
        seq: u64,
        time_secs: f64,
        rationale: Rationale,
        predicted: Option<f64>,
        realized: Option<f64>,
    ) -> TraceRecord {
        let prediction_error = match (predicted, realized) {
            (Some(p), Some(r)) if r > 0.0 => Some((p - r) / r),
            _ => None,
        };
        TraceRecord {
            seq,
            time_secs,
            event: TraceEvent::DecisionTraced {
                mechanism: "WQ-Linear".into(),
                rationale,
                observed: vec![("occupancy".into(), 42.0)],
                candidates: vec![
                    DecisionCandidate::new("width=8", 0.84).predicting(52.0),
                    DecisionCandidate::new("hold", 0.0),
                ],
                chosen: "width=8".into(),
                predicted_throughput: predicted,
                realized_throughput: realized,
                prediction_error,
            },
        }
    }

    #[test]
    fn empty_trace_says_so_explicitly() {
        let report = explain(&[]);
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
        assert!(report.render().contains("no decisions recorded"));
    }

    #[test]
    fn non_decision_events_are_ignored() {
        let records = vec![TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Finished {
                completed: 1,
                reconfigurations: 0,
                dropped_events: 0,
            },
        }];
        assert!(explain(&records).is_empty());
    }

    #[test]
    fn render_carries_rationale_candidates_and_error() {
        let records = vec![
            decision(0, 1.0, Rationale::OccupancyLinear, Some(52.0), Some(48.0)),
            decision(1, 2.0, Rationale::Hold, Some(50.0), None),
        ];
        let text = explain(&records).render();
        assert!(text.contains("decision audit: 2 decision(s)"), "{text}");
        assert!(text.contains("scored: 1/2"), "{text}");
        assert!(text.contains("WQ-Linear/OccupancyLinear"), "{text}");
        assert!(text.contains("WQ-Linear/Hold"), "{text}");
        // The chosen candidate is marked, the other is not.
        assert!(text.contains("-> width=8"), "{text}");
        assert!(text.contains("   hold"), "{text}");
        assert!(text.contains("error +8.3%"), "{text}");
        assert!(text.contains("observed   occupancy=42.00"), "{text}");
    }

    #[test]
    fn jsonl_reemission_parses_back_through_the_strict_codec() {
        let records = vec![
            TraceRecord {
                seq: 0,
                time_secs: 0.0,
                event: TraceEvent::Finished {
                    completed: 0,
                    reconfigurations: 0,
                    dropped_events: 0,
                },
            },
            decision(7, 1.5, Rationale::ThresholdCrossed, Some(10.0), Some(12.0)),
        ];
        let report = explain(&records);
        let jsonl = report.to_jsonl();
        let parsed = crate::parse_jsonl(&jsonl).expect("strict round-trip");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], *report.decisions()[0]);
    }
}
