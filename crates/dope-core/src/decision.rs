//! Decision audit: what a mechanism saw, weighed, chose — and why.
//!
//! Mechanisms make their choices from private internal state (EWMA
//! streams, hysteresis streaks, hill-climb phases), so by the time a
//! configuration lands in a trace the *reasoning* behind it is gone.
//! A [`DecisionTrace`] is the mechanism's own account of one
//! `reconfigure` call: the signals it read, the candidate actions it
//! scored, the one it chose, a stable [`Rationale`] code, and — when its
//! model supports one — a predicted throughput the executive can score
//! against the realized value one epoch later.
//!
//! The trait hook is [`crate::Mechanism::explain`]; the executive and the
//! simulator observers pick the trace up after every `reconfigure` call
//! and publish it as a `DecisionTraced` trace event plus
//! `dope_mechanism_prediction_error` / `dope_decision_rationale_total`
//! metrics.

use crate::label::Label;

catalogue! {
    /// Stable machine-readable reason codes for mechanism decisions.
    ///
    /// Codes are part of the trace contract (`docs/event-schema.md`): they
    /// may be added, never renamed or removed. Each code names the dominant
    /// clause of the mechanism's decision logic, not the outcome — two
    /// different configurations can share a rationale, and a "hold" (no
    /// proposal) carries one too.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum Rationale {
        /// Work-queue occupancy mapped through the linear width law (Eq. 2).
        OccupancyLinear,
        /// A width change is pending until it persists past the hysteresis
        /// window.
        HysteresisPending,
        /// Occupancy crossed the sequential/parallel threshold for long
        /// enough to flip the mode.
        ThresholdCrossed,
        /// The occupancy landed in a configured oracle table row.
        OracleLookup,
        /// Extents rebalanced proportionally to measured stage service times.
        ThroughputBalance,
        /// Stage imbalance exceeded the fusion threshold; switching to the
        /// fused pipeline alternative.
        ImbalanceFusion,
        /// A stage queue rose above its high watermark.
        QueueAboveHighWater,
        /// A stage queue fell below its low watermark.
        QueueBelowLowWater,
        /// Hill climber probing a neighbouring configuration.
        HillClimbProbe,
        /// The probed configuration beat the baseline; keeping it.
        KeepBetterMove,
        /// The probed configuration lost to the baseline; reverting.
        RevertWorseMove,
        /// The search converged; holding the current configuration.
        Converged,
        /// The power budget binds: capping or shedding parallelism.
        PowerCapBinding,
        /// Power headroom exists: growing within the budget.
        PowerHeadroomGrow,
        /// The power signal has not refreshed since the last decision;
        /// holding rather than acting on stale data.
        PowerSignalStale,
        /// Waiting out a settle tick after a reconfiguration.
        SettleWait,
        /// A static mechanism restoring its pinned configuration.
        Pinned,
        /// The admission gate is shedding offers; steering capacity toward
        /// goodput for the admitted requests rather than chasing an
        /// unserviceable backlog.
        AdmissionShedding,
        /// No clause fired; holding the current configuration.
        Hold,
    }
    fn code;
}

impl Rationale {
    /// Parses a stable code back into a rationale.
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rationale> {
        Rationale::ALL.into_iter().find(|r| r.code() == code)
    }
}

impl std::fmt::Display for Rationale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One candidate action a mechanism weighed before choosing.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionCandidate {
    /// Human-readable action label, e.g. `"width=6"` or
    /// `"grow 0.2 -> 5"`. Stable enough to grep, not a wire format.
    pub action: Label,
    /// The mechanism's internal score for this candidate (higher is
    /// better unless the mechanism documents otherwise).
    pub score: f64,
    /// Predicted steady-state throughput (items/sec) under this
    /// candidate, or `None` when the mechanism has no model for it.
    pub predicted_throughput: Option<f64>,
}

impl DecisionCandidate {
    /// A candidate with an action label and score, no throughput model.
    #[must_use]
    pub fn new(action: impl Into<Label>, score: f64) -> Self {
        DecisionCandidate {
            action: action.into(),
            score,
            predicted_throughput: None,
        }
    }

    /// Sets the predicted throughput (`None`: no model for it).
    #[must_use]
    pub fn predicting(mut self, throughput: impl Into<Option<f64>>) -> Self {
        self.predicted_throughput = throughput.into();
        self
    }
}

/// A mechanism's account of its most recent `reconfigure` call.
///
/// Built by the mechanism from its real internal state and returned by
/// [`crate::Mechanism::explain`]. The executive attaches it to the
/// decision loop as a `DecisionTraced` trace event and scores
/// `predicted_throughput` against the realized throughput one epoch
/// later.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTrace {
    /// The dominant clause of the decision logic.
    pub rationale: Rationale,
    /// Named signals the mechanism actually read from the snapshot
    /// (occupancy, per-stage loads, power, ...), in read order.
    pub observed: Vec<(Label, f64)>,
    /// The candidate actions weighed, with scores.
    pub candidates: Vec<DecisionCandidate>,
    /// Label of the chosen action (matches a candidate's `action` when
    /// candidates are listed; `"hold"` for no-change decisions).
    pub chosen: Label,
    /// Predicted steady-state throughput (items/sec) under the chosen
    /// action, or `None` when unmodelled. This is the value the
    /// executive scores one epoch later.
    pub predicted_throughput: Option<f64>,
}

impl DecisionTrace {
    /// A trace with a rationale and chosen-action label; signals,
    /// candidates, and the prediction are filled in with the builders.
    #[must_use]
    pub fn new(rationale: Rationale, chosen: impl Into<Label>) -> Self {
        DecisionTrace {
            rationale,
            observed: Vec::new(),
            candidates: Vec::new(),
            chosen: chosen.into(),
            predicted_throughput: None,
        }
    }

    /// Appends one observed signal.
    #[must_use]
    pub fn observing(mut self, signal: impl Into<Label>, value: f64) -> Self {
        self.observed.push((signal.into(), value));
        self
    }

    /// Appends one weighed candidate.
    #[must_use]
    pub fn candidate(mut self, candidate: DecisionCandidate) -> Self {
        self.candidates.push(candidate);
        self
    }

    /// Sets the predicted throughput for the chosen action (`None`: no
    /// model, nothing to score).
    #[must_use]
    pub fn predicting(mut self, throughput: impl Into<Option<f64>>) -> Self {
        self.predicted_throughput = throughput.into();
        self
    }

    /// The relative error of the prediction against the `realized`
    /// throughput (positive = promised more than was realized); `None`
    /// when either side is missing or nothing ran.
    #[must_use]
    pub fn prediction_error(&self, realized: Option<f64>) -> Option<f64> {
        match (self.predicted_throughput, realized) {
            (Some(predicted), Some(realized)) if realized > 0.0 => {
                Some((predicted - realized) / realized)
            }
            _ => None,
        }
    }
}

/// The realized throughput a prediction is scored against: the
/// bottleneck (minimum) per-task throughput across tasks that actually
/// ran since the last reconfiguration. Live and in the pipeline
/// simulator each task's throughput is its completions over the last
/// control period; in the system simulator, which consults on every
/// arrival, it is the completions of the trailing 60 s.
///
/// In steady state every stage of a pipeline passes the same items, so
/// the minimum per-stage rate approximates the end-to-end rate — the
/// same quantity the balance mechanisms predict with the bottleneck law.
/// Returns `None` when no task has both invocations and a positive
/// measured throughput (nothing ran; there is nothing to score).
#[must_use]
pub fn realized_throughput(snap: &crate::metrics::MonitorSnapshot) -> Option<f64> {
    snap.tasks
        .values()
        .filter(|s| s.invocations > 0 && s.throughput > 0.0)
        .map(|s| s.throughput)
        .min_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MonitorSnapshot, TaskStats};
    use crate::path::TaskPath;

    #[test]
    fn rationale_codes_round_trip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rationale::ALL {
            assert!(seen.insert(r.code()), "duplicate code {}", r.code());
            assert_eq!(Rationale::from_code(r.code()), Some(r));
            assert!(r.code().chars().all(|c| c.is_ascii_alphanumeric()));
        }
        assert_eq!(Rationale::from_code("NotACode"), None);
    }

    #[test]
    fn builders_accumulate() {
        let trace = DecisionTrace::new(Rationale::OccupancyLinear, "width=6")
            .observing("queue_occupancy", 3.5)
            .candidate(DecisionCandidate::new("width=5", 0.5).predicting(40.0))
            .candidate(DecisionCandidate::new("width=6", 0.9).predicting(48.0))
            .predicting(48.0);
        assert_eq!(trace.observed.len(), 1);
        assert_eq!(trace.candidates.len(), 2);
        assert_eq!(trace.predicted_throughput, Some(48.0));
        assert_eq!(trace.candidates[1].predicted_throughput, Some(48.0));
    }

    #[test]
    fn realized_throughput_is_the_bottleneck_of_live_tasks() {
        let mut snap = MonitorSnapshot::at(1.0);
        assert_eq!(realized_throughput(&snap), None);
        for (i, (inv, tput)) in [(100, 8.0), (100, 5.0), (0, 1.0), (100, 0.0)]
            .into_iter()
            .enumerate()
        {
            snap.tasks.insert(
                TaskPath::root_child(0).child(u16::try_from(i).unwrap()),
                TaskStats {
                    invocations: inv,
                    throughput: tput,
                    ..TaskStats::default()
                },
            );
        }
        // Idle (0 invocations) and unmeasured (0 throughput) tasks are
        // excluded; the bottleneck of the live ones is 5.0.
        assert_eq!(realized_throughput(&snap), Some(5.0));
    }
}
