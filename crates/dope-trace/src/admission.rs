//! Turns cumulative admission counters into `AdmissionDecision` events.
//!
//! Both trace producers — the sim-side [`RecordingObserver`] and the
//! live executive in `dope-runtime` — see admission pressure the same
//! way: a cumulative [`AdmissionStats`] inside each monitor snapshot.
//! [`AdmissionSampler`] holds the policy tag and the previous sample, so
//! each call to [`sample`](AdmissionSampler::sample) can classify the
//! *window* since the last control period ("did anything get shed, and
//! why") while the emitted counters stay cumulative, matching the
//! schema contract in `docs/event-schema.md`.
//!
//! [`RecordingObserver`]: crate::RecordingObserver
//!
//! # Example
//!
//! ```
//! use dope_core::AdmissionStats;
//! use dope_trace::{AdmissionSampler, TraceEvent};
//!
//! let mut sampler = AdmissionSampler::new("shed");
//! let stats = AdmissionStats {
//!     offered: 10,
//!     admitted: 8,
//!     shed_high_water: 2,
//!     shed_deadline: 0,
//!     mean_queue_delay_secs: 0.01,
//! };
//! let Some(TraceEvent::AdmissionDecision { verdict, reason, .. }) =
//!     sampler.sample(&stats)
//! else {
//!     panic!("offered traffic must produce a sample");
//! };
//! assert_eq!(verdict, "shed");
//! assert_eq!(reason, "high_water");
//! ```

use dope_core::{AdmissionStats, Label};

use crate::event::TraceEvent;

/// Stateful window classifier for admission-gate samples.
#[derive(Debug, Clone)]
pub struct AdmissionSampler {
    policy: Label,
    last: AdmissionStats,
}

impl AdmissionSampler {
    /// Builds a sampler for a gate running `policy` (its stable
    /// lowercase tag: `"open"` / `"block"` / `"shed"` / `"deadline"`).
    #[must_use]
    pub fn new(policy: impl Into<Label>) -> Self {
        AdmissionSampler {
            policy: policy.into(),
            last: AdmissionStats::default(),
        }
    }

    /// The policy tag this sampler stamps into every event.
    #[must_use]
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Classifies the window since the previous sample and returns the
    /// `AdmissionDecision` to record, or `None` when no traffic has been
    /// offered yet (an idle gate is not worth a trace line).
    pub fn sample(&mut self, stats: &AdmissionStats) -> Option<TraceEvent> {
        if stats.offered == 0 {
            return None;
        }
        let hw = stats
            .shed_high_water
            .saturating_sub(self.last.shed_high_water);
        let dl = stats.shed_deadline.saturating_sub(self.last.shed_deadline);
        let verdict = if hw + dl > 0 { "shed" } else { "admitted" };
        // Dominant drop reason in the window; high-water wins ties
        // because it is the earlier (pre-queue) drop point.
        let reason = if hw >= dl && hw > 0 {
            "high_water"
        } else if dl > 0 {
            "deadline"
        } else {
            "none"
        };
        self.last = *stats;
        Some(TraceEvent::AdmissionDecision {
            policy: self.policy.clone(),
            verdict: verdict.to_string(),
            reason: reason.to_string(),
            queue_delay_secs: stats.mean_queue_delay_secs,
            offered: stats.offered,
            admitted: stats.admitted,
            shed: stats.shed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(offered: u64, admitted: u64, hw: u64, dl: u64) -> AdmissionStats {
        AdmissionStats {
            offered,
            admitted,
            shed_high_water: hw,
            shed_deadline: dl,
            mean_queue_delay_secs: 0.005,
        }
    }

    #[test]
    fn idle_gate_produces_no_sample() {
        let mut sampler = AdmissionSampler::new("block");
        assert!(sampler.sample(&AdmissionStats::default()).is_none());
    }

    #[test]
    fn verdict_and_reason_describe_the_window_not_the_totals() {
        let mut sampler = AdmissionSampler::new("shed");
        // First window: 2 high-water drops.
        let Some(TraceEvent::AdmissionDecision {
            verdict,
            reason,
            shed,
            ..
        }) = sampler.sample(&stats(10, 8, 2, 0))
        else {
            panic!("expected a sample");
        };
        assert_eq!(
            (verdict.as_str(), reason.as_str(), shed),
            ("shed", "high_water", 2)
        );

        // Second window: no *new* drops — verdict flips back to
        // admitted even though cumulative shed is still 2.
        let Some(TraceEvent::AdmissionDecision {
            verdict,
            reason,
            shed,
            ..
        }) = sampler.sample(&stats(20, 18, 2, 0))
        else {
            panic!("expected a sample");
        };
        assert_eq!(
            (verdict.as_str(), reason.as_str(), shed),
            ("admitted", "none", 2)
        );
    }

    #[test]
    fn deadline_drops_dominate_when_they_outnumber_high_water() {
        let mut sampler = AdmissionSampler::new("deadline");
        let Some(TraceEvent::AdmissionDecision { reason, .. }) =
            sampler.sample(&stats(10, 9, 0, 3))
        else {
            panic!("expected a sample");
        };
        assert_eq!(reason, "deadline");
    }
}
