//! Task failure containment: outcomes, policies, and verdicts.
//!
//! The DoPE executive owns every task in the nest, so a panicking
//! [`TaskBody`](crate::TaskBody) must never silently shrink the worker
//! pool or let a run report success after losing work. This module
//! defines the vocabulary the supervision layer speaks:
//!
//! * [`TaskOutcome`] — what a supervised worker reports back on its
//!   done-channel: either a normal terminal [`TaskStatus`], or a
//!   captured panic payload.
//! * [`FailurePolicy`] — what the executive does when a replica fails:
//!   abort the run, restart the replica, or degrade its degree of
//!   parallelism and keep going.
//! * [`FailureVerdict`] — the honest summary a
//!   `RunReport` carries: did the run stay clean, recover via
//!   restarts, finish degraded, or lose work outright?
//!
//! # Example
//!
//! ```
//! use dope_core::{FailurePolicy, TaskOutcome, TaskStatus};
//! use std::time::Duration;
//!
//! let policy = FailurePolicy::Restart {
//!     max_retries: 3,
//!     backoff: Duration::from_millis(10),
//! };
//! assert_eq!(policy.kind(), "restart");
//!
//! let ok = TaskOutcome::Completed(TaskStatus::Finished);
//! assert_eq!(ok.status(), Some(TaskStatus::Finished));
//! let bad = TaskOutcome::Failed { reason: "index out of bounds".into() };
//! assert_eq!(bad.status(), None);
//! ```

use std::fmt;
use std::time::Duration;

use crate::status::TaskStatus;

/// The result a supervised worker reports when it leaves an epoch.
///
/// [`TaskStatus`] stays a small `Copy` enum for the hot reporting path;
/// `TaskOutcome` is the richer, owning type carried once per worker per
/// epoch over the done-channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The body ran to a normal terminal status (finished or suspended
    /// for reconfiguration).
    Completed(TaskStatus),
    /// The body panicked; `reason` is the downcast panic payload (or a
    /// placeholder when the payload was not a string).
    Failed {
        /// Human-readable panic payload.
        reason: String,
    },
}

impl TaskOutcome {
    /// The terminal status, if the body completed normally.
    #[must_use]
    pub fn status(&self) -> Option<TaskStatus> {
        match self {
            TaskOutcome::Completed(status) => Some(*status),
            TaskOutcome::Failed { .. } => None,
        }
    }
}

impl fmt::Display for TaskOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskOutcome::Completed(status) => write!(f, "{status}"),
            TaskOutcome::Failed { reason } => write!(f, "FAILED({reason})"),
        }
    }
}

/// What the executive does when a task replica fails mid-run.
///
/// The policy is chosen by the administrator at build time (see
/// `DopeBuilder::failure_policy` in `dope-runtime`) and reported back
/// in the run's trace (`TaskFailed` events carry the policy that
/// handled them) and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum FailurePolicy {
    /// Fail fast: stop the run and return
    /// [`Error::TaskFailed`](crate::Error::TaskFailed) carrying the
    /// panic message. This is the default — losing work silently is
    /// never acceptable, so the conservative policy surfaces it loudly.
    #[default]
    Abort,
    /// Re-instantiate the failed replica in the next epoch, up to
    /// `max_retries` restarts per run, sleeping `backoff` before each
    /// relaunch. If the budget is exhausted the run aborts as under
    /// [`FailurePolicy::Abort`].
    Restart {
        /// Maximum restarts across the whole run (not per replica).
        max_retries: u32,
        /// Delay before each restart relaunch.
        backoff: Duration,
    },
    /// Drop the failed replica's degree of parallelism and continue:
    /// the next epoch runs with the failed task's extent reduced by the
    /// number of lost replicas (validated through `Config::validate`,
    /// as every configuration is). If a task loses *all* its replicas
    /// the run aborts — a pipeline with a missing stage cannot make
    /// progress.
    Degrade,
}

impl FailurePolicy {
    /// Stable lowercase tag for traces and metrics labels:
    /// `"abort"`, `"restart"`, or `"degrade"`.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            FailurePolicy::Abort => "abort",
            FailurePolicy::Restart { .. } => "restart",
            FailurePolicy::Degrade => "degrade",
        }
    }
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePolicy::Abort | FailurePolicy::Degrade => f.write_str(self.kind()),
            FailurePolicy::Restart {
                max_retries,
                backoff,
            } => write!(
                f,
                "restart(max_retries={max_retries}, backoff={:.3}s)",
                backoff.as_secs_f64()
            ),
        }
    }
}

/// The failure-handling summary of a finished run.
///
/// Ordered by severity: a verdict only moves "up" (a run that degraded
/// and later restarted reports the worst thing that happened to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum FailureVerdict {
    /// No task failed.
    #[default]
    Clean,
    /// At least one replica failed and was successfully restarted; all
    /// work was retained.
    Recovered,
    /// At least one replica failed and the run continued at reduced
    /// degree of parallelism.
    Degraded,
    /// Work was lost: a worker vanished without reporting, or the run
    /// aborted with statuses outstanding. A report carrying this
    /// verdict must not be read as clean success.
    LostWork,
}

impl FailureVerdict {
    /// Stable lowercase tag: `"clean"`, `"recovered"`, `"degraded"`,
    /// or `"lost-work"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureVerdict::Clean => "clean",
            FailureVerdict::Recovered => "recovered",
            FailureVerdict::Degraded => "degraded",
            FailureVerdict::LostWork => "lost-work",
        }
    }

    /// Merges another verdict in, keeping the more severe of the two.
    #[must_use]
    pub fn worsen(self, other: FailureVerdict) -> FailureVerdict {
        self.max(other)
    }
}

impl fmt::Display for FailureVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classifies_and_displays() {
        let ok = TaskOutcome::Completed(TaskStatus::Finished);
        assert_eq!(ok.status(), Some(TaskStatus::Finished));
        assert_eq!(ok.to_string(), "FINISHED");

        let bad = TaskOutcome::Failed {
            reason: "boom".into(),
        };
        assert_eq!(bad.status(), None);
        assert_eq!(bad.to_string(), "FAILED(boom)");
    }

    #[test]
    fn policy_default_is_abort_and_kinds_are_stable() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
        assert_eq!(FailurePolicy::Abort.kind(), "abort");
        assert_eq!(
            FailurePolicy::Restart {
                max_retries: 2,
                backoff: Duration::ZERO
            }
            .kind(),
            "restart"
        );
        assert_eq!(FailurePolicy::Degrade.kind(), "degrade");
    }

    #[test]
    fn policy_display_mentions_parameters() {
        let p = FailurePolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(250),
        };
        let text = p.to_string();
        assert!(text.contains("max_retries=3"), "{text}");
        assert!(text.contains("0.250"), "{text}");
        assert_eq!(FailurePolicy::Degrade.to_string(), "degrade");
    }

    #[test]
    fn verdicts_order_by_severity_and_worsen_monotonically() {
        assert!(FailureVerdict::Clean < FailureVerdict::Recovered);
        assert!(FailureVerdict::Recovered < FailureVerdict::Degraded);
        assert!(FailureVerdict::Degraded < FailureVerdict::LostWork);
        assert_eq!(FailureVerdict::default(), FailureVerdict::Clean);
        assert_eq!(
            FailureVerdict::Recovered.worsen(FailureVerdict::Clean),
            FailureVerdict::Recovered
        );
        assert_eq!(
            FailureVerdict::Recovered.worsen(FailureVerdict::LostWork),
            FailureVerdict::LostWork
        );
        assert_eq!(FailureVerdict::LostWork.as_str(), "lost-work");
    }
}
