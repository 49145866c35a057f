//! Admission control: what happens at the front door past saturation.
//!
//! The executive tunes the degree of parallelism *inside* the program,
//! but an open workload past saturation will grow any unbounded queue
//! (and every latency percentile with it) no matter how well the stages
//! are balanced. An [`AdmissionPolicy`] bounds the workload/runtime
//! boundary: the generator *offers* requests, and the gate decides per
//! request whether to admit, block, or shed. Admission pressure is then
//! surfaced to mechanisms as [`AdmissionStats`] inside every
//! [`MonitorSnapshot`](crate::MonitorSnapshot), so shed-aware decisions
//! can steer for goodput instead of chasing an unserviceable backlog.
//!
//! # Example
//!
//! ```
//! use dope_core::admission::AdmissionPolicy;
//!
//! let policy = AdmissionPolicy::Shed { high_water: 64 };
//! assert_eq!(policy.kind(), "shed");
//! assert!(policy.validate().is_ok());
//! assert!(AdmissionPolicy::Shed { high_water: 0 }.validate().is_err());
//! ```

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// How the front door treats offered requests when the system is full.
///
/// Selected per run via the runtime builder (or
/// `SystemParams::admission` in the simulator). `Open` is the historical
/// behaviour: every offer is admitted and queues are unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Admit everything; queues are unbounded (the pre-admission
    /// behaviour, and the default).
    #[default]
    Open,
    /// Closed-loop backpressure: an offer blocks the producer until
    /// queue occupancy drops below `capacity`. No request is lost; the
    /// *arrival process* is throttled instead.
    Block {
        /// Maximum queue occupancy before offers block.
        capacity: u32,
    },
    /// Load shedding: an offer made while occupancy is at or above
    /// `high_water` is dropped immediately with a counted verdict. The
    /// producer never blocks; admitted requests see bounded queueing.
    Shed {
        /// Occupancy at or above which offers are shed.
        high_water: u32,
    },
    /// Deadline-aware shedding: offers are always enqueued, but a
    /// request whose queue delay already exceeds `budget_secs` when a
    /// worker would pick it up is dropped instead of served — serving
    /// it would waste capacity on an answer nobody is waiting for.
    Deadline {
        /// Per-request latency budget in seconds, measured from offer
        /// to dispatch.
        budget_secs: f64,
    },
}

impl AdmissionPolicy {
    /// The stable lowercase tag this policy serializes and logs under.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            AdmissionPolicy::Open => "open",
            AdmissionPolicy::Block { .. } => "block",
            AdmissionPolicy::Shed { .. } => "shed",
            AdmissionPolicy::Deadline { .. } => "deadline",
        }
    }

    /// `true` if an offer made at queue `occupancy` is shed: `Shed` at or
    /// above its high watermark.
    ///
    /// This and [`holds`](Self::holds) and [`expired`](Self::expired) are
    /// the policy's verdicts, written once: the live gate's lock-free shed
    /// path and `Block` wait judge by them, and so does the simulator's
    /// hold-back queue.
    #[must_use]
    pub fn sheds(self, occupancy: u64) -> bool {
        matches!(self, AdmissionPolicy::Shed { high_water } if occupancy >= u64::from(high_water))
    }

    /// `true` if an offer made at queue `occupancy` must wait for a
    /// dispatch: `Block` at capacity.
    #[must_use]
    pub fn holds(self, occupancy: u64) -> bool {
        matches!(self, AdmissionPolicy::Block { capacity } if occupancy >= u64::from(capacity))
    }

    /// `true` if an admitted request that has queued `delay_secs` is
    /// dropped at dispatch instead of served: `Deadline` past its budget.
    #[must_use]
    pub fn expired(self, delay_secs: f64) -> bool {
        matches!(self, AdmissionPolicy::Deadline { budget_secs } if delay_secs > budget_secs)
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AdmissionPolicy`] (diagnostic `DV017`) for a
    /// zero `capacity` or `high_water` (the gate would admit nothing)
    /// or a non-positive / non-finite `budget_secs` (every request
    /// would miss its deadline on arrival).
    pub fn validate(self) -> Result<()> {
        match self {
            AdmissionPolicy::Open => Ok(()),
            AdmissionPolicy::Block { capacity: 0 } => Err(Error::AdmissionPolicy {
                detail: "Block admission with capacity 0 would admit nothing".to_string(),
            }),
            AdmissionPolicy::Shed { high_water: 0 } => Err(Error::AdmissionPolicy {
                detail: "Shed admission with high_water 0 would shed everything".to_string(),
            }),
            AdmissionPolicy::Deadline { budget_secs }
                if !budget_secs.is_finite() || budget_secs <= 0.0 =>
            {
                Err(Error::AdmissionPolicy {
                    detail: format!(
                        "Deadline admission budget must be positive and finite, got {budget_secs}"
                    ),
                })
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Open => f.write_str("open"),
            AdmissionPolicy::Block { capacity } => write!(f, "block(capacity={capacity})"),
            AdmissionPolicy::Shed { high_water } => write!(f, "shed(high_water={high_water})"),
            AdmissionPolicy::Deadline { budget_secs } => {
                write!(f, "deadline(budget={budget_secs}s)")
            }
        }
    }
}

/// Admission-gate counters, as surfaced in a
/// [`MonitorSnapshot`](crate::MonitorSnapshot).
///
/// All counters are cumulative since launch, so mechanisms (and the
/// flight recorder) can difference successive snapshots to see pressure
/// within a control period. An all-zero value means "no admission gate
/// installed" — the additive-schema default for pre-admission traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct AdmissionStats {
    /// Requests the workload offered to the gate.
    pub offered: u64,
    /// Offers admitted into the queue.
    pub admitted: u64,
    /// Offers shed because occupancy was at or above the high watermark.
    pub shed_high_water: u64,
    /// Admitted requests dropped at dispatch because their queue delay
    /// exceeded the deadline budget.
    pub shed_deadline: u64,
    /// Mean queue delay (offer to dispatch) of the requests dispatched
    /// so far that carried an admission stamp, in seconds — all of them
    /// in the simulators and under `Deadline`, a sample on a saturated
    /// live gate. `0.0` when none has been dispatched.
    pub mean_queue_delay_secs: f64,
}

impl AdmissionStats {
    /// Total requests dropped by the gate, across all reasons.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_high_water + self.shed_deadline
    }

    /// Fraction of offers shed, in `[0, 1]` (`0.0` before any offer).
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(AdmissionPolicy::Open.kind(), "open");
        assert_eq!(AdmissionPolicy::Block { capacity: 8 }.kind(), "block");
        assert_eq!(AdmissionPolicy::Shed { high_water: 8 }.kind(), "shed");
        assert_eq!(
            AdmissionPolicy::Deadline { budget_secs: 0.5 }.kind(),
            "deadline"
        );
    }

    #[test]
    fn default_is_open() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Open);
    }

    #[test]
    fn validation_accepts_sane_parameters() {
        assert!(AdmissionPolicy::Open.validate().is_ok());
        assert!(AdmissionPolicy::Block { capacity: 1 }.validate().is_ok());
        assert!(AdmissionPolicy::Shed { high_water: 64 }.validate().is_ok());
        assert!(AdmissionPolicy::Deadline { budget_secs: 0.25 }
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        for bad in [
            AdmissionPolicy::Block { capacity: 0 },
            AdmissionPolicy::Shed { high_water: 0 },
            AdmissionPolicy::Deadline { budget_secs: 0.0 },
            AdmissionPolicy::Deadline { budget_secs: -1.0 },
            AdmissionPolicy::Deadline {
                budget_secs: f64::NAN,
            },
        ] {
            let err = bad.validate().unwrap_err();
            assert_eq!(err.code().to_string(), "DV017", "{bad:?}");
        }
    }

    #[test]
    fn each_verdict_belongs_to_one_policy() {
        let shed = AdmissionPolicy::Shed { high_water: 4 };
        let block = AdmissionPolicy::Block { capacity: 4 };
        let deadline = AdmissionPolicy::Deadline { budget_secs: 0.5 };
        assert_eq!((shed.sheds(3), shed.sheds(4)), (false, true));
        assert_eq!((block.holds(3), block.holds(4)), (false, true));
        assert_eq!(
            (deadline.expired(0.5), deadline.expired(0.6)),
            (false, true)
        );
        for policy in [AdmissionPolicy::Open, shed, block, deadline] {
            let judged = [
                policy.sheds(u64::MAX),
                policy.holds(u64::MAX),
                policy.expired(f64::MAX),
            ];
            let expected = usize::from(policy != AdmissionPolicy::Open);
            assert_eq!(judged.iter().filter(|&&v| v).count(), expected, "{policy}");
        }
    }

    #[test]
    fn display_names_the_parameters() {
        assert_eq!(
            AdmissionPolicy::Shed { high_water: 64 }.to_string(),
            "shed(high_water=64)"
        );
        assert_eq!(
            AdmissionPolicy::Block { capacity: 32 }.to_string(),
            "block(capacity=32)"
        );
        assert_eq!(AdmissionPolicy::Open.to_string(), "open");
    }

    #[test]
    fn stats_totals_and_fractions() {
        let stats = AdmissionStats {
            offered: 100,
            admitted: 80,
            shed_high_water: 15,
            shed_deadline: 5,
            mean_queue_delay_secs: 0.01,
        };
        assert_eq!(stats.shed(), 20);
        assert!((stats.shed_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(AdmissionStats::default().shed_fraction(), 0.0);
    }
}
