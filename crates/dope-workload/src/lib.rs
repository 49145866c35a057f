//! Workload substrate for the DoPE reproduction.
//!
//! The paper simulates user requests "using a task queuing thread that
//! enqueues tasks to a work queue according to a Poisson distribution"
//! (§8.2); the *load factor* is the average arrival rate divided by the
//! maximum throughput sustainable by the system. This crate provides that
//! machinery:
//!
//! * [`PoissonProcess`] and [`ArrivalSchedule`] — seeded, reproducible
//!   open-workload arrival processes;
//! * [`AdmissionQueue`] — the one work queue: a thread-safe FIFO with the
//!   close-to-drain idiom the paper's `FiniCB` callbacks implement, behind
//!   an admission gate (open / block / shed / deadline);
//! * [`WorkQueue`] — that queue with the gate open, as stages use it;
//! * [`ResponseStats`], [`TimeSeries`] — the measurements behind every
//!   figure in the evaluation.
//!
//! # Example
//!
//! ```
//! use dope_workload::{ArrivalSchedule, ResponseStats};
//!
//! // 500 requests at load factor 0.8 against a system whose max
//! // throughput is 2 requests/second.
//! let schedule = ArrivalSchedule::poisson(0.8 * 2.0, 500, 42);
//! assert_eq!(schedule.len(), 500);
//!
//! let mut stats = ResponseStats::new();
//! stats.record(1.5);
//! stats.record(2.5);
//! assert_eq!(stats.mean(), Some(2.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod arrivals;
mod handoff;
pub mod queue;
pub mod stats;

pub use admission::{AdmissionQueue, OfferOutcome};
pub use arrivals::{ArrivalSchedule, PoissonProcess};
pub use queue::{DequeueOutcome, WorkQueue};
pub use stats::{ResponseStats, TimeSeries};
