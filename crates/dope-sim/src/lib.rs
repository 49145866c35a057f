//! Discrete-event simulator of the paper's evaluation testbed.
//!
//! The paper evaluates DoPE natively on a 24-core Xeon. This crate
//! provides a faithful *model* of that testbed so the evaluation can be
//! regenerated deterministically on any machine:
//!
//! * [`system`] — the open transaction-serving system behind Figures 2 and
//!   11: Poisson arrivals into a work queue, a pool of hardware contexts,
//!   and two-level `<DoP_outer, DoP_inner>` parallel transactions whose
//!   service times come from calibrated [`profile`]s;
//! * [`pipeline`] — the stage-network model behind Figures 12–15: ferret-
//!   and dedup-style pipelines with per-stage extents, queue occupancies,
//!   task fusion, oversubscription effects, and a rate-limited power
//!   meter.
//!
//! Both models are drivers of the *same* control loop as the live
//! `dope-runtime` executive — [`dope_core::control::ControlCore`] — and
//! so of the same [`Mechanism`](dope_core::Mechanism) trait: a mechanism
//! cannot tell whether its snapshots come from the simulator or from
//! real threads, and a [`ControlSink`] hears the identical event
//! sequence either way. The simulators answer every requested drain at
//! once, with zero timing. The system model's requests wait in the live
//! runtime's admission gate too (`dope_workload::AdmissionQueue`, on
//! simulated time), and both models order their events on one
//! [`event::Agenda`].
//!
//! # Example
//!
//! ```
//! use dope_core::{Mechanism, Resources, StaticMechanism};
//! use dope_sim::profile::AmdahlProfile;
//! use dope_sim::system::{SystemParams, TwoLevelModel};
//! use dope_workload::ArrivalSchedule;
//!
//! // A transaction that takes 10 s sequentially and parallelizes well.
//! let model = TwoLevelModel::doall("price", AmdahlProfile::new(10.0, 0.95, 0.0, 0.05));
//! let mut mech = StaticMechanism::new(model.config_for_width(24, 8));
//! let schedule = ArrivalSchedule::poisson(0.5, 50, 1);
//! let outcome = dope_sim::system::run_system(
//!     &model,
//!     &schedule,
//!     &mut mech,
//!     Resources::threads(24),
//!     &SystemParams::default(),
//! );
//! assert_eq!(outcome.completed, 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod pipeline;
pub mod profile;
pub mod system;

pub use dope_core::control::{ControlSink, NullSink};
pub use event::OrdF64;
pub use profile::AmdahlProfile;

/// The control rules both models run under: proposals validate against
/// `budget`, extent-only changes of top-level leaves count as partial,
/// and — the models have no replicas to fail — the failure policy is
/// never exercised.
fn rules(budget: u32) -> dope_core::control::Rules {
    dope_core::control::Rules {
        budget,
        delta: true,
        policy: dope_core::FailurePolicy::Abort,
    }
}
