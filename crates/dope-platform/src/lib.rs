//! Platform substrate for the DoPE reproduction.
//!
//! The paper evaluates DoPE natively on a 4-socket, 24-core Intel Xeon
//! X7460 machine whose power draw is sampled by an APC AP7892 power
//! distribution unit at 13 samples per minute. This crate models that
//! platform so the reproduction can run anywhere:
//!
//! * [`PowerModel`] — idle + per-active-context power with measurement
//!   noise, for any number of hardware contexts;
//! * [`PowerSensor`] — a *rate-limited* sampler over a power model,
//!   reproducing the slow-feedback control problem the paper's TPC
//!   controller faces (§8.2.3);
//! * [`FeatureRegistry`] — the mechanism-developer API of paper Figure 9:
//!   `registerCB(feature, getValueOfFeatureCB)` / `getValue(feature)`.
//!
//! # Example
//!
//! ```
//! use dope_platform::PowerModel;
//!
//! let model = PowerModel::for_contexts(24);
//! let idle = model.expected_power(0);
//! let peak = model.peak_power();
//! assert!(peak > idle);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod features;
pub mod power;

pub use features::FeatureRegistry;
pub use power::{PowerModel, PowerSensor};
