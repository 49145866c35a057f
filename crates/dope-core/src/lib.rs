//! Core types of the DoPE API.
//!
//! DoPE (the *Degree of Parallelism Executive*, Raman et al., PLDI 2011)
//! separates the concern of **exposing** parallelism from the concern of
//! **optimizing** it. This crate defines the vocabulary shared by the three
//! agents the paper identifies:
//!
//! * the **application developer** declares the parallelism structure of a
//!   program once, as a tree of [`TaskSpec`]s whose behaviour is given by
//!   [`TaskBody`] implementations (the paper's *functors*);
//! * the **mechanism developer** implements [`Mechanism`]s that map a
//!   [`MonitorSnapshot`] of run-time facts to a new parallelism
//!   [`Config`]uration;
//! * the **administrator** states a performance [`Goal`] together with
//!   [`Resources`] constraints (threads, watts).
//!
//! The actual executors live elsewhere: `dope-runtime` runs task trees on a
//! real thread pool, while `dope-sim` replays the same mechanisms inside a
//! discrete-event model of a larger machine. Both speak the types defined
//! here, so a mechanism cannot tell which world it is driving.
//!
//! # Example
//!
//! Declaring the two-level video-transcoding loop nest from the paper's
//! running example (outer loop over videos, inner three-stage pipeline):
//!
//! ```
//! use dope_core::{Config, ParKind, TaskConfig};
//!
//! // <DoP_outer, DoP_inner> = <(3, DOALL), (8, PIPE)>: three concurrent
//! // transcodes, each an 8-thread pipeline (1 read + 6 transform + 1 write).
//! let config = Config::new(vec![TaskConfig::nest(
//!     "transcode",
//!     3,
//!     0,
//!     vec![
//!         TaskConfig::leaf("read", 1),
//!         TaskConfig::leaf("transform", 6),
//!         TaskConfig::leaf("write", 1),
//!     ],
//! )]);
//! assert_eq!(config.total_threads(), 24);
//! assert_eq!(config.kind_of(&"0".parse().unwrap()), Some(ParKind::Pipe));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Declares a fieldless enum that is a stable catalogue of codes, each
/// variant written once: the enum, `ALL` (every variant, in declaration
/// order) and `fn $code`, the `&'static str` code a variant serializes
/// under — its `= "CODE"` when given, its name otherwise.
macro_rules! catalogue {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$doc:meta])* $variant:ident $(= $text:literal)?,)+
        }
        fn $code:ident;
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$doc])* $variant,)+
        }

        impl $name {
            /// Every catalogued variant, in declaration order.
            pub const ALL: [$name; [$(stringify!($variant)),+].len()] = [$($name::$variant),+];

            /// The stable code this variant serializes under.
            #[must_use]
            pub fn $code(self) -> &'static str {
                match self {
                    $($name::$variant => catalogue!(@code $variant $($text)?),)+
                }
            }
        }
    };
    (@code $variant:ident $text:literal) => { $text };
    (@code $variant:ident) => { stringify!($variant) };
}

pub mod admission;
pub mod config;
pub mod control;
pub mod decision;
pub mod diag;
pub mod error;
pub mod ewma;
pub mod failure;
pub mod goal;
pub mod json;
pub mod label;
pub mod mechanism;
pub mod metrics;
pub mod nest;
pub mod path;
pub mod shape;
pub mod spec;
pub mod status;
pub mod task;

pub use admission::{AdmissionPolicy, AdmissionStats};
pub use config::{Config, NestConfig, TaskConfig};
pub use control::{ControlCore, ControlSink, Verdict};
pub use decision::{realized_throughput, DecisionCandidate, DecisionTrace, Rationale};
pub use diag::{DiagCode, Diagnostic, Finding, Severity};
pub use error::{Error, Result};
pub use ewma::Ewma;
pub use failure::{FailurePolicy, FailureVerdict, TaskOutcome};
pub use goal::Goal;
pub use label::Label;
pub use mechanism::{Mechanism, Resources, StaticMechanism};
pub use metrics::{MonitorSnapshot, QueueStats, TaskStats, TaskTable};
pub use path::TaskPath;
pub use shape::{ParKind, ProgramShape, ShapeNode};
pub use spec::{BodyFactory, NestFactory, TaskKind, TaskSpec, Work, WorkerSlot};
pub use status::{Directive, TaskStatus};
pub use task::{body_fn, FnBody, ParkedQueue, TaskBody, TaskCx};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::{
        body_fn, AdmissionPolicy, AdmissionStats, Config, DecisionTrace, Directive, FailurePolicy,
        FailureVerdict, Goal, Mechanism, MonitorSnapshot, ParKind, ProgramShape, Rationale,
        Resources, ShapeNode, TaskBody, TaskConfig, TaskCx, TaskKind, TaskOutcome, TaskPath,
        TaskSpec, TaskStats, TaskStatus, Work, WorkerSlot,
    };
}
