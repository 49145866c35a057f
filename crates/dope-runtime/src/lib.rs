//! The DoPE run-time system.
//!
//! This crate is the live counterpart of the paper's user-land runtime:
//! it executes a declared task nest ([`TaskSpec`](dope_core::TaskSpec)
//! tree) on a real worker pool, monitors application and platform
//! features, and drives the suspend/relaunch protocol (paper §6) whenever
//! the selected [`Mechanism`](dope_core::Mechanism) proposes a new
//! parallelism configuration:
//!
//! 1. the mechanism determines the optimal configuration;
//! 2. the executive returns `SUSPEND` from `begin`/`end`;
//! 3. tasks steer into a consistent state (their `fini` callbacks run);
//! 4. the executive instantiates the new task set;
//! 5. the worker pool executes it.
//!
//! # Example
//!
//! ```
//! use dope_core::{body_fn, Goal, TaskKind, TaskSpec, TaskStatus, WorkerSlot};
//! use dope_runtime::Dope;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let counter = Arc::new(AtomicU64::new(0));
//! let c = Arc::clone(&counter);
//! let spec = TaskSpec::leaf("count", TaskKind::Par, move |_slot: WorkerSlot| {
//!     let c = Arc::clone(&c);
//!     Box::new(body_fn(move |cx| {
//!         cx.begin();
//!         let n = c.fetch_add(1, Ordering::Relaxed);
//!         cx.end();
//!         if n >= 99 {
//!             TaskStatus::Finished
//!         } else {
//!             TaskStatus::Executing
//!         }
//!     })) as Box<dyn dope_core::TaskBody>
//! });
//!
//! let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
//!     .launch(vec![spec])
//!     .unwrap();
//! let report = dope.wait().unwrap();
//! assert!(counter.load(Ordering::Relaxed) >= 100);
//! assert!(report.elapsed.as_nanos() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The executive degrades through `Error` / `FailurePolicy`, never by
// panicking (`clippy.toml` exempts tests; an unbounded queue states its bound).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod carrier;
pub mod executive;
pub mod instance;
mod lockrank;
pub mod monitor;
pub mod perf;
pub mod pool;
mod shard;

pub use executive::{Dope, DopeBuilder, RunReport};
pub use monitor::Monitor;
pub use pool::WorkerPool;
