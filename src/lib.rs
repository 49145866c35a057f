//! DoPE reproduction — umbrella crate.
//!
//! This crate re-exports the whole DoPE stack so examples and integration
//! tests can use one dependency. The real code lives in the workspace
//! crates:
//!
//! * [`dope_core`] — the DoPE API: tasks, descriptors, configurations,
//!   goals, the mechanism interface;
//! * [`dope_runtime`] — the live executive and worker pool;
//! * [`dope_mechanisms`] — WQT-H, WQ-Linear, TBF/TB, FDP, SEDA, TPC,
//!   Proportional, Oracle;
//! * [`dope_platform`] — topology, power model, feature registry;
//! * [`dope_workload`] — arrival processes, work queues, statistics;
//! * [`dope_sim`] — the discrete-event evaluation testbed;
//! * [`dope_apps`] — the six benchmark applications;
//! * [`dope_trace`] — the flight recorder: structured executive events,
//!   the JSONL codec, deterministic replay, and the timeline CLI;
//! * [`dope_bench`] — the figure/table harness and the perf ledger
//!   (`BENCH_perf.json`, host readings the repo benchmark cannot take).
//!
//! The prose documentation under `docs/` is embedded below (see
//! [`docs`]) so that every example in the book compiles and runs as a
//! doctest of this crate.

pub use dope_apps as apps;
pub use dope_bench as bench;
pub use dope_core as core;
pub use dope_mechanisms as mechanisms;
pub use dope_platform as platform;
pub use dope_runtime as runtime;
pub use dope_sim as sim;
pub use dope_trace as trace;
pub use dope_workload as workload;

/// The documentation book, embedded verbatim from `docs/`.
///
/// Each sub-module is one markdown file; embedding them here makes
/// `rustdoc` render the book next to the API docs **and** compiles and
/// runs every Rust code block in the book as a doctest, so the prose
/// cannot drift from the implementation.
pub mod docs {
    /// `docs/README.md`: the book index — one line per chapter and
    /// reading paths by task.
    #[doc = include_str!("../docs/README.md")]
    pub mod index {}

    /// `docs/architecture.md`: how the flight recorder is built.
    #[doc = include_str!("../docs/architecture.md")]
    pub mod architecture {}

    /// `docs/event-schema.md`: the versioned JSONL trace contract.
    #[doc = include_str!("../docs/event-schema.md")]
    pub mod event_schema {}

    /// `docs/operator-guide.md`: capturing and reading traces.
    #[doc = include_str!("../docs/operator-guide.md")]
    pub mod operator_guide {}

    /// `docs/overload.md`: admission control — the four policies, the
    /// shedding gate, `ShedAware`, and the overload observability
    /// surface.
    #[doc = include_str!("../docs/overload.md")]
    pub mod overload {}

    /// `docs/performance.md`: the current perf ledger (job hops, control
    /// hops, allocations), the techniques behind it, and the in-tree
    /// `perf` probes.
    #[doc = include_str!("../docs/performance.md")]
    pub mod performance {}

    /// `docs/static-analysis.md`: the cross-crate contracts, who
    /// enforces each, how to waive one, and the lock-rank table.
    #[doc = include_str!("../docs/static-analysis.md")]
    pub mod static_analysis {}
}
