//! Flight-recorder observability for the DoPE executive.
//!
//! The executive makes its parallelism decisions silently: snapshots go
//! in, configurations come out, and by the time an operator asks *why* a
//! run behaved the way it did, the evidence is gone. This crate is the
//! flight recorder that keeps the evidence:
//!
//! * [`Recorder`] — a cloneable handle onto a lock-light, **bounded**
//!   ring buffer of structured [`TraceEvent`]s; zero-cost when disabled,
//!   shared by every instrumented component when enabled;
//! * [`event`] — the versioned event model ([`SCHEMA_VERSION`]): launch,
//!   one snapshot per control period, proposal verdicts with `DV0xx`
//!   rejection codes, reconfiguration-epoch latencies, decisions,
//!   failures, and the terminal summary;
//! * [`codec`] — a strict JSONL serialization of that model, the
//!   **public contract** documented in `docs/event-schema.md`;
//! * [`RecordingObserver`] — the control-core sink
//!   ([`ControlSink`](dope_core::control::ControlSink)) that records
//!   `dope-sim` runs;
//! * [`replay_into_sim`] — deterministic replay: rebuilds a simulated
//!   system from a trace and asserts it re-applies the identical
//!   accepted-configuration sequence;
//! * [`render_timeline`] — an ASCII timeline for humans;
//! * [`summarize`] — offline histogram summaries (latency percentiles
//!   for exec/pause/relaunch, queue and feature distributions) of a
//!   parsed trace, also available as the `dope-trace` CLI's `stats`
//!   subcommand (alongside `record` / `replay` / `timeline`);
//! * [`explain()`] — the decision audit: every `DecisionTraced` event
//!   rendered with its rationale code, candidate table, and
//!   predicted-vs-realized throughput error, also the CLI's `explain`
//!   subcommand (`--json` re-emits the decisions as strict JSONL).
//!
//! The prose book lives in `docs/`: `docs/architecture.md` (how the
//! recorder, instrumentation, and replay fit together),
//! `docs/event-schema.md` (the field-by-field wire contract), and
//! `docs/operator-guide.md` (capture and analysis workflows). Every
//! example in those pages runs as a doctest of the umbrella crate.
//!
//! # Example
//!
//! Record, serialize, parse back, and replay a short simulated run:
//!
//! ```
//! use dope_core::{Mechanism, Resources, StaticMechanism};
//! use dope_sim::profile::AmdahlProfile;
//! use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
//! use dope_trace::{parse_jsonl, replay_into_sim, Recorder, RecordingObserver};
//! use dope_workload::ArrivalSchedule;
//!
//! let model = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(4.0, 0.9, 0.1, 0.05));
//! let mut mech = StaticMechanism::new(model.config_for_width(8, 4));
//! let recorder = Recorder::bounded(4096);
//! let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MaxThroughput");
//! let outcome = run_system_observed(
//!     &model,
//!     &ArrivalSchedule::uniform(1.0, 5),
//!     &mut mech,
//!     Resources::threads(8),
//!     &SystemParams::default(),
//!     &mut observer,
//! );
//! observer.finished(outcome.completed, outcome.config_changes);
//!
//! let jsonl = recorder.to_jsonl();            // serialize the trace
//! let records = parse_jsonl(&jsonl).unwrap(); // parse it back
//! let replay = replay_into_sim(&records).unwrap();
//! assert!(replay.matches());                  // identical accepted configs
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `clippy.toml` bans `Instant::now()` here; a waiver states its reason.
#![deny(clippy::allow_attributes_without_reason)]

pub mod codec;
pub mod event;
pub mod explain;
pub mod observer;
pub mod recorder;
pub mod replay;
pub mod stats;
pub mod timeline;

pub use codec::{parse_jsonl, parse_line, to_jsonl, to_jsonl_line};
pub use event::{TraceEvent, TraceRecord, Verdict, SCHEMA_VERSION};
pub use explain::{explain, ExplainReport};
pub use observer::RecordingObserver;
pub use recorder::Recorder;
pub use replay::{accepted_configs, replay_into_sim, ReplayOutcome};
pub use stats::{summarize, TraceSummary};
pub use timeline::render_timeline;
