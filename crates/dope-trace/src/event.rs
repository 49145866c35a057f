//! The structured events the flight recorder captures.
//!
//! Each [`TraceRecord`] is one line of a JSONL trace: a monotonically
//! increasing sequence number, a timestamp in seconds since launch, and
//! one [`TraceEvent`]. The set of event kinds — and the exact field
//! names they serialize to — is a **versioned public contract**
//! documented in `docs/event-schema.md` (schema version
//! [`SCHEMA_VERSION`]).
//!
//! That set is declared **once**, in the `trace_schema!` table at the
//! bottom of this file: the [`TraceEvent`] enum, [`TraceEvent::kind`],
//! [`TraceEvent::KINDS`], [`TraceEvent::FIELDS`] and both directions of
//! the JSONL codec are generated from it. Adding a field to a kind is
//! one line in the table (plus one word appended to
//! `baseline/event-fields.txt`, the frozen record of what has shipped).
//! The payload structs `dope-core` defines are rows of the
//! [`dope_core::json`] codec's table, which the kinds' fields go through.
//!
//! # Example
//!
//! ```
//! use dope_trace::{TraceEvent, TraceRecord};
//!
//! let record = TraceRecord {
//!     seq: 0,
//!     time_secs: 0.125,
//!     event: TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: 612.5,
//!     },
//! };
//! assert_eq!(record.event.kind(), "FeatureRead");
//! ```

use dope_core::control::{DrainTiming, Scope};
use dope_core::json::{JsonError, Value, Wire};
use dope_core::{
    AdmissionStats, Config, DecisionCandidate, DecisionTrace, Label, MonitorSnapshot, ProgramShape,
    QueueStats, Rationale, TaskPath, TaskStats,
};
use std::sync::Arc;

/// Version of the event schema emitted by this build.
///
/// Every JSONL line carries this number in its `"v"` field; readers must
/// reject lines with a version they do not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// One recorded line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number assigned by the recorder. Gaps indicate
    /// events dropped by the bounded ring buffer.
    pub seq: u64,
    /// Seconds since the recorder (and hence the run) started. Simulated
    /// sources stamp simulated seconds; live sources stamp wall-clock
    /// seconds.
    pub time_secs: f64,
    /// The event itself.
    pub event: TraceEvent,
}

pub use dope_core::control::Verdict;

/// Expands the schema table into everything that used to be spelled by
/// hand per kind. A field is `name: Type`, optionally `= default`: the
/// value an *additive* field decodes to when a trace written before the
/// field existed omits it (or carries `null`). The trailing `rows` list
/// names the payload structs whose keys [`TraceEvent::FIELDS`] records;
/// their wire form is their row in [`dope_core::json`].
macro_rules! trace_schema {
    (
        $(#[$enum_meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$kind_meta:meta])*
                $kind:ident {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty $(= $default:expr)?
                    ),+ $(,)?
                }
            ),+ $(,)?
        }
        rows { $($payload:ident),+ $(,)? }
    ) => {
        $(#[$enum_meta])*
        pub enum TraceEvent {
            $(
                $(#[$kind_meta])*
                $kind { $($(#[$field_meta])* $field: $ty),+ }
            ),+
        }

        impl TraceEvent {
            /// The stable `"kind"` discriminator this event serializes under.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$kind { .. } => stringify!($kind)),+
                }
            }

            /// All `"kind"` discriminators of schema version
            /// [`SCHEMA_VERSION`], in documentation order.
            pub const KINDS: [&'static str; [$(stringify!($kind)),+].len()] =
                [$(stringify!($kind)),+];

            /// The wire keys of every kind (in [`Self::KINDS`] order, each
            /// in encoding order), followed by those of the nested payload
            /// structs. `ProposalEvaluated`'s `verdict` additionally owns
            /// the `code` key of a rejection.
            pub const FIELDS: &'static [(&'static str, &'static [&'static str])] = &[
                $((stringify!($kind), &[$(stringify!($field)),+])),+,
                $((stringify!($payload), <$payload as Wire>::KEYS)),+
            ];

            /// Appends this event's payload keys to a record under
            /// construction.
            pub(crate) fn put_payload(&self, out: &mut Vec<(String, Value)>) {
                match self {
                    $(TraceEvent::$kind { $($field),+ } => {
                        $($field.put_field(stringify!($field), out);)+
                    })+
                }
            }

            /// Reads the payload of a `kind` record back from its object.
            pub(crate) fn take_payload(kind: &str, obj: &Value) -> Result<Self, JsonError> {
                Ok(match kind {
                    $(stringify!($kind) => TraceEvent::$kind {
                        $($field: Wire::take_field(
                            obj, stringify!($field), None$(.or(Some($default)))?
                        )?),+
                    },)+
                    other => {
                        return Err(JsonError::decode(format!(
                            "unknown trace event kind {other:?}"
                        )))
                    }
                })
            }
        }
    };
}

trace_schema! {
    /// A structured executive event.
    ///
    /// Variants mirror the decision loop: launch, monitor, propose, judge,
    /// reconfigure, finish — plus the platform- and queue-level samples that
    /// explain *why* a mechanism decided what it did.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// The executive launched the application.
        Launched {
            /// `Mechanism::name()` of the driving mechanism.
            mechanism: Label,
            /// The administrator's goal, rendered with `Display`.
            goal: String,
            /// The thread budget.
            threads: u32,
            /// The structural shape derived from the descriptor.
            shape: ProgramShape,
            /// The initial configuration.
            config: Arc<Config>,
            /// The admission policy the run declared, as its stable
            /// lowercase tag (`"open"` / `"block"` / `"shed"` /
            /// `"deadline"`). Additive in schema v1; absent decodes as
            /// `""`, "no gate declared", which every trace that wrote
            /// its own `AdmissionDecision` records carries.
            admission: Label = "".into(),
        },
        /// A [`MonitorSnapshot`] was frozen for the mechanism.
        SnapshotTaken {
            /// The frozen snapshot, verbatim.
            snapshot: MonitorSnapshot,
        },
        /// One task's EWMA statistics, sampled at a control period. No
        /// longer written: readers derive it from a snapshot's rows.
        TaskStatsSample {
            /// Configured-tree path of the task.
            path: TaskPath,
            /// The task's aggregated statistics.
            stats: TaskStats,
        },
        /// A mechanism proposal was evaluated.
        ProposalEvaluated {
            /// `Mechanism::name()` of the proposer.
            mechanism: Label,
            /// The proposed configuration.
            proposal: Arc<Config>,
            /// Accept / unchanged / reject-with-DV-code.
            verdict: Verdict,
        },
        /// A reconfiguration epoch completed: the old epoch (or, for a
        /// partial reconfiguration, only its changed paths) drained
        /// (`pause_secs`) and the new one launched (`relaunch_secs`).
        ReconfigureEpoch {
            /// Seconds from the suspend decision until the drained set
            /// reached a consistent state.
            pause_secs: f64,
            /// Seconds to instantiate and submit the new epoch (for partial
            /// reconfigurations, the relaunched paths).
            relaunch_secs: f64,
            /// Worker jobs live after the reconfiguration.
            jobs: u64,
            /// The configuration now in force.
            config: Arc<Config>,
            /// `"full"` (the paper protocol: every replica drained) or
            /// `"partial"` (delta reconfiguration: only changed paths
            /// drained). Additive in schema v1; absent decodes as `"full"`,
            /// which every pre-delta trace was.
            scope: Label = "full".into(),
            /// Replica-carrying paths drained at this boundary. Additive in
            /// schema v1; absent decodes as 0 ("not measured").
            paths_drained: u64 = 0,
        },
        /// A platform feature callback was read (paper Figure 9).
        FeatureRead {
            /// Feature name, e.g. `"SystemPower"`.
            feature: String,
            /// The value the callback returned.
            value: f64,
        },
        /// A work-queue probe sample.
        QueueSample {
            /// The probed statistics.
            queue: QueueStats,
        },
        /// A task replica failed: its body panicked (or its worker vanished
        /// without reporting) and the supervision layer contained the
        /// damage. Additive in schema v1 — readers of older traces never
        /// see it, and `reason`/`policy` explain what happened and how the
        /// executive responded.
        TaskFailed {
            /// Configured-tree path of the failed task.
            path: TaskPath,
            /// The downcast panic payload, or a description of the loss.
            reason: String,
            /// The failure policy in force, as its stable lowercase tag
            /// (`"abort"` / `"restart"` / `"degrade"`).
            policy: Label,
        },
        /// A mechanism explained one decision (a `DecisionTrace` from
        /// `Mechanism::explain()`), flattened to stable fields. Additive in
        /// schema v1. The decision is usually emitted one epoch *after* it
        /// was taken, once the executive has scored the mechanism's
        /// throughput prediction against the realized monitor snapshot;
        /// unscored decisions (the final one of a run, or decisions whose
        /// proposal was rejected) omit the realized fields.
        DecisionTraced {
            /// `Mechanism::name()` of the deciding mechanism.
            mechanism: Label,
            /// Stable rationale code, e.g. `"QueueAboveHighWater"`.
            rationale: Rationale,
            /// The `(signal, value)` pairs the mechanism read.
            observed: Vec<(Label, f64)>,
            /// The candidate actions it weighed, with scores and optional
            /// per-candidate throughput predictions.
            candidates: Vec<DecisionCandidate>,
            /// The action it chose (`"hold"` when it kept the status quo).
            chosen: Label,
            /// Its throughput prediction for the chosen action, items/s.
            predicted_throughput: Option<f64> = None,
            /// The bottleneck throughput the monitor realized one epoch
            /// later, items/s. Absent on unscored decisions.
            realized_throughput: Option<f64> = None,
            /// Signed relative error `(predicted - realized) / realized`.
            /// Positive means the mechanism over-promised. Absent unless
            /// both prediction and realization are present.
            prediction_error: Option<f64> = None,
        },
        /// A sampled summary of the admission gate, emitted once per control
        /// period while an admission policy is installed and traffic has been
        /// offered. Additive in schema v1 — readers of older traces never
        /// see it. Counters are cumulative since launch; `verdict` and
        /// `reason` describe the window since the *previous* sample
        /// (`"shed"` when any offer was dropped in the window, with the
        /// dominant drop reason).
        AdmissionDecision {
            /// The policy's stable lowercase tag
            /// (`"open"` / `"block"` / `"shed"` / `"deadline"`).
            policy: Label,
            /// `"admitted"` when every offer in the window was admitted,
            /// `"shed"` when at least one was dropped.
            verdict: String,
            /// Dominant drop reason in the window
            /// (`"high_water"` / `"deadline"`), or `"none"`.
            reason: String,
            /// Mean queue delay (offer to dispatch) of served requests so
            /// far, in seconds.
            queue_delay_secs: f64,
            /// Requests offered to the gate since launch.
            offered: u64,
            /// Offers admitted since launch.
            admitted: u64,
            /// Offers dropped since launch, all reasons combined.
            shed: u64,
        },
        /// The run ended.
        Finished {
            /// Requests completed over the whole run.
            completed: u64,
            /// Applied reconfigurations.
            reconfigurations: u64,
            /// Events the bounded ring buffer had to drop.
            dropped_events: u64,
        },
    }

    rows { TaskStats, QueueStats, AdmissionStats, DecisionCandidate, MonitorSnapshot }
}

/// How `stats` and `timeline` read a trace: each record as the rows it
/// stands for. A `SnapshotTaken` expands to the records a period was once
/// written as; the copies older recordings wrote are read only where no
/// snapshot stands for them (the rule is in `docs/event-schema.md`,
/// "Reading a period").
#[derive(Debug)]
pub(crate) struct Periods {
    snapshots: bool,
    // The policy each derived `AdmissionDecision` carries; `None` when the
    // trace wrote its own decisions or its `Launched` declares no gate.
    admission: Option<Label>,
    // The gate's counters at the previous period with offered traffic;
    // `None` until the first snapshot of a trace whose start was evicted.
    last: Option<AdmissionStats>,
}

impl Periods {
    /// The reading rule for the trace `records`.
    pub(crate) fn of(records: &[TraceRecord]) -> Self {
        let has = |kind: &str| records.iter().any(|r| r.event.kind() == kind);
        let launched = records.iter().find_map(|r| match &r.event {
            TraceEvent::Launched { admission, .. } => Some(admission.clone()),
            _ => None,
        });
        Periods {
            snapshots: has("SnapshotTaken"),
            admission: match &launched {
                _ if has("AdmissionDecision") => None,
                Some(policy) => Some(policy.clone()).filter(|p| !p.is_empty()),
                // A full ring evicted `Launched`: the gate's counters are
                // still in every snapshot, its policy is not.
                None => Some("?".into()),
            },
            // A trace that starts at launch starts from zero counters.
            last: launched.map(|_| AdmissionStats::default()),
        }
    }

    /// Hands `row` every event `event` reads as, in recording order.
    pub(crate) fn expand(&mut self, event: &TraceEvent, mut row: impl FnMut(&TraceEvent)) {
        match event {
            TraceEvent::SnapshotTaken { snapshot } => {
                if let Some(decision) = self.admission_decision(&snapshot.admission) {
                    row(&decision);
                }
                if let Some(value) = snapshot.power_watts {
                    row(&TraceEvent::FeatureRead {
                        feature: "SystemPower".to_string(),
                        value,
                    });
                }
                row(event);
                for (path, &stats) in snapshot.tasks.iter() {
                    let path = path.clone();
                    row(&TraceEvent::TaskStatsSample { path, stats });
                }
                let queue = snapshot.queue;
                row(&TraceEvent::QueueSample { queue });
            }
            TraceEvent::TaskStatsSample { .. } | TraceEvent::QueueSample { .. }
                if self.snapshots => {}
            TraceEvent::FeatureRead { feature, .. }
                if self.snapshots && feature == "SystemPower" => {}
            other => row(other),
        }
    }

    /// The gate's `AdmissionDecision` for the window since the previous
    /// period, or `None` when rows are not derived or no traffic has been
    /// offered yet (an idle gate is not worth a row). The first snapshot
    /// of a trace whose start was evicted has no previous period and
    /// reads as its own baseline.
    fn admission_decision(&mut self, stats: &AdmissionStats) -> Option<TraceEvent> {
        let policy = self.admission.clone().filter(|_| stats.offered > 0)?;
        let last = self.last.replace(*stats).unwrap_or(*stats);
        let hw = stats.shed_high_water.saturating_sub(last.shed_high_water);
        let dl = stats.shed_deadline.saturating_sub(last.shed_deadline);
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
        Some(TraceEvent::AdmissionDecision {
            policy,
            verdict: verdict.to_string(),
            reason: reason.to_string(),
            queue_delay_secs: stats.mean_queue_delay_secs,
            offered: stats.offered,
            admitted: stats.admitted,
            shed: stats.shed(),
        })
    }
}

impl TraceEvent {
    /// One mechanism decision, scored against `realized` — the
    /// bottleneck throughput of the snapshot that followed it (`None`
    /// when there was nothing to score against), scored by
    /// [`DecisionTrace::prediction_error`].
    #[must_use]
    pub fn decision(
        mechanism: impl Into<Label>,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) -> Self {
        let prediction_error = trace.prediction_error(realized);
        TraceEvent::DecisionTraced {
            mechanism: mechanism.into(),
            rationale: trace.rationale,
            observed: trace.observed,
            candidates: trace.candidates,
            chosen: trace.chosen,
            predicted_throughput: trace.predicted_throughput,
            realized_throughput: realized,
            prediction_error,
        }
    }

    /// One applied reconfiguration, as the control core reports it —
    /// the one mapping from its [`Scope`] to the wire's `scope` tag and
    /// `paths_drained` count.
    #[must_use]
    pub fn reconfigured(config: &Arc<Config>, scope: &Scope, timing: DrainTiming) -> Self {
        TraceEvent::ReconfigureEpoch {
            pause_secs: timing.pause_secs,
            relaunch_secs: timing.relaunch_secs,
            jobs: timing.jobs,
            config: Arc::clone(config),
            scope: scope.tag().into(),
            paths_drained: scope.paths_drained(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_catalogue() {
        let event = TraceEvent::Finished {
            completed: 1,
            reconfigurations: 0,
            dropped_events: 0,
        };
        assert!(TraceEvent::KINDS.contains(&event.kind()));
    }

    /// The additive-field contract: every name and key that has
    /// shipped — the baseline file — must still be in the schema table,
    /// and anything the table adds must be appended to the baseline in
    /// the same change, so a removal cannot be disguised as a rename.
    #[test]
    fn schema_table_matches_the_shipped_baseline() {
        // The envelope is a plain struct, not a table entry; destructuring
        // it without `..` makes a new field fail to compile right here.
        let TraceRecord {
            seq: _,
            time_secs: _,
            event: _,
        };
        let envelope: (&str, &[&str]) = ("TraceRecord", &["seq", "time_secs", "event"]);
        let current: Vec<_> = std::iter::once(&envelope)
            .chain(TraceEvent::FIELDS)
            .collect();

        let baseline: Vec<Vec<&str>> = include_str!("../baseline/event-fields.txt")
            .lines()
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .map(|line| line.split_whitespace().collect())
            .collect();
        for shipped in &baseline {
            let (name, fields) = current
                .iter()
                .find(|(name, _)| *name == shipped[0])
                .unwrap_or_else(|| panic!("`{}` shipped but is gone from the table", shipped[0]));
            for key in &shipped[1..] {
                assert!(
                    fields.contains(key),
                    "`{name}.{key}` shipped but was removed or renamed"
                );
            }
        }
        for (name, fields) in current {
            let shipped = baseline
                .iter()
                .find(|line| line[0] == *name)
                .unwrap_or_else(|| panic!("new `{name}`: append it to baseline/event-fields.txt"));
            for key in *fields {
                assert!(
                    shipped[1..].contains(key),
                    "new key `{name}.{key}`: append it to baseline/event-fields.txt"
                );
            }
        }
    }

    #[test]
    fn verdict_equality() {
        assert_eq!(Verdict::Accepted, Verdict::Accepted);
        assert_ne!(
            Verdict::Rejected {
                code: dope_core::DiagCode::BudgetExceeded
            },
            Verdict::Unchanged
        );
    }

    fn launched(admission: &str) -> TraceRecord {
        TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Launched {
                mechanism: "Static".into(),
                goal: String::new(),
                threads: 1,
                shape: ProgramShape::new(vec![]),
                config: Arc::default(),
                admission: admission.into(),
            },
        }
    }

    fn gate(offered: u64, admitted: u64, hw: u64, dl: u64) -> TraceEvent {
        let mut snapshot = MonitorSnapshot::at(1.0);
        snapshot.admission = AdmissionStats {
            offered,
            admitted,
            shed_high_water: hw,
            shed_deadline: dl,
            mean_queue_delay_secs: 0.005,
        };
        TraceEvent::SnapshotTaken { snapshot }
    }

    /// `(verdict, reason, shed)` of each derived `AdmissionDecision`.
    fn decisions(periods: &mut Periods, events: &[TraceEvent]) -> Vec<(String, String, u64)> {
        let mut out = Vec::new();
        for event in events {
            periods.expand(event, |row| {
                if let TraceEvent::AdmissionDecision {
                    verdict,
                    reason,
                    shed,
                    ..
                } = row
                {
                    out.push((verdict.clone(), reason.clone(), *shed));
                }
            });
        }
        out
    }

    #[test]
    fn a_snapshot_expands_to_the_records_a_period_was_written_as() {
        let mut snapshot = MonitorSnapshot::at(1.0);
        snapshot
            .tasks
            .insert(TaskPath::root_child(0), TaskStats::default());
        snapshot
            .tasks
            .insert(TaskPath::root_child(1), TaskStats::default());
        snapshot.power_watts = Some(612.5);
        snapshot.admission.offered = 3;
        let taken = TraceEvent::SnapshotTaken { snapshot };
        let mut kinds = Vec::new();
        Periods::of(&[launched("shed")]).expand(&taken, |row| kinds.push(row.kind()));
        assert_eq!(
            kinds,
            [
                "AdmissionDecision",
                "FeatureRead",
                "SnapshotTaken",
                "TaskStatsSample",
                "TaskStatsSample",
                "QueueSample"
            ]
        );
    }

    #[test]
    fn an_idle_or_undeclared_gate_derives_no_decision() {
        let mut declared = Periods::of(&[launched("block")]);
        assert!(decisions(&mut declared, &[gate(0, 0, 0, 0)]).is_empty());
        let mut undeclared = Periods::of(&[launched("")]);
        assert!(decisions(&mut undeclared, &[gate(30, 25, 5, 0)]).is_empty());
    }

    #[test]
    fn verdict_and_reason_describe_the_window_not_the_totals() {
        let mut periods = Periods::of(&[launched("shed")]);
        // First window: 2 high-water drops. Second: no *new* drops, so
        // the verdict flips back to admitted though cumulative shed is 2.
        let windows = [gate(10, 8, 2, 0), gate(20, 18, 2, 0)];
        assert_eq!(
            decisions(&mut periods, &windows),
            [
                ("shed".to_string(), "high_water".to_string(), 2),
                ("admitted".to_string(), "none".to_string(), 2)
            ]
        );
    }

    #[test]
    fn deadline_drops_dominate_when_they_outnumber_high_water() {
        let mut periods = Periods::of(&[launched("deadline")]);
        let found = decisions(&mut periods, &[gate(10, 9, 0, 3)]);
        assert_eq!(found[0].1, "deadline");
    }

    /// A full ring evicts `Launched` first; every retained snapshot still
    /// holds the gate's counters, so rows are derived under an unknown
    /// policy, and the first retained window is its own baseline rather
    /// than a window since launch.
    #[test]
    fn a_trace_that_lost_its_launch_still_derives_decisions() {
        let evicted = TraceRecord {
            event: gate(10, 8, 2, 0),
            ..launched("")
        };
        let mut periods = Periods::of(&[evicted]);
        let windows = [gate(10, 8, 2, 0), gate(20, 15, 5, 0)];
        assert_eq!(
            decisions(&mut periods, &windows),
            [
                ("admitted".to_string(), "none".to_string(), 2),
                ("shed".to_string(), "high_water".to_string(), 5)
            ]
        );
        let mut policy = Vec::new();
        periods.expand(&gate(30, 25, 5, 0), |row| {
            if let TraceEvent::AdmissionDecision { policy: p, .. } = row {
                policy.push(p.to_string());
            }
        });
        assert_eq!(policy, ["?"]);
    }

    /// A trace that wrote its own `AdmissionDecision` records (every
    /// trace recorded before `Launched.admission`) is read from them and
    /// derives none; a `SystemPower` read is a copy wherever a snapshot is.
    #[test]
    fn standalone_copies_are_read_only_where_no_snapshot_stands_for_them() {
        let written = TraceEvent::AdmissionDecision {
            policy: "shed".into(),
            verdict: "shed".to_string(),
            reason: "high_water".to_string(),
            queue_delay_secs: 0.0,
            offered: 1,
            admitted: 0,
            shed: 1,
        };
        let power = TraceEvent::FeatureRead {
            feature: "SystemPower".to_string(),
            value: 1.0,
        };
        let count = |records: &[TraceRecord], event: &TraceEvent| {
            let mut n = 0;
            Periods::of(records).expand(event, |_| n += 1);
            n
        };
        let snapshot = TraceRecord {
            event: gate(0, 0, 0, 0),
            ..launched("")
        };
        let decided = TraceRecord {
            event: written.clone(),
            ..launched("")
        };
        assert_eq!(count(&[launched(""), decided.clone()], &written), 1);
        assert_eq!(count(std::slice::from_ref(&decided), &written), 1);
        // The written decisions stand for the periods: no row is derived.
        assert_eq!(count(&[decided], &gate(30, 25, 5, 0)), 2);
        assert_eq!(count(&[launched("shed")], &gate(30, 25, 5, 0)), 3);
        assert_eq!(count(&[launched("")], &power), 1);
        assert_eq!(count(&[launched(""), snapshot.clone()], &power), 0);
        let temperature = TraceEvent::FeatureRead {
            feature: "Temp".to_string(),
            value: 1.0,
        };
        assert_eq!(count(&[launched(""), snapshot], &temperature), 1);
    }
}
