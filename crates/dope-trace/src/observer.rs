//! Bridges the control core's sink onto a [`Recorder`].
//!
//! The control loop (`dope_core::control::ControlCore`) reports what it
//! decided through the [`ControlSink`] trait; [`RecordingObserver`] is
//! the sink that maps each of those events to the corresponding
//! [`TraceEvent`] and appends it to a [`Recorder`] — stamped with the
//! time the core was driven with (**simulated** seconds under
//! `dope-sim`), so replaying the trace reproduces the original timeline
//! exactly. It keeps no control state of its own: which decision is
//! held, how it is scored and whether an epoch was partial are the
//! core's calls.
//!
//! # Example
//!
//! ```
//! use dope_core::{Mechanism, Resources, StaticMechanism};
//! use dope_sim::profile::AmdahlProfile;
//! use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
//! use dope_trace::{Recorder, RecordingObserver};
//! use dope_workload::ArrivalSchedule;
//!
//! let model = TwoLevelModel::doall("price", AmdahlProfile::new(4.0, 0.9, 0.0, 0.05));
//! let mut mech = StaticMechanism::new(model.config_for_width(8, 4));
//! let recorder = Recorder::bounded(4096);
//! let mut observer = RecordingObserver::new(recorder.clone());
//! let outcome = run_system_observed(
//!     &model,
//!     &ArrivalSchedule::uniform(1.0, 5),
//!     &mut mech,
//!     Resources::threads(8),
//!     &SystemParams::default(),
//!     &mut observer,
//! );
//! observer.finished(outcome.completed, 0);
//! assert_eq!(recorder.records()[0].event.kind(), "Launched");
//! assert_eq!(recorder.records().last().unwrap().event.kind(), "Finished");
//! ```

use dope_core::control::{ControlSink, DrainTiming, Scope, Verdict};
use dope_core::{Config, DecisionTrace, Label, MonitorSnapshot, ProgramShape, TaskPath};
use std::sync::Arc;

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// A [`ControlSink`] that records the decision loop into a [`Recorder`].
///
/// A control period leaves, in this order: the previous consult's scored
/// `DecisionTraced` (stamped at the decision's own time), the one
/// `SnapshotTaken` — task rows, queue, power reading and gate counters
/// inside — then the consult's `ProposalEvaluated` and, once it is
/// applied, its `ReconfigureEpoch`. The final decision of a simulated run
/// has no next snapshot and arrives unscored when the simulator finishes
/// the core.
#[derive(Debug, Clone)]
pub struct RecordingObserver {
    recorder: Recorder,
    goal: String,
    // The recorder's clock at the run's time zero: 0 for simulated runs,
    // whose records carry simulated seconds.
    clock_offset: f64,
    last_time_secs: f64,
    // Stamped into `Launched.admission`; empty when no gate is declared.
    admission: Label,
}

impl RecordingObserver {
    /// Wraps `recorder`; the `Launched` event will carry an empty goal.
    #[must_use]
    pub fn new(recorder: Recorder) -> Self {
        RecordingObserver {
            recorder,
            goal: String::new(),
            clock_offset: 0.0,
            last_time_secs: 0.0,
            admission: "".into(),
        }
    }

    /// Sets the goal string stamped into the `Launched` event.
    #[must_use]
    pub fn with_goal(mut self, goal: impl Into<String>) -> Self {
        self.goal = goal.into();
        self
    }

    /// Declares the admission policy of the recorded run (its stable
    /// lowercase tag, e.g. `"shed"`), stamped into the `Launched` event.
    /// Readers then derive each period's `AdmissionDecision` from its
    /// snapshot's gate counters.
    #[must_use]
    pub fn with_admission_policy(mut self, policy: impl Into<Label>) -> Self {
        self.admission = policy.into();
        self
    }

    /// Sets what the recorder's clock read at the run's time zero. A live
    /// driver's times are run-relative while its recorder may be older
    /// than the run; every record is stamped `time_secs + offset_secs`.
    #[must_use]
    pub fn with_clock_offset(mut self, offset_secs: f64) -> Self {
        self.clock_offset = offset_secs;
        self
    }

    /// The wrapped recorder handle.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records `event` and remembers the latest time seen.
    fn record_at(&mut self, time_secs: f64, event: TraceEvent) {
        self.last_time_secs = self.last_time_secs.max(time_secs);
        self.recorder
            .record_at(time_secs + self.clock_offset, event);
    }

    /// Records the terminal `Finished` event, stamped at the latest
    /// time seen. The simulator returns totals rather than calling a
    /// shutdown hook, so callers invoke this once the run returns.
    pub fn finished(&mut self, completed: u64, reconfigurations: u64) {
        self.finished_at(self.last_time_secs, completed, reconfigurations);
    }

    /// [`finished`](Self::finished) for drivers with a clock of their
    /// own: the run ended at `time_secs`, not at its last control event.
    pub fn finished_at(&mut self, time_secs: f64, completed: u64, reconfigurations: u64) {
        let dropped_events = self.recorder.dropped();
        self.record_at(
            time_secs,
            TraceEvent::Finished {
                completed,
                reconfigurations,
                dropped_events,
            },
        );
    }
}

impl ControlSink for RecordingObserver {
    fn launched(
        &mut self,
        mechanism: &str,
        threads: u32,
        shape: &ProgramShape,
        config: &Arc<Config>,
    ) {
        self.record_at(
            0.0,
            TraceEvent::Launched {
                mechanism: mechanism.into(),
                goal: self.goal.clone(),
                threads,
                shape: shape.clone(),
                config: Arc::clone(config),
                admission: self.admission.clone(),
            },
        );
    }

    fn snapshot_taken(&mut self, snapshot: &MonitorSnapshot) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.record_at(
            snapshot.time_secs,
            TraceEvent::SnapshotTaken {
                snapshot: snapshot.clone(),
            },
        );
    }

    fn decision_scored(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) {
        let event = TraceEvent::decision(mechanism, trace, realized);
        self.record_at(time_secs, event);
    }

    fn proposal_evaluated(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        proposal: &Arc<Config>,
        verdict: Verdict,
    ) {
        self.record_at(
            time_secs,
            TraceEvent::ProposalEvaluated {
                mechanism: mechanism.into(),
                proposal: Arc::clone(proposal),
                verdict,
            },
        );
    }

    fn reconfigured(
        &mut self,
        time_secs: f64,
        config: &Arc<Config>,
        scope: &Scope,
        timing: DrainTiming,
    ) {
        self.record_at(time_secs, TraceEvent::reconfigured(config, scope, timing));
    }

    fn task_failed(&mut self, time_secs: f64, path: &TaskPath, reason: &str, policy: &str) {
        self.record_at(
            time_secs,
            TraceEvent::TaskFailed {
                path: path.clone(),
                reason: reason.to_string(),
                policy: policy.into(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{Config, TaskConfig, TaskPath, TaskStats};

    #[test]
    fn hooks_translate_to_events() {
        let recorder = Recorder::bounded(64);
        let mut obs = RecordingObserver::new(recorder.clone()).with_goal("MaxThroughput");
        let shape = ProgramShape::new(vec![]);
        let config = Arc::new(Config::new(vec![TaskConfig::leaf("t", 1)]));
        obs.launched("WQ-Linear", 8, &shape, &config);
        let mut snapshot = MonitorSnapshot::at(1.0);
        snapshot
            .tasks
            .insert(TaskPath::root_child(0), TaskStats::default());
        snapshot
            .tasks
            .insert(TaskPath::root_child(1), TaskStats::default());
        snapshot.queue.occupancy = 3.0;
        obs.snapshot_taken(&snapshot);
        obs.proposal_evaluated(1.0, "WQ-Linear", &config, Verdict::Unchanged);
        obs.reconfigured(2.0, &config, &Scope::Full, DrainTiming::default());
        obs.finished(10, 1);

        let kinds: Vec<&str> = recorder.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "Launched",
                "SnapshotTaken",
                "ProposalEvaluated",
                "ReconfigureEpoch",
                "Finished",
            ]
        );
        if let TraceEvent::Launched { goal, .. } = &recorder.records()[0].event {
            assert_eq!(goal, "MaxThroughput");
        } else {
            panic!("first event must be Launched");
        }
        // The period's one record is the snapshot itself, rows and all.
        assert_eq!(
            recorder.records()[1].event,
            TraceEvent::SnapshotTaken { snapshot }
        );
    }

    /// A simulated control period leaves exactly one `SnapshotTaken`,
    /// rows inside, and no flattened copy of them.
    #[test]
    fn a_simulated_period_is_recorded_once() {
        use dope_core::{Resources, StaticMechanism};
        use dope_sim::profile::AmdahlProfile;
        use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
        use dope_workload::ArrivalSchedule;

        let model = TwoLevelModel::doall("price", AmdahlProfile::new(4.0, 0.9, 0.0, 0.05));
        let mut mech = StaticMechanism::new(model.config_for_width(8, 4));
        let recorder = Recorder::bounded(4096);
        let mut obs = RecordingObserver::new(recorder.clone());
        let _ = run_system_observed(
            &model,
            &ArrivalSchedule::uniform(1.0, 20),
            &mut mech,
            Resources::threads(8),
            &SystemParams::default(),
            &mut obs,
        );
        let records = recorder.records();
        let mut periods = Vec::new();
        for record in &records {
            match &record.event {
                TraceEvent::SnapshotTaken { snapshot } => {
                    assert!(!snapshot.tasks.is_empty());
                    periods.push(record.time_secs);
                }
                TraceEvent::TaskStatsSample { .. } | TraceEvent::QueueSample { .. } => {
                    panic!("a {} beside the snapshot", record.event.kind())
                }
                _ => {}
            }
        }
        assert!(periods.len() >= 10, "{} periods", periods.len());
        assert!(periods.windows(2).all(|pair| pair[0] < pair[1]));
    }

    /// The core classifies each applied configuration; the observer
    /// only spells its scope on the wire.
    #[test]
    fn reconfigured_spells_partial_and_full_scopes() {
        let recorder = Recorder::bounded(16);
        let mut obs = RecordingObserver::new(recorder.clone());
        let config = Arc::new(Config::new(vec![
            TaskConfig::leaf("a", 1),
            TaskConfig::leaf("b", 4),
        ]));
        let partial = Scope::Partial(vec!["1".parse().unwrap()]);
        obs.reconfigured(1.0, &config, &partial, DrainTiming::default());
        obs.reconfigured(2.0, &config, &Scope::Full, DrainTiming::default());

        let epochs: Vec<(Label, u64)> = recorder
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ReconfigureEpoch {
                    scope,
                    paths_drained,
                    ..
                } => Some((scope.clone(), *paths_drained)),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![("partial".into(), 1), ("full".into(), 2)]);
    }

    /// The gate's policy is a run constant, written once in `Launched`;
    /// a period's power reading and gate counters stay in its snapshot,
    /// and the `AdmissionDecision` a reader shows is derived from them.
    #[test]
    fn the_policy_rides_in_launched_and_a_period_writes_no_copy() {
        use dope_core::AdmissionStats;
        let recorder = Recorder::bounded(64);
        let mut obs = RecordingObserver::new(recorder.clone()).with_admission_policy("shed");
        obs.launched("WQ-Linear", 8, &ProgramShape::new(vec![]), &Arc::default());
        let mut snap = MonitorSnapshot::at(2.0);
        snap.power_watts = Some(612.5);
        snap.admission = AdmissionStats {
            offered: 30,
            admitted: 25,
            shed_high_water: 5,
            shed_deadline: 0,
            mean_queue_delay_secs: 0.02,
        };
        obs.snapshot_taken(&snap);

        let records = recorder.records();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["Launched", "SnapshotTaken"]);
        let TraceEvent::Launched { admission, .. } = &records[0].event else {
            panic!("first event must be Launched");
        };
        assert_eq!(admission, "shed");
        let timeline = crate::render_timeline(&records);
        assert!(
            timeline.contains("ADMIT    shed verdict=shed offered=30"),
            "{timeline}"
        );
        assert!(
            timeline.contains("FEATURE  SystemPower=612.5"),
            "{timeline}"
        );
    }

    #[test]
    fn finished_is_stamped_at_the_latest_seen_time() {
        let recorder = Recorder::bounded(16);
        let mut obs = RecordingObserver::new(recorder.clone());
        obs.reconfigured(7.5, &Arc::default(), &Scope::Full, DrainTiming::default());
        obs.finished(1, 1);
        let last = recorder.records().last().cloned().unwrap();
        assert_eq!(last.time_secs, 7.5);
    }
}
