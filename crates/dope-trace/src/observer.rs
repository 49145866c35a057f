//! Bridges the simulator's observer hooks onto a [`Recorder`].
//!
//! `dope-sim` exposes its decision loop through the
//! [`SimObserver`] trait; [`RecordingObserver`]
//! implements that trait by translating each hook into the corresponding
//! [`TraceEvent`] and appending it to a [`Recorder`] — stamped with
//! **simulated** seconds, so replaying the trace reproduces the original
//! timeline exactly.
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

use dope_core::{realized_throughput, Config, DecisionTrace, MonitorSnapshot, ProgramShape};
use dope_sim::{ProposalOutcome, SimObserver};

use crate::admission::AdmissionSampler;
use crate::event::{TraceEvent, Verdict};
use crate::recorder::Recorder;

/// A [`SimObserver`] that records the decision loop into a [`Recorder`].
///
/// Decisions ([`decision_explained`](SimObserver::decision_explained))
/// are *held for one epoch*: the observer scores the mechanism's
/// throughput prediction against the next monitor snapshot's realized
/// bottleneck throughput, then emits a `DecisionTraced` event carrying
/// both sides and the signed relative error. The final decision of a run
/// has no next snapshot and is flushed unscored by
/// [`finished`](RecordingObserver::finished).
#[derive(Debug, Clone)]
pub struct RecordingObserver {
    recorder: Recorder,
    goal: String,
    last_time_secs: f64,
    pending_decision: Option<(f64, String, DecisionTrace)>,
    // The configuration last seen in force (launch or applied), used to
    // classify each applied config as a full or partial (delta)
    // reconfiguration with the same `Config::delta_paths` rule the live
    // executive uses — so sim and live traces stay comparable.
    last_config: Option<Config>,
    // Present when the run declares an admission policy: each snapshot
    // with offered traffic then yields one `AdmissionDecision` sample.
    admission: Option<AdmissionSampler>,
}

impl RecordingObserver {
    /// Wraps `recorder`; the `Launched` event will carry an empty goal.
    #[must_use]
    pub fn new(recorder: Recorder) -> Self {
        RecordingObserver {
            recorder,
            goal: String::new(),
            last_time_secs: 0.0,
            pending_decision: None,
            last_config: None,
            admission: None,
        }
    }

    /// Emits one pending decision, scored against `realized` (the
    /// bottleneck throughput of the snapshot that followed it), stamped
    /// at the decision's own time.
    fn emit_decision(
        &mut self,
        time_secs: f64,
        mechanism: String,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) {
        self.last_time_secs = self.last_time_secs.max(time_secs);
        self.recorder
            .record_at(time_secs, TraceEvent::decision(mechanism, trace, realized));
    }

    /// Sets the goal string stamped into the `Launched` event.
    #[must_use]
    pub fn with_goal(mut self, goal: impl Into<String>) -> Self {
        self.goal = goal.into();
        self
    }

    /// Declares the admission policy of the recorded run (its stable
    /// lowercase tag, e.g. `"shed"`). Each subsequent snapshot whose
    /// admission counters show offered traffic emits one
    /// `AdmissionDecision` sample stamped with this tag.
    #[must_use]
    pub fn with_admission_policy(mut self, policy: impl Into<String>) -> Self {
        self.admission = Some(AdmissionSampler::new(policy));
        self
    }

    /// The wrapped recorder handle.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records the terminal `Finished` event. The simulator has no
    /// explicit shutdown hook, so callers invoke this once the run
    /// returns.
    pub fn finished(&mut self, completed: u64, reconfigurations: u64) {
        // The run is over: the last decision has no follow-up snapshot
        // to score against, so it goes out unscored.
        if let Some((at, mechanism, trace)) = self.pending_decision.take() {
            self.emit_decision(at, mechanism, trace, None);
        }
        let dropped = self.recorder.dropped();
        self.recorder.record_at(
            self.last_time_secs,
            TraceEvent::Finished {
                completed,
                reconfigurations,
                dropped_events: dropped,
            },
        );
    }
}

impl SimObserver for RecordingObserver {
    fn launched(&mut self, mechanism: &str, threads: u32, shape: &ProgramShape, config: &Config) {
        self.recorder.record_at(
            0.0,
            TraceEvent::Launched {
                mechanism: mechanism.to_string(),
                goal: self.goal.clone(),
                threads,
                shape: shape.clone(),
                config: config.clone(),
            },
        );
        self.last_config = Some(config.clone());
    }

    fn snapshot_taken(&mut self, snapshot: &MonitorSnapshot) {
        self.last_time_secs = self.last_time_secs.max(snapshot.time_secs);
        // Score the previous epoch's decision against what this snapshot
        // actually realized, then emit it.
        if let Some((at, mechanism, trace)) = self.pending_decision.take() {
            let realized = realized_throughput(snapshot);
            self.emit_decision(at, mechanism, trace, realized);
        }
        if !self.recorder.is_enabled() {
            return;
        }
        for (path, stats) in &snapshot.tasks {
            self.recorder.record_at(
                snapshot.time_secs,
                TraceEvent::TaskStatsSample {
                    path: path.clone(),
                    stats: *stats,
                },
            );
        }
        self.recorder.record_at(
            snapshot.time_secs,
            TraceEvent::QueueSample {
                queue: snapshot.queue,
            },
        );
        if let Some(watts) = snapshot.power_watts {
            self.recorder.record_at(
                snapshot.time_secs,
                TraceEvent::FeatureRead {
                    feature: "SystemPower".to_string(),
                    value: watts,
                },
            );
        }
        if let Some(sampler) = &mut self.admission {
            if let Some(event) = sampler.sample(&snapshot.admission) {
                self.recorder.record_at(snapshot.time_secs, event);
            }
        }
        self.recorder.record_at(
            snapshot.time_secs,
            TraceEvent::SnapshotTaken {
                snapshot: snapshot.clone(),
            },
        );
    }

    fn proposal_evaluated(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        proposal: &Config,
        outcome: ProposalOutcome,
    ) {
        self.last_time_secs = self.last_time_secs.max(time_secs);
        let verdict = match outcome {
            ProposalOutcome::Accepted => Verdict::Accepted,
            ProposalOutcome::Unchanged => Verdict::Unchanged,
            ProposalOutcome::Rejected(code) => Verdict::Rejected { code },
        };
        self.recorder.record_at(
            time_secs,
            TraceEvent::ProposalEvaluated {
                mechanism: mechanism.to_string(),
                proposal: proposal.clone(),
                verdict,
            },
        );
    }

    fn config_applied(&mut self, time_secs: f64, config: &Config) {
        self.last_time_secs = self.last_time_secs.max(time_secs);
        // Mirror the live executive's delta-eligibility rule: an
        // extent-only change confined to top-level leaves is a partial
        // reconfiguration; everything else (and the first application,
        // with no prior config to diff) is a full drain.
        let delta = self
            .last_config
            .as_ref()
            .and_then(|prev| prev.delta_paths(config));
        let (scope, paths_drained) = match delta {
            Some(changed) => ("partial".to_string(), changed.len() as u64),
            None => ("full".to_string(), config.paths().len() as u64),
        };
        self.recorder.record_at(
            time_secs,
            TraceEvent::ReconfigureEpoch {
                pause_secs: 0.0,
                relaunch_secs: 0.0,
                jobs: 0,
                config: config.clone(),
                scope,
                paths_drained,
            },
        );
        self.last_config = Some(config.clone());
    }

    fn decision_explained(&mut self, time_secs: f64, mechanism: &str, trace: &DecisionTrace) {
        self.last_time_secs = self.last_time_secs.max(time_secs);
        // A decision arriving before the previous one was scored (the
        // simulator consulted twice between snapshots) flushes the older
        // one unscored rather than losing it.
        if let Some((at, mech, pending)) = self.pending_decision.take() {
            self.emit_decision(at, mech, pending, None);
        }
        self.pending_decision = Some((time_secs, mechanism.to_string(), trace.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{Config, TaskConfig};

    #[test]
    fn hooks_translate_to_events() {
        let recorder = Recorder::bounded(64);
        let mut obs = RecordingObserver::new(recorder.clone()).with_goal("MaxThroughput");
        let shape = ProgramShape::new(vec![]);
        let config = Config::new(vec![TaskConfig::leaf("t", 1)]);
        obs.launched("WQ-Linear", 8, &shape, &config);
        obs.snapshot_taken(&MonitorSnapshot::at(1.0));
        obs.proposal_evaluated(1.0, "WQ-Linear", &config, ProposalOutcome::Unchanged);
        obs.config_applied(2.0, &config);
        obs.finished(10, 1);

        let kinds: Vec<&str> = recorder.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "Launched",
                "QueueSample",
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
    }

    #[test]
    fn config_applied_classifies_partial_and_full_scopes() {
        let recorder = Recorder::bounded(16);
        let mut obs = RecordingObserver::new(recorder.clone());
        let shape = ProgramShape::new(vec![]);
        let initial = Config::new(vec![TaskConfig::leaf("a", 1), TaskConfig::leaf("b", 2)]);
        obs.launched("WQ-Linear", 8, &shape, &initial);

        // Extent nudge on one top-level leaf: partial, one path drained.
        let mut widened = initial.clone();
        widened.set_extent(&"1".parse().unwrap(), 4).unwrap();
        obs.config_applied(1.0, &widened);

        // Structural change: full, every path drained.
        let restructured = Config::new(vec![TaskConfig::leaf("a", 1)]);
        obs.config_applied(2.0, &restructured);

        let epochs: Vec<(String, u64)> = recorder
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
        assert_eq!(
            epochs,
            vec![("partial".to_string(), 1), ("full".to_string(), 1)]
        );
    }

    #[test]
    fn admission_samples_ride_along_with_snapshots() {
        use dope_core::AdmissionStats;
        let recorder = Recorder::bounded(64);
        let mut obs = RecordingObserver::new(recorder.clone()).with_admission_policy("shed");
        let shape = ProgramShape::new(vec![]);
        obs.launched("WQ-Linear", 8, &shape, &Config::default());

        // An idle gate records nothing.
        obs.snapshot_taken(&MonitorSnapshot::at(1.0));
        // A gate under pressure records one sample per snapshot.
        let mut snap = MonitorSnapshot::at(2.0);
        snap.admission = AdmissionStats {
            offered: 30,
            admitted: 25,
            shed_high_water: 5,
            shed_deadline: 0,
            mean_queue_delay_secs: 0.02,
        };
        obs.snapshot_taken(&snap);

        let records = recorder.records();
        let admitted: Vec<_> = records
            .iter()
            .filter(|r| r.event.kind() == "AdmissionDecision")
            .collect();
        assert_eq!(admitted.len(), 1);
        let TraceEvent::AdmissionDecision {
            policy,
            verdict,
            reason,
            offered,
            ..
        } = &admitted[0].event
        else {
            panic!("wrong kind");
        };
        assert_eq!(policy, "shed");
        assert_eq!(verdict, "shed");
        assert_eq!(reason, "high_water");
        assert_eq!(*offered, 30);
        // Without a declared policy nothing is emitted even under load.
        let recorder2 = Recorder::bounded(64);
        let mut plain = RecordingObserver::new(recorder2.clone());
        plain.snapshot_taken(&snap);
        assert!(recorder2
            .records()
            .iter()
            .all(|r| r.event.kind() != "AdmissionDecision"));
    }

    #[test]
    fn finished_is_stamped_at_the_latest_seen_time() {
        let recorder = Recorder::bounded(16);
        let mut obs = RecordingObserver::new(recorder.clone());
        obs.config_applied(7.5, &Config::default());
        obs.finished(1, 1);
        let last = recorder.records().last().cloned().unwrap();
        assert_eq!(last.time_secs, 7.5);
    }
}
