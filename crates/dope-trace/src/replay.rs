//! Deterministic replay of a recorded trace into `dope-sim`.
//!
//! A trace fixes three things: the program **shape** (from the `Launched`
//! event), the **initial configuration** (ditto), and the ordered
//! sequence of **accepted configurations** (the `ReconfigureEpoch`
//! events). [`replay_into_sim`] rebuilds a simulated system around that
//! shape, drives it with a mechanism that re-proposes exactly
//! the recorded configurations in order, and returns a [`ReplayOutcome`]
//! comparing the recorded accepted-config sequence against the one the
//! simulator actually applied. A faithful trace replays to an identical
//! sequence — [`ReplayOutcome::matches`] is the regression check the
//! test-suite (and `dope-trace replay`) asserts.
//!
//! # Example
//!
//! ```
//! use dope_core::{Mechanism, Resources, StaticMechanism};
//! use dope_sim::profile::AmdahlProfile;
//! use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
//! use dope_trace::{replay_into_sim, Recorder, RecordingObserver};
//! use dope_workload::ArrivalSchedule;
//!
//! // Record a short run...
//! let model = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(4.0, 0.9, 0.1, 0.05));
//! let mut mech = StaticMechanism::new(model.config_for_width(8, 4));
//! let recorder = Recorder::bounded(4096);
//! let mut observer = RecordingObserver::new(recorder.clone());
//! run_system_observed(
//!     &model,
//!     &ArrivalSchedule::uniform(1.0, 5),
//!     &mut mech,
//!     Resources::threads(8),
//!     &SystemParams::default(),
//!     &mut observer,
//! );
//!
//! // ...then replay it: the accepted-config sequences must agree.
//! let outcome = replay_into_sim(&recorder.records()).unwrap();
//! assert!(outcome.matches());
//! ```

use dope_core::nest;
use dope_core::{Config, Mechanism, MonitorSnapshot, ProgramShape, Resources};
use dope_sim::profile::AmdahlProfile;
use dope_sim::system::{run_system, SystemParams, TwoLevelModel};
use dope_workload::ArrivalSchedule;
use std::sync::Arc;

use crate::event::{TraceEvent, TraceRecord};

/// A [`Mechanism`] that re-proposes the configurations of a recorded
/// trace, in order.
///
/// [`initial`](Mechanism::initial) returns the trace's launch
/// configuration; each subsequent [`reconfigure`](Mechanism::reconfigure)
/// call pops the next recorded `ReconfigureEpoch` configuration until the
/// queue is exhausted, then proposes nothing.
#[derive(Debug, Clone)]
struct ReplayMechanism {
    initial: Arc<Config>,
    queued: std::collections::VecDeque<Arc<Config>>,
}

impl ReplayMechanism {
    /// Launches under `initial`, then re-proposes `queued` in order: a
    /// trace's [`accepted_configs`] after the first.
    fn new(initial: Arc<Config>, queued: &[Arc<Config>]) -> Self {
        ReplayMechanism {
            initial,
            queued: queued.iter().cloned().collect(),
        }
    }
}

impl Mechanism for ReplayMechanism {
    fn name(&self) -> &'static str {
        "Replay"
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        _current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        self.queued.pop_front().map(Arc::unwrap_or_clone)
    }

    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(Config::clone(&self.initial))
    }
}

/// The accepted-configuration sequence of a trace: the launch
/// configuration followed by every `ReconfigureEpoch` configuration, in
/// record order.
#[must_use]
pub fn accepted_configs(records: &[TraceRecord]) -> Vec<Arc<Config>> {
    let mut configs = Vec::new();
    for record in records {
        match &record.event {
            TraceEvent::Launched { config, .. } | TraceEvent::ReconfigureEpoch { config, .. } => {
                configs.push(config.clone());
            }
            _ => {}
        }
    }
    configs
}

/// Result of replaying a trace through the simulator.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Accepted-config sequence read from the trace, the launch
    /// configuration first.
    pub recorded: Vec<Arc<Config>>,
    /// Accepted-config sequence the simulator applied on replay (launch
    /// included).
    pub replayed: Vec<Arc<Config>>,
}

impl ReplayOutcome {
    /// `true` when the replayed sequence is identical to the recorded
    /// one — the determinism contract of the flight recorder.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.recorded == self.replayed
    }
}

/// Replays a recorded trace into a fresh simulated system.
///
/// # Errors
///
/// Returns a description of the problem when the trace has no `Launched`
/// event or its shape contains no two-level nest the simulator can model.
pub fn replay_into_sim(records: &[TraceRecord]) -> Result<ReplayOutcome, String> {
    let (shape, threads, launch) = records
        .iter()
        .find_map(|record| match &record.event {
            TraceEvent::Launched {
                shape,
                threads,
                config,
                ..
            } => Some((shape.clone(), *threads, Arc::clone(config))),
            _ => None,
        })
        .ok_or_else(|| "trace has no Launched event".to_string())?;
    if nest::find_two_level(&shape).is_none() {
        return Err("trace shape has no two-level nest the simulator can model".to_string());
    }

    // `recorded` opens with `launch`.
    let recorded = accepted_configs(records);
    let mut mechanism = ReplayMechanism::new(launch, &recorded[1..]);

    // A mild profile: replay checks *decisions*, not service times.
    let model = TwoLevelModel::custom("replay", shape, AmdahlProfile::new(1.0, 0.9, 0.05, 0.02));
    // The mechanism is consulted once per arrival; two spare arrivals
    // guarantee every queued configuration gets a consult even if the
    // first arrival's consult happens before the launch config settles.
    let schedule = ArrivalSchedule::uniform(0.5, recorded.len() + 2);
    let params = SystemParams {
        contexts: threads.max(1),
        ..SystemParams::default()
    };
    let outcome = run_system(
        &model,
        &schedule,
        &mut mechanism,
        Resources::threads(threads.max(1)),
        &params,
    );

    Ok(ReplayOutcome {
        recorded,
        replayed: outcome.config_history.into_iter().map(|(_, c)| c).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::RecordingObserver;
    use dope_core::StaticMechanism;
    use dope_sim::system::run_system_observed;

    fn record_pipeline_run(widths: &[u32]) -> Vec<TraceRecord> {
        let model = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(2.0, 0.9, 0.05, 0.02));
        let recorder = Recorder::bounded(4096);
        let mut observer = RecordingObserver::new(recorder.clone());
        // A scripted mechanism: propose each width once, in order.
        struct Script {
            configs: std::collections::VecDeque<Config>,
        }
        impl Mechanism for Script {
            fn name(&self) -> &'static str {
                "Script"
            }
            fn reconfigure(
                &mut self,
                _snap: &MonitorSnapshot,
                _current: &Config,
                _shape: &ProgramShape,
                _res: &Resources,
            ) -> Option<Config> {
                self.configs.pop_front()
            }
        }
        let mut mech = Script {
            configs: widths
                .iter()
                .map(|w| model.config_for_width(8, *w))
                .collect(),
        };
        let _ = run_system_observed(
            &model,
            &ArrivalSchedule::uniform(0.5, widths.len() + 3),
            &mut mech,
            Resources::threads(8),
            &SystemParams {
                contexts: 8,
                ..SystemParams::default()
            },
            &mut observer,
        );
        recorder.records()
    }

    #[test]
    fn replay_reproduces_the_accepted_sequence() {
        let records = record_pipeline_run(&[4, 6, 1]);
        let outcome = replay_into_sim(&records).expect("replay");
        assert!(outcome.recorded.len() >= 2, "run must reconfigure");
        assert!(outcome.matches(), "replayed sequence diverged");
    }

    #[test]
    fn replay_of_static_run_matches_trivially() {
        let records = record_pipeline_run(&[]);
        let outcome = replay_into_sim(&records).expect("replay");
        assert_eq!(outcome.recorded.len(), 1);
        assert!(outcome.matches());
    }

    #[test]
    fn replay_without_launch_is_an_error() {
        let err = replay_into_sim(&[]).unwrap_err();
        assert!(err.contains("Launched"), "{err}");
    }

    #[test]
    fn replay_mechanism_pops_in_order() {
        // Widths 4 and 6 map to distinct parallel configurations (width 2
        // would clamp to the sequential alternative and record nothing).
        let records = record_pipeline_run(&[4, 6]);
        let accepted = accepted_configs(&records);
        let (initial, queued) = accepted.split_first().expect("launch");
        let mut mech = ReplayMechanism::new(Arc::clone(initial), queued);
        assert_eq!(mech.queued.len(), 2);
        let shape = ProgramShape::new(vec![]);
        let res = Resources::threads(8);
        let snap = MonitorSnapshot::at(0.0);
        let current = Config::default();
        let first = mech.reconfigure(&snap, &current, &shape, &res).unwrap();
        let second = mech.reconfigure(&snap, &current, &shape, &res).unwrap();
        assert_ne!(first, second);
        assert!(mech.reconfigure(&snap, &current, &shape, &res).is_none());
        let _ = StaticMechanism::new(first);
    }
}
