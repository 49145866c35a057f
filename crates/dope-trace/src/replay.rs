//! Deterministic replay of a recorded trace through the control core.
//!
//! A trace fixes three things: the program **shape** and the thread
//! **budget** (from the `Launched` event), the **launch configuration**
//! (ditto), and the ordered sequence of **applied configurations** (the
//! `ReconfigureEpoch` events). [`replay_into_sim`] builds a
//! [`ControlCore`] over that shape and budget, launched under the
//! recorded configuration exactly as recorded, and has a mechanism
//! propose each recorded epoch's configuration in turn, one instant tick
//! each. The core judges every proposal by the rule the live executive
//! and both simulators run — equality first, validation against the
//! budget, drain, relaunch — so a faithful recording replays to an
//! identical sequence: [`ReplayOutcome::matches`] is the regression
//! check the test harness (and `dope-trace replay`) asserts. Any shape
//! replays; nothing is simulated.
//!
//! # Example
//!
//! ```
//! use dope_core::control::{DrainTiming, Scope};
//! use dope_core::{Config, ProgramShape, ShapeNode, TaskConfig, TaskKind};
//! use dope_trace::{replay_into_sim, TraceEvent, TraceRecord};
//! use std::sync::Arc;
//!
//! // A two-stage pipeline launched at one thread a stage, then widened.
//! let shape = ProgramShape::new(vec![
//!     ShapeNode::leaf("read", TaskKind::Seq),
//!     ShapeNode::leaf("work", TaskKind::Par),
//! ]);
//! let pipeline = |work| Arc::new(Config::new(vec![
//!     TaskConfig::leaf("read", 1),
//!     TaskConfig::leaf("work", work),
//! ]));
//! let records = [
//!     TraceEvent::Launched {
//!         mechanism: "Static".into(),
//!         goal: String::new(),
//!         threads: 4,
//!         shape,
//!         config: pipeline(1),
//!         admission: "".into(),
//!     },
//!     TraceEvent::reconfigured(&pipeline(3), &Scope::Full, DrainTiming::default()),
//! ]
//! .into_iter()
//! .enumerate()
//! .map(|(seq, event)| TraceRecord { seq: seq as u64, time_secs: seq as f64, event })
//! .collect::<Vec<_>>();
//!
//! let outcome = replay_into_sim(&records).unwrap();
//! assert_eq!(outcome.replayed.len(), 2);
//! assert!(outcome.matches());
//! ```

use dope_core::control::{ControlCore, NullSink, Rules};
use dope_core::{Config, FailurePolicy, Mechanism, MonitorSnapshot, ProgramShape, Resources};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::event::{TraceEvent, TraceRecord};

/// A [`Mechanism`] that proposes the configurations of a recorded
/// trace's epochs, one per consult, in order, then nothing.
#[derive(Debug, Clone)]
struct ReplayMechanism {
    queued: VecDeque<Arc<Config>>,
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
}

/// Result of replaying a trace through the control core.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Applied-config sequence read from the trace, the launch
    /// configuration first.
    pub recorded: Vec<Arc<Config>>,
    /// Applied-config sequence the control core produced on replay
    /// (launch included).
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

/// Replays a recorded trace through a fresh [`ControlCore`]: the core is
/// launched under the recorded shape, budget and configuration (with
/// delta drains and the `Abort` failure policy), each recorded epoch's
/// configuration is proposed at one instant tick, and the configurations
/// the core applied are compared with the recorded ones.
///
/// # Errors
///
/// Returns a description of the problem when the trace has no `Launched`
/// event.
pub fn replay_into_sim(records: &[TraceRecord]) -> Result<ReplayOutcome, String> {
    let (shape, threads, launch) = records
        .iter()
        .find_map(|record| match &record.event {
            TraceEvent::Launched {
                shape,
                threads,
                config,
                ..
            } => Some((shape, *threads, config)),
            _ => None,
        })
        .ok_or_else(|| "trace has no Launched event".to_string())?;
    let queued: VecDeque<Arc<Config>> = (records.iter())
        .filter_map(|record| match &record.event {
            TraceEvent::ReconfigureEpoch { config, .. } => Some(Arc::clone(config)),
            _ => None,
        })
        .collect();
    let recorded: Vec<Arc<Config>> = std::iter::once(Arc::clone(launch))
        .chain(queued.iter().cloned())
        .collect();

    let mut mechanism = ReplayMechanism { queued };
    let rules = Rules {
        budget: threads,
        delta: true,
        policy: FailurePolicy::Abort,
    };
    let (res, initial) = (Resources::threads(threads), Arc::clone(launch));
    let mut sink = NullSink;
    let mut core = ControlCore::new(&mut mechanism, &mut sink, shape, res, rules, initial);
    let snapshot = MonitorSnapshot::default();
    for epoch in 1..recorded.len() {
        core.tick_instant(epoch as f64, &snapshot);
    }
    let report = core.finish(recorded.len() as f64, None);

    Ok(ReplayOutcome {
        recorded,
        replayed: report.config_history.into_iter().map(|(_, c)| c).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::control::{DrainTiming, Scope};
    use dope_core::{nest, ShapeNode, TaskConfig, TaskKind};

    /// A recording that launched `launch` under `threads` on `shape` and
    /// then applied each of `epochs`.
    fn recording(
        shape: ProgramShape,
        threads: u32,
        launch: Config,
        epochs: &[Config],
    ) -> Vec<TraceRecord> {
        let launched = TraceEvent::Launched {
            mechanism: "Scripted".into(),
            goal: String::new(),
            threads,
            shape,
            config: Arc::new(launch),
            admission: "".into(),
        };
        let applied = (epochs.iter()).map(|config| {
            TraceEvent::reconfigured(
                &Arc::new(config.clone()),
                &Scope::Full,
                DrainTiming::default(),
            )
        });
        std::iter::once(launched)
            .chain(applied)
            .enumerate()
            .map(|(seq, event)| TraceRecord {
                seq: seq as u64,
                time_secs: seq as f64,
                event,
            })
            .collect()
    }

    fn flat() -> ProgramShape {
        ProgramShape::new(vec![
            ShapeNode::leaf("read", TaskKind::Seq),
            ShapeNode::leaf("work", TaskKind::Par),
        ])
    }

    fn pipeline(work: u32) -> Config {
        Config::new(vec![
            TaskConfig::leaf("read", 1),
            TaskConfig::leaf("work", work),
        ])
    }

    /// A transaction loop whose body is one parallel leaf, at `threads`
    /// split into transactions of `width`.
    fn doall(threads: u32, width: u32) -> (ProgramShape, Config) {
        let shape = ProgramShape::new(vec![ShapeNode::nest(
            "txn",
            TaskKind::Par,
            vec![ShapeNode::leaf("chunk", TaskKind::Par)],
        )]);
        let nest = nest::find_two_level(&shape).expect("a two-level nest");
        let config = nest::config_for_width(&shape, &nest, threads, width);
        (shape, config)
    }

    #[test]
    fn replay_reproduces_the_accepted_sequence() {
        let (shape, launch) = doall(8, 1);
        let epochs = [doall(8, 4).1, doall(8, 2).1, doall(8, 1).1];
        let outcome = replay_into_sim(&recording(shape, 8, launch, &epochs)).expect("replay");
        assert_eq!(outcome.recorded.len(), 4);
        assert!(outcome.matches(), "replayed sequence diverged");
    }

    #[test]
    fn replay_of_static_run_matches_trivially() {
        let outcome = replay_into_sim(&recording(flat(), 4, pipeline(1), &[])).expect("replay");
        assert_eq!(outcome.recorded.len(), 1);
        assert!(outcome.matches());
    }

    #[test]
    fn a_flat_shape_replays() {
        let records = recording(flat(), 4, pipeline(1), &[pipeline(3), pipeline(2)]);
        let outcome = replay_into_sim(&records).expect("any shape replays");
        assert_eq!(outcome.replayed.len(), 3);
        assert!(outcome.matches());
    }

    #[test]
    fn a_launch_over_the_recorded_budget_replays_as_recorded() {
        let (shape, launch) = doall(8, 2);
        let records = recording(shape, 4, launch.clone(), &[doall(4, 2).1]);
        let outcome = replay_into_sim(&records).expect("replay");
        assert_eq!(*outcome.replayed[0], launch);
        assert!(outcome.matches());
    }

    #[test]
    fn replay_without_launch_is_an_error() {
        let err = replay_into_sim(&[]).unwrap_err();
        assert!(err.contains("Launched"), "{err}");
    }
}
