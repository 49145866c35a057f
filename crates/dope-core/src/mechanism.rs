//! The mechanism interface: how parallelism gets adapted.
//!
//! A *mechanism* is "an optimization routine that takes an objective
//! function ..., a set of constraints ..., and determines the optimal
//! parallelism configuration" (paper §4). Every mechanism implements
//! [`Mechanism::reconfigure`], the Rust rendering of the paper's
//! `Mechanism::reconfigureParallelism(pd, nthreads)` (Figure 10).

use crate::config::Config;
use crate::decision::{DecisionTrace, Rationale};
use crate::metrics::MonitorSnapshot;
use crate::shape::ProgramShape;

/// The administrator's resource constraints handed to a mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// Maximum hardware threads the configuration may occupy.
    pub threads: u32,
    /// Power budget in watts, if the goal constrains power.
    pub power_budget_watts: Option<f64>,
}

impl Resources {
    /// Constraints with a thread budget only.
    #[must_use]
    pub fn threads(threads: u32) -> Self {
        Resources {
            threads,
            power_budget_watts: None,
        }
    }

    /// Adds a power budget.
    #[must_use]
    pub fn with_power_budget(mut self, watts: f64) -> Self {
        self.power_budget_watts = Some(watts);
        self
    }
}

/// Logic that adapts a parallelism configuration to meet a performance
/// goal.
///
/// Mechanisms are driven identically by the live executive
/// (`dope-runtime`) and by the evaluation simulator (`dope-sim`); they see
/// only monitoring snapshots and configurations and cannot observe which
/// world they run in.
///
/// # Example
///
/// A mechanism that pins everything to one thread:
///
/// ```
/// use dope_core::{Config, Mechanism, MonitorSnapshot, ProgramShape, Resources};
///
/// #[derive(Debug)]
/// struct AllSequential;
///
/// impl Mechanism for AllSequential {
///     fn name(&self) -> &'static str {
///         "all-sequential"
///     }
///
///     fn reconfigure(
///         &mut self,
///         _snap: &MonitorSnapshot,
///         current: &Config,
///         shape: &ProgramShape,
///         _res: &Resources,
///     ) -> Option<Config> {
///         let sequential = Config::single_threaded(shape);
///         (sequential != *current).then_some(sequential)
///     }
/// }
/// ```
pub trait Mechanism: Send {
    /// A short identifier for reports (e.g. `"WQT-H"`, `"TBF"`).
    fn name(&self) -> &'static str;

    /// Proposes a new configuration, or `None` to keep the current one.
    ///
    /// Implementations must return configurations that validate against
    /// `shape` within `res.threads`; the executive rejects (and logs)
    /// configurations that do not.
    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config>;

    /// Called by the executive when a proposed configuration has been
    /// applied (after the suspend/relaunch protocol completed).
    ///
    /// Stateful mechanisms (hill climbers, controllers) use this to commit
    /// their search state.
    fn applied(&mut self, config: &Config) {
        let _ = config;
    }

    /// The initial configuration the mechanism wants to start from, or
    /// `None` to accept the executive's default (an even static split).
    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        let _ = (shape, res);
        None
    }

    /// The mechanism's account of its most recent [`reconfigure`]
    /// call — what it observed, what candidates it weighed, what it
    /// chose and why (see [`DecisionTrace`]).
    ///
    /// The default returns `None` (no audit trail). Mechanisms that
    /// implement it rebuild the trace on every `reconfigure` call,
    /// including "hold" decisions where no configuration was proposed;
    /// the executive records whatever this returns as a `DecisionTraced`
    /// trace event and scores `predicted_throughput` one epoch later.
    ///
    /// [`reconfigure`]: Mechanism::reconfigure
    fn explain(&self) -> Option<DecisionTrace> {
        None
    }
}

/// A mechanism that never reconfigures: a fixed static parallelization.
///
/// Used for the paper's static baselines (`Pthreads-Baseline`, static
/// `<DoP_outer, DoP_inner>` points).
///
/// # Example
///
/// ```
/// use dope_core::{Config, StaticMechanism, TaskConfig};
///
/// let config = Config::new(vec![TaskConfig::leaf("stage", 4)]);
/// let mech = StaticMechanism::new(config);
/// assert_eq!(dope_core::Mechanism::name(&mech), "Static");
/// ```
#[derive(Debug, Clone)]
pub struct StaticMechanism {
    config: Config,
    name: &'static str,
    last_decision: Option<DecisionTrace>,
}

impl StaticMechanism {
    /// A static mechanism pinned to `config`.
    #[must_use]
    pub fn new(config: Config) -> Self {
        StaticMechanism {
            config,
            name: "Static",
            last_decision: None,
        }
    }

    /// Overrides the reported name (e.g. `"Pthreads-Baseline"`).
    #[must_use]
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The pinned configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }
}

impl Mechanism for StaticMechanism {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        let drifted = *current != self.config;
        let chosen = if drifted { "restore-pinned" } else { "hold" };
        self.last_decision = Some(
            DecisionTrace::new(Rationale::Pinned, chosen)
                .observing("pinned_threads", f64::from(self.config.total_threads())),
        );
        drifted.then(|| self.config.clone())
    }

    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(self.config.clone())
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.last_decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;

    #[test]
    fn static_mechanism_proposes_only_changes() {
        let pinned = Config::new(vec![TaskConfig::leaf("t", 4)]);
        let mut mech = StaticMechanism::new(pinned.clone());
        let shape = ProgramShape::new(vec![]);
        let res = Resources::threads(8);
        let snap = MonitorSnapshot::at(0.0);

        let other = Config::new(vec![TaskConfig::leaf("t", 2)]);
        assert_eq!(
            mech.reconfigure(&snap, &other, &shape, &res),
            Some(pinned.clone())
        );
        assert_eq!(mech.reconfigure(&snap, &pinned, &shape, &res), None);
        assert_eq!(mech.initial(&shape, &res), Some(pinned));
    }

    #[test]
    fn resources_builders() {
        let res = Resources::threads(24).with_power_budget(600.0);
        assert_eq!(res.threads, 24);
        assert_eq!(res.power_budget_watts, Some(600.0));
    }

    #[test]
    fn named_mechanism_reports_alias() {
        let mech = StaticMechanism::new(Config::default()).named("Pthreads-Baseline");
        assert_eq!(mech.name(), "Pthreads-Baseline");
    }

    #[test]
    fn mechanism_is_object_safe() {
        let mech: Box<dyn Mechanism> = Box::new(StaticMechanism::new(Config::default()));
        assert_eq!(mech.name(), "Static");
        // The default explain() hook is callable through the vtable.
        assert_eq!(mech.explain(), None);
    }

    #[test]
    fn static_mechanism_explains_both_hold_and_restore() {
        let pinned = Config::new(vec![TaskConfig::leaf("t", 4)]);
        let mut mech = StaticMechanism::new(pinned.clone());
        let shape = ProgramShape::new(vec![]);
        let res = Resources::threads(8);
        let snap = MonitorSnapshot::at(0.0);

        assert_eq!(mech.explain(), None, "no decision before reconfigure");
        let other = Config::new(vec![TaskConfig::leaf("t", 2)]);
        mech.reconfigure(&snap, &other, &shape, &res);
        let trace = mech.explain().expect("restore decision is explained");
        assert_eq!(trace.rationale, Rationale::Pinned);
        assert_eq!(trace.chosen, "restore-pinned");

        mech.reconfigure(&snap, &pinned, &shape, &res);
        let trace = mech.explain().expect("hold decision is explained");
        assert_eq!(trace.chosen, "hold");
    }
}
