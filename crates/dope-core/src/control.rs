//! The control loop, written once: consult → judge → score → drain → apply.
//!
//! [`ControlCore`] is the executive's reconfiguration protocol as a pure,
//! clock-agnostic state machine. It owns the whole protocol state — the
//! configuration in force, the one held [`DecisionTrace`], the in-flight
//! target and its [`Scope`], the reconfiguration and rejection counts,
//! the configuration history, the failure-policy bookkeeping and the
//! replica books (how many replicas of each top-level path are out, and
//! when the drain in flight was first acted on) — and nothing else: no
//! threads, no clock, no queues. A *driver* feeds it what happened
//! ([`tick`](ControlCore::tick), [`reported`](ControlCore::reported),
//! [`suspended`](ControlCore::suspended),
//! [`relaunched`](ControlCore::relaunched), [`stop`](ControlCore::stop),
//! [`finish`](ControlCore::finish)), does what the returned [`Action`]
//! says, and hears what the core decided through one [`ControlSink`].
//! The live executive (`dope-runtime`) and both simulators (`dope-sim`)
//! are such drivers, so a mechanism — and a recorded trace — cannot tell
//! which world ran the rule. `docs/architecture.md` carries the full
//! phase/transition table.
//!
//! # The rules, stated once
//!
//! * **Consult only while [`Phase::Running`].** A tick in any other
//!   phase is ignored: at most one target is ever in flight.
//! * **Equality before validation.** A proposal equal to the
//!   configuration in force is [`Verdict::Unchanged`] without a
//!   validation walk; only a differing proposal is validated against
//!   the budget ([`Verdict::Rejected`] carries the first error's code).
//! * **Each configuration is stored once.** A differing proposal (and a
//!   `Degrade` shrink) is interned against the run's distinct
//!   configurations, so the sink, the history and the report share one
//!   [`Arc<Config>`] per distinct configuration.
//! * **Pend and score.** The mechanism's explanation of a consult is
//!   held until the *next* snapshot, scored against its
//!   [`realized_throughput`], and emitted *before* that snapshot. The
//!   last decision of a run is scored if the driver hands
//!   [`finish`](ControlCore::finish) a final snapshot, unscored
//!   otherwise. Every consult that explained itself yields exactly one
//!   scored-decision event.
//! * **Applied or superseded.** Every [`Verdict::Accepted`] proposal is
//!   followed by exactly one of a `reconfigured` event or a
//!   [`Verdict::Superseded`] one: a failure, a stop, or an aborted
//!   relaunch retires the target instead of dropping it.
//! * **One suspend rule.** Every drain — for a target, a failure, a
//!   restart or a stop — suspends a set of top-level paths, and exactly
//!   that set is relaunched: the changed paths ([`Config::delta_paths`])
//!   when delta reconfiguration is enabled and the target differs only in
//!   top-level leaf extents, otherwise every top-level path
//!   ([`Scope::paths`]).
//! * **The core decides the boundary.** A partial drain awaits its
//!   scope's paths, any other drain (and a running run) all paths; the
//!   [`reported`](ControlCore::reported) that settles the last awaited
//!   replica — or a suspend request that finds none out — returns it.
//!
//! # Example
//!
//! A driver whose drains take no time (what the simulators do):
//!
//! ```
//! use dope_core::control::{ControlCore, NullSink, Rules};
//! use dope_core::{
//!     Config, FailurePolicy, MonitorSnapshot, ProgramShape, Resources, ShapeNode,
//!     StaticMechanism, TaskConfig, TaskKind,
//! };
//!
//! let shape = ProgramShape::new(vec![ShapeNode::leaf("stage", TaskKind::Par)]);
//! let mut mechanism = StaticMechanism::new(Config::new(vec![TaskConfig::leaf("stage", 4)]));
//! let mut sink = NullSink;
//! let rules = Rules { budget: 8, delta: true, policy: FailurePolicy::Abort };
//! let initial = Config::new(vec![TaskConfig::leaf("stage", 1)]).into();
//! let mut core = ControlCore::new(
//!     &mut mechanism, &mut sink, &shape, Resources::threads(8), rules, initial,
//! );
//! assert!(core.tick_instant(1.0, &MonitorSnapshot::at(1.0)));
//! assert_eq!(core.config().total_threads(), 4);
//! let report = core.finish(2.0, None);
//! assert_eq!(report.reconfigurations, 1);
//! assert_eq!(report.config_history.len(), 2);
//! ```

use crate::config::Config;
use crate::decision::{realized_throughput, DecisionTrace};
use crate::diag::DiagCode;
use crate::error::Error;
use crate::failure::{FailurePolicy, FailureVerdict, TaskOutcome};
use crate::mechanism::{Mechanism, Resources};
use crate::metrics::MonitorSnapshot;
use crate::path::TaskPath;
use crate::shape::ProgramShape;
use crate::status::TaskStatus;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// How the control core judged one mechanism proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The proposal validated and differs from the current configuration;
    /// a drain and relaunch follows.
    Accepted,
    /// The proposal equals the current configuration.
    Unchanged,
    /// The proposal failed validation; `code` is the `DV0xx` diagnostic
    /// of the first error.
    Rejected {
        /// The diagnostic code explaining the rejection.
        code: DiagCode,
    },
    /// A previously accepted proposal was discarded before it could be
    /// applied — a failure, a stop, or an aborted relaunch took
    /// precedence. Emitted so the audit trail never shows an
    /// accepted-but-vanished decision. Additive in schema v1.
    Superseded,
}

/// Which top-level paths a drain suspends and relaunches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Every top-level path drains and relaunches.
    Full,
    /// Only these (top-level leaf) paths drain and relaunch; every other
    /// replica keeps running across the boundary.
    Partial(Vec<TaskPath>),
}

impl Scope {
    /// The top-level paths the scope drains and relaunches under
    /// `config`: the changed paths of a partial drain, every top-level
    /// path for a full one.
    #[must_use]
    pub fn paths(&self, config: &Config) -> Vec<TaskPath> {
        match self {
            Scope::Full => (0..config.tasks.len())
                .map(|i| TaskPath::root_child(i as u16))
                .collect(),
            Scope::Partial(paths) => paths.clone(),
        }
    }

    /// The stable trace tag: `"full"` or `"partial"`.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Scope::Full => "full",
            Scope::Partial(_) => "partial",
        }
    }

    /// Replica-carrying paths drained at the boundary: the changed
    /// paths of a partial drain, every path of `config` for a full one.
    #[must_use]
    pub fn paths_drained(&self, config: &Config) -> u64 {
        match self {
            Scope::Full => config.paths().len() as u64,
            Scope::Partial(paths) => paths.len() as u64,
        }
    }
}

/// What a driver measured around one drain-and-relaunch (all zero for
/// drivers whose drains take no time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrainTiming {
    /// Seconds from the drain's first [`suspended`](ControlCore::suspended) to its boundary.
    pub pause_secs: f64,
    /// Seconds spent instantiating and submitting the relaunch.
    pub relaunch_secs: f64,
    /// Worker jobs out after the relaunch.
    pub jobs: u64,
}

/// What the driver must do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Nothing: keep running (or keep draining).
    Continue,
    /// Steer every replica of these top-level paths to a consistent
    /// point and confirm it with [`suspended`](ControlCore::suspended);
    /// each replica's [`reported`](ControlCore::reported) outcome
    /// settles it, and the last awaited one brings the boundary. A later
    /// request while one is in flight names a superset.
    SuspendPaths(Vec<TaskPath>),
    /// Relaunch the scope's paths ([`Scope::paths`]) under
    /// [`ControlCore::config`], then report
    /// [`relaunched`](ControlCore::relaunched).
    Relaunch(Scope),
    /// The `Restart` policy absorbed `replicas` failures: back off for
    /// `backoff`, relaunch every top-level path under the unchanged
    /// configuration, then report [`relaunched`](ControlCore::relaunched).
    Restart {
        /// Failed replicas being restarted.
        replicas: u64,
        /// Delay before the relaunch.
        backoff: Duration,
    },
    /// The run is over (the program finished or a stop drained): call
    /// [`finish`](ControlCore::finish).
    Finish,
    /// The failure policy gave up: call [`finish`](ControlCore::finish),
    /// then fail the run with this error.
    Abort(Error),
}

/// Where the protocol stands. At most one target is in flight, by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// The tasks run; ticks consult the mechanism.
    Running,
    /// An accepted target waits for its scope's paths to drain.
    Draining {
        /// The accepted configuration.
        target: Arc<Config>,
        /// The paths being drained.
        scope: Scope,
    },
    /// A replica failed: every top-level path drains so the failure
    /// policy acts at a consistent point.
    DrainingForFailure,
    /// A stop was requested or the program finished: nothing is
    /// consulted or relaunched any more.
    Stopping,
    /// Every path drained and the driver is relaunching them under the
    /// unchanged configuration.
    Relaunching,
    /// [`ControlCore::config`] changed at the drained boundary and the
    /// driver is relaunching under it; it counts once
    /// [`relaunched`](ControlCore::relaunched) confirms.
    Applying {
        /// How much was drained for it.
        scope: Scope,
        /// `true` for an accepted mechanism proposal (superseded if the
        /// relaunch never completes), `false` for a `Degrade` shrink.
        proposed: bool,
    },
}

/// The fixed parameters of one run's control protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    /// Thread budget proposals are validated against.
    pub budget: u32,
    /// Allow partial (delta) drains for extent-only changes of
    /// top-level leaves.
    pub delta: bool,
    /// What to do when a replica fails.
    pub policy: FailurePolicy,
}

/// Hears what the control core decided. Every method defaults to a
/// no-op, so sinks implement only what they consume; the core calls
/// them in causal order.
pub trait ControlSink {
    /// Whether [`decision_scored`](ControlSink::decision_scored) is
    /// consumed. When `false` the core never calls
    /// [`Mechanism::explain`].
    fn audits_decisions(&self) -> bool {
        true
    }

    /// The run started under `config`. Called by the *driver*, once,
    /// before the first tick.
    fn launched(
        &mut self,
        mechanism: &str,
        threads: u32,
        shape: &ProgramShape,
        config: &Arc<Config>,
    ) {
        let _ = (mechanism, threads, shape, config);
    }

    /// A monitor snapshot was put to the mechanism.
    fn snapshot_taken(&mut self, snapshot: &MonitorSnapshot) {
        let _ = snapshot;
    }

    /// The decision taken at `time_secs` left the hold: `realized` is
    /// the bottleneck throughput of the snapshot that followed it
    /// (`None` when there was none, or nothing ran).
    fn decision_scored(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) {
        let _ = (time_secs, mechanism, trace, realized);
    }

    /// The mechanism proposed `proposal` and the core judged it — or,
    /// for [`Verdict::Superseded`], retired it after accepting it.
    fn proposal_evaluated(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        proposal: &Arc<Config>,
        verdict: Verdict,
    ) {
        let _ = (time_secs, mechanism, proposal, verdict);
    }

    /// `config` took effect: the boundary drained `scope` and the
    /// relaunch completed.
    fn reconfigured(
        &mut self,
        time_secs: f64,
        config: &Arc<Config>,
        scope: &Scope,
        timing: DrainTiming,
    ) {
        let _ = (time_secs, config, scope, timing);
    }

    /// A replica at `path` failed for `reason`; `policy` is the tag of
    /// the failure policy that will judge it at the drained boundary.
    fn task_failed(&mut self, time_secs: f64, path: &TaskPath, reason: &str, policy: &str) {
        let _ = (time_secs, path, reason, policy);
    }
}

/// The sink that listens to nothing (and switches the decision audit
/// off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ControlSink for NullSink {
    fn audits_decisions(&self) -> bool {
        false
    }
}

/// What a finished run's control state amounts to.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReport {
    /// Applied reconfigurations (`config_history.len() - 1`).
    pub reconfigurations: u64,
    /// Proposals rejected by validation.
    pub rejected: u64,
    /// Configuration in force at the end.
    pub final_config: Config,
    /// `(time_secs, config)` for every applied configuration, the
    /// initial one (at 0.0) included; a configuration applied twice is
    /// the same allocation both times.
    pub config_history: Vec<(f64, Arc<Config>)>,
    /// Failed replicas the `Restart` policy absorbed.
    pub restarts: u64,
    /// Replicas that failed (panicked or vanished).
    pub task_failures: u64,
    /// Replicas whose job ended without an outcome (`<= task_failures`).
    pub lost_jobs: u64,
    /// The most severe thing that happened: what the failure policy had
    /// to do, or [`FailureVerdict::LostWork`] once a job vanished.
    pub failure_verdict: FailureVerdict,
}

/// One top-level path's replicas, as the core books them.
#[derive(Debug, Clone, Copy, Default)]
struct Books {
    /// Replicas launched that have not reported.
    out: usize,
    /// Replicas launched since the path's last relaunch not yet `Finished`.
    unfinished: usize,
}

/// The control protocol state machine. See the [module docs](self).
pub struct ControlCore<'a> {
    mechanism: &'a mut dyn Mechanism,
    sink: &'a mut dyn ControlSink,
    shape: &'a ProgramShape,
    res: Resources,
    rules: Rules,
    audit: bool,
    config: Arc<Config>,
    /// Every distinct configuration of the run, allocated once.
    interned: HashSet<Arc<Config>>,
    phase: Phase,
    /// The last explained decision and when it was taken, held for
    /// scoring against the next snapshot.
    held: Option<(f64, DecisionTrace)>,
    /// Failures reported since the last boundary.
    failures: Vec<(TaskPath, String)>,
    /// One entry per top-level path of the shape, by index.
    books: Vec<Books>,
    /// When the driver first acted on the drain in flight.
    drain_since: Option<f64>,
    /// How long the last boundary's drain took, for its relaunch.
    pause_secs: f64,
    history: Vec<(f64, Arc<Config>)>,
    rejected: u64,
    restarts: u64,
    task_failures: u64,
    lost_jobs: u64,
    verdict: FailureVerdict,
}

impl std::fmt::Debug for ControlCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlCore")
            .field("phase", &self.phase)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> ControlCore<'a> {
    /// A core in [`Phase::Running`] under `initial`, which the driver has
    /// validated; its launch is the first [`relaunched`](Self::relaunched).
    pub fn new(
        mechanism: &'a mut dyn Mechanism,
        sink: &'a mut dyn ControlSink,
        shape: &'a ProgramShape,
        res: Resources,
        rules: Rules,
        initial: Arc<Config>,
    ) -> Self {
        ControlCore {
            audit: sink.audits_decisions(),
            mechanism,
            sink,
            shape,
            res,
            rules,
            history: vec![(0.0, Arc::clone(&initial))],
            interned: HashSet::from([Arc::clone(&initial)]),
            config: initial,
            phase: Phase::Running,
            held: None,
            failures: Vec::new(),
            books: vec![Books::default(); shape.tasks.len()],
            drain_since: None,
            pause_secs: 0.0,
            rejected: 0,
            restarts: 0,
            task_failures: 0,
            lost_jobs: 0,
            verdict: FailureVerdict::Clean,
        }
    }

    /// The configuration in force (the one to relaunch under).
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Where the protocol stands.
    #[must_use]
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// `true` while a [`tick`](Self::tick) would consult the mechanism —
    /// drivers check before paying for a snapshot.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// Replicas launched that have not reported ([`DrainTiming::jobs`]).
    #[must_use]
    pub fn replicas_out(&self) -> u64 {
        self.books.iter().map(|books| books.out as u64).sum()
    }

    /// `true` while an explained decision waits to be scored — a driver
    /// whose snapshots cost something takes the final one for
    /// [`finish`](Self::finish) only then.
    #[must_use]
    pub fn holds_decision(&self) -> bool {
        self.held.is_some()
    }

    /// One control period elapsed and `snap` is the monitor's view:
    /// scores and emits the held decision, consults the mechanism,
    /// holds its explanation, and judges its proposal. Ignored (no
    /// consult, no event) unless [`Phase::Running`].
    pub fn tick(&mut self, now: f64, snap: &MonitorSnapshot) -> Action {
        if !self.is_running() {
            return Action::Continue;
        }
        if let Some((at, trace)) = self.held.take() {
            let realized = realized_throughput(snap);
            self.sink
                .decision_scored(at, self.mechanism.name(), trace, realized);
        }
        self.sink.snapshot_taken(snap);
        let proposal = self
            .mechanism
            .reconfigure(snap, &self.config, self.shape, &self.res);
        if self.audit {
            self.held = self.mechanism.explain().map(|trace| (now, trace));
        }
        let Some(proposal) = proposal else {
            return Action::Continue;
        };
        if proposal == *self.config {
            let current = Arc::clone(&self.config);
            self.judged(now, &current, Verdict::Unchanged);
            return Action::Continue;
        }
        let proposal = self.intern(proposal);
        if let Err(err) = proposal.validate(self.shape, self.rules.budget) {
            self.rejected += 1;
            self.judged(now, &proposal, Verdict::Rejected { code: err.code() });
            return Action::Continue;
        }
        self.judged(now, &proposal, Verdict::Accepted);
        let delta = self.rules.delta.then(|| self.config.delta_paths(&proposal));
        let scope = delta.flatten().map_or(Scope::Full, Scope::Partial);
        let paths = scope.paths(&self.config);
        self.phase = Phase::Draining {
            target: proposal,
            scope,
        };
        self.suspend(now, paths)
    }

    /// [`tick`](Self::tick) for drivers whose drains take no time (the
    /// simulators, which book no replicas): a requested drain finds
    /// nothing out, and its relaunch is confirmed at once with nothing
    /// launched. Returns `true` when [`config`](Self::config) changed.
    pub fn tick_instant(&mut self, now: f64, snap: &MonitorSnapshot) -> bool {
        if matches!(self.tick(now, snap), Action::Continue) {
            return false;
        }
        self.relaunched(now, 0.0, &[]);
        true
    }

    /// The replica at (leaf) `path` returned with `outcome`, or without
    /// one (`None`: a lost job, booked as a failure). A failure supersedes
    /// any in-flight target and suspends every top-level path; the report
    /// that settles the last awaited replica returns the boundary.
    pub fn reported(&mut self, now: f64, path: TaskPath, outcome: Option<TaskOutcome>) -> Action {
        if let Some(books) = self.books.get_mut(path.top_index()) {
            books.out = books.out.saturating_sub(1);
            if outcome == Some(TaskOutcome::Completed(TaskStatus::Finished)) {
                books.unfinished = books.unfinished.saturating_sub(1);
            }
        }
        let reason = match outcome {
            Some(TaskOutcome::Completed(_)) if self.drained() => return self.boundary(now),
            Some(TaskOutcome::Completed(_)) => return Action::Continue,
            Some(TaskOutcome::Failed { reason }) => reason,
            None => {
                self.lost_jobs += 1;
                self.verdict = self.verdict.worsen(FailureVerdict::LostWork);
                "worker job vanished without reporting an outcome".to_string()
            }
        };
        self.task_failures += 1;
        self.sink
            .task_failed(now, &path, &reason, self.rules.policy.kind());
        self.failures.push((path, reason));
        if self.phase != Phase::Stopping {
            self.retire_target(now, Phase::DrainingForFailure);
        }
        self.suspend(now, Scope::Full.paths(&self.config))
    }

    /// An orderly stop was requested: any in-flight target is
    /// superseded and every top-level path drains for the last time.
    /// Idempotent.
    pub fn stop(&mut self, now: f64) -> Action {
        let action = match self.phase {
            Phase::Stopping => return Action::Continue,
            // Nothing is running: there is nothing to drain.
            Phase::Relaunching | Phase::Applying { .. } => Some(Action::Finish),
            _ => None,
        };
        self.retire_target(now, Phase::Stopping);
        action.unwrap_or_else(|| self.suspend(now, Scope::Full.paths(&self.config)))
    }

    /// The driver set the flags of the last [`Action::SuspendPaths`] at
    /// `now` (after the consult and sink work that are not pause); the
    /// drain's pause runs from the first such call.
    pub fn suspended(&mut self, now: f64) {
        self.drain_since.get_or_insert(now);
    }

    /// The launch, or the relaunch the last boundary asked for, put out a
    /// replica at each (leaf) path of `launched` in `relaunch_secs`; the
    /// relaunched paths' books restart with them. A configuration changed
    /// at the boundary counts here: the history grows, the mechanism hears
    /// [`applied`](Mechanism::applied), and the sink `reconfigured`.
    pub fn relaunched(&mut self, now: f64, relaunch_secs: f64, launched: &[TaskPath]) {
        for index in 0..self.books.len() {
            if self.covers(index) {
                self.books[index].unfinished = 0;
            }
        }
        for path in launched {
            if let Some(books) = self.books.get_mut(path.top_index()) {
                books.out += 1;
                books.unfinished += 1;
            }
        }
        match std::mem::replace(&mut self.phase, Phase::Running) {
            Phase::Relaunching => {}
            Phase::Applying { scope, .. } => {
                let timing = DrainTiming {
                    pause_secs: self.pause_secs,
                    relaunch_secs,
                    jobs: self.replicas_out(),
                };
                self.history.push((now, Arc::clone(&self.config)));
                self.mechanism.applied(&self.config);
                self.sink.reconfigured(now, &self.config, &scope, timing);
            }
            other => self.phase = other,
        }
    }

    /// Ends the run — on every exit, clean or not: the held decision is
    /// emitted (scored against `final_snapshot` when the driver has
    /// one) and a target still in flight is superseded.
    pub fn finish(mut self, now: f64, final_snapshot: Option<&MonitorSnapshot>) -> ControlReport {
        self.retire_target(now, Phase::Stopping);
        if let Some((at, trace)) = self.held.take() {
            let realized = final_snapshot.and_then(realized_throughput);
            self.sink
                .decision_scored(at, self.mechanism.name(), trace, realized);
        }
        ControlReport {
            reconfigurations: self.history.len() as u64 - 1,
            rejected: self.rejected,
            final_config: Config::clone(&self.config),
            config_history: self.history,
            restarts: self.restarts,
            task_failures: self.task_failures,
            lost_jobs: self.lost_jobs,
            failure_verdict: self.verdict,
        }
    }

    /// Whether the drain or relaunch under way covers top-level path
    /// `index`: a partial one its changed paths, any other all paths.
    fn covers(&self, index: usize) -> bool {
        match &self.phase {
            Phase::Draining { scope, .. } | Phase::Applying { scope, .. } => match scope {
                Scope::Full => true,
                Scope::Partial(paths) => paths.iter().any(|path| path.top_index() == index),
            },
            _ => true,
        }
    }

    /// Every replica the phase waits for has reported (the covered paths';
    /// a relaunch under way waits for nothing).
    fn drained(&self) -> bool {
        !matches!(self.phase, Phase::Relaunching | Phase::Applying { .. })
            && (self.books.iter().enumerate())
                .all(|(index, books)| books.out == 0 || !self.covers(index))
    }

    /// A suspend request for `paths`; one that finds nothing out is its
    /// own boundary.
    fn suspend(&mut self, now: f64, paths: Vec<TaskPath>) -> Action {
        if self.drained() {
            return self.boundary(now);
        }
        Action::SuspendPaths(paths)
    }

    /// What the phase does once every awaited replica has reported.
    fn boundary(&mut self, now: f64) -> Action {
        self.pause_secs = self.drain_since.take().map_or(0.0, |since| now - since);
        let finished = self.books.iter().all(|books| books.unfinished == 0);
        match std::mem::replace(&mut self.phase, Phase::Relaunching) {
            Phase::Draining { target, scope } => self.switch_to(target, scope, true),
            Phase::DrainingForFailure => self.apply_policy(false),
            Phase::Stopping if !self.failures.is_empty() => self.apply_policy(true),
            Phase::Stopping => self.ended(Action::Finish),
            Phase::Running if finished => self.ended(Action::Finish),
            // `Running` (a relaunch under way is never drained): replicas
            // suspended without being asked relaunch as they were.
            _ => Action::Relaunch(Scope::Full),
        }
    }

    fn judged(&mut self, now: f64, proposal: &Arc<Config>, verdict: Verdict) {
        self.sink
            .proposal_evaluated(now, self.mechanism.name(), proposal, verdict);
    }

    /// Moves to `next`, superseding whatever accepted target the old
    /// phase carried — the one place a target is ever retired.
    fn retire_target(&mut self, now: f64, next: Phase) {
        let retired = match std::mem::replace(&mut self.phase, next) {
            Phase::Draining { target, .. } => Some(target),
            // The relaunch never completed: the configuration last
            // applied is still the one in force.
            Phase::Applying { proposed, .. } => {
                let (_, applied) = self.history.last().expect("history starts non-empty");
                let dropped = std::mem::replace(&mut self.config, Arc::clone(applied));
                proposed.then_some(dropped)
            }
            _ => None,
        };
        if let Some(target) = retired {
            self.judged(now, &target, Verdict::Superseded);
        }
    }

    /// The run's one allocation of `config`.
    fn intern(&mut self, config: Config) -> Arc<Config> {
        if let Some(known) = self.interned.get(&config) {
            return Arc::clone(known);
        }
        let config = Arc::new(config);
        self.interned.insert(Arc::clone(&config));
        config
    }

    fn switch_to(&mut self, config: Arc<Config>, scope: Scope, proposed: bool) -> Action {
        self.config = config;
        self.phase = Phase::Applying {
            scope: scope.clone(),
            proposed,
        };
        Action::Relaunch(scope)
    }

    fn ended(&mut self, action: Action) -> Action {
        self.phase = Phase::Stopping;
        action
    }

    /// Every path drained with failures on the books: the policy decides
    /// what the run does next. While `stopping` it still accounts (and
    /// may abort), but nothing is relaunched.
    fn apply_policy(&mut self, stopping: bool) -> Action {
        let failures = std::mem::take(&mut self.failures);
        let replicas = failures.len() as u64;
        let first = |suffix: &str| {
            let (path, reason) = failures[0].clone();
            Error::TaskFailed {
                path,
                reason: format!("{reason}{suffix}"),
            }
        };
        let next = match self.rules.policy {
            FailurePolicy::Restart {
                max_retries,
                backoff,
            } => {
                if self.restarts + replicas > u64::from(max_retries) {
                    Err(first(&format!(
                        " (restart budget of {max_retries} exhausted)"
                    )))
                } else {
                    self.restarts += replicas;
                    self.verdict = self.verdict.worsen(FailureVerdict::Recovered);
                    Ok(Action::Restart { replicas, backoff })
                }
            }
            FailurePolicy::Degrade => self.degraded(&failures).map(|degraded| {
                self.verdict = self.verdict.worsen(FailureVerdict::Degraded);
                if stopping {
                    // Nothing will run under the shrunken configuration.
                    Action::Finish
                } else {
                    self.switch_to(degraded, Scope::Full, false)
                }
            }),
            // `FailurePolicy` is non-exhaustive: a policy this core does
            // not know fails safe, exactly like `Abort`.
            _ => Err(first("")),
        };
        match next {
            Err(err) => self.ended(Action::Abort(err)),
            Ok(_) if stopping => self.ended(Action::Finish),
            Ok(action) => action,
        }
    }

    /// The configuration in force with each failed task's extent shrunk
    /// by its dead replicas, interned; a task with no survivors cannot be
    /// degraded, only aborted.
    fn degraded(&mut self, failures: &[(TaskPath, String)]) -> Result<Arc<Config>, Error> {
        let mut degraded = Config::clone(&self.config);
        for (path, _) in failures {
            let survivors = degraded.extent_of(path).unwrap_or(0).saturating_sub(1);
            if survivors == 0 {
                let extent = self.config.extent_of(path).unwrap_or(0);
                let reason = failures
                    .iter()
                    .find(|(failed, _)| failed == path)
                    .map_or("", |(_, reason)| reason);
                return Err(Error::TaskFailed {
                    path: path.clone(),
                    reason: format!(
                        "all {extent} replica(s) failed; cannot degrade below one: {reason}"
                    ),
                });
            }
            degraded.set_extent(path, survivors)?;
        }
        degraded.validate(self.shape, self.rules.budget)?;
        Ok(self.intern(degraded))
    }
}
