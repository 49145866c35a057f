//! The control protocol tested as what it is: a state machine.
//!
//! `dope_core::control::ControlCore` is driven here with no threads and
//! no clock. A seeded explorer plays a legal-but-arbitrary driver — it
//! books every replica each relaunch puts out, ticks at any time (also
//! mid-drain), has booked replicas report in any order (finished,
//! suspended, failed, or lost without an outcome), stops, lets
//! relaunches fail — against a scripted mechanism (hold / unchanged /
//! reject / accept-partial / accept-full, sometimes unexplained), under
//! all three failure policies with delta reconfiguration on and off,
//! checks the protocol's invariants against its own books after every
//! step and at `finish`, and holds every run's recording (made by the
//! simulators' `RecordingObserver`) to the trace rules of
//! `tests/support`'s `check`. The interleavings the live suites
//! (`control_loop.rs`, `failure_injection.rs`, `partial_reconfig.rs`)
//! can only hope to hit by racing threads are enumerated here; the ones
//! that were once bugs are pinned as named schedules below.

use dope_core::control::{
    Action, ControlCore, ControlReport, ControlSink, DrainTiming, Phase, Rules, Scope, Verdict,
};
use dope_core::{
    Config, DecisionTrace, DiagCode, FailurePolicy, FailureVerdict, Mechanism, MonitorSnapshot,
    ProgramShape, Rationale, Resources, ShapeNode, TaskConfig, TaskKind, TaskOutcome, TaskPath,
    TaskStats, TaskStatus,
};
use dope_trace::{Recorder, RecordingObserver, TraceEvent, TraceRecord};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::time::Duration;
use support::{broken, check, Counts, Rule};

mod support;

const BUDGET: u32 = 16;

/// Two top-level leaves (extent changes there are delta-eligible) and a
/// nest (a change inside it needs a full drain).
fn shape() -> ProgramShape {
    ProgramShape::new(vec![
        ShapeNode::leaf("a", TaskKind::Par),
        ShapeNode::leaf("b", TaskKind::Par).with_max_extent(8),
        ShapeNode {
            name: "n".to_string(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![ShapeNode::leaf("x", TaskKind::Par)]],
        },
    ])
}

fn config(a: u32, b: u32, x: u32) -> Config {
    Config::new(vec![
        TaskConfig::leaf("a", a),
        TaskConfig::leaf("b", b),
        TaskConfig::nest("n", 1, 0, vec![TaskConfig::leaf("x", x)]),
    ])
}

fn path(text: &str) -> TaskPath {
    text.parse().unwrap()
}

/// Every top-level path of any configuration of [`shape`].
fn top_level() -> Vec<TaskPath> {
    vec![path("0"), path("1"), path("2")]
}

/// The top-level path a (leaf) replica path runs under.
fn top(leaf: &str) -> TaskPath {
    path(&leaf[..1])
}

/// The (leaf) path of every replica a relaunch of the top-level `paths`
/// puts out under `config`, as the live executive instantiates them:
/// one per worker of a leaf, per replica of the nest it sits in.
fn launched(config: &Config, paths: &[TaskPath]) -> Vec<&'static str> {
    let extent = |at: &str| config.extent_of(&path(at)).unwrap() as usize;
    let mut leaves = Vec::new();
    for top in paths {
        let (leaf, replicas) = match top.top_index() {
            0 => ("0", extent("0")),
            1 => ("1", extent("1")),
            _ => ("2.0", extent("2") * extent("2.0")),
        };
        leaves.extend(std::iter::repeat_n(leaf, replicas));
    }
    leaves
}

/// The explorer's only source of choice.
struct Rng(SmallRng);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    Hold,
    Unchanged,
    Reject,
    /// Rejections within the budget, each by a different rule.
    RejectOverCap,
    RejectArity,
    RejectStructure,
    AcceptPartial,
    AcceptFull,
}

/// Plays `script` (then holds), counting what the core asked of it.
struct Scripted {
    script: Vec<(Move, bool)>,
    consults: usize,
    explained: usize,
    applied: Vec<Config>,
    last: Option<DecisionTrace>,
}

impl Scripted {
    fn new(script: Vec<(Move, bool)>) -> Self {
        Scripted {
            script,
            consults: 0,
            explained: 0,
            applied: Vec::new(),
            last: None,
        }
    }
}

impl Mechanism for Scripted {
    fn name(&self) -> &'static str {
        "Scripted"
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        let (step, explains) = self
            .script
            .get(self.consults)
            .copied()
            .unwrap_or((Move::Hold, true));
        self.consults += 1;
        self.last = explains.then(|| {
            self.explained += 1;
            DecisionTrace::new(Rationale::Hold, format!("{step:?}")).predicting(10.0)
        });
        let bump = |extent: u32| extent % 3 + 1;
        let mut next = current.clone();
        match step {
            Move::Hold => return None,
            Move::Unchanged => {}
            Move::Reject => next.set_extent(&path("0"), 100).unwrap(),
            Move::RejectOverCap => next.set_extent(&path("1"), 9).unwrap(),
            Move::RejectArity => drop(next.tasks.pop()),
            Move::RejectStructure => next.tasks[2].nested = None,
            Move::AcceptPartial => {
                let a = current.extent_of(&path("0")).unwrap();
                next.set_extent(&path("0"), bump(a)).unwrap();
            }
            Move::AcceptFull => {
                let x = current.extent_of(&path("2.0")).unwrap();
                next.set_extent(&path("2.0"), bump(x)).unwrap();
            }
        }
        Some(next)
    }

    fn applied(&mut self, config: &Config) {
        self.applied.push(config.clone());
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.last.clone()
    }
}

/// A snapshot with something to score against.
fn snapshot(time: f64) -> MonitorSnapshot {
    let mut snap = MonitorSnapshot::at(time);
    snap.tasks.insert(
        path("0"),
        TaskStats {
            invocations: 10,
            throughput: 8.0,
            ..TaskStats::default()
        },
    );
    snap
}

/// What the driver owes the core next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owed {
    Nothing,
    Drain,
    Relaunch,
    Finish,
}

/// How one replica returns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Finished,
    Suspended,
    Failed,
    /// Its job ended without an outcome.
    Lost,
}

use Outcome::{Failed, Finished, Lost, Suspended};

impl Outcome {
    fn report(self, leaf: &str) -> Option<TaskOutcome> {
        match self {
            Finished => Some(TaskOutcome::Completed(TaskStatus::Finished)),
            Suspended => Some(TaskOutcome::Completed(TaskStatus::Suspended)),
            Failed => Some(TaskOutcome::Failed {
                reason: format!("boom at {leaf}"),
            }),
            Lost => None,
        }
    }

    fn fails(self) -> bool {
        matches!(self, Failed | Lost)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Tick,
    /// One booked replica of this (leaf) path returns.
    Report(&'static str, Outcome),
    Stop,
    /// The driver relaunches what the last boundary asked for and books
    /// every replica it puts out.
    Relaunched,
    /// `finish(final snapshot?)`; ends the schedule.
    Finish(bool),
}

impl Step {
    /// A failure report or a stop: a request to drain every path.
    fn widens(self) -> bool {
        matches!(self, Step::Stop) || matches!(self, Step::Report(_, outcome) if outcome.fails())
    }
}

fn is_boundary(action: &Action) -> bool {
    matches!(
        action,
        Action::Relaunch(_) | Action::Restart { .. } | Action::Finish | Action::Abort(_)
    )
}

fn owed_after(action: &Action, before: Owed) -> Owed {
    match action {
        Action::Continue => before,
        Action::SuspendPaths(_) => Owed::Drain,
        Action::Relaunch(_) | Action::Restart { .. } => Owed::Relaunch,
        Action::Finish | Action::Abort(_) => Owed::Finish,
    }
}

/// The driver's own books, kept apart from the core's, which the
/// step-wise invariants hold the core's answers against.
#[derive(Default)]
struct Driver {
    /// Every booked replica that has not reported, by (leaf) path.
    out: Vec<&'static str>,
    /// Per top-level path: replicas launched since its last relaunch
    /// that have not reported `Finished`.
    unfinished: [usize; 3],
    /// The paths the suspend request in flight names.
    awaited: Option<Vec<TaskPath>>,
    /// The scope of the partial drain in flight.
    partial: Option<Vec<TaskPath>>,
    /// A failure raced the partial drain in flight.
    raced: bool,
    /// When the drain in flight was first requested, and how many
    /// requests it has seen.
    requested: Option<(f64, usize)>,
    /// The relaunch the last boundary asked for: its top-level paths.
    owed: Option<Vec<TaskPath>>,
    /// The timing each reconfiguration must report, in order: the pause
    /// from the drain's first request to its boundary.
    epochs: Vec<DrainTiming>,
    /// The pause the last boundary ended, for its relaunch.
    pause: f64,
    /// A stop was asked for.
    stopped: bool,
    /// What the schedule reached: [failures racing a partial drain,
    /// finishes from `Running`, unasked relaunches, lost jobs, pauses
    /// spanning more than one request].
    reached: [usize; 5],
}

/// What a relaunch reports taking to instantiate and submit.
const RELAUNCH_SECS: f64 = 0.25;

impl Driver {
    /// No booked replica of `paths` is out.
    fn idle(&self, paths: &[TaskPath]) -> bool {
        self.out.iter().all(|leaf| !paths.contains(&top(leaf)))
    }

    fn settle(&mut self, leaf: &'static str, outcome: Outcome) {
        let at = self.out.iter().position(|out| *out == leaf);
        self.out
            .swap_remove(at.expect("only booked replicas report"));
        if outcome == Finished {
            self.unfinished[path(leaf).top_index()] -= 1;
        }
        self.reached[3] += usize::from(outcome == Lost);
    }

    /// Relaunches `paths` under the core's configuration and confirms it.
    fn relaunch(&mut self, core: &mut ControlCore<'_>, now: f64, paths: &[TaskPath]) {
        let leaves = launched(core.config(), paths);
        for top in paths {
            self.unfinished[top.top_index()] = 0;
        }
        for leaf in &leaves {
            self.unfinished[path(leaf).top_index()] += 1;
        }
        self.out.extend(&leaves);
        if matches!(core.phase(), Phase::Applying { .. }) {
            self.epochs.push(DrainTiming {
                pause_secs: self.pause,
                relaunch_secs: RELAUNCH_SECS,
                jobs: self.out.len() as u64,
            });
        }
        let booked: Vec<TaskPath> = leaves.iter().map(|leaf| path(leaf)).collect();
        core.relaunched(now, RELAUNCH_SECS, &booked);
    }

    /// Checks what the core answered to `step` against the books, then
    /// follows the answer.
    fn answered(&mut self, core: &ControlCore<'_>, step: Step, action: &Action, now: f64) {
        check_settled_once(self, core, step);
        check_failure_widens(self, step, action);
        check_partial_scope(self, core, step, action);
        check_boundary(self, step, action);
        check_finish_from_running(self, step, action);
        if self.partial.is_some() && step.widens() {
            self.raced |= step != Step::Stop;
            self.reached[0] += usize::from(step != Step::Stop);
            self.partial = None;
        }
        if let Phase::Draining {
            scope: Scope::Partial(paths),
            ..
        } = core.phase()
        {
            self.partial = Some(paths.clone());
        }
        self.stopped |= step == Step::Stop;
        match action {
            Action::Continue => {}
            Action::SuspendPaths(paths) => {
                let (first, requests) = self.requested.unwrap_or((now, 0));
                self.requested = Some((first, requests + 1));
                self.awaited = Some(paths.clone());
            }
            boundary => {
                let (first, requests) = self.requested.take().unwrap_or((now, 0));
                self.pause = now - first;
                self.reached[4] += usize::from(requests > 1);
                let unasked = self.awaited.is_none() && !step.widens() && step != Step::Tick;
                self.reached[1] += usize::from(unasked && *boundary == Action::Finish);
                self.reached[2] +=
                    usize::from(unasked && *boundary == Action::Relaunch(Scope::Full));
                self.awaited = None;
                self.partial = None;
                self.raced = false;
                self.owed = match boundary {
                    Action::Relaunch(scope) => Some(scope.paths(core.config())),
                    Action::Restart { .. } => Some(top_level()),
                    _ => None,
                };
            }
        }
    }
}

/// Every booked replica is settled at most once (and every report
/// settles one): after every step the core counts exactly the replicas
/// the driver still has out. Turned red by
/// `books.out = books.out.saturating_sub(2);` in `ControlCore::reported`
/// (a report settles two replicas).
fn check_settled_once(driver: &Driver, core: &ControlCore<'_>, step: Step) {
    assert_eq!(
        core.replicas_out(),
        driver.out.len() as u64,
        "books disagree after {step:?}"
    );
}

/// A failure racing a partial drain yields one boundary, widened to every
/// path: the failure's request names every top-level path, the boundary
/// that ends the drain relaunches every path (or ends the run), and
/// while that relaunch is owed nothing but a stop's `Finish` comes back.
/// Turned red by `if self.phase == Phase::Running {` for
/// `if self.phase != Phase::Stopping {` in `ControlCore::reported` (the
/// failure leaves the partial target in flight).
fn check_failure_widens(driver: &Driver, step: Step, action: &Action) {
    let racing = driver.partial.is_some() && step.widens() && step != Step::Stop;
    if racing {
        assert!(
            *action == Action::SuspendPaths(top_level()) || is_boundary(action),
            "a failure racing a partial drain asked for {action:?}"
        );
    }
    if driver.raced || racing {
        if let Action::Relaunch(scope) = action {
            assert_eq!(*scope, Scope::Full, "the raced drain's boundary");
        }
    }
    if driver.owed.is_some() {
        assert!(
            matches!(action, Action::Continue | Action::Finish),
            "a second boundary before the relaunch: {action:?}"
        );
    }
}

/// A partial drain never suspends or relaunches a path outside its
/// scope: the only extent-only change the script makes is to path 0, so
/// a partial scope is `[0]`; the requests that follow it name nothing
/// more until a failure or a stop widens the drain, and its boundary
/// relaunches exactly its scope. Turned red by
/// `Phase::Draining { target, .. } => self.switch_to(target, Scope::Full, true),`
/// in `ControlCore::boundary`.
fn check_partial_scope(driver: &Driver, core: &ControlCore<'_>, step: Step, action: &Action) {
    let changed = vec![path("0")];
    if let Phase::Draining {
        scope: Scope::Partial(paths),
        ..
    }
    | Phase::Applying {
        scope: Scope::Partial(paths),
        ..
    } = core.phase()
    {
        assert_eq!(*paths, changed, "a partial scope beyond the change");
    }
    if driver.partial.is_some() && !step.widens() {
        match action {
            Action::SuspendPaths(paths) => assert_eq!(*paths, changed),
            Action::Relaunch(scope) => assert_eq!(*scope, Scope::Partial(changed.clone())),
            _ => {}
        }
    }
}

/// A boundary comes back only once every awaited path has nothing out,
/// and as soon as it has: a partial drain awaits its scope, a failure or
/// a stop every path, a running run every path (its last report is an
/// unasked boundary), and a suspend request that finds nothing out is its
/// own boundary. Turned red by `books.out <= 1 || !self.covers(index)`
/// for `books.out == 0 || !self.covers(index)` in `ControlCore::drained`.
fn check_boundary(driver: &Driver, step: Step, action: &Action) {
    if driver.owed.is_some() {
        // No drain while a relaunch is owed: a stop finishes at once.
        return;
    }
    let awaited = match (step, action) {
        (_, Action::SuspendPaths(paths)) => paths.clone(),
        (Step::Tick, Action::Relaunch(scope)) => scope.paths(&config(2, 2, 1)),
        _ if step.widens() => top_level(),
        _ => driver.awaited.clone().unwrap_or_else(top_level),
    };
    let idle = driver.idle(&awaited);
    match action {
        Action::Continue if step == Step::Tick => {}
        Action::Continue | Action::SuspendPaths(_) => assert!(
            !idle,
            "every awaited replica of {awaited:?} reported, yet {action:?}"
        ),
        _ => assert!(
            idle,
            "{action:?} while {:?} is out of {awaited:?}",
            driver.out
        ),
    }
}

/// `Finish` from `Running` only when every replica reported `Finished`
/// (no stop was asked for and no drain is in flight); otherwise the
/// unasked boundary relaunches every path as it was. Turned red by
/// `books.out == 0` for `books.unfinished == 0` in
/// `ControlCore::boundary`.
fn check_finish_from_running(driver: &Driver, step: Step, action: &Action) {
    let finished = driver.unfinished.iter().all(|&n| n == 0);
    if *action == Action::Finish && !driver.stopped && step != Step::Stop {
        assert!(driver.awaited.is_none(), "finished mid-drain");
        assert!(finished, "finished with {:?} unfinished", driver.unfinished);
    }
    let running = driver.awaited.is_none() && driver.owed.is_none() && !driver.stopped;
    if running && !step.widens() && *action == Action::Relaunch(Scope::Full) && step != Step::Tick {
        assert!(!finished, "every replica finished, yet relaunched");
    }
}

/// The pause of every reconfiguration is ≥ 0 and runs from the *first*
/// suspend request of its drain (which the driver confirms at once) to
/// its boundary (zero when the request found nothing out), and its
/// `jobs` are the replicas out after the relaunch. Turned red by
/// `self.drain_since = Some(now);` for
/// `self.drain_since.get_or_insert(now);` in `ControlCore::suspended`
/// (the pause runs from the latest request).
fn check_pauses(run: &Run) {
    let timings: Vec<DrainTiming> = run
        .records
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::ReconfigureEpoch {
                pause_secs,
                relaunch_secs,
                jobs,
                ..
            } => Some(DrainTiming {
                pause_secs,
                relaunch_secs,
                jobs,
            }),
            _ => None,
        })
        .collect();
    assert!(timings.iter().all(|t| t.pause_secs >= 0.0), "{timings:?}");
    assert_eq!(timings, run.epochs);
}

/// Everything one finished schedule left behind.
struct Run {
    /// Its recording, checked, and what it counts.
    records: Vec<TraceRecord>,
    counts: Counts,
    report: ControlReport,
    consults: usize,
    explained: usize,
    applied: Vec<Config>,
    actions: Vec<Action>,
    /// The replicas still out, and the paths the drain in flight awaits.
    out: Vec<&'static str>,
    awaited: Option<Vec<TaskPath>>,
    owed: Owed,
    epochs: Vec<DrainTiming>,
    reached: [usize; 5],
}

impl Run {
    fn verdicts(&self) -> &[Verdict] {
        &self.counts.verdicts
    }

    fn count_actions(&self, pick: impl Fn(&Action) -> bool) -> usize {
        self.actions.iter().filter(|action| pick(action)).count()
    }

    /// The `(time, scored)` of every decision, in order.
    fn decisions(&self) -> Vec<(f64, bool)> {
        (self.records.iter())
            .filter_map(|record| match record.event {
                TraceEvent::DecisionTraced {
                    realized_throughput,
                    ..
                } => Some((record.time_secs, realized_throughput.is_some())),
                _ => None,
            })
            .collect()
    }

    /// The `(config, scope)` of every reconfiguration, in order.
    fn reconfigured(&self) -> Vec<(Config, &str)> {
        (self.records.iter())
            .filter_map(|record| match &record.event {
                TraceEvent::ReconfigureEpoch { config, scope, .. } => {
                    Some((Config::clone(config), scope.as_str()))
                }
                _ => None,
            })
            .collect()
    }
}

/// Launches `config(2, 2, 1)`, runs `steps` (a `Finish` is appended if
/// missing), checking the step-wise invariants as it goes and the
/// closing ones at the end.
fn run(rules: Rules, script: Vec<(Move, bool)>, steps: &[Step]) -> Run {
    let shape = shape();
    let mut mechanism = Scripted::new(script);
    let recorder = Recorder::bounded(1 << 10);
    let mut observer = RecordingObserver::new(recorder.clone());
    let initial = config(2, 2, 1).into();
    observer.launched(mechanism.name(), BUDGET, &shape, &initial);
    let mut actions = Vec::new();
    let mut driver = Driver::default();
    let report = {
        let mut core = ControlCore::new(
            &mut mechanism,
            &mut observer,
            &shape,
            Resources::threads(BUDGET),
            rules,
            initial,
        );
        driver.relaunch(&mut core, 0.0, &top_level());
        let mut now = 0.0;
        let mut with_final = false;
        for &step in steps {
            now += 1.0;
            let action = match step {
                Step::Tick => core.tick(now, &snapshot(now)),
                Step::Report(leaf, outcome) => {
                    driver.settle(leaf, outcome);
                    core.reported(now, path(leaf), outcome.report(leaf))
                }
                Step::Stop => core.stop(now),
                Step::Relaunched => {
                    let paths = driver.owed.take().expect("a relaunch is owed");
                    driver.relaunch(&mut core, now, &paths);
                    Action::Continue
                }
                Step::Finish(snap) => {
                    with_final = snap;
                    break;
                }
            };
            if matches!(action, Action::SuspendPaths(_)) {
                core.suspended(now);
            }
            driver.answered(&core, step, &action, now);
            actions.push(action);
        }
        let last = snapshot(now + 1.0);
        core.finish(now + 1.0, with_final.then_some(&last))
    };
    let mut owed = Owed::Nothing;
    for action in &actions {
        owed = owed_after(action, owed);
    }
    if owed == Owed::Relaunch && driver.owed.is_none() {
        owed = Owed::Nothing;
    }
    // The run ended cleanly if the core finished it before any abort.
    let ended = actions
        .iter()
        .find(|a| matches!(a, Action::Finish | Action::Abort(_)));
    let clean = ended == Some(&Action::Finish);
    if clean {
        observer.finished(0, report.reconfigurations);
    }
    let records = recorder.records();
    let run = Run {
        counts: check(&records, clean),
        records,
        report,
        consults: mechanism.consults,
        explained: mechanism.explained,
        applied: mechanism.applied,
        actions,
        out: driver.out,
        awaited: driver.awaited,
        owed,
        epochs: driver.epochs,
        reached: driver.reached,
    };
    check_closing_invariants(&run, rules);
    check_suspend_requests(&run, steps, rules);
    check_pauses(&run);
    run
}

/// One suspend rule: a drain relaunches exactly the paths its suspend
/// request named (every top-level path after an unasked drain; a
/// failure or a stop requests every path even when the request is its
/// own boundary), a request made while one is in flight names a
/// superset of it, and without delta every request names every
/// top-level path. Turned red by `let paths = Scope::Full.paths(&self.config);`
/// in `ControlCore::tick` (a partial target that suspends everything but
/// relaunches one path).
fn check_suspend_requests(run: &Run, steps: &[Step], rules: Rules) {
    let all = top_level();
    let mut requested: Option<&Vec<TaskPath>> = None;
    for (step, action) in steps.iter().zip(&run.actions) {
        if step.widens() {
            requested = Some(&all);
        }
        let relaunched = match action {
            Action::SuspendPaths(paths) => {
                if !rules.delta {
                    assert_eq!(*paths, all, "{steps:?}");
                }
                if let Some(earlier) = requested {
                    assert!(earlier.iter().all(|p| paths.contains(p)), "{steps:?}");
                }
                requested = Some(paths);
                None
            }
            Action::Relaunch(scope) => Some(scope.paths(&config(2, 2, 1))),
            Action::Restart { .. } => Some(all.clone()),
            _ => None,
        };
        // A tick's request that finds nothing out comes back as its own
        // boundary: there is no separate request to compare against.
        if let Some(relaunched) = relaunched.filter(|_| requested.is_some() || *step != Step::Tick)
        {
            assert_eq!(&relaunched, requested.unwrap_or(&all), "{steps:?}");
        }
        if is_boundary(action) {
            requested = None;
        }
    }
}

/// The invariants every schedule must satisfy once finished, beyond the
/// trace rules `check` holds its recording to.
fn check_closing_invariants(run: &Run, rules: Rules) {
    // One snapshot per consult; one decision per explained consult.
    assert_eq!(run.counts.kind("SnapshotTaken"), run.consults);
    assert_eq!(
        run.counts.kind("DecisionTraced"),
        run.explained,
        "every consult that explained itself yields exactly one decision: {:?}",
        run.counts
    );
    let reconfigured = run.reconfigured();
    if !rules.delta {
        assert!(reconfigured.iter().all(|(_, scope)| *scope == "full"));
    }
    let reconfigured: Vec<Config> = reconfigured.into_iter().map(|(config, _)| config).collect();

    // The books agree with the recording.
    let report = &run.report;
    let history: Vec<Config> = report
        .config_history
        .iter()
        .map(|(_, c)| Config::clone(c))
        .collect();
    assert_eq!(report.reconfigurations as usize, history.len() - 1);
    assert_eq!(history[1..], reconfigured[..]);
    assert_eq!(run.applied, reconfigured, "mechanism hears every apply");
    assert_eq!(history.last(), Some(&report.final_config));
    assert!(report.config_history.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(report.rejected as usize, run.counts.rejected());
    if let FailurePolicy::Restart { max_retries, .. } = rules.policy {
        assert!(report.restarts <= u64::from(max_retries));
    } else {
        assert_eq!(report.restarts, 0);
    }
    assert!(report.lost_jobs <= report.task_failures);
    assert_eq!(
        report.lost_jobs > 0,
        report.failure_verdict == FailureVerdict::LostWork
    );
}

const POLICIES: [FailurePolicy; 3] = [
    FailurePolicy::Abort,
    FailurePolicy::Restart {
        max_retries: 2,
        backoff: Duration::from_millis(7),
    },
    FailurePolicy::Degrade,
];

fn rules(policy: FailurePolicy, delta: bool) -> Rules {
    Rules {
        budget: BUDGET,
        delta,
        policy,
    }
}

/// Draws one legal driver schedule: any step the protocol allows a
/// driver to take in its current obligation, plus ticks everywhere.
/// Only booked replicas report, each once; while a drain is in flight
/// its awaited replicas report first.
fn explore(seed: u64) -> Run {
    let mut rng = Rng(SmallRng::seed_from_u64(seed));
    let rules = rules(POLICIES[rng.below(3) as usize], rng.below(2) == 0);
    let moves = [
        Move::Hold,
        Move::Unchanged,
        Move::Reject,
        Move::AcceptPartial,
        Move::AcceptFull,
    ];
    let script: Vec<(Move, bool)> = (0..12)
        .map(|_| (moves[rng.below(5) as usize], rng.below(5) != 0))
        .collect();

    // The schedule is drawn against a shadow run so that each next step
    // can depend on what the core answered so far.
    let mut steps: Vec<Step> = Vec::new();
    let mut shadow = run(rules, script.clone(), &steps);
    for _ in 0..rng.below(40) + 1 {
        let step = match (shadow.owed, rng.below(20)) {
            (Owed::Finish, _) => break,
            // An error exit may strike at any point.
            (_, 0) if rng.below(6) == 0 => break,
            (_, 0..=3) => Step::Tick,
            (Owed::Relaunch, 4) => Step::Stop,
            (Owed::Relaunch, _) => Step::Relaunched,
            (_, 4) => Step::Stop,
            _ if shadow.out.is_empty() => Step::Tick,
            (_, 5) | (Owed::Drain, 7) => pick(&mut rng, &shadow, Failed),
            (_, 6) if rng.below(2) == 0 => pick(&mut rng, &shadow, Lost),
            (Owed::Drain, n) => pick(
                &mut rng,
                &shadow,
                if n % 4 == 0 { Finished } else { Suspended },
            ),
            (_, n) => pick(
                &mut rng,
                &shadow,
                if n % 3 == 0 { Suspended } else { Finished },
            ),
        };
        steps.push(step);
        shadow = run(rules, script.clone(), &steps);
        check_step_invariants(&shadow, &steps);
    }
    steps.push(Step::Finish(rng.below(2) == 0));
    let done = run(rules, script, &steps);
    check_step_invariants(&done, &steps);
    done
}

/// A report of `outcome` from a replica `shadow` has out — one the drain
/// in flight awaits, three times in four.
fn pick(rng: &mut Rng, shadow: &Run, outcome: Outcome) -> Step {
    let awaited: Vec<&'static str> = match &shadow.awaited {
        Some(paths) => shadow
            .out
            .iter()
            .copied()
            .filter(|leaf| paths.contains(&top(leaf)))
            .collect(),
        None => Vec::new(),
    };
    let from = if awaited.is_empty() || rng.below(4) == 0 {
        &shadow.out
    } else {
        &awaited
    };
    Step::Report(from[rng.below(from.len() as u64) as usize], outcome)
}

/// No consult, and no event at all, from a tick outside `Running`.
fn check_step_invariants(run: &Run, steps: &[Step]) {
    let mut owed = Owed::Nothing;
    let mut expected_consults = 0;
    for (step, action) in steps.iter().zip(&run.actions) {
        if *step == Step::Tick {
            if owed == Owed::Nothing {
                expected_consults += 1;
            } else {
                assert_eq!(*action, Action::Continue, "tick while {owed:?}: {steps:?}");
            }
        }
        owed = owed_after(action, owed);
        if *step == Step::Relaunched && owed == Owed::Relaunch {
            owed = Owed::Nothing;
        }
    }
    assert_eq!(
        run.consults, expected_consults,
        "consults only while running: {steps:?}"
    );
}

#[test]
fn seeded_schedules_keep_every_invariant() {
    // What the schedules reached, so the exploration cannot go vacuous:
    // [superseded, partial applies, full applies, degrade applies,
    //  restarts, aborts, unscored decisions, failures racing a partial
    //  drain, finishes from running, unasked relaunches, lost jobs,
    //  pauses spanning more than one request].
    let mut reached = [0usize; 12];
    for seed in 0..4000 {
        let run = explore(seed);
        let accepted = run.counts.verdict(Verdict::Accepted);
        let superseded = run.counts.verdict(Verdict::Superseded);
        let scopes = run.reconfigured();
        let applies = |partial: bool| {
            let scopes = scopes.iter();
            scopes
                .filter(|(_, scope)| (*scope == "partial") == partial)
                .count()
        };
        reached[0] += superseded;
        reached[1] += applies(true);
        reached[2] += applies(false);
        reached[3] += applies(true) + applies(false) + superseded - accepted;
        reached[4] += run.report.restarts as usize;
        reached[5] += run.count_actions(|a| matches!(a, Action::Abort(_)));
        reached[6] += run.decisions().iter().filter(|(_, scored)| !scored).count();
        for (total, n) in reached[7..].iter_mut().zip(run.reached) {
            *total += n;
        }
    }
    assert!(reached.iter().all(|&n| n >= 50), "{reached:?}");
}

const EXPLAINED: bool = true;

/// A report of `outcome` from each of `leaves`.
fn reports(leaves: &[&'static str], outcome: Outcome) -> Vec<Step> {
    leaves
        .iter()
        .map(|&leaf| Step::Report(leaf, outcome))
        .collect()
}

/// PR 9 bug 1 (tick starvation), at the core: every tick of a running
/// epoch consults — nothing the driver does between ticks can eat one.
#[test]
fn pr9_every_running_tick_consults() {
    let run = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::Hold, EXPLAINED); 5],
        &[
            Step::Tick,
            Step::Report("0", Finished),
            Step::Tick,
            Step::Report("2.0", Suspended),
            Step::Tick,
            Step::Tick,
            Step::Tick,
        ],
    );
    assert_eq!(run.consults, 5);
    assert_eq!(run.counts.kind("DecisionTraced"), 5);
}

/// PR 9 bug 2: a failure racing a partial drain escalates to a full
/// drain and the accepted target is retired as superseded; `Degrade`
/// then shrinks the *pre-target* configuration, and the pause runs from
/// the target's request.
#[test]
fn pr9_failure_during_partial_drain_supersedes_the_target() {
    let steps = [
        vec![Step::Tick, Step::Report("0", Failed)],
        reports(&["0", "1", "1", "2.0"], Suspended),
        vec![Step::Relaunched],
    ]
    .concat();
    let run = run(
        rules(FailurePolicy::Degrade, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &steps,
    );
    assert_eq!(run.actions[0], Action::SuspendPaths(vec![path("0")]));
    assert_eq!(run.actions[1], Action::SuspendPaths(top_level()));
    assert!(run.actions[2..5].iter().all(|a| *a == Action::Continue));
    assert_eq!(run.actions[5], Action::Relaunch(Scope::Full));
    assert_eq!(
        run.verdicts(),
        [Verdict::Accepted, Verdict::Superseded],
        "{:?}",
        run.counts
    );
    assert_eq!(run.report.final_config, config(1, 2, 1));
    assert_eq!(run.report.failure_verdict, FailureVerdict::Degraded);
    // Requested at t=1 by the tick, drained at t=6 by the last report.
    assert_eq!(
        run.epochs,
        [DrainTiming {
            pause_secs: 5.0,
            relaunch_secs: RELAUNCH_SECS,
            jobs: 4
        }]
    );
}

/// PR 9 bug 2, the other retirements: a full-drain target dies to a
/// restart, and any target dies to a stop.
#[test]
fn pr9_restart_and_stop_supersede_the_target() {
    let steps = [
        vec![Step::Tick, Step::Report("1", Failed)],
        reports(&["0", "0", "1", "2.0"], Suspended),
        vec![Step::Relaunched],
    ]
    .concat();
    let restart = run(
        rules(POLICIES[1], false),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &steps,
    );
    assert_eq!(
        restart.actions[0],
        Action::SuspendPaths(top_level()),
        "delta is off"
    );
    assert!(matches!(
        restart.actions[5],
        Action::Restart { replicas: 1, .. }
    ));
    assert_eq!(restart.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
    assert_eq!(restart.report.final_config, config(2, 2, 1));
    assert_eq!(restart.report.restarts, 1);
    assert_eq!(restart.out.len(), 5, "the restart booked a fresh launch");

    let steps = [
        vec![Step::Tick, Step::Stop],
        reports(&["0", "0", "1", "1", "2.0"], Suspended),
    ]
    .concat();
    let stop = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptFull, EXPLAINED)],
        &steps,
    );
    assert_eq!(stop.actions.last(), Some(&Action::Finish));
    assert_eq!(stop.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
}

/// PR 9 bug 3: a stop during the restart back-off ends the run — the
/// core asks for no relaunch.
#[test]
fn pr9_stop_interrupts_the_restart_backoff() {
    let steps = [
        vec![Step::Report("0", Failed)],
        reports(&["0", "1", "1", "2.0"], Suspended),
        vec![Step::Stop],
    ]
    .concat();
    let run = run(rules(POLICIES[1], true), vec![], &steps);
    assert!(matches!(run.actions[4], Action::Restart { .. }));
    assert_eq!(run.actions[5], Action::Finish);
    assert_eq!(run.report.failure_verdict, FailureVerdict::Recovered);
}

/// PR 9 bug 4: the decision pending at run end is flushed — scored when
/// the driver has a final snapshot, unscored otherwise.
#[test]
fn pr9_last_decision_is_flushed_at_finish() {
    for with_snapshot in [true, false] {
        let run = run(
            rules(FailurePolicy::Abort, true),
            vec![(Move::Hold, EXPLAINED); 2],
            &[
                Step::Tick,
                Step::Report("1", Finished),
                Step::Tick,
                Step::Finish(with_snapshot),
            ],
        );
        assert_eq!(run.decisions(), [(1.0, true), (3.0, with_snapshot)]);
        // A scored decision precedes the snapshot that scored it.
        let kinds: Vec<&str> = run.records[1..4].iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["SnapshotTaken", "DecisionTraced", "SnapshotTaken"]);
    }
}

/// The boundary of a running run is its last report: every replica
/// finished is the program's end; one that suspended unasked is
/// relaunched with the rest, as they were.
#[test]
fn the_last_report_of_a_running_run_is_a_boundary() {
    let all = ["0", "0", "1", "1", "2.0"];
    let finished = run(
        rules(FailurePolicy::Abort, true),
        vec![],
        &reports(&all, Finished),
    );
    assert!(finished.actions[..4].iter().all(|a| *a == Action::Continue));
    assert_eq!(finished.actions[4], Action::Finish);

    let steps = [
        reports(&all[..4], Finished),
        vec![Step::Report("2.0", Suspended), Step::Relaunched],
    ]
    .concat();
    let unasked = run(rules(FailurePolicy::Abort, true), vec![], &steps);
    assert_eq!(unasked.actions[4], Action::Relaunch(Scope::Full));
    assert_eq!(unasked.report.reconfigurations, 0);
    assert_eq!(unasked.out.len(), 5);
}

/// A job that ends without an outcome is a lost job and a failure — the
/// policy drains and judges it like a panic — and poisons the verdict.
#[test]
fn a_lost_job_is_a_failure_that_poisons_the_verdict() {
    let steps = [
        vec![Step::Report("1", Lost)],
        reports(&["0", "0", "1", "2.0"], Suspended),
        vec![Step::Relaunched],
    ]
    .concat();
    let run = run(rules(POLICIES[1], true), vec![], &steps);
    assert_eq!(run.actions[0], Action::SuspendPaths(top_level()));
    assert!(matches!(
        run.actions[4],
        Action::Restart { replicas: 1, .. }
    ));
    assert_eq!((run.report.task_failures, run.report.lost_jobs), (1, 1));
    assert_eq!(run.report.failure_verdict, FailureVerdict::LostWork);
}

/// The abort-path hole: under `Abort` (and on every other error exit)
/// the consult that preceded the failure still yields its decision and
/// the accepted target is retired, not dropped.
#[test]
fn abort_keeps_the_audit_trail() {
    let steps = [
        vec![Step::Tick, Step::Report("0", Failed)],
        reports(&["0", "1", "1", "2.0"], Suspended),
    ]
    .concat();
    let run = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &steps,
    );
    assert!(
        matches!(run.actions[5], Action::Abort(_)),
        "{:?}",
        run.actions
    );
    assert_eq!(run.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
    assert_eq!(run.counts.kind("DecisionTraced"), 1);
    assert_eq!(run.report.reconfigurations, 0);
    assert_eq!(run.report.task_failures, 1);

    // A relaunch that cannot be instantiated is such an exit too: the
    // boundary switched to the target, `finish` arrives instead of
    // `relaunched`, and the target is superseded.
    let failed_relaunch = run_relaunch_failure();
    assert_eq!(
        failed_relaunch.verdicts(),
        [Verdict::Accepted, Verdict::Superseded]
    );
    assert_eq!(failed_relaunch.report.reconfigurations, 0);
}

fn run_relaunch_failure() -> Run {
    run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &[
            Step::Tick,
            Step::Report("0", Suspended),
            Step::Report("0", Suspended),
            Step::Finish(false),
        ],
    )
}

/// Equality before validation: a proposal equal to a configuration in
/// force that the budget would no longer admit is `Unchanged`, not
/// `Rejected` (the live launch budget may exceed the proposal budget).
#[test]
fn unchanged_is_judged_before_validity() {
    let tight = Rules {
        budget: 2,
        ..rules(FailurePolicy::Abort, true)
    };
    let run = run(tight, vec![(Move::Unchanged, EXPLAINED)], &[Step::Tick]);
    assert_eq!(run.verdicts(), [Verdict::Unchanged]);
    assert_eq!(run.report.rejected, 0);
}

/// A rejected proposal is judged with the code of the rule it broke —
/// the one `dope-verify` reports for the same configuration — not a
/// catch-all: over the budget DV001, over a leaf's `max_extent` DV006, a
/// level of the wrong arity DV011, a nest configured as a leaf DV012.
#[test]
fn rejected_proposals_carry_the_broken_rules_code() {
    let script = [
        Move::Reject,
        Move::RejectOverCap,
        Move::RejectArity,
        Move::RejectStructure,
    ];
    let run = run(
        rules(FailurePolicy::Abort, true),
        script.map(|step| (step, EXPLAINED)).to_vec(),
        &[Step::Tick; 4],
    );
    let rejected = |code| Verdict::Rejected { code };
    assert_eq!(
        run.verdicts(),
        [
            rejected(DiagCode::BudgetExceeded),
            rejected(DiagCode::MaxExtentExceeded),
            rejected(DiagCode::ArityMismatch),
            rejected(DiagCode::StructureMismatch),
        ]
    );
    assert_eq!(run.report.rejected, 4);
}

/// Degrade cannot shrink a sole replica away, and the restart budget is
/// a budget: both abort with the reason in the error.
#[test]
fn policies_give_up_loudly() {
    let steps = [
        vec![Step::Report("2.0", Failed)],
        reports(&["0", "0", "1", "1"], Suspended),
    ]
    .concat();
    let degrade = run(rules(FailurePolicy::Degrade, true), vec![], &steps);
    let Action::Abort(err) = &degrade.actions[4] else {
        panic!("{:?}", degrade.actions);
    };
    assert!(
        err.to_string().contains("cannot degrade below one"),
        "{err}"
    );

    let steps = [
        reports(&["0", "0", "1"], Failed),
        reports(&["1", "2.0"], Suspended),
    ]
    .concat();
    let restart = run(rules(POLICIES[1], true), vec![], &steps);
    let Action::Abort(err) = &restart.actions[4] else {
        panic!("{:?}", restart.actions);
    };
    assert!(
        err.to_string().contains("restart budget of 2 exhausted"),
        "{err}"
    );
}

/// The first record of `kind` in `records`.
fn first(records: &[TraceRecord], kind: &str) -> usize {
    let at = records.iter().position(|r| r.event.kind() == kind);
    at.unwrap_or_else(|| panic!("no {kind}"))
}

/// Each trace rule `check` states turns red on a hand-mutated recording
/// of a named schedule, one input per rule (three for the target rule),
/// while the recording as made keeps every rule.
#[test]
fn each_trace_rule_breaks_on_its_mutated_recording() {
    // Launched, SnapshotTaken, ProposalEvaluated (accepted),
    // ReconfigureEpoch, Finished.
    let applied = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptPartial, !EXPLAINED)],
        &[
            vec![Step::Tick],
            reports(&["0", "0"], Suspended),
            vec![Step::Relaunched],
            reports(&["0", "0", "0", "1", "1", "2.0"], Finished),
        ]
        .concat(),
    );
    // Launched, SnapshotTaken, ProposalEvaluated (accepted), TaskFailed,
    // ProposalEvaluated (superseded), DecisionTraced: no Finished.
    let aborted = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &[
            vec![Step::Tick, Step::Report("0", Failed)],
            reports(&["0", "1", "1", "2.0"], Suspended),
        ]
        .concat(),
    );
    type Mutation = Box<dyn Fn(&mut Vec<TraceRecord>)>;
    let cases: [(&str, &Run, Rule, Mutation); 8] = [
        (
            "a Finished on a run that ended in error",
            &aborted,
            Rule::Ends,
            Box::new(|records| {
                let finished = TraceEvent::Finished {
                    completed: 0,
                    reconfigurations: 0,
                    dropped_events: 0,
                };
                let (seq, time_secs) = (records.len() as u64, 9.0);
                records.push(TraceRecord {
                    seq,
                    time_secs,
                    event: finished,
                });
            }),
        ),
        (
            "a proposal before its snapshot",
            &applied,
            Rule::Period,
            Box::new(|records| records.swap(1, 2)),
        ),
        (
            "a DecisionTraced stamped with no snapshot's time",
            &aborted,
            Rule::DecisionTime,
            Box::new(|records| {
                let at = first(records, "DecisionTraced");
                records[at].time_secs += 0.5;
            }),
        ),
        (
            "a dropped ReconfigureEpoch",
            &applied,
            Rule::Target,
            Box::new(|records| drop(records.remove(first(records, "ReconfigureEpoch")))),
        ),
        (
            "a second Accepted while the first is in flight",
            &applied,
            Rule::Target,
            Box::new(|records| {
                let at = first(records, "ProposalEvaluated");
                records.insert(at, records[at].clone());
            }),
        ),
        (
            "a Superseded of a different configuration",
            &aborted,
            Rule::Target,
            Box::new(|records| {
                let at = records.len() - 2;
                if let TraceEvent::ProposalEvaluated { proposal, .. } = &mut records[at].event {
                    *proposal = config(1, 1, 1).into();
                }
            }),
        ),
        (
            "an epoch with no proposal behind it, not under Degrade",
            &applied,
            Rule::Unproposed,
            Box::new(|records| {
                if let TraceEvent::ProposalEvaluated { verdict, .. } = &mut records[2].event {
                    *verdict = Verdict::Unchanged;
                }
            }),
        ),
        (
            "an epoch the recorded budget refuses",
            &applied,
            Rule::Replays,
            Box::new(|records| {
                if let TraceEvent::Launched { threads, .. } = &mut records[0].event {
                    *threads = 1;
                }
            }),
        ),
    ];
    for (what, run, rule, mutate) in cases {
        let clean = run.counts.kind("Finished") == 1;
        assert_eq!(
            broken(&run.records, clean),
            None,
            "{what}: {:?}",
            run.counts
        );
        let mut records = run.records.clone();
        mutate(&mut records);
        let found = broken(&records, clean);
        assert_eq!(
            found.as_ref().map(|(rule, _)| *rule),
            Some(rule),
            "{what}: {found:?}"
        );
    }
}
