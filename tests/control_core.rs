//! The control protocol tested as what it is: a state machine.
//!
//! `dope_core::control::ControlCore` is driven here with no threads and
//! no clock. A seeded explorer plays a legal-but-arbitrary driver — it
//! ticks at any time (also mid-drain), fails replicas, stops, answers
//! or delays drains, lets relaunches fail — against a scripted
//! mechanism (hold / unchanged / reject / accept-partial / accept-full,
//! sometimes unexplained), under all three failure policies with delta
//! reconfiguration on and off, and checks the protocol's invariants
//! after every step and at `finish`. The interleavings the live suites
//! (`control_loop.rs`, `failure_injection.rs`, `partial_reconfig.rs`)
//! can only hope to hit by racing threads are enumerated here; the ones
//! that were once bugs are pinned as named schedules below.

use dope_core::control::{
    Action, ControlCore, ControlReport, ControlSink, DrainTiming, Rules, Scope, Verdict,
};
use dope_core::{
    Config, DecisionTrace, DiagCode, FailurePolicy, FailureVerdict, Mechanism, MonitorSnapshot,
    ProgramShape, Rationale, Resources, ShapeNode, TaskConfig, TaskKind, TaskPath, TaskStats,
};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

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

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Snapshot,
    Decision { at: f64, scored: bool },
    Proposal { config: Config, verdict: Verdict },
    Reconfigured { config: Config, scope: Scope },
}

#[derive(Default)]
struct Log(Vec<Event>);

impl ControlSink for Log {
    fn snapshot_taken(&mut self, _snapshot: &MonitorSnapshot) {
        self.0.push(Event::Snapshot);
    }

    fn decision_scored(
        &mut self,
        at: f64,
        _mech: &str,
        _trace: DecisionTrace,
        realized: Option<f64>,
    ) {
        self.0.push(Event::Decision {
            at,
            scored: realized.is_some(),
        });
    }

    fn proposal_evaluated(
        &mut self,
        _time: f64,
        _mech: &str,
        proposal: &Arc<Config>,
        verdict: Verdict,
    ) {
        self.0.push(Event::Proposal {
            config: Config::clone(proposal),
            verdict,
        });
    }

    fn reconfigured(
        &mut self,
        _time: f64,
        config: &Arc<Config>,
        scope: &Scope,
        _timing: DrainTiming,
    ) {
        self.0.push(Event::Reconfigured {
            config: Config::clone(config),
            scope: scope.clone(),
        });
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

/// Everything one finished schedule left behind.
struct Run {
    events: Vec<Event>,
    report: ControlReport,
    consults: usize,
    explained: usize,
    applied: Vec<Config>,
    actions: Vec<Action>,
}

impl Run {
    fn verdicts(&self) -> Vec<Verdict> {
        self.events
            .iter()
            .filter_map(|event| match event {
                Event::Proposal { verdict, .. } => Some(*verdict),
                _ => None,
            })
            .collect()
    }

    fn count(&self, pick: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|event| pick(event)).count()
    }

    fn count_actions(&self, pick: impl Fn(&Action) -> bool) -> usize {
        self.actions.iter().filter(|action| pick(action)).count()
    }
}

/// What the driver owes the core next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owed {
    Nothing,
    Drain,
    Relaunch,
    Finish,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Tick,
    Fail(&'static str),
    Stop,
    /// `drained(finished)`.
    Drained(bool),
    Relaunched,
    /// `finish(final snapshot?)`; ends the schedule.
    Finish(bool),
}

fn owed_after(action: &Action, before: Owed) -> Owed {
    match action {
        Action::Continue => before,
        Action::SuspendPaths(_) => Owed::Drain,
        Action::Relaunch(_) | Action::Restart { .. } => Owed::Relaunch,
        Action::Finish | Action::Abort(_) => Owed::Finish,
    }
}

/// Runs `steps` (a `Finish` is appended if missing), checking the
/// step-wise invariants as it goes and the closing ones at the end.
fn run(rules: Rules, script: Vec<(Move, bool)>, steps: &[Step]) -> Run {
    let shape = shape();
    let mut mechanism = Scripted::new(script);
    let mut log = Log::default();
    let mut actions = Vec::new();
    let report = {
        let mut core = ControlCore::new(
            &mut mechanism,
            &mut log,
            &shape,
            Resources::threads(BUDGET),
            rules,
            config(2, 2, 1).into(),
        );
        let mut now = 0.0;
        let mut with_final = false;
        for step in steps {
            now += 1.0;
            let action = match *step {
                Step::Tick => core.tick(now, &snapshot(now)),
                Step::Fail(at) => core.task_failed(now, path(at), format!("boom at {at}")),
                Step::Stop => core.stop(now),
                Step::Drained(finished) => core.drained(finished),
                Step::Relaunched => {
                    core.relaunched(now, DrainTiming::default());
                    Action::Continue
                }
                Step::Finish(snap) => {
                    with_final = snap;
                    break;
                }
            };
            actions.push(action);
        }
        let last = snapshot(now + 1.0);
        core.finish(now + 1.0, with_final.then_some(&last))
    };
    let run = Run {
        events: log.0,
        report,
        consults: mechanism.consults,
        explained: mechanism.explained,
        applied: mechanism.applied,
        actions,
    };
    check_closing_invariants(&run, rules);
    check_suspend_requests(&run, steps, rules);
    run
}

/// One suspend rule: a drain relaunches exactly the paths its suspend
/// request named (every top-level path after an unasked drain), a
/// request made while one is in flight names a superset of it, and
/// without delta every request names every top-level path. Turned red
/// by `let paths = Scope::Full.paths(&self.config);` in `ControlCore::tick`
/// (a partial target that suspends everything but relaunches one path).
fn check_suspend_requests(run: &Run, steps: &[Step], rules: Rules) {
    let all = top_level();
    let mut requested: Option<&Vec<TaskPath>> = None;
    for (step, action) in steps.iter().zip(&run.actions) {
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
        if let Some(relaunched) = relaunched {
            assert_eq!(&relaunched, requested.unwrap_or(&all), "{steps:?}");
        }
        if matches!(step, Step::Drained(_)) {
            requested = None;
        }
    }
}

/// The invariants every schedule must satisfy once finished.
fn check_closing_invariants(run: &Run, rules: Rules) {
    let events = &run.events;
    // One snapshot event per consult; one decision per explained consult.
    assert_eq!(run.count(|e| *e == Event::Snapshot), run.consults);
    assert_eq!(
        run.count(|e| matches!(e, Event::Decision { .. })),
        run.explained,
        "every consult that explained itself yields exactly one decision: {events:?}"
    );
    // Decisions leave the hold in the order they were taken.
    let stamps: Vec<f64> = events
        .iter()
        .filter_map(|event| match event {
            Event::Decision { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");

    // Every accepted target is applied or superseded, exactly once, and
    // never while another is in flight.
    let mut in_flight: Option<&Config> = None;
    let mut reconfigured = Vec::new();
    for event in events {
        match event {
            Event::Proposal { config, verdict } => match verdict {
                Verdict::Accepted => {
                    assert!(in_flight.is_none(), "two targets in flight: {events:?}");
                    in_flight = Some(config);
                }
                Verdict::Superseded => {
                    assert_eq!(in_flight.take(), Some(config), "{events:?}");
                }
                Verdict::Unchanged | Verdict::Rejected { .. } => {}
            },
            Event::Reconfigured { config, scope } => {
                match in_flight.take() {
                    Some(target) => assert_eq!(target, config, "{events:?}"),
                    // Only a Degrade shrink reconfigures unproposed.
                    None => assert_eq!(rules.policy, FailurePolicy::Degrade, "{events:?}"),
                }
                if !rules.delta {
                    assert_eq!(*scope, Scope::Full);
                }
                reconfigured.push(config.clone());
            }
            Event::Snapshot | Event::Decision { .. } => {}
        }
    }
    assert!(in_flight.is_none(), "accepted target left open: {events:?}");

    // The books agree with the events.
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
    let rejected = run
        .verdicts()
        .iter()
        .filter(|v| matches!(v, Verdict::Rejected { .. }))
        .count();
    assert_eq!(report.rejected as usize, rejected);
    if let FailurePolicy::Restart { max_retries, .. } = rules.policy {
        assert!(report.restarts <= u64::from(max_retries));
    } else {
        assert_eq!(report.restarts, 0);
    }
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
    let mut owed = Owed::Nothing;
    for _ in 0..rng.below(30) + 1 {
        let step = match (owed, rng.below(10)) {
            (Owed::Finish, _) => break,
            // An error exit may strike at any point.
            (_, 0) if rng.below(6) == 0 => break,
            (_, 0 | 1) => Step::Tick,
            (Owed::Relaunch, 2) => Step::Stop,
            (Owed::Relaunch, _) => Step::Relaunched,
            (_, 2) => Step::Stop,
            (_, 3) => Step::Fail(["0", "1", "2"][rng.below(3) as usize]),
            (Owed::Drain, 4..=7) => Step::Drained(false),
            (Owed::Nothing, 4) => Step::Drained(rng.below(2) == 0),
            _ => Step::Tick,
        };
        steps.push(step);
        let shadow = run(rules, script.clone(), &steps);
        check_step_invariants(&shadow, &steps);
        owed = owed_after(shadow.actions.last().unwrap(), owed);
        if matches!(step, Step::Relaunched) {
            owed = Owed::Nothing;
        }
    }
    steps.push(Step::Finish(rng.below(2) == 0));
    let done = run(rules, script, &steps);
    check_step_invariants(&done, &steps);
    done
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
    //  restarts, aborts, unscored decisions].
    let mut reached = [0usize; 7];
    for seed in 0..4000 {
        let run = explore(seed);
        let proposed = run.verdicts();
        let accepted = proposed.iter().filter(|v| **v == Verdict::Accepted).count();
        let superseded = proposed
            .iter()
            .filter(|v| **v == Verdict::Superseded)
            .count();
        let applies = |partial: bool| {
            run.count(|e| matches!(e, Event::Reconfigured { scope, .. } if (*scope != Scope::Full) == partial))
        };
        reached[0] += superseded;
        reached[1] += applies(true);
        reached[2] += applies(false);
        reached[3] += applies(true) + applies(false) + superseded - accepted;
        reached[4] += run.report.restarts as usize;
        reached[5] += run.count_actions(|a| matches!(a, Action::Abort(_)));
        reached[6] += run.count(|e| matches!(e, Event::Decision { scored: false, .. }));
    }
    assert!(reached.iter().all(|&n| n >= 50), "{reached:?}");
}

const EXPLAINED: bool = true;

/// PR 9 bug 1 (tick starvation), at the core: every tick of a running
/// epoch consults — nothing the driver does between ticks can eat one.
#[test]
fn pr9_every_running_tick_consults() {
    let run = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::Hold, EXPLAINED); 5],
        &[Step::Tick, Step::Tick, Step::Tick, Step::Tick, Step::Tick],
    );
    assert_eq!(run.consults, 5);
    assert_eq!(run.count(|e| matches!(e, Event::Decision { .. })), 5);
}

/// PR 9 bug 2: a failure racing a partial drain escalates to a full
/// drain and the accepted target is retired as superseded; `Degrade`
/// then shrinks the *pre-target* configuration.
#[test]
fn pr9_failure_during_partial_drain_supersedes_the_target() {
    let run = run(
        rules(FailurePolicy::Degrade, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &[
            Step::Tick,
            Step::Fail("0"),
            Step::Drained(false),
            Step::Relaunched,
        ],
    );
    assert_eq!(run.actions[0], Action::SuspendPaths(vec![path("0")]));
    assert_eq!(run.actions[1], Action::SuspendPaths(top_level()));
    assert_eq!(run.actions[2], Action::Relaunch(Scope::Full));
    assert_eq!(
        run.verdicts(),
        [Verdict::Accepted, Verdict::Superseded],
        "{:?}",
        run.events
    );
    assert_eq!(run.report.final_config, config(1, 2, 1));
    assert_eq!(run.report.failure_verdict, FailureVerdict::Degraded);
}

/// PR 9 bug 2, the other retirements: a full-drain target dies to a
/// restart, and any target dies to a stop.
#[test]
fn pr9_restart_and_stop_supersede_the_target() {
    let restart = run(
        rules(POLICIES[1], false),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &[
            Step::Tick,
            Step::Fail("1"),
            Step::Drained(false),
            Step::Relaunched,
        ],
    );
    assert_eq!(
        restart.actions[0],
        Action::SuspendPaths(top_level()),
        "delta is off"
    );
    assert!(matches!(
        restart.actions[2],
        Action::Restart { replicas: 1, .. }
    ));
    assert_eq!(restart.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
    assert_eq!(restart.report.final_config, config(2, 2, 1));
    assert_eq!(restart.report.restarts, 1);

    let stop = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptFull, EXPLAINED)],
        &[Step::Tick, Step::Stop, Step::Drained(false)],
    );
    assert_eq!(stop.actions[2], Action::Finish);
    assert_eq!(stop.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
}

/// PR 9 bug 3: a stop during the restart back-off ends the run — the
/// core asks for no relaunch.
#[test]
fn pr9_stop_interrupts_the_restart_backoff() {
    let run = run(
        rules(POLICIES[1], true),
        vec![],
        &[Step::Fail("0"), Step::Drained(false), Step::Stop],
    );
    assert!(matches!(run.actions[1], Action::Restart { .. }));
    assert_eq!(run.actions[2], Action::Finish);
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
            &[Step::Tick, Step::Tick, Step::Finish(with_snapshot)],
        );
        let decisions: Vec<&Event> = run
            .events
            .iter()
            .filter(|e| matches!(e, Event::Decision { .. }))
            .collect();
        assert_eq!(
            decisions,
            [
                &Event::Decision {
                    at: 1.0,
                    scored: true
                },
                &Event::Decision {
                    at: 2.0,
                    scored: with_snapshot
                },
            ]
        );
        // A scored decision precedes the snapshot that scored it.
        assert_eq!(run.events[0], Event::Snapshot);
        assert!(matches!(run.events[1], Event::Decision { at, .. } if at == 1.0));
        assert_eq!(run.events[2], Event::Snapshot);
    }
}

/// The abort-path hole: under `Abort` (and on every other error exit)
/// the consult that preceded the failure still yields its decision and
/// the accepted target is retired, not dropped.
#[test]
fn abort_keeps_the_audit_trail() {
    let run = run(
        rules(FailurePolicy::Abort, true),
        vec![(Move::AcceptPartial, EXPLAINED)],
        &[Step::Tick, Step::Fail("0"), Step::Drained(false)],
    );
    assert!(
        matches!(run.actions[2], Action::Abort(_)),
        "{:?}",
        run.actions
    );
    assert_eq!(run.verdicts(), [Verdict::Accepted, Verdict::Superseded]);
    assert_eq!(run.count(|e| matches!(e, Event::Decision { .. })), 1);
    assert_eq!(run.report.reconfigurations, 0);

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
        &[Step::Tick, Step::Drained(false), Step::Finish(false)],
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
    let degrade = run(
        rules(FailurePolicy::Degrade, true),
        vec![],
        &[Step::Fail("2.0"), Step::Drained(false)],
    );
    let Action::Abort(err) = &degrade.actions[1] else {
        panic!("{:?}", degrade.actions);
    };
    assert!(
        err.to_string().contains("cannot degrade below one"),
        "{err}"
    );

    let restart = run(
        rules(POLICIES[1], true),
        vec![],
        &[
            Step::Fail("0"),
            Step::Fail("0"),
            Step::Fail("1"),
            Step::Drained(false),
        ],
    );
    let Action::Abort(err) = &restart.actions[3] else {
        panic!("{:?}", restart.actions);
    };
    assert!(
        err.to_string().contains("restart budget of 2 exhausted"),
        "{err}"
    );
}
