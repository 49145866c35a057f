//! Every shipped mechanism, tested through the rule that runs it.
//!
//! Each instance in [`table`] is driven through
//! [`ControlCore::tick_instant`] — the consult → judge → apply rule the
//! live executive and both simulators run — with the simulators' own
//! [`RecordingObserver`] as the sink. A [`Run`] is that recording plus the
//! configuration in force after each step, and every check reads one:
//!
//! * **Conformance:** the analyzer finds no error in the initial
//!   configuration or in any proposal the core evaluated, and the core
//!   rejects none, on `snapshot_grid`'s grid and on random snapshots
//!   alike. A mechanism may break only the codes its row exempts.
//! * **Audit:** every consult is explained (the first, made before any
//!   stage is measured, and the last, which [`ControlCore::finish`]
//!   scores against the final snapshot) and labelled, and a consult that
//!   proposed anything is never a `hold`.
//! * **Sampled vs exact:** a mechanism whose row says it cannot tell a
//!   sampled snapshot from an exact one keeps the same configurations.
//!
//! SEDA is *uncoordinated by design* (paper §7.2): each stage sizes its
//! own pool with no global budget, so its proposals may exceed
//! `Resources::threads` and the core rejects those. It is exempt from
//! [`DiagCode::BudgetExceeded`] (DV001), and from that code *only*.

use std::collections::BTreeSet;
use std::sync::Arc;

use dope_core::control::Rules;
use dope_core::{
    Config, ControlCore, ControlSink, DiagCode, FailurePolicy, Mechanism, MonitorSnapshot,
    ProgramShape, Rationale, Resources, ShapeNode, StaticMechanism, TaskConfig, TaskKind,
    TaskStats, Verdict,
};
use dope_mechanisms::{Fdp, Oracle, Proportional, Seda, Tbf, Tpc, WqLinear, WqLinearH, WqtH};
use dope_trace::{Recorder, RecordingObserver, TraceEvent};
use dope_verify::{analyze, snapshot_grid};
use proptest::prelude::*;
use support::{check, Counts};
use Kind::{Pipeline, TwoLevel};

mod support;

const STEPS: usize = 48;
/// The largest inner width of the grid's two-level instances.
const M_MAX: u32 = 8;

/// The two program shapes the mechanisms are written for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `pipe` = in → a → b → out, or in → fused → out.
    Pipeline,
    /// `txn` = read → work, or one sequential `whole`.
    TwoLevel,
}

impl Kind {
    fn shape(self) -> ProgramShape {
        use TaskKind::{Par, Seq};
        let leaves = |nodes: &[(&str, TaskKind)]| {
            (nodes.iter())
                .map(|&(name, kind)| ShapeNode::leaf(name, kind))
                .collect()
        };
        let (name, max_extent, alternatives) = match self {
            Pipeline => (
                "pipe",
                Some(1),
                vec![
                    leaves(&[("in", Seq), ("a", Par), ("b", Par), ("out", Seq)]),
                    leaves(&[("in", Seq), ("fused", Par), ("out", Seq)]),
                ],
            ),
            TwoLevel => (
                "txn",
                None,
                vec![
                    leaves(&[("read", Seq), ("work", Par)]),
                    leaves(&[("whole", Seq)]),
                ],
            ),
        };
        ProgramShape::new(vec![ShapeNode {
            name: name.into(),
            kind: TaskKind::Par,
            max_extent,
            alternatives,
        }])
    }

    /// What a run launches under when the mechanism names no initial
    /// configuration.
    fn initial(self, shape: &ProgramShape, threads: u32) -> Config {
        match self {
            Pipeline => pipeline([1; 4]),
            TwoLevel => {
                let nest = dope_core::nest::find_two_level(shape).expect("two-level");
                dope_core::nest::config_for_width(shape, &nest, threads, 1)
            }
        }
    }

    fn budgets(self) -> [u32; 4] {
        match self {
            Pipeline => [4, 9, 24, 32],
            TwoLevel => [2, 9, 24, 32],
        }
    }
}

/// The pipeline's first alternative with these extents.
fn pipeline(extents: [u32; 4]) -> Config {
    let names = ["in", "a", "b", "out"].into_iter();
    let leaves = names
        .zip(extents)
        .map(|(name, extent)| TaskConfig::leaf(name, extent));
    Config::new(vec![TaskConfig::nest("pipe", 1, 0, leaves.collect())])
}

/// One mechanism instance under test.
struct Row {
    /// Builds it; a two-level instance that takes a largest inner width
    /// is given the argument.
    make: fn(u32) -> Box<dyn Mechanism>,
    kind: Kind,
    /// The codes it breaks by design, and no others.
    exempt: &'static [DiagCode],
    /// Whether its decisions cannot tell sampled statistics from exact ones.
    sampling_blind: bool,
}

fn table() -> Vec<Row> {
    let row = |make, kind, sampling_blind| Row {
        make,
        kind,
        exempt: &[],
        sampling_blind,
    };
    vec![
        // TPC and FDP compare sink throughput, a count; execution times
        // only pick which stage to move. TBF and Proportional size stages
        // in proportion to execution time, and on this grid (stage costs a
        // decade apart) a 5 % error never crosses a rounding boundary.
        row(|_| Box::new(Fdp::default()), Pipeline, true),
        row(|_| Box::new(Tbf::new()), Pipeline, true),
        row(|_| Box::new(Tbf::without_fusion()), Pipeline, true),
        row(|_| Box::new(Tpc::default()), Pipeline, true),
        row(|_| Box::new(Proportional::new()), Pipeline, true),
        Row {
            exempt: &[DiagCode::BudgetExceeded],
            ..row(|_| Box::new(Seda::default()), Pipeline, false)
        },
        // The queue-driven ones read occupancy and load, which sampling
        // does not touch.
        row(
            |m| Box::new(Oracle::from_table(vec![(2.0, m), (8.0, 2)], 1)),
            TwoLevel,
            true,
        ),
        row(|m| Box::new(WqLinear::new(1, m, 8.0)), TwoLevel, true),
        row(|_| Box::new(WqLinear::default()), TwoLevel, false),
        row(|m| Box::new(WqLinearH::new(1, m, 8.0, 3)), TwoLevel, true),
        row(|_| Box::new(WqLinearH::default()), TwoLevel, false),
        row(|m| Box::new(WqtH::new(4.0, m, 2, 2)), TwoLevel, true),
        row(|_| Box::new(WqtH::default()), TwoLevel, false),
    ]
}

/// A snapshot at `time_secs` with one row per leaf of `shape` (first
/// alternatives): leaf `k` costs `execs[k % len]` a call under load
/// `loads[k % len]`.
fn snapshot(
    shape: &ProgramShape,
    time_secs: f64,
    execs: &[f64],
    loads: &[f64],
    occupancy: f64,
    power: Option<f64>,
) -> MonitorSnapshot {
    let mut snap = MonitorSnapshot::at(time_secs);
    for (k, path) in shape.leaf_paths().into_iter().enumerate() {
        let exec = execs[k % execs.len()];
        let stats = TaskStats {
            invocations: 100,
            mean_exec_secs: exec,
            throughput: 1.0 / exec,
            load: loads[k % loads.len()],
            utilization: 0.7,
            ..TaskStats::default()
        };
        snap.tasks.insert(path, stats);
    }
    snap.queue.occupancy = occupancy;
    snap.power_watts = power;
    // One dispatch a second since launch.
    snap.dispatches_since_reconfig = time_secs as u64;
    snap
}

/// The grid's input: a consult just after launch, whose leaf rows carry
/// no measurement yet, then `snapshot_grid`'s `STEPS` steps.
fn grid(kind: Kind) -> Vec<MonitorSnapshot> {
    let shape = kind.shape();
    let mut unmeasured = MonitorSnapshot::at(0.125);
    for path in shape.leaf_paths() {
        unmeasured.tasks.insert(path, TaskStats::default());
    }
    let mut snaps = vec![unmeasured];
    snaps.extend(snapshot_grid(&shape, STEPS));
    snaps
}

/// One mechanism driven through the control core.
struct Run {
    /// Mechanism and budget, for failure messages.
    label: String,
    records: Vec<dope_trace::TraceRecord>,
    counts: Counts,
    /// The launch configuration, then the one in force after each step.
    configs: Vec<Config>,
}

impl Run {
    /// Launches under `start`, else the mechanism's initial configuration,
    /// else `kind`'s, consults once per snapshot, and checks the recording.
    fn new(
        mechanism: &mut dyn Mechanism,
        kind: Kind,
        threads: u32,
        start: Option<Config>,
        snaps: &[MonitorSnapshot],
    ) -> Run {
        let shape = kind.shape();
        let res = Resources::threads(threads).with_power_budget(630.0);
        let label = format!("{} at {threads} threads", mechanism.name());
        let initial: Arc<Config> = (start.or_else(|| mechanism.initial(&shape, &res)))
            .unwrap_or_else(|| kind.initial(&shape, threads))
            .into();
        let recorder = Recorder::bounded(1 << 12);
        let mut sink = RecordingObserver::new(recorder.clone());
        sink.launched(mechanism.name(), threads, &shape, &initial);
        let rules = Rules {
            budget: threads,
            delta: true,
            policy: FailurePolicy::Abort,
        };
        let mut configs = vec![Config::clone(&initial)];
        let mut core = ControlCore::new(mechanism, &mut sink, &shape, res, rules, initial);
        configs.extend(snaps.iter().map(|snap| {
            core.tick_instant(snap.time_secs, snap);
            core.config().clone()
        }));
        let last = snaps.last().expect("at least one snapshot");
        let report = core.finish(last.time_secs, Some(last));
        sink.finished(0, report.reconfigurations);
        let records = recorder.records();
        Run {
            label,
            counts: check(&records, true),
            records,
            configs,
        }
    }

    /// The run's evaluated proposals: when, what and how judged.
    fn evaluated(&self) -> impl Iterator<Item = (f64, &Config, Verdict)> {
        self.records.iter().filter_map(|r| match &r.event {
            TraceEvent::ProposalEvaluated {
                proposal, verdict, ..
            } => Some((r.time_secs, &**proposal, *verdict)),
            _ => None,
        })
    }

    /// Every error the analyzer finds in the initial configuration (step
    /// `-`) or in an evaluated proposal, and every rejection, whose code
    /// is not in `exempt`.
    fn nonconformance(&self, exempt: &[DiagCode]) -> Vec<(String, DiagCode)> {
        let Some(TraceEvent::Launched {
            shape,
            threads,
            config,
            ..
        }) = self.records.first().map(|r| &r.event)
        else {
            panic!("{}: the recording opens with its launch", self.label);
        };
        let res = Resources::threads(*threads);
        let proposals =
            (self.evaluated()).map(|(t, config, verdict)| (format!("{t}"), config, Some(verdict)));
        let mut found = Vec::new();
        for (at, config, verdict) in std::iter::once(("-".into(), &**config, None)).chain(proposals)
        {
            if let Some(Verdict::Rejected { code }) = verdict {
                found.push((format!("{at}: rejected {config}"), code));
            }
            for d in analyze(shape, config, &res).errors() {
                found.push((format!("{at}: {config}: {d}"), d.code));
            }
        }
        found.retain(|(_, code)| !exempt.contains(code));
        found
    }

    /// Checks the decision audit and returns whether an observed signal,
    /// a candidate set and a prediction were each seen.
    fn audit(&self) -> [bool; 3] {
        // `check` tied each decision to a distinct snapshot.
        let (decisions, snapshots) = (
            self.counts.kind("DecisionTraced"),
            self.counts.kind("SnapshotTaken"),
        );
        assert_eq!(
            decisions, snapshots,
            "{}: a consult went unexplained",
            self.label
        );
        let mut seen = [false; 3];
        for record in &self.records {
            let TraceEvent::DecisionTraced {
                rationale,
                observed,
                candidates,
                chosen,
                predicted_throughput,
                ..
            } = &record.event
            else {
                continue;
            };
            let (t, label) = (record.time_secs, &self.label);
            let labelled = !chosen.is_empty() && candidates.iter().all(|c| !c.action.is_empty());
            assert!(labelled, "{label}: unlabelled decision at {t}");
            let decoded = Rationale::from_code(rationale.code());
            assert_eq!(
                decoded,
                Some(*rationale),
                "{label}: code does not round-trip"
            );
            let proposed = self.evaluated().any(|(at, ..)| at == t);
            assert!(
                !proposed || chosen != "hold",
                "{label}: a proposal audited `hold` at {t}"
            );
            seen[0] |= !observed.is_empty();
            seen[1] |= !candidates.is_empty();
            seen[2] |= predicted_throughput.is_some();
        }
        seen
    }
}

/// Every row driven over the grid at each of its budgets.
fn grid_runs() -> impl Iterator<Item = (Row, Vec<Run>)> {
    table().into_iter().map(|row| {
        let snaps = grid(row.kind);
        let runs = (row.kind.budgets().into_iter())
            .map(|threads| Run::new((row.make)(M_MAX).as_mut(), row.kind, threads, None, &snaps))
            .collect();
        (row, runs)
    })
}

#[test]
fn every_mechanism_is_conformant_on_the_grid() {
    for (row, runs) in grid_runs() {
        for run in runs {
            let found = run.nonconformance(row.exempt);
            assert!(found.is_empty(), "{}: {found:#?}", run.label);
        }
    }
}

/// An exemption is load-bearing and no wider than it must be: driven
/// over the grid at its smallest budget, a mechanism breaks exactly the
/// codes its row exempts — SEDA does exceed a 4-thread budget, and breaks
/// nothing else.
#[test]
fn an_exemption_names_exactly_what_its_mechanism_breaks() {
    for row in table().into_iter().filter(|row| !row.exempt.is_empty()) {
        let (snaps, threads) = (grid(row.kind), row.kind.budgets()[0]);
        let run = Run::new((row.make)(M_MAX).as_mut(), row.kind, threads, None, &snaps);
        let broken: BTreeSet<DiagCode> = run.nonconformance(&[]).into_iter().map(|f| f.1).collect();
        let exempt: BTreeSet<DiagCode> = row.exempt.iter().copied().collect();
        assert_eq!(broken, exempt, "{}", run.label);
    }
}

#[test]
fn every_mechanism_explains_every_consult() {
    for (_, runs) in grid_runs() {
        let seen = runs
            .iter()
            .map(Run::audit)
            .fold([false; 3], |a, b| [a[0] | b[0], a[1] | b[1], a[2] | b[2]]);
        let label = &runs[0].label;
        assert_eq!(
            seen, [true; 3],
            "{label}: [observed, candidates, prediction] seen"
        );
    }
}

/// The sampling errors the runtime's weighted-recording test bounds: 5 %
/// on means and busy time, the histogram's 1/32 plus 5 % on quantiles.
const MEAN_ERROR: f64 = 0.05;
const QUANTILE_ERROR: f64 = 1.0 / 32.0 + 0.05;

/// `snaps` as the live monitor, which times one invocation in k and
/// weights it, might have reported them: every timed
/// statistic of leaf `k` at step `i` off by the full admitted error, in
/// the direction `sign(i, k)` picks. Counts (`invocations`, `throughput`,
/// `load`, the queue) are exact under sampling and stay put.
fn thinned(snaps: &[MonitorSnapshot], sign: impl Fn(usize, usize) -> f64) -> Vec<MonitorSnapshot> {
    let mut out = snaps.to_vec();
    for (i, snap) in out.iter_mut().enumerate() {
        for (k, stats) in snap.tasks.values_mut().enumerate() {
            let dir = sign(i, k);
            stats.mean_exec_secs *= 1.0 + dir * MEAN_ERROR;
            stats.utilization = (stats.utilization * (1.0 + dir * MEAN_ERROR)).min(1.0);
            for quantile in [
                &mut stats.p50_exec_secs,
                &mut stats.p95_exec_secs,
                &mut stats.p99_exec_secs,
            ] {
                *quantile *= 1.0 + dir * QUANTILE_ERROR;
            }
        }
    }
    out
}

/// A sampling-blind mechanism keeps the same configurations at every
/// step on the exact grid and on each thinned variant (all high, all
/// low, alternating by step and leaf).
#[test]
fn sampling_blind_mechanisms_cannot_tell_sampled_from_exact() {
    type Sign = fn(usize, usize) -> f64;
    let signs: [(&str, Sign); 3] = [
        ("high", |_, _| 1.0),
        ("low", |_, _| -1.0),
        (
            "alternating",
            |i, k| if (i + k) % 2 == 0 { 1.0 } else { -1.0 },
        ),
    ];
    for row in table().into_iter().filter(|row| row.sampling_blind) {
        let snaps = grid(row.kind);
        for threads in [9, 24] {
            let exact = Run::new((row.make)(M_MAX).as_mut(), row.kind, threads, None, &snaps);
            for (variant, sign) in signs {
                let thin = thinned(&snaps, sign);
                let seen = Run::new((row.make)(M_MAX).as_mut(), row.kind, threads, None, &thin);
                let differs = (exact.configs.iter().zip(&seen.configs)).position(|(a, b)| a != b);
                assert_eq!(differs, None, "{}, {variant} errors", exact.label);
            }
        }
    }
}

/// The largest extent difference between two configurations of the same
/// tasks, `None` if they differ in anything but extents.
fn extent_gap(a: &Config, b: &Config) -> Option<u32> {
    let pairs: Vec<_> = a.paths().into_iter().zip(b.paths()).collect();
    let same = a.paths().len() == b.paths().len()
        && (pairs.iter()).all(|((p, x), (q, y))| p == q && x.name == y.name);
    let gaps = pairs
        .iter()
        .map(|((_, x), (_, y))| x.extent.abs_diff(y.extent));
    same.then(|| gaps.max().unwrap_or(0))
}

/// SEDA *can* tell, and this test says how much. It grows a stage on
/// queue load alone but shrinks one only while `utilization < 0.5`, and
/// the grid's middle utilization is exactly 0.5: read 5 % low, a hold
/// becomes a one-thread shrink. SEDA is memoryless and moves a stage one
/// thread per consult, so from the configuration the core holds, its
/// decision on a sampled snapshot is never more than one thread per stage
/// from its decision on the exact one. Under a persistently one-sided
/// error the two *trajectories* drift apart, which is why it is held to
/// this per-decision bound and is not sampling-blind.
#[test]
fn seda_decides_within_one_thread_on_sampled_snapshots() {
    let shape = Pipeline.shape();
    let res = Resources::threads(24);
    let snaps = grid(Pipeline);
    let exact = Run::new(&mut Seda::default(), Pipeline, 24, None, &snaps);
    for sign in [1.0, -1.0] {
        let mut seda = Seda::default();
        let sampled = thinned(&snaps, |_, _| sign);
        for ((snap, sampled), current) in snaps.iter().zip(&sampled).zip(&exact.configs) {
            let on_exact = (exact.evaluated().find(|(t, ..)| *t == snap.time_secs))
                .map_or(current, |(_, proposal, _)| proposal);
            let on_sampled = seda.reconfigure(sampled, current, &shape, &res);
            let on_sampled = on_sampled.as_ref().unwrap_or(current);
            assert!(
                extent_gap(on_exact, on_sampled).is_some_and(|gap| gap <= 1),
                "at {}: {on_sampled} on the sampled grid, {on_exact} on the exact one",
                snap.time_secs
            );
        }
    }
}

/// A mechanism's initial configuration is analyzed like a proposal, and
/// an exemption silences its own code only.
#[test]
fn the_initial_configuration_is_analyzed_and_exemptions_are_narrow() {
    let shape = Pipeline.shape();
    let snaps = snapshot_grid(&shape, 16);
    let run =
        |config: Config| Run::new(&mut StaticMechanism::new(config), Pipeline, 8, None, &snaps);

    let good = run(pipeline([1, 4, 1, 1]));
    assert!(good.nonconformance(&[]).is_empty(), "{}", good.label);
    assert!(
        good.evaluated()
            .all(|(.., verdict)| verdict != Verdict::Accepted),
        "a static mechanism proposes nothing after launch"
    );

    let wide = run(pipeline([1, 64, 1, 1]));
    let found = wide.nonconformance(&[]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].0.starts_with("-:") && found[0].1 == DiagCode::BudgetExceeded);
    assert!(wide.nonconformance(&[DiagCode::BudgetExceeded]).is_empty());

    let mut renamed = pipeline([1, 64, 1, 1]);
    renamed.tasks[0].nested.as_mut().expect("nest").tasks[1].name = "werk".into();
    assert!(!run(renamed)
        .nonconformance(&[DiagCode::BudgetExceeded])
        .is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random snapshots are a second input to the grid's conformance
    /// check, at random budgets and with the two-level instances built
    /// around a random largest inner width.
    #[test]
    fn every_mechanism_is_conformant_on_random_snapshots(
        execs in prop::collection::vec(1e-4f64..0.1, 4),
        loads in prop::collection::vec(0.0f64..64.0, 4),
        occupancies in prop::collection::vec(0.0f64..64.0, 1..16),
        power in prop::option::of(400.0f64..800.0),
        pipeline_threads in 4u32..33,
        two_level_threads in 2u32..33,
        m_max in 2u32..12,
    ) {
        let snaps = |kind: Kind| -> Vec<MonitorSnapshot> {
            let shape = kind.shape();
            (occupancies.iter().enumerate())
                .map(|(i, &occ)| snapshot(&shape, (i + 1) as f64, &execs, &loads, occ, power))
                .collect()
        };
        for row in table() {
            let threads = match row.kind {
                Pipeline => pipeline_threads,
                TwoLevel => two_level_threads,
            };
            let run = Run::new((row.make)(m_max).as_mut(), row.kind, threads, None, &snaps(row.kind));
            let found = run.nonconformance(row.exempt);
            prop_assert!(found.is_empty(), "{}: {:#?}", run.label, found);
        }
        // SEDA grows stages itself; it also starts from grown ones.
        let grown = Some(pipeline([1, 2, 2, 1]));
        let run = Run::new(&mut Seda::default(), Pipeline, 24, grown, &snaps(Pipeline));
        let found = run.nonconformance(&[DiagCode::BudgetExceeded]);
        prop_assert!(found.is_empty(), "{}: {:#?}", run.label, found);
    }
}
