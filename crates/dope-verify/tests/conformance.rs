//! Conformance tests: every shipped mechanism, fed a deterministic grid
//! of synthetic monitoring snapshots, must only ever propose
//! configurations that pass the static analyzer with no errors.
//!
//! One test per mechanism so a regression names its offender directly.
//!
//! # The SEDA exemption
//!
//! SEDA is *uncoordinated by design*: each stage controller sizes its
//! own thread pool from local queue observations, with no global budget
//! (paper §7.2; the original SEDA paper has no admission budget either).
//! Its proposals may therefore exceed `Resources::threads`, which the
//! executive handles by rejecting over-budget proposals at the
//! reconfiguration gate. SEDA is accordingly exempt from
//! [`DiagCode::BudgetExceeded`] (DV001) — and from that code *only*; it
//! must still match the shape, keep extents positive, and so on. The
//! `seda_violates_only_the_budget` test pins this down.
//!
//! # Thinned snapshots
//!
//! The live monitor times one invocation in k and weights it, so
//! `mean_exec_secs`, `utilization` and the percentiles a mechanism reads
//! are estimates. Each `*_cannot_tell_*` test drives a second instance of
//! the mechanism over the same grid with those fields moved by the
//! largest error `dope-runtime`'s `thinned_weighted_recording_tracks_the_
//! exact_reference` admits, and demands the same decisions. Eight of the
//! nine mechanisms pass; SEDA, which has a hard utilization threshold, is
//! held to a per-decision bound instead (see its test).

use dope_core::diag::DiagCode;
use dope_core::MonitorSnapshot;
use dope_core::{Config, Mechanism, ProgramShape, Resources, ShapeNode, TaskConfig, TaskKind};
use dope_mechanisms::{Fdp, Oracle, Proportional, Seda, Tbf, Tpc, WqLinear, WqLinearH, WqtH};
use dope_verify::{snapshot_grid, verify_mechanism};

const STEPS: usize = 48;

fn pipeline_shape() -> ProgramShape {
    ProgramShape::new(vec![ShapeNode {
        name: "pipe".into(),
        kind: TaskKind::Par,
        max_extent: Some(1),
        alternatives: vec![
            vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("a", TaskKind::Par),
                ShapeNode::leaf("b", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ],
            vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("fused", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ],
        ],
    }])
}

fn pipeline_initial() -> Config {
    Config::new(vec![TaskConfig::nest(
        "pipe",
        1,
        0,
        vec![
            TaskConfig::leaf("in", 1),
            TaskConfig::leaf("a", 1),
            TaskConfig::leaf("b", 1),
            TaskConfig::leaf("out", 1),
        ],
    )])
}

fn two_level_shape() -> ProgramShape {
    ProgramShape::new(vec![ShapeNode {
        name: "txn".into(),
        kind: TaskKind::Par,
        max_extent: None,
        alternatives: vec![
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("work", TaskKind::Par),
            ],
            vec![ShapeNode::leaf("whole", TaskKind::Seq)],
        ],
    }])
}

fn two_level_initial(shape: &ProgramShape, threads: u32) -> Config {
    dope_core::nest::config_for_width(
        shape,
        &dope_core::nest::find_two_level(shape).expect("two-level"),
        threads,
        1,
    )
}

/// Runs one pipeline-goal mechanism through the grid on several budgets.
fn check_pipeline(mech: &mut dyn Mechanism, exempt: &[DiagCode]) {
    let shape = pipeline_shape();
    let snaps = snapshot_grid(&shape, STEPS);
    for threads in [4, 9, 24, 32] {
        let res = Resources::threads(threads).with_power_budget(630.0);
        if let Err(violation) =
            verify_mechanism(mech, &shape, pipeline_initial(), &res, &snaps, exempt)
        {
            panic!("budget {threads}: {violation}");
        }
    }
}

/// Runs one queue-goal mechanism through the grid on several budgets.
fn check_two_level(mech: &mut dyn Mechanism, exempt: &[DiagCode]) {
    let shape = two_level_shape();
    let snaps = snapshot_grid(&shape, STEPS);
    for threads in [2, 9, 24, 32] {
        let res = Resources::threads(threads).with_power_budget(630.0);
        let initial = two_level_initial(&shape, threads);
        if let Err(violation) = verify_mechanism(mech, &shape, initial, &res, &snaps, exempt) {
            panic!("budget {threads}: {violation}");
        }
    }
}

#[test]
fn fdp_is_conformant() {
    check_pipeline(&mut Fdp::default(), &[]);
}

#[test]
fn tbf_is_conformant() {
    check_pipeline(&mut Tbf::new(), &[]);
    check_pipeline(&mut Tbf::without_fusion(), &[]);
}

#[test]
fn tpc_is_conformant() {
    check_pipeline(&mut Tpc::default(), &[]);
}

#[test]
fn proportional_is_conformant() {
    check_pipeline(&mut Proportional::new(), &[]);
}

#[test]
fn seda_is_conformant_modulo_budget() {
    check_pipeline(&mut Seda::default(), &[DiagCode::BudgetExceeded]);
}

/// Pins the SEDA exemption to exactly DV001: driven hard enough, SEDA
/// does exceed the budget (proving the exemption is load-bearing), but
/// it never produces any *other* error.
#[test]
fn seda_violates_only_the_budget() {
    let shape = pipeline_shape();
    let snaps = snapshot_grid(&shape, STEPS);
    let res = Resources::threads(4);
    let result = verify_mechanism(
        &mut Seda::default(),
        &shape,
        pipeline_initial(),
        &res,
        &snaps,
        &[],
    );
    let violation = result.expect_err("a 4-thread budget must be exceeded under heavy load");
    assert!(
        violation
            .diagnostics
            .iter()
            .all(|d| d.code == DiagCode::BudgetExceeded),
        "{violation}"
    );
}

#[test]
fn oracle_is_conformant() {
    check_two_level(&mut Oracle::from_table(vec![(2.0, 8), (8.0, 2)], 1), &[]);
}

#[test]
fn wq_linear_is_conformant() {
    check_two_level(&mut WqLinear::new(1, 8, 8.0), &[]);
    check_two_level(&mut WqLinear::default(), &[]);
}

#[test]
fn wq_linear_h_is_conformant() {
    check_two_level(&mut WqLinearH::new(1, 8, 8.0, 3), &[]);
    check_two_level(&mut WqLinearH::default(), &[]);
}

#[test]
fn wqt_h_is_conformant() {
    check_two_level(&mut WqtH::new(4.0, 8, 2, 2), &[]);
    check_two_level(&mut WqtH::default(), &[]);
}

/// The sampling errors the runtime's weighted-recording test bounds: 5 %
/// on means and busy time, the histogram's 1/32 plus 5 % on quantiles.
const MEAN_ERROR: f64 = 0.05;
const QUANTILE_ERROR: f64 = 1.0 / 32.0 + 0.05;

/// `snaps` as a sampling monitor might have reported them: every timed
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

/// The largest extent difference between two configurations of one
/// shape, `None` if they differ in anything but extents.
fn extent_gap(a: &[TaskConfig], b: &[TaskConfig]) -> Option<u32> {
    if a.len() != b.len() {
        return None;
    }
    let mut gap = 0;
    for (a, b) in a.iter().zip(b) {
        if a.name != b.name {
            return None;
        }
        gap = gap.max(a.extent.abs_diff(b.extent));
        match (&a.nested, &b.nested) {
            (None, None) => {}
            (Some(a), Some(b)) if a.alternative == b.alternative => {
                gap = gap.max(extent_gap(&a.tasks, &b.tasks)?);
            }
            _ => return None,
        }
    }
    Some(gap)
}

/// The configuration in force after each step of `snaps`.
fn trajectory(
    mech: &mut dyn Mechanism,
    shape: &ProgramShape,
    fallback: Config,
    res: &Resources,
    snaps: &[MonitorSnapshot],
) -> Vec<Config> {
    let mut current = mech.initial(shape, res).unwrap_or(fallback);
    snaps
        .iter()
        .map(|snap| {
            if let Some(proposal) = mech.reconfigure(snap, &current, shape, res) {
                current = proposal;
                mech.applied(&current);
            }
            current.clone()
        })
        .collect()
}

/// Drives one fresh instance over the exact grid and one over each
/// thinned variant (all high, all low, alternating by step and leaf);
/// the configurations in force must be the same at every step.
fn check_cannot_tell(
    make: &dyn Fn() -> Box<dyn Mechanism>,
    shape: &ProgramShape,
    initial: &dyn Fn(u32) -> Config,
) {
    let snaps = snapshot_grid(shape, STEPS);
    type Sign<'a> = &'a dyn Fn(usize, usize) -> f64;
    let signs: [(&str, Sign); 3] = [
        ("high", &|_, _| 1.0),
        ("low", &|_, _| -1.0),
        ("alternating", &|i, k| {
            if (i + k) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        }),
    ];
    for threads in [9, 24] {
        let res = Resources::threads(threads).with_power_budget(630.0);
        let exact = trajectory(make().as_mut(), shape, initial(threads), &res, &snaps);
        for (variant, sign) in signs {
            let sampled = thinned(&snaps, sign);
            let seen = trajectory(make().as_mut(), shape, initial(threads), &res, &sampled);
            for (step, (exact, seen)) in exact.iter().zip(&seen).enumerate() {
                assert_eq!(
                    exact,
                    seen,
                    "{}: budget {threads}, {variant} errors, step {step}",
                    make().name()
                );
            }
        }
    }
}

fn pipeline_cannot_tell(make: &dyn Fn() -> Box<dyn Mechanism>) {
    check_cannot_tell(make, &pipeline_shape(), &|_| pipeline_initial());
}

fn two_level_cannot_tell(make: &dyn Fn() -> Box<dyn Mechanism>) {
    let shape = two_level_shape();
    check_cannot_tell(make, &shape, &|threads| two_level_initial(&shape, threads));
}

#[test]
fn queue_driven_mechanisms_cannot_tell_sampled_from_exact() {
    // They read occupancy and load, which sampling does not touch.
    two_level_cannot_tell(&|| Box::new(Oracle::from_table(vec![(2.0, 8), (8.0, 2)], 1)));
    two_level_cannot_tell(&|| Box::new(WqLinear::new(1, 8, 8.0)));
    two_level_cannot_tell(&|| Box::new(WqLinearH::new(1, 8, 8.0, 3)));
    two_level_cannot_tell(&|| Box::new(WqtH::new(4.0, 8, 2, 2)));
}

/// SEDA *can* tell, and this test says how much. It grows a stage on
/// queue load alone but shrinks one only while `utilization < 0.5`, and
/// the grid's middle utilization is exactly 0.5: read 5 % low, a hold
/// becomes a one-thread shrink. SEDA is memoryless and moves a stage one
/// thread per consult, so from the same configuration its decision on a
/// sampled snapshot is never more than one thread per stage away — but
/// under a persistently one-sided error the two *trajectories* drift
/// apart (two threads by step 16 of the all-low grid), which is why it
/// is held to the per-decision bound and not to `check_cannot_tell`.
#[test]
fn seda_decides_within_one_thread_on_sampled_snapshots() {
    let shape = pipeline_shape();
    let res = Resources::threads(24);
    let snaps = snapshot_grid(&shape, STEPS);
    for sign in [1.0, -1.0] {
        let sampled = thinned(&snaps, |_, _| sign);
        let (mut exact, mut seen) = (Seda::default(), Seda::default());
        let mut current = pipeline_initial();
        for (step, (snap, sampled)) in snaps.iter().zip(&sampled).enumerate() {
            let on_exact = exact.reconfigure(snap, &current, &shape, &res);
            let on_sampled = seen.reconfigure(sampled, &current, &shape, &res);
            let on_exact = on_exact.unwrap_or_else(|| current.clone());
            let on_sampled = on_sampled.unwrap_or_else(|| current.clone());
            assert!(
                extent_gap(&on_exact.tasks, &on_sampled.tasks).is_some_and(|gap| gap <= 1),
                "step {step}: {on_sampled} on the sampled grid, {on_exact} on the exact one"
            );
            current = on_exact;
        }
    }
}

#[test]
fn throughput_climbers_cannot_tell_sampled_from_exact() {
    // TPC and FDP compare sink throughput, a count; execution times only
    // pick which stage to move.
    pipeline_cannot_tell(&|| Box::new(Tpc::default()));
    pipeline_cannot_tell(&|| Box::new(Fdp::default()));
}

#[test]
fn exec_time_proportional_mechanisms_cannot_tell_sampled_from_exact() {
    // Extents in proportion to execution time: on this grid (stage costs
    // a decade apart) a 5 % error never crosses a rounding boundary.
    pipeline_cannot_tell(&|| Box::new(Tbf::new()));
    pipeline_cannot_tell(&|| Box::new(Tbf::without_fusion()));
    pipeline_cannot_tell(&|| Box::new(Proportional::new()));
}
