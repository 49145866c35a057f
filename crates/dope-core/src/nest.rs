//! Helpers for two-level loop nests (transaction-serving applications).
//!
//! The paper's response-time applications share one structure: an outer
//! loop over user transactions whose body can itself be parallelized — a
//! pipeline (x264, bzip) or a DOALL loop (swaptions, gimp). Configurations
//! of such nests are written `<DoP_outer, DoP_inner>`.
//!
//! Mechanisms like WQT-H and WQ-Linear think in terms of a single knob:
//! the *width* of a transaction, the threads it occupies. This module
//! maps that knob onto full [`Config`] trees ([`config_for_width`]):
//!
//! * a width too narrow for the parallel descriptor selects the
//!   *sequential-transaction* alternative when the nest declares one (the
//!   paper's `(1, SEQ)`), so a transaction occupies one context instead of
//!   an idle pipeline;
//! * a wider one selects the parallel descriptor, assigns the *inner
//!   extent* `d` (the width less the sequential leaves) to every parallel
//!   leaf (clamped to its declared cap), and gives the outer loop
//!   `threads / width` replicas.

use crate::config::{Config, TaskConfig};
use crate::path::TaskPath;
use crate::shape::{ProgramShape, ShapeNode};
use crate::spec::TaskKind;

/// Description of a two-level nest found inside a program shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelNest {
    /// Path of the outer (transaction) task.
    pub outer: TaskPath,
    /// Index of the parallel-descriptor alternative.
    pub parallel_alt: usize,
    /// Index of the sequential-transaction alternative, if declared.
    pub sequential_alt: Option<usize>,
}

/// Finds the outermost nested task in a shape, classifying its
/// alternatives.
///
/// The *sequential* alternative is one whose descriptor is a single
/// sequential leaf; the *parallel* alternative is the first other one.
/// Returns `None` if the shape has no nested task.
#[must_use]
pub fn find_two_level(shape: &ProgramShape) -> Option<TwoLevelNest> {
    for (i, node) in shape.tasks.iter().enumerate() {
        if node.is_leaf() {
            continue;
        }
        let path = TaskPath::root_child(i as u16);
        let mut sequential_alt = None;
        let mut parallel_alt = None;
        for (a, alt) in node.alternatives.iter().enumerate() {
            let is_seq = alt.len() == 1 && alt[0].is_leaf() && alt[0].kind == TaskKind::Seq;
            if is_seq && sequential_alt.is_none() {
                sequential_alt = Some(a);
            } else if parallel_alt.is_none() {
                parallel_alt = Some(a);
            }
        }
        let parallel_alt = parallel_alt.or(sequential_alt)?;
        return Some(TwoLevelNest {
            outer: path,
            parallel_alt,
            sequential_alt,
        });
    }
    None
}

/// The `<threads / width, d>` configuration on alternative `alt` of the
/// nest: parallel leaves at `d` clamped to their caps, sequential leaves
/// at 1, the outer loop at `max(1, threads / width)` replicas, and every
/// other top-level task single-threaded.
fn build(shape: &ProgramShape, nest: &TwoLevelNest, threads: u32, d: u32, alt: usize) -> Config {
    let tasks = shape
        .tasks
        .iter()
        .enumerate()
        .map(|(i, node)| {
            if TaskPath::root_child(i as u16) != nest.outer {
                return TaskConfig::single_threaded(node);
            }
            let children = node.alternatives[alt].iter().map(|c| child_config(c, d));
            let mut outer = TaskConfig::nest(node.name.as_str(), 1, alt, children.collect());
            outer.extent = (threads / outer.threads()).max(1);
            outer
        })
        .collect();
    Config::new(tasks)
}

/// One replica of `node` with parallel leaves at `d`, clamped to their
/// caps: its [`threads`](TaskConfig::threads) is the width it adds to a
/// transaction. Deeper than two levels a subtree runs one replica of
/// its first alternative at the same inner extent.
fn child_config(node: &ShapeNode, d: u32) -> TaskConfig {
    if node.is_leaf() {
        let extent = match node.kind {
            TaskKind::Seq => 1,
            TaskKind::Par => node.max_extent.map_or(d, |m| d.min(m)).max(1),
        };
        TaskConfig::leaf(node.name.as_str(), extent)
    } else {
        let tasks = node.alternatives[0].iter().map(|n| child_config(n, d));
        TaskConfig::nest(node.name.as_str(), 1, 0, tasks.collect())
    }
}

/// Number of sequential leaves in the parallel alternative of a nest.
#[must_use]
pub fn seq_leaves(shape: &ProgramShape, nest: &TwoLevelNest) -> u32 {
    let node = shape
        .node(&nest.outer)
        .expect("nest path resolves in its own shape");
    node.alternatives[nest.parallel_alt]
        .iter()
        .filter(|n| n.is_leaf() && n.kind == TaskKind::Seq)
        .count() as u32
}

/// Builds the configuration whose transactions occupy `width` threads —
/// the paper's inner *DoP extent* knob.
///
/// Widths below the parallel alternative's minimum (`seq_leaves + 1`)
/// clamp to the sequential alternative when one is declared; sequential
/// inner leaves get one thread each and the parallel leaves share the
/// remainder.
///
/// If `threads` is smaller than the parallel descriptor's minimal
/// footprint (`seq_leaves + 1`) *and* the nest declares no sequential
/// alternative, no feasible configuration exists: the returned
/// configuration then exceeds the budget and fails
/// [`Config::validate`] — callers (the executive, the simulator) validate
/// and reject it.
#[must_use]
pub fn config_for_width(
    shape: &ProgramShape,
    nest: &TwoLevelNest,
    threads: u32,
    width: u32,
) -> Config {
    let s = seq_leaves(shape, nest);
    // A transaction can never occupy more threads than the budget.
    let width = width.min(threads.max(1));
    if width <= s || width <= 1 {
        let alt = nest.sequential_alt.unwrap_or(nest.parallel_alt);
        return build(shape, nest, threads, 1, alt);
    }
    // Note d == 1 here still selects the *parallel* descriptor (e.g. the
    // paper's "unhelpful" `(3, PIPE)` that WQ-Linear can produce): the
    // transaction occupies `s + 1` threads.
    let d = width.saturating_sub(s).max(1);
    build(shape, nest, threads, d, nest.parallel_alt)
}

/// Reads the transaction width (inner DoP extent) out of a configuration.
#[must_use]
pub fn width_of(config: &Config, nest: &TwoLevelNest) -> u32 {
    let Some(outer) = config.node(&nest.outer) else {
        return 1;
    };
    let Some(inner) = &outer.nested else {
        return 1;
    };
    if Some(inner.alternative) == nest.sequential_alt {
        return 1;
    }
    inner
        .tasks
        .iter()
        .map(TaskConfig::threads)
        .sum::<u32>()
        .max(1)
}

/// The outer extent (concurrent transactions) of a configuration.
#[must_use]
pub fn outer_extent_of(config: &Config, nest: &TwoLevelNest) -> u32 {
    config.extent_of(&nest.outer).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x264-like shape: pipeline alternative + sequential alternative.
    fn transcode_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "transcode".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(8),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
            ],
        }])
    }

    /// swaptions-like shape: single DOALL alternative.
    fn doall_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "price".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![ShapeNode::leaf("trials", TaskKind::Par)]],
        }])
    }

    #[test]
    fn finds_nest_and_alternatives() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        assert_eq!(nest.outer.to_string(), "0");
        assert_eq!(nest.parallel_alt, 0);
        assert_eq!(nest.sequential_alt, Some(1));
    }

    #[test]
    fn width_uses_sequential_alternative_at_d1() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        let width = |w| width_of(&config_for_width(&shape, &nest, 24, w), &nest);
        assert_eq!(width(1), 1);
        assert_eq!(width(8), 8); // 1 + 6 + 1
        assert_eq!(width(14), 10); // transform capped at 8
    }

    #[test]
    fn doall_width_is_d() {
        let shape = doall_shape();
        let nest = find_two_level(&shape).unwrap();
        assert_eq!(nest.sequential_alt, None);
        let width = |w| width_of(&config_for_width(&shape, &nest, 24, w), &nest);
        assert_eq!(width(1), 1);
        assert_eq!(width(6), 6);
        // Without a sequential alternative, width one is the parallel
        // descriptor with one worker.
        let one = config_for_width(&shape, &nest, 24, 1);
        assert_eq!(one.extent_of(&"0.0".parse().unwrap()), Some(1));
        assert_eq!(outer_extent_of(&one, &nest), 24);
    }

    #[test]
    fn config_for_extent_builds_paper_configs() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();

        let transform: TaskPath = "0.1".parse().unwrap();
        // <(24, DOALL), (1, SEQ)>
        let seq = config_for_width(&shape, &nest, 24, 1);
        assert_eq!(outer_extent_of(&seq, &nest), 24);
        assert_eq!(
            seq.node(&nest.outer)
                .unwrap()
                .nested
                .as_ref()
                .unwrap()
                .alternative,
            1
        );
        assert_eq!(seq.total_threads(), 24);
        seq.validate(&shape, 24).unwrap();

        // <(3, DOALL), (6, PIPE)>: width = 8, outer = 3
        let par = config_for_width(&shape, &nest, 24, 8);
        assert_eq!(outer_extent_of(&par, &nest), 3);
        assert_eq!(par.extent_of(&transform), Some(6));
        assert_eq!(par.total_threads(), 24);
        par.validate(&shape, 24).unwrap();
    }

    #[test]
    fn config_respects_leaf_caps() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        let config = config_for_width(&shape, &nest, 64, 22);
        assert_eq!(config.extent_of(&"0.1".parse().unwrap()), Some(8));
        config.validate(&shape, 64).unwrap();
    }

    #[test]
    fn width_never_exceeds_budget_leaving_zero_outer() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        // The width clamps to the budget of 4: one replica of 1 + 2 + 1.
        let config = config_for_width(&shape, &nest, 4, 8);
        assert_eq!(outer_extent_of(&config, &nest), 1);
        assert_eq!(width_of(&config, &nest), 4);

        // Without a sequential alternative a budget of 2 cannot hold the
        // pipeline's 1 + 1 + 1: the outer loop still runs one replica,
        // over the budget, rather than none.
        let mut pipeline_only = transcode_shape();
        pipeline_only.tasks[0].alternatives.truncate(1);
        let nest = find_two_level(&pipeline_only).unwrap();
        assert_eq!(nest.sequential_alt, None);
        let config = config_for_width(&pipeline_only, &nest, 2, 8);
        assert_eq!(outer_extent_of(&config, &nest), 1);
        assert_eq!(config.total_threads(), 3);
    }

    /// The outer task is built on its chosen alternative; every other
    /// top-level task, nests included, runs single-threaded on its first.
    #[test]
    fn other_top_level_tasks_are_single_threaded() {
        let mut shape = transcode_shape();
        shape
            .tasks
            .insert(0, ShapeNode::leaf("ingest", TaskKind::Par));
        shape.tasks.push(ShapeNode::nest(
            "audit",
            TaskKind::Par,
            vec![ShapeNode::leaf("log", TaskKind::Par)],
        ));
        let nest = find_two_level(&shape).unwrap();
        assert_eq!(nest.outer.to_string(), "1");
        let config = config_for_width(&shape, &nest, 24, 8);
        assert_eq!(config.tasks[0], TaskConfig::leaf("ingest", 1));
        assert_eq!(
            config.tasks[2],
            TaskConfig::nest("audit", 1, 0, vec![TaskConfig::leaf("log", 1)])
        );
        assert_eq!(outer_extent_of(&config, &nest), 3, "24 / 8");
        assert_eq!(width_of(&config, &nest), 8);
    }

    #[test]
    fn width_roundtrip_through_config() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        for width in [1u32, 3, 4, 8] {
            let config = config_for_width(&shape, &nest, 24, width);
            assert_eq!(width_of(&config, &nest), width, "width {width}");
            config.validate(&shape, 24).unwrap();
        }
        // Width 2 is unrepresentable with two sequential endpoints: it
        // clamps to the sequential alternative.
        let clamped = config_for_width(&shape, &nest, 24, 2);
        assert_eq!(width_of(&clamped, &nest), 1);
        // Sequential alternative occupies exactly one thread per replica.
        let seq = config_for_width(&shape, &nest, 24, 1);
        assert_eq!(seq.total_threads(), 24);
    }

    #[test]
    fn seq_leaves_counts_pipeline_endpoints() {
        let shape = transcode_shape();
        let nest = find_two_level(&shape).unwrap();
        assert_eq!(seq_leaves(&shape, &nest), 2);
        let doall = doall_shape();
        let doall_nest = find_two_level(&doall).unwrap();
        assert_eq!(seq_leaves(&doall, &doall_nest), 0);
    }

    #[test]
    fn shape_without_nest_yields_none() {
        let flat = ProgramShape::new(vec![ShapeNode::leaf("only", TaskKind::Par)]);
        assert!(find_two_level(&flat).is_none());
    }
}
