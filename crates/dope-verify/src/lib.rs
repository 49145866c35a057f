//! Static analysis for DoPE parallelism configurations.
//!
//! The `DV0xx` rules are written once, in
//! [`Config::check`](dope_core::Config::check); the runtime's validator
//! and this analyzer are two readings of that one walk.
//! [`Config::validate`](dope_core::Config::validate) answers "may I
//! launch this?" with the first error-severity finding as a single
//! [`Error`](dope_core::Error). [`analyze`] answers the developer's
//! question instead — "*everything* that is wrong or suspicious about
//! this configuration" — as a [`Report`] of structured
//! [`Diagnostic`]s, each carrying the finding's stable code from
//! [`dope_core::diag`], the offending [`TaskPath`],
//! a severity, and a suggested fix. So `validate` rejects exactly the
//! configurations whose report holds a config-level error, with the code
//! of the first one (a property test in `tests/properties.rs` holds both
//! to it).
//!
//! What only the analyzer reports are the warnings of the walk
//! (under-subscription, starved pipeline stages) and the shape's own
//! lints ([`lint_shape`]: empty or duplicate alternatives, duplicate
//! sibling names), which exist before any configuration is chosen.
//!
//! [`snapshot_grid`] is the deterministic monitoring data the mechanisms
//! are tested on: the umbrella crate's `tests/mechanisms.rs` drives each
//! one over it through the control core and analyzes everything the core
//! evaluated.
//!
//! The catalogue is shared with the runtime, but not every code is
//! static: [`DiagCode::TaskFailed`] (DV016) is emitted only by the
//! runtime's supervision layer when a task body fails mid-run — this
//! analyzer never produces it.
//!
//! # Example
//!
//! ```
//! use dope_core::{Config, ProgramShape, Resources, ShapeNode, TaskConfig, TaskKind};
//! use dope_core::diag::DiagCode;
//!
//! let shape = ProgramShape::new(vec![ShapeNode::nest(
//!     "transcode",
//!     TaskKind::Par,
//!     vec![
//!         ShapeNode::leaf("read", TaskKind::Seq),
//!         ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
//!         ShapeNode::leaf("write", TaskKind::Seq),
//!     ],
//! )]);
//! // Two problems at once: a parallel sequential stage and a budget overrun.
//! let config = Config::new(vec![TaskConfig::nest(
//!     "transcode",
//!     8,
//!     0,
//!     vec![
//!         TaskConfig::leaf("read", 2),
//!         TaskConfig::leaf("transform", 6),
//!         TaskConfig::leaf("write", 1),
//!     ],
//! )]);
//! let report = dope_verify::analyze(&shape, &config, &Resources::threads(24));
//! let codes: Vec<_> = report.errors().map(|d| d.code).collect();
//! assert!(codes.contains(&DiagCode::SequentialExtent));
//! assert!(codes.contains(&DiagCode::BudgetExceeded));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conformance;
pub mod json;
pub mod report;

pub use conformance::snapshot_grid;
pub use report::Report;

use dope_core::diag::{DiagCode, Diagnostic, Finding};
use dope_core::{Config, ProgramShape, Resources, ShapeNode, TaskPath};
use std::convert::Infallible;

pub use dope_core::config::{UNDER_SUBSCRIPTION_FRACTION, UNDER_SUBSCRIPTION_MIN_BUDGET};

/// Analyzes `config` against `shape` under `resources`, collecting every
/// diagnostic the catalogue defines.
///
/// Unlike [`Config::validate`], analysis never stops at the first
/// problem: the walk descends mismatched levels too (pairing tasks
/// positionally as far as both trees extend), so a single run reports
/// all findings. Shape-only lints ([`lint_shape`]) come first.
#[must_use]
pub fn analyze(shape: &ProgramShape, config: &Config, resources: &Resources) -> Report {
    let mut diags = lint_shape(shape);
    let _: Result<(), Infallible> = config.check(shape, resources.threads, &mut |path, finding| {
        let diag = Diagnostic::new(finding.code(), path.clone(), finding.to_string());
        diags.push(diag.with_suggestion(suggestion(&finding)));
        Ok(())
    });
    Report::new(diags)
}

/// The fix the analyzer proposes for `finding`.
fn suggestion(finding: &Finding<'_>) -> String {
    match *finding {
        Finding::Arity { expected, .. } => {
            format!("configure exactly {expected} tasks at this level")
        }
        Finding::Name { expected, .. } => format!("rename the configured task to `{expected}`"),
        Finding::ZeroExtent { .. } => "assign an extent of at least 1".into(),
        Finding::SequentialExtent { .. } => "set the extent of sequential tasks to 1".into(),
        Finding::MaxExtent { cap, .. } => format!("clamp the extent to at most {cap}"),
        Finding::Structure { nested: true, .. } => {
            "configure this task as a leaf (no nested block)".into()
        }
        Finding::Structure { nested: false, .. } => {
            "add a nested block choosing one of the declared alternatives".into()
        }
        Finding::UnknownAlternative { available, .. } => {
            format!("choose an alternative below {available}")
        }
        Finding::EmptyAlternative { .. } => "select an alternative that contains tasks".into(),
        Finding::StarvedStage { .. } => "give every pipeline stage at least one worker".into(),
        Finding::BudgetExceeded {
            required,
            available,
        } => format!(
            "reduce extents until the total drops by {}",
            required - available
        ),
        Finding::UnderSubscribed { .. } => {
            "raise extents of parallel tasks to use the idle budget".into()
        }
    }
}

/// Lints a shape on its own: findings that exist before any
/// configuration is chosen (empty alternatives, duplicate sibling names,
/// redundant alternatives).
#[must_use]
pub fn lint_shape(shape: &ProgramShape) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if shape.tasks.is_empty() {
        diags.push(
            Diagnostic::new(
                DiagCode::EmptyNest,
                TaskPath::root(),
                "program shape declares no tasks",
            )
            .with_suggestion("declare at least one task in the root descriptor"),
        );
    }
    lint_shape_level(&shape.tasks, &TaskPath::root(), &mut diags);
    diags
}

fn lint_shape_level(nodes: &[ShapeNode], prefix: &TaskPath, diags: &mut Vec<Diagnostic>) {
    // DV015: duplicate sibling names make paths ambiguous to humans.
    for (i, node) in nodes.iter().enumerate() {
        if nodes[..i].iter().any(|earlier| earlier.name == node.name) {
            diags.push(
                Diagnostic::new(
                    DiagCode::DuplicateTaskName,
                    prefix.child(i as u16),
                    format!("sibling task name `{}` is used more than once", node.name),
                )
                .with_suggestion("give each sibling task a distinct name"),
            );
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        let path = prefix.child(i as u16);
        for (j, alt) in node.alternatives.iter().enumerate() {
            // DV008: an alternative with no tasks can never do work.
            if alt.is_empty() {
                diags.push(
                    Diagnostic::new(
                        DiagCode::EmptyNest,
                        path.clone(),
                        format!("task `{}` declares an empty alternative {j}", node.name),
                    )
                    .with_suggestion("remove the empty alternative or add tasks to it"),
                );
            }
            // DV009: a structural duplicate of an earlier alternative can
            // never change behaviour, so no mechanism gains anything by
            // selecting it.
            if node.alternatives[..j].iter().any(|earlier| earlier == alt) {
                diags.push(
                    Diagnostic::new(
                        DiagCode::UnreachableAlternative,
                        path.clone(),
                        format!(
                            "task `{}` alternative {j} duplicates an earlier alternative",
                            node.name
                        ),
                    )
                    .with_suggestion("remove the redundant alternative"),
                );
            }
            lint_shape_level(alt, &path, diags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::diag::Severity;
    use dope_core::{TaskConfig, TaskKind};

    fn transcode_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::nest(
            "transcode",
            TaskKind::Par,
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
                ShapeNode::leaf("write", TaskKind::Seq),
            ],
        )])
    }

    fn transcode_config(outer: u32, transform: u32) -> Config {
        Config::new(vec![TaskConfig::nest(
            "transcode",
            outer,
            0,
            vec![
                TaskConfig::leaf("read", 1),
                TaskConfig::leaf("transform", transform),
                TaskConfig::leaf("write", 1),
            ],
        )])
    }

    fn codes(report: &Report) -> Vec<DiagCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_config_has_no_diagnostics() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(3, 6),
            &Resources::threads(24),
        );
        assert!(report.is_clean(), "{report}");
    }

    // DV001 ------------------------------------------------------------

    #[test]
    fn dv001_budget_exceeded_fires() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(4, 8),
            &Resources::threads(24),
        );
        assert!(codes(&report).contains(&DiagCode::BudgetExceeded));
        assert!(report.has_errors());
    }

    #[test]
    fn dv001_quiet_within_budget() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(3, 6),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::BudgetExceeded));
    }

    // DV002 ------------------------------------------------------------

    #[test]
    fn dv002_under_subscription_warns() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(1, 1),
            &Resources::threads(24),
        );
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::UnderSubscription)
            .expect("under-subscription warning");
        assert_eq!(diag.severity, Severity::Warning);
        assert!(!report.has_errors());
    }

    #[test]
    fn dv002_quiet_on_small_budgets_and_good_usage() {
        // Budget below the minimum: never warns.
        let small = analyze(
            &transcode_shape(),
            &transcode_config(1, 1),
            &Resources::threads(4),
        );
        assert!(!codes(&small).contains(&DiagCode::UnderSubscription));
        // Above half the budget: no warning.
        let busy = analyze(
            &transcode_shape(),
            &transcode_config(2, 6),
            &Resources::threads(24),
        );
        assert!(!codes(&busy).contains(&DiagCode::UnderSubscription));
    }

    // DV003 ------------------------------------------------------------

    #[test]
    fn dv003_sequential_extent_fires() {
        let mut config = transcode_config(1, 12);
        config.tasks[0].nested.as_mut().unwrap().tasks[0].extent = 2;
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::SequentialExtent)
            .expect("sequential-extent error");
        assert_eq!(diag.path.to_string(), "0.0");
    }

    #[test]
    fn dv003_quiet_for_parallel_tasks() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::SequentialExtent));
    }

    // DV004 ------------------------------------------------------------

    #[test]
    fn dv004_alt_out_of_range_fires() {
        let mut config = transcode_config(2, 8);
        config.tasks[0].nested.as_mut().unwrap().alternative = 3;
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        assert!(codes(&report).contains(&DiagCode::AltOutOfRange));
    }

    #[test]
    fn dv004_quiet_for_declared_alternative() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::AltOutOfRange));
    }

    // DV005 ------------------------------------------------------------

    #[test]
    fn dv005_name_mismatch_fires() {
        let mut config = transcode_config(2, 8);
        config.tasks[0].name = "transmogrify".into();
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NameMismatch)
            .expect("name-mismatch error");
        assert!(diag.message.contains("transmogrify"));
        assert!(diag.suggestion.as_deref().unwrap().contains("transcode"));
    }

    #[test]
    fn dv005_quiet_when_names_agree() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::NameMismatch));
    }

    // DV006 ------------------------------------------------------------

    #[test]
    fn dv006_max_extent_fires() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(1, 17),
            &Resources::threads(64),
        );
        assert!(codes(&report).contains(&DiagCode::MaxExtentExceeded));
    }

    #[test]
    fn dv006_quiet_at_the_cap() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(1, 16),
            &Resources::threads(64),
        );
        assert!(!codes(&report).contains(&DiagCode::MaxExtentExceeded));
    }

    // DV007 / DV010 ----------------------------------------------------

    #[test]
    fn dv007_and_dv010_fire_for_starved_stage() {
        let mut config = transcode_config(2, 8);
        config.tasks[0].nested.as_mut().unwrap().tasks[1].extent = 0;
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        let c = codes(&report);
        assert!(c.contains(&DiagCode::ZeroExtent));
        assert!(c.contains(&DiagCode::PipeStarvation));
        let starve = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::PipeStarvation)
            .unwrap();
        assert_eq!(starve.path.to_string(), "0.1");
    }

    #[test]
    fn dv010_quiet_when_every_stage_has_workers() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::PipeStarvation));
    }

    #[test]
    fn dv010_quiet_for_single_task_level() {
        // A root with one nested task whose extent is zero is DV007 only:
        // there is no pipeline to starve.
        let shape = ProgramShape::new(vec![ShapeNode::leaf("solo", TaskKind::Par)]);
        let config = Config::new(vec![TaskConfig::leaf("solo", 0)]);
        let report = analyze(&shape, &config, &Resources::threads(4));
        let c = codes(&report);
        assert!(c.contains(&DiagCode::ZeroExtent));
        assert!(!c.contains(&DiagCode::PipeStarvation));
    }

    // DV008 ------------------------------------------------------------

    #[test]
    fn dv008_empty_nest_fires() {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: "hollow".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![]],
        }]);
        let config = Config::new(vec![TaskConfig::nest("hollow", 2, 0, vec![])]);
        let refused = config.validate(&shape, 8).unwrap_err();
        assert_eq!(refused.code(), DiagCode::EmptyNest);
        let report = analyze(&shape, &config, &Resources::threads(8));
        assert!(codes(&report).contains(&DiagCode::EmptyNest));
        assert!(report.has_errors());
    }

    #[test]
    fn dv008_quiet_for_populated_nests() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::EmptyNest));
    }

    // DV009 ------------------------------------------------------------

    #[test]
    fn dv009_unreachable_alternative_warns() {
        let inner = vec![ShapeNode::leaf("stage", TaskKind::Par)];
        let shape = ProgramShape::new(vec![ShapeNode {
            name: "outer".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![inner.clone(), inner],
        }]);
        let config = Config::new(vec![TaskConfig::nest(
            "outer",
            1,
            0,
            vec![TaskConfig::leaf("stage", 4)],
        )]);
        let report = analyze(&shape, &config, &Resources::threads(4));
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::UnreachableAlternative)
            .expect("unreachable-alternative warning");
        assert_eq!(diag.severity, Severity::Warning);
    }

    #[test]
    fn dv009_quiet_for_distinct_alternatives() {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: "outer".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![ShapeNode::leaf("split", TaskKind::Par)],
                vec![ShapeNode::leaf("fused", TaskKind::Par)],
            ],
        }]);
        assert!(lint_shape(&shape)
            .iter()
            .all(|d| d.code != DiagCode::UnreachableAlternative));
    }

    // DV011 ------------------------------------------------------------

    #[test]
    fn dv011_arity_mismatch_fires_and_analysis_continues() {
        let mut config = transcode_config(2, 8);
        config.tasks[0].nested.as_mut().unwrap().tasks.pop();
        // Also break a name deeper in, to prove the walk continues.
        config.tasks[0].nested.as_mut().unwrap().tasks[0].name = "reed".into();
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        let c = codes(&report);
        assert!(c.contains(&DiagCode::ArityMismatch));
        assert!(c.contains(&DiagCode::NameMismatch));
    }

    #[test]
    fn dv011_quiet_when_arities_agree() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::ArityMismatch));
    }

    // DV012 ------------------------------------------------------------

    #[test]
    fn dv012_structure_mismatch_fires_both_ways() {
        // Nest where the shape declares a leaf.
        let mut nested_leaf = transcode_config(2, 8);
        nested_leaf.tasks[0].nested.as_mut().unwrap().tasks[1] =
            TaskConfig::nest("transform", 2, 0, vec![TaskConfig::leaf("x", 1)]);
        let report = analyze(&transcode_shape(), &nested_leaf, &Resources::threads(24));
        assert!(codes(&report).contains(&DiagCode::StructureMismatch));

        // Leaf where the shape declares a nest.
        let flat = Config::new(vec![TaskConfig::leaf("transcode", 2)]);
        let report = analyze(&transcode_shape(), &flat, &Resources::threads(24));
        assert!(codes(&report).contains(&DiagCode::StructureMismatch));
    }

    #[test]
    fn dv012_quiet_when_structure_agrees() {
        let report = analyze(
            &transcode_shape(),
            &transcode_config(2, 8),
            &Resources::threads(24),
        );
        assert!(!codes(&report).contains(&DiagCode::StructureMismatch));
    }

    // DV015 ------------------------------------------------------------

    #[test]
    fn dv015_duplicate_sibling_names_warn() {
        let shape = ProgramShape::new(vec![
            ShapeNode::leaf("stage", TaskKind::Par),
            ShapeNode::leaf("stage", TaskKind::Par),
        ]);
        let diags = lint_shape(&shape);
        let dup = diags
            .iter()
            .find(|d| d.code == DiagCode::DuplicateTaskName)
            .expect("duplicate-name warning");
        assert_eq!(dup.severity, Severity::Warning);
        assert_eq!(dup.path.to_string(), "1");
    }

    #[test]
    fn dv015_quiet_for_distinct_names() {
        assert!(lint_shape(&transcode_shape())
            .iter()
            .all(|d| d.code != DiagCode::DuplicateTaskName));
    }

    // Aggregation -------------------------------------------------------

    #[test]
    fn multiple_findings_are_all_reported() {
        let mut config = transcode_config(4, 20);
        config.tasks[0].nested.as_mut().unwrap().tasks[0].extent = 3;
        config.tasks[0].nested.as_mut().unwrap().tasks[2].name = "wrote".into();
        let report = analyze(&transcode_shape(), &config, &Resources::threads(24));
        let c = codes(&report);
        assert!(c.contains(&DiagCode::SequentialExtent));
        assert!(c.contains(&DiagCode::MaxExtentExceeded));
        assert!(c.contains(&DiagCode::NameMismatch));
        assert!(c.contains(&DiagCode::BudgetExceeded));
        assert!(report.errors().count() >= 4, "{report}");
    }
}
