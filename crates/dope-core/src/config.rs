//! Parallelism configurations: the run-time choice DoPE optimizes.
//!
//! A [`Config`] assigns every task in the loop nest a *degree of
//! parallelism*: an extent (replicas for nested tasks, workers for leaf
//! tasks) and, for tasks that expose several inner descriptors, the chosen
//! alternative. The paper writes such configurations as
//! `<DoP_outer, DoP_inner> = <(3, DOALL), (8, PIPE)>`.

use crate::diag::{Finding, Severity};
use crate::error::{Error, Result};
use crate::label::Label;
use crate::path::TaskPath;
use crate::shape::{ParKind, ProgramShape, ShapeNode};
use crate::spec::TaskKind;
use serde::{Deserialize, Serialize};

/// Budget fraction at or below which DV002 (under-subscription) fires: a
/// configuration occupying no more of a budget of at least
/// [`UNDER_SUBSCRIPTION_MIN_BUDGET`] threads leaves most of the machine
/// idle, which defeats the purpose of an adaptive executive.
pub const UNDER_SUBSCRIPTION_FRACTION: f64 = 0.5;

/// Budgets smaller than this never trigger under-subscription warnings.
pub const UNDER_SUBSCRIPTION_MIN_BUDGET: u32 = 8;

/// The chosen inner descriptor of a nested task, with child configurations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NestConfig {
    /// Index of the chosen alternative descriptor.
    pub alternative: usize,
    /// Configuration of each task in the chosen descriptor.
    pub tasks: Vec<TaskConfig>,
}

/// Degree of parallelism assigned to one task.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskConfig {
    /// Task name; must match the shape during validation.
    pub name: Label,
    /// Replicas (nested tasks) or concurrent workers (leaf tasks).
    pub extent: u32,
    /// Inner configuration for nested tasks; `None` for leaves.
    pub nested: Option<NestConfig>,
}

impl TaskConfig {
    /// Configuration of a leaf task with `extent` workers.
    #[must_use]
    pub fn leaf(name: impl Into<Label>, extent: u32) -> Self {
        TaskConfig {
            name: name.into(),
            extent,
            nested: None,
        }
    }

    /// Configuration of a nested task: `extent` replicas, each running
    /// alternative `alternative` configured by `tasks`.
    #[must_use]
    pub fn nest(
        name: impl Into<Label>,
        extent: u32,
        alternative: usize,
        tasks: Vec<TaskConfig>,
    ) -> Self {
        TaskConfig {
            name: name.into(),
            extent,
            nested: Some(NestConfig { alternative, tasks }),
        }
    }

    /// The all-sequential configuration of `node`: extent one, first
    /// alternatives all the way down.
    pub(crate) fn single_threaded(node: &ShapeNode) -> Self {
        if node.is_leaf() {
            TaskConfig::leaf(node.name.as_str(), 1)
        } else {
            let tasks = node.alternatives[0].iter().map(Self::single_threaded);
            TaskConfig::nest(node.name.as_str(), 1, 0, tasks.collect())
        }
    }

    /// Threads this task (and its nest) occupies: extent for leaves,
    /// `extent x sum(children)` for nested tasks, saturating at
    /// `u32::MAX`.
    #[must_use]
    pub fn threads(&self) -> u32 {
        match &self.nested {
            None => self.extent,
            Some(nest) => self.extent.saturating_mul(sum_threads(&nest.tasks).max(1)),
        }
    }

    /// The parallelism kind label used in reports (`SEQ`/`DOALL`/`PIPE`).
    #[must_use]
    fn par_kind(&self) -> ParKind {
        match &self.nested {
            Some(nest) if nest.tasks.len() > 1 => ParKind::Pipe,
            Some(nest) => nest
                .tasks
                .first()
                .map_or(ParKind::Seq, TaskConfig::par_kind),
            None if self.extent > 1 => ParKind::DoAll,
            None => ParKind::Seq,
        }
    }

    fn fmt_into(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.nested {
            None => write!(f, "({}, {})", self.extent, self.par_kind()),
            Some(nest) => {
                write!(f, "({}, {} [", self.extent, self.par_kind())?;
                for (i, t) in nest.tasks.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}:", t.name)?;
                    t.fmt_into(f)?;
                }
                f.write_str("])")
            }
        }
    }
}

impl std::fmt::Display for TaskConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_into(f)
    }
}

/// A complete parallelism configuration for a program.
///
/// # Example
///
/// ```
/// use dope_core::{Config, TaskConfig};
///
/// // Paper notation <(24, DOALL), (1, SEQ)>: 24 concurrent transcodes,
/// // each sequential inside.
/// let wide = Config::new(vec![TaskConfig::nest(
///     "transcode",
///     24,
///     0,
///     vec![TaskConfig::leaf("video", 1)],
/// )]);
/// assert_eq!(wide.total_threads(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Config {
    /// Configuration of each task in the root descriptor.
    pub tasks: Vec<TaskConfig>,
}

impl Config {
    /// Creates a configuration from root task configurations.
    #[must_use]
    pub fn new(tasks: Vec<TaskConfig>) -> Self {
        Config { tasks }
    }

    /// Total hardware threads the configuration occupies, saturating at
    /// `u32::MAX` (so an absurd extent exceeds every budget instead of
    /// wrapping under it).
    #[must_use]
    pub fn total_threads(&self) -> u32 {
        sum_threads(&self.tasks)
    }

    /// Resolves the task configuration at `path`.
    #[must_use]
    pub fn node(&self, path: &TaskPath) -> Option<&TaskConfig> {
        let mut indices = path.indices();
        let first = indices.next()?;
        let mut node = self.tasks.get(first as usize)?;
        for idx in indices {
            node = node.nested.as_ref()?.tasks.get(idx as usize)?;
        }
        Some(node)
    }

    /// Mutably resolves the task configuration at `path`.
    fn node_mut(&mut self, path: &TaskPath) -> Option<&mut TaskConfig> {
        let mut indices = path.indices();
        let first = indices.next()?;
        let mut node = self.tasks.get_mut(first as usize)?;
        for idx in indices {
            node = node.nested.as_mut()?.tasks.get_mut(idx as usize)?;
        }
        Some(node)
    }

    /// The extent assigned at `path`.
    #[must_use]
    pub fn extent_of(&self, path: &TaskPath) -> Option<u32> {
        self.node(path).map(|n| n.extent)
    }

    /// Sets the extent at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPath`] if `path` does not address a task and
    /// an [`Error::Invalid`] (DV007) if `extent` is zero.
    pub fn set_extent(&mut self, path: &TaskPath, extent: u32) -> Result<()> {
        let Some(node) = self.node_mut(path) else {
            return Err(Error::UnknownPath { path: path.clone() });
        };
        if extent == 0 {
            let task = node.name.as_str();
            return Err(Finding::ZeroExtent { task }.to_error(path));
        }
        node.extent = extent;
        Ok(())
    }

    /// The parallelism kind label at `path`.
    #[must_use]
    pub fn kind_of(&self, path: &TaskPath) -> Option<ParKind> {
        self.node(path).map(TaskConfig::par_kind)
    }

    /// All `(path, config)` pairs in depth-first order.
    #[must_use]
    pub fn paths(&self) -> Vec<(TaskPath, &TaskConfig)> {
        fn walk<'a>(
            tasks: &'a [TaskConfig],
            prefix: &TaskPath,
            out: &mut Vec<(TaskPath, &'a TaskConfig)>,
        ) {
            for (i, t) in tasks.iter().enumerate() {
                let path = prefix.child(i as u16);
                out.push((path.clone(), t));
                if let Some(nest) = &t.nested {
                    walk(&nest.tasks, &path, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.tasks, &TaskPath::root(), &mut out);
        out
    }

    /// Paths of all leaf tasks in depth-first order.
    #[must_use]
    pub fn leaf_paths(&self) -> Vec<TaskPath> {
        self.paths()
            .into_iter()
            .filter(|(_, c)| c.nested.is_none())
            .map(|(p, _)| p)
            .collect()
    }

    /// The top-level paths a transition from this configuration to
    /// `other` changes, when draining and relaunching only those is
    /// enough; `None` when the transition must drain every top-level
    /// path, or changes nothing.
    ///
    /// That is the case when both have the same number of top-level
    /// tasks and each pair is either equal or two leaves of one name.
    /// Nested replicas are instantiated as a unit
    /// (`NestFactory::make_nest`), so changing anything in a nest, its
    /// replica count included, rebuilds the replica: a full drain. The
    /// control core (`crate::control`) is the one caller: it decides
    /// which drains are partial for the live executive and the
    /// simulators alike.
    #[must_use]
    pub fn delta_paths(&self, other: &Config) -> Option<Vec<TaskPath>> {
        if self.tasks.len() != other.tasks.len() {
            return None;
        }
        let mut changed = Vec::new();
        for (i, (a, b)) in self.tasks.iter().zip(&other.tasks).enumerate() {
            if a == b {
                continue;
            }
            if a.name != b.name || a.nested.is_some() || b.nested.is_some() {
                return None;
            }
            changed.push(TaskPath::root_child(i as u16));
        }
        (!changed.is_empty()).then_some(changed)
    }

    /// Walks the configuration against `shape` and `budget` and hands
    /// `visit` every rule of the `DV0xx` catalogue it breaks, in
    /// traversal order: per level the arity, then each task (name,
    /// extent, structure, its nest), then starved stages; the budget
    /// last. Mismatched levels are still descended, pairing tasks
    /// positionally. The walk stops, and returns the error, when `visit`
    /// fails. This is the one place the rules are written:
    /// [`validate`](Self::validate) stops at the first error,
    /// `dope_verify::analyze` collects everything. It renders no text,
    /// allocates nothing (paths deeper than eleven levels excepted) and
    /// builds a task's path only to report on it or to descend into it.
    pub fn check<'a, E>(
        &'a self,
        shape: &'a ProgramShape,
        budget: u32,
        visit: &mut impl FnMut(&TaskPath, Finding<'a>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        check_level(&self.tasks, &shape.tasks, &TaskPath::root(), visit)?;
        let (required, available) = (self.total_threads(), budget);
        if required > available {
            let over = Finding::BudgetExceeded {
                required,
                available,
            };
            visit(&TaskPath::root(), over)?;
        } else if available >= UNDER_SUBSCRIPTION_MIN_BUDGET
            && f64::from(required) <= f64::from(available) * UNDER_SUBSCRIPTION_FRACTION
        {
            let under = Finding::UnderSubscribed {
                required,
                available,
            };
            visit(&TaskPath::root(), under)?;
        }
        Ok(())
    }

    /// Validates the configuration against a program shape and a thread
    /// budget: the first error-severity finding of [`check`](Self::check).
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] for the first rule broken: its `code` says which
    /// (names, arities or nesting differ, an extent is zero, above one
    /// for a `SEQ` task or above its declared cap, a nest picks a missing
    /// or empty alternative, or the total exceeds `budget`), its `detail`
    /// is the analyzer's message for it. Only a refusal allocates: the
    /// message and the path.
    pub fn validate(&self, shape: &ProgramShape, budget: u32) -> Result<()> {
        self.check(
            shape,
            budget,
            &mut |path, finding| match finding.code().default_severity() {
                Severity::Error => Err(finding.to_error(path)),
                Severity::Warning => Ok(()),
            },
        )
    }

    /// The all-sequential configuration for a shape: every extent one,
    /// first alternatives.
    #[must_use]
    pub fn single_threaded(shape: &ProgramShape) -> Self {
        Config::new(
            shape
                .tasks
                .iter()
                .map(TaskConfig::single_threaded)
                .collect(),
        )
    }

    /// The paper's *Pthreads-Baseline* static distribution: one thread per
    /// sequential task, the remaining budget split evenly across parallel
    /// tasks ("a static even distribution of available hardware threads
    /// across all the parallel tasks after assigning a single thread to
    /// each sequential task", §8.2.2).
    ///
    /// Nested tasks keep extent one and distribute their budget inside.
    #[must_use]
    pub fn even(shape: &ProgramShape, threads: u32) -> Self {
        fn build(nodes: &[ShapeNode], budget: u32) -> Vec<TaskConfig> {
            let seq_count = nodes
                .iter()
                .filter(|n| n.is_leaf() && n.kind == TaskKind::Seq)
                .count() as u32;
            let par_count = (nodes.len() as u32).saturating_sub(seq_count).max(1);
            let spare = budget.saturating_sub(seq_count);
            let per_par = (spare / par_count).max(1);
            let mut extra = spare.saturating_sub(per_par * par_count);
            nodes
                .iter()
                .map(|n| {
                    if n.is_leaf() {
                        let extent = match n.kind {
                            TaskKind::Seq => 1,
                            TaskKind::Par => {
                                let mut e = per_par;
                                if extra > 0 {
                                    e += 1;
                                    extra -= 1;
                                }
                                n.max_extent.map_or(e, |m| e.min(m)).max(1)
                            }
                        };
                        TaskConfig::leaf(n.name.clone(), extent)
                    } else {
                        let share = if n.kind == TaskKind::Par {
                            let mut e = per_par;
                            if extra > 0 {
                                e += 1;
                                extra -= 1;
                            }
                            e
                        } else {
                            1
                        };
                        TaskConfig::nest(n.name.clone(), 1, 0, build(&n.alternatives[0], share))
                    }
                })
                .collect()
        }
        Config::new(build(&shape.tasks, threads.max(1)))
    }
}

fn sum_threads(tasks: &[TaskConfig]) -> u32 {
    tasks
        .iter()
        .fold(0, |sum, task| sum.saturating_add(task.threads()))
}

/// One descriptor level of [`Config::check`]: `tasks` against `nodes`,
/// paired positionally as far as both extend.
fn check_level<'a, E>(
    tasks: &'a [TaskConfig],
    nodes: &'a [ShapeNode],
    prefix: &TaskPath,
    visit: &mut impl FnMut(&TaskPath, Finding<'a>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    if tasks.len() != nodes.len() {
        let (expected, found) = (nodes.len(), tasks.len());
        visit(prefix, Finding::Arity { expected, found })?;
    }
    for (i, (cfg, node)) in tasks.iter().zip(nodes).enumerate() {
        // Built only for a finding or a descent: most tasks have neither.
        let path = || prefix.child(i as u16);
        let (task, extent) = (cfg.name.as_str(), cfg.extent);
        if task != node.name {
            let expected = node.name.as_str();
            visit(
                &path(),
                Finding::Name {
                    expected,
                    found: task,
                },
            )?;
        }
        if extent == 0 {
            visit(&path(), Finding::ZeroExtent { task })?;
        }
        if node.kind == TaskKind::Seq && extent > 1 {
            visit(&path(), Finding::SequentialExtent { task, extent })?;
        }
        if let Some(cap) = node.max_extent.filter(|&cap| extent > cap) {
            visit(&path(), Finding::MaxExtent { task, extent, cap })?;
        }
        match (&cfg.nested, node.is_leaf()) {
            (None, true) => {}
            (Some(nest), false) => match node.alternatives.get(nest.alternative) {
                None => {
                    let (requested, available) = (nest.alternative, node.alternatives.len());
                    visit(
                        &path(),
                        Finding::UnknownAlternative {
                            task,
                            requested,
                            available,
                        },
                    )?;
                }
                Some(alt) => {
                    // Zero tasks match zero tasks, so the arity rule is
                    // blind to a nest that replicates nothing.
                    if alt.is_empty() && nest.tasks.is_empty() {
                        let alternative = nest.alternative;
                        visit(&path(), Finding::EmptyAlternative { task, alternative })?;
                    }
                    check_level(&nest.tasks, alt, &path(), visit)?;
                }
            },
            (nested, _) => {
                let nested = nested.is_some();
                visit(&path(), Finding::Structure { task, nested })?;
            }
        }
    }
    // Every item flows through every stage of a multi-task level, so one
    // stage without workers stalls its active siblings.
    if tasks.len() >= 2 && tasks.iter().any(|t| t.extent > 0) {
        for (i, cfg) in tasks.iter().enumerate().filter(|(_, t)| t.extent == 0) {
            let task = cfg.name.as_str();
            visit(&prefix.child(i as u16), Finding::StarvedStage { task })?;
        }
    }
    Ok(())
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<")?;
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}:", t.name)?;
            t.fmt_into(f)?;
        }
        f.write_str(">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagCode;

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

    #[test]
    fn thread_accounting_multiplies_replicas() {
        let config = transcode_config(3, 6);
        assert_eq!(config.total_threads(), 3 * (1 + 6 + 1));
    }

    #[test]
    fn node_resolution_and_extent_edit() {
        let mut config = transcode_config(2, 4);
        let path: TaskPath = "0.1".parse().unwrap();
        assert_eq!(config.extent_of(&path), Some(4));
        config.set_extent(&path, 8).unwrap();
        assert_eq!(config.extent_of(&path), Some(8));
        assert_eq!(config.total_threads(), 2 * 10);
    }

    #[test]
    fn set_extent_rejects_zero_and_unknown() {
        let mut config = transcode_config(1, 1);
        let path: TaskPath = "0.1".parse().unwrap();
        let zero = config.set_extent(&path, 0).unwrap_err();
        assert_eq!(zero.code(), DiagCode::ZeroExtent);
        assert!(zero
            .to_string()
            .ends_with("task `transform` was assigned extent zero"));
        let ghost: TaskPath = "0.9".parse().unwrap();
        assert!(matches!(
            config.set_extent(&ghost, 2),
            Err(Error::UnknownPath { .. })
        ));
    }

    #[test]
    fn par_kind_classification() {
        let config = transcode_config(3, 6);
        assert_eq!(config.kind_of(&"0".parse().unwrap()), Some(ParKind::Pipe));
        assert_eq!(config.kind_of(&"0.0".parse().unwrap()), Some(ParKind::Seq));
        assert_eq!(
            config.kind_of(&"0.1".parse().unwrap()),
            Some(ParKind::DoAll)
        );
    }

    #[test]
    fn validate_accepts_good_config() {
        let shape = transcode_shape();
        transcode_config(3, 6).validate(&shape, 24).unwrap();
    }

    #[test]
    fn validate_rejects_budget_overrun() {
        let shape = transcode_shape();
        let err = transcode_config(4, 8).validate(&shape, 24).unwrap_err();
        assert_eq!(err.code(), DiagCode::BudgetExceeded);
        assert!(
            err.to_string().contains("needs 40 threads but only 24"),
            "{err}"
        );
    }

    /// Two extents whose sum wraps a `u32` to zero still exceed every
    /// budget: thread totals saturate.
    #[test]
    fn validate_rejects_a_thread_sum_that_overflows() {
        let shape = ProgramShape::new(vec![
            ShapeNode::leaf("a", TaskKind::Par),
            ShapeNode::leaf("b", TaskKind::Par),
        ]);
        let config = Config::new(vec![
            TaskConfig::leaf("a", 1 << 31),
            TaskConfig::leaf("b", 1 << 31),
        ]);
        assert_eq!(config.total_threads(), u32::MAX);
        let err = config.validate(&shape, 4).unwrap_err();
        assert_eq!(err.code(), DiagCode::BudgetExceeded);
        assert!(err
            .to_string()
            .contains(&format!("needs {} threads", u32::MAX)));
        let nest = TaskConfig::nest("n", 2, 0, config.tasks);
        assert_eq!(nest.threads(), u32::MAX);
    }

    #[test]
    fn validate_rejects_parallel_sequential_task() {
        let shape = transcode_shape();
        let config = Config::new(vec![TaskConfig::nest(
            "transcode",
            1,
            0,
            vec![
                TaskConfig::leaf("read", 2),
                TaskConfig::leaf("transform", 1),
                TaskConfig::leaf("write", 1),
            ],
        )]);
        let err = config.validate(&shape, 24).unwrap_err();
        assert_eq!(err.code(), DiagCode::SequentialExtent);
        assert!(err.to_string().contains("extent 2"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_name() {
        let shape = transcode_shape();
        let mut config = transcode_config(1, 1);
        config.tasks[0].name = "transmogrify".into();
        let err = config.validate(&shape, 24).unwrap_err();
        assert_eq!(err.code(), DiagCode::NameMismatch);
    }

    #[test]
    fn validate_rejects_extent_above_cap() {
        let shape = transcode_shape();
        let config = transcode_config(1, 17);
        let err = config.validate(&shape, 64).unwrap_err();
        assert_eq!(err.code(), DiagCode::MaxExtentExceeded);
    }

    #[test]
    fn validate_rejects_missing_alternative() {
        let shape = transcode_shape();
        let mut config = transcode_config(1, 1);
        config.tasks[0].nested.as_mut().unwrap().alternative = 3;
        let err = config.validate(&shape, 24).unwrap_err();
        assert_eq!(err.code(), DiagCode::AltOutOfRange);
        assert!(
            err.to_string().contains("alternative 3 was requested"),
            "{err}"
        );
    }

    #[test]
    fn single_threaded_uses_one_everywhere() {
        let shape = transcode_shape();
        let config = Config::single_threaded(&shape);
        assert_eq!(config.total_threads(), 3);
        config.validate(&shape, 3).unwrap();
    }

    #[test]
    fn even_distribution_respects_seq_tasks() {
        let shape = ProgramShape::new(vec![
            ShapeNode::leaf("load", TaskKind::Seq),
            ShapeNode::leaf("seg", TaskKind::Par),
            ShapeNode::leaf("extract", TaskKind::Par),
            ShapeNode::leaf("out", TaskKind::Seq),
        ]);
        let config = Config::even(&shape, 24);
        assert_eq!(config.extent_of(&"0".parse().unwrap()), Some(1));
        assert_eq!(config.extent_of(&"3".parse().unwrap()), Some(1));
        let seg = config.extent_of(&"1".parse().unwrap()).unwrap();
        let extract = config.extent_of(&"2".parse().unwrap()).unwrap();
        assert_eq!(seg + extract, 22);
        assert!(seg.abs_diff(extract) <= 1);
        config.validate(&shape, 24).unwrap();
    }

    #[test]
    fn paths_enumerates_depth_first() {
        let config = transcode_config(1, 1);
        let paths: Vec<String> = config.paths().iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(paths, vec!["0", "0.0", "0.1", "0.2"]);
        let leaves: Vec<String> = config.leaf_paths().iter().map(|p| p.to_string()).collect();
        assert_eq!(leaves, vec!["0.0", "0.1", "0.2"]);
    }

    #[test]
    fn delta_paths_refuses_structural_changes() {
        let a = transcode_config(1, 1);
        assert_eq!(a.delta_paths(&a.clone()), None, "nothing changed");

        let mut renamed = a.clone();
        renamed.tasks[0].name = "transmogrify".into();
        assert_eq!(a.delta_paths(&renamed), None);

        let mut realt = a.clone();
        realt.tasks[0].nested.as_mut().unwrap().alternative = 1;
        assert_eq!(a.delta_paths(&realt), None);

        let mut fewer = a.clone();
        fewer.tasks[0].nested.as_mut().unwrap().tasks.pop();
        assert_eq!(a.delta_paths(&fewer), None);

        let flat = Config::new(vec![TaskConfig::leaf("transcode", 1)]);
        assert_eq!(a.delta_paths(&flat), None);
        assert_eq!(flat.delta_paths(&a), None);
    }

    #[test]
    fn delta_paths_accepts_only_top_level_leaf_changes() {
        // Flat pipeline of top-level leaves: any extent nudge is a delta.
        let flat = Config::new(vec![
            TaskConfig::leaf("read", 1),
            TaskConfig::leaf("work", 4),
            TaskConfig::leaf("write", 1),
        ]);
        let mut widened = flat.clone();
        widened.set_extent(&"1".parse().unwrap(), 6).unwrap();
        let delta = flat.delta_paths(&widened).expect("top-level leaf change");
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].to_string(), "1");

        // The same extent change inside a nest is not delta-eligible:
        // nested replicas relaunch as a unit.
        let nested = transcode_config(2, 4);
        let mut inner = nested.clone();
        inner.set_extent(&"0.1".parse().unwrap(), 8).unwrap();
        assert_eq!(nested.delta_paths(&inner), None);

        // Nor is changing a top-level *nest*'s replica count.
        let mut outer = nested.clone();
        outer.set_extent(&"0".parse().unwrap(), 3).unwrap();
        assert_eq!(nested.delta_paths(&outer), None);

        // Structural changes never qualify.
        assert_eq!(flat.delta_paths(&nested), None);
    }

    #[test]
    fn display_mentions_kinds_and_extents() {
        let config = transcode_config(3, 6);
        let s = config.to_string();
        assert!(s.contains("3"), "{s}");
        assert!(s.contains("PIPE"), "{s}");
        assert!(s.contains("DOALL"), "{s}");
    }
}
