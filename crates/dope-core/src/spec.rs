//! Parallelism specifications: the paper's `Task`/`TaskDescriptor`/
//! `ParDescriptor` types (Figure 3).
//!
//! A [`TaskSpec`] declares one task of a parallelism descriptor. Its
//! [`Work`] is either a [`BodyFactory`] (a leaf whose functor runs on
//! `extent` workers) or a list of [`NestFactory`] *alternatives* — the
//! paper's "specifying more than one descriptor exposes a choice to DoPE",
//! used by task fusion.
//!
//! Specs deliberately *underspecify* the parallelism: no extents appear
//! here. The executive pairs a spec tree with a [`Config`](crate::Config)
//! chosen by a mechanism at run time.

use crate::task::TaskBody;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Whether a task may be executed by more than one worker concurrently.
///
/// The paper's `TaskType = SEQ | PAR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// At most one worker invokes the body at a time; extent is pinned to 1.
    Seq,
    /// Up to `extent` workers invoke per-worker bodies concurrently.
    Par,
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TaskKind::Seq => "SEQ",
            TaskKind::Par => "PAR",
        })
    }
}

/// Identifies one worker of a task instance.
///
/// Passed to [`BodyFactory::make_body`] when the worker's body is built.
/// It carries no extent: the executive changes a task's extent at run
/// time, so a body must not hold a copy of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerSlot {
    /// Index of the worker among the task's concurrent workers (per
    /// replica of an enclosing nest), from 0.
    pub worker: u32,
}

/// Creates per-worker [`TaskBody`] instances for a leaf task.
///
/// Implemented for any `Fn(WorkerSlot) -> Box<dyn TaskBody>` closure.
pub trait BodyFactory: Send + Sync {
    /// Builds the body that worker `slot` will run for this epoch.
    fn make_body(&self, slot: WorkerSlot) -> Box<dyn TaskBody>;
}

impl<F> BodyFactory for F
where
    F: Fn(WorkerSlot) -> Box<dyn TaskBody> + Send + Sync,
{
    fn make_body(&self, slot: WorkerSlot) -> Box<dyn TaskBody> {
        self(slot)
    }
}

/// Creates a fresh inner parallelism descriptor for one replica of a task.
///
/// Each replica gets its own descriptor so that per-replica state (stage
/// queues, accumulators) is not shared between concurrent outer-loop
/// instances. Implemented for any `Fn(u32) -> Vec<TaskSpec>` closure, where
/// the argument is the replica index.
///
/// The descriptor's *shape* (task names, kinds, nesting) must not depend on
/// the replica index; the executive derives the program shape from replica
/// zero and validates the rest against it.
pub trait NestFactory: Send + Sync {
    /// Builds the inner descriptor for replica `replica`.
    fn make_nest(&self, replica: u32) -> Vec<TaskSpec>;
}

impl<F> NestFactory for F
where
    F: Fn(u32) -> Vec<TaskSpec> + Send + Sync,
{
    fn make_nest(&self, replica: u32) -> Vec<TaskSpec> {
        self(replica)
    }
}

/// The work a task performs: run a functor, or run an inner loop nest.
#[derive(Clone)]
pub enum Work {
    /// A leaf task: `extent` workers each run a body from this factory.
    Leaf(Arc<dyn BodyFactory>),
    /// A nested task: `extent` replicas each run one of these alternative
    /// inner descriptors (the mechanism chooses which).
    Nest(Vec<Arc<dyn NestFactory>>),
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Leaf(_) => f.write_str("Work::Leaf(..)"),
            Work::Nest(alts) => write!(f, "Work::Nest({} alternatives)", alts.len()),
        }
    }
}

/// Declaration of one task in a parallelism descriptor.
///
/// # Example
///
/// A three-stage pipeline descriptor (the paper's Figure 6):
///
/// ```
/// use dope_core::{body_fn, TaskKind, TaskSpec, TaskStatus, WorkerSlot};
///
/// fn stage(name: &str, kind: TaskKind) -> TaskSpec {
///     TaskSpec::leaf(name, kind, move |_slot: WorkerSlot| {
///         Box::new(body_fn(|cx| {
///             cx.begin();
///             cx.end();
///             TaskStatus::Finished
///         })) as Box<dyn dope_core::TaskBody>
///     })
/// }
///
/// let descriptor = vec![
///     stage("read", TaskKind::Seq),
///     stage("transform", TaskKind::Par),
///     stage("write", TaskKind::Seq),
/// ];
/// assert_eq!(descriptor.len(), 3);
/// ```
#[derive(Clone)]
pub struct TaskSpec {
    name: String,
    kind: TaskKind,
    work: Work,
    load: Option<Arc<dyn Fn() -> f64 + Send + Sync>>,
    max_extent: Option<u32>,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("work", &self.work)
            .field("has_load_cb", &self.load.is_some())
            .field("max_extent", &self.max_extent)
            .finish()
    }
}

impl TaskSpec {
    /// Declares a leaf task whose workers run bodies from `factory`.
    pub fn leaf<F>(name: impl Into<String>, kind: TaskKind, factory: F) -> Self
    where
        F: BodyFactory + 'static,
    {
        TaskSpec {
            name: name.into(),
            kind,
            work: Work::Leaf(Arc::new(factory)),
            load: None,
            max_extent: None,
        }
    }

    /// Declares a task with a single nested parallelism descriptor.
    pub fn nest<F>(name: impl Into<String>, kind: TaskKind, factory: F) -> Self
    where
        F: NestFactory + 'static,
    {
        TaskSpec {
            name: name.into(),
            kind,
            work: Work::Nest(vec![Arc::new(factory)]),
            load: None,
            max_extent: None,
        }
    }

    /// Declares a task offering a *choice* of nested descriptors.
    ///
    /// The mechanism picks the alternative at run time; this is how the
    /// paper's task fusion (TBF, §7.2) exposes a fused variant of a
    /// pipeline alongside the unfused one.
    #[must_use]
    pub fn nest_choice(
        name: impl Into<String>,
        kind: TaskKind,
        alternatives: Vec<Arc<dyn NestFactory>>,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            kind,
            work: Work::Nest(alternatives),
            load: None,
            max_extent: None,
        }
    }

    /// Attaches the paper's `LoadCB`: a callback reporting the current load
    /// on the task (typically the occupancy of its input queue). A snapshot
    /// sums a leaf's over its replicas; a nest's is never called.
    #[must_use]
    pub fn with_load<F>(mut self, load: F) -> Self
    where
        F: Fn() -> f64 + Send + Sync + 'static,
    {
        self.load = Some(Arc::new(load));
        self
    }

    /// Caps the extent a mechanism may assign to this task (the paper's
    /// `Mmax`, the extent above which parallel efficiency drops below 0.5).
    #[must_use]
    pub fn with_max_extent(mut self, max_extent: u32) -> Self {
        self.max_extent = Some(max_extent.max(1));
        self
    }

    /// The task's name (unique within its descriptor).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the task is sequential or parallel.
    #[must_use]
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// The task's work.
    #[must_use]
    pub fn work(&self) -> &Work {
        &self.work
    }

    /// The registered load callback, if any.
    #[must_use]
    pub fn load_cb(&self) -> Option<&Arc<dyn Fn() -> f64 + Send + Sync>> {
        self.load.as_ref()
    }

    /// The configured extent cap, if any.
    #[must_use]
    pub fn max_extent(&self) -> Option<u32> {
        self.max_extent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TaskStatus;
    use crate::task::{body_fn, NullCx, TaskBody};

    fn noop_leaf(name: &str, kind: TaskKind) -> TaskSpec {
        TaskSpec::leaf(name, kind, |_slot: WorkerSlot| {
            Box::new(body_fn(|_cx| TaskStatus::Finished)) as Box<dyn TaskBody>
        })
    }

    #[test]
    fn leaf_spec_reports_metadata() {
        let spec = noop_leaf("transform", TaskKind::Par).with_max_extent(8);
        assert_eq!(spec.name(), "transform");
        assert_eq!(spec.kind(), TaskKind::Par);
        assert_eq!(spec.max_extent(), Some(8));
        assert!(matches!(spec.work(), Work::Leaf(_)));
    }

    #[test]
    fn max_extent_clamps_to_one() {
        let spec = noop_leaf("t", TaskKind::Par).with_max_extent(0);
        assert_eq!(spec.max_extent(), Some(1));
    }

    #[test]
    fn load_callback_is_sampled() {
        let spec = noop_leaf("t", TaskKind::Seq).with_load(|| 42.0);
        assert_eq!(spec.load_cb().map(|cb| cb()), Some(42.0));
        assert!(noop_leaf("u", TaskKind::Seq).load_cb().is_none());
    }

    #[test]
    fn nest_factory_builds_fresh_descriptors() {
        let spec = TaskSpec::nest("outer", TaskKind::Par, |replica: u32| {
            vec![noop_leaf(&format!("inner-{replica}"), TaskKind::Seq)]
        });
        match spec.work() {
            Work::Nest(alts) => {
                assert_eq!(alts.len(), 1);
                let nest0 = alts[0].make_nest(0);
                let nest1 = alts[0].make_nest(1);
                assert_eq!(nest0[0].name(), "inner-0");
                assert_eq!(nest1[0].name(), "inner-1");
            }
            Work::Leaf(_) => panic!("expected nest"),
        }
    }

    #[test]
    fn body_factory_from_closure() {
        let factory = |slot: WorkerSlot| {
            let worker = slot.worker;
            Box::new(body_fn(move |_cx| {
                assert_eq!(worker, 1);
                TaskStatus::Finished
            })) as Box<dyn TaskBody>
        };
        let mut body = factory.make_body(WorkerSlot { worker: 1 });
        let mut cx = NullCx;
        assert_eq!(body.invoke(&mut cx), TaskStatus::Finished);
    }

    #[test]
    fn kind_display_matches_paper() {
        assert_eq!(TaskKind::Seq.to_string(), "SEQ");
        assert_eq!(TaskKind::Par.to_string(), "PAR");
    }

    #[test]
    fn debug_is_nonempty() {
        let spec = noop_leaf("t", TaskKind::Par);
        assert!(!format!("{spec:?}").is_empty());
        assert!(!format!("{:?}", spec.work()).is_empty());
    }
}
