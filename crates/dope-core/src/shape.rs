//! Structural view of a program's parallelism, used by mechanisms.
//!
//! Mechanisms must reason about the loop nest (which tasks exist, which are
//! parallel, what alternatives a nest offers) without instantiating bodies.
//! [`ProgramShape`] is that structural view, derived once from the
//! application's [`TaskSpec`] tree.

use crate::path::TaskPath;
use crate::spec::{TaskKind, TaskSpec, Work};
use serde::{Deserialize, Serialize};

/// How a configured task exploits parallelism, for reporting.
///
/// The paper writes configurations as `<(24, DOALL), (1, SEQ)>` or
/// `(8, PIPE)`; this enum provides those labels. The classification is
/// structural: a parallel leaf is DOALL, a nest with more than one child is
/// a pipeline, and anything with extent 1 and no parallel inner structure
/// is sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParKind {
    /// Sequential execution.
    Seq,
    /// Data-parallel execution of independent iterations.
    DoAll,
    /// Pipeline-parallel execution of interacting stages.
    Pipe,
}

impl std::fmt::Display for ParKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParKind::Seq => "SEQ",
            ParKind::DoAll => "DOALL",
            ParKind::Pipe => "PIPE",
        })
    }
}

/// Structural description of one task in the loop nest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeNode {
    /// Task name, unique within its descriptor.
    pub name: String,
    /// Whether the task may run with extent greater than one.
    pub kind: TaskKind,
    /// Cap on the extent a mechanism may assign, if declared.
    pub max_extent: Option<u32>,
    /// Alternative inner descriptors; empty for leaf tasks.
    pub alternatives: Vec<Vec<ShapeNode>>,
}

impl ShapeNode {
    /// A leaf node (no nested parallelism).
    #[must_use]
    pub fn leaf(name: impl Into<String>, kind: TaskKind) -> Self {
        ShapeNode {
            name: name.into(),
            kind,
            max_extent: None,
            alternatives: Vec::new(),
        }
    }

    /// A node with one nested descriptor.
    #[must_use]
    pub fn nest(name: impl Into<String>, kind: TaskKind, children: Vec<ShapeNode>) -> Self {
        ShapeNode {
            name: name.into(),
            kind,
            max_extent: None,
            alternatives: vec![children],
        }
    }

    /// Sets the extent cap.
    #[must_use]
    pub fn with_max_extent(mut self, max_extent: u32) -> Self {
        self.max_extent = Some(max_extent.max(1));
        self
    }

    /// `true` if the node has no nested descriptors.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.alternatives.is_empty()
    }

    /// Derives the structural node of a [`TaskSpec`].
    ///
    /// Nested descriptors are instantiated once (replica 0) to observe
    /// their structure; per-replica instantiations at run time must match.
    #[must_use]
    fn of_spec(spec: &TaskSpec) -> Self {
        let alternatives = match spec.work() {
            Work::Leaf(_) => Vec::new(),
            Work::Nest(alts) => alts
                .iter()
                .map(|alt| alt.make_nest(0).iter().map(ShapeNode::of_spec).collect())
                .collect(),
        };
        ShapeNode {
            name: spec.name().to_string(),
            kind: spec.kind(),
            max_extent: spec.max_extent(),
            alternatives,
        }
    }
}

/// Structural description of the whole program: the root descriptor.
///
/// # Example
///
/// ```
/// use dope_core::{ProgramShape, ShapeNode, TaskKind};
///
/// let shape = ProgramShape::new(vec![ShapeNode::nest(
///     "transcode",
///     TaskKind::Par,
///     vec![
///         ShapeNode::leaf("read", TaskKind::Seq),
///         ShapeNode::leaf("transform", TaskKind::Par),
///         ShapeNode::leaf("write", TaskKind::Seq),
///     ],
/// )]);
/// let transform = shape.node(&"0.1".parse().unwrap()).unwrap();
/// assert_eq!(transform.name, "transform");
/// assert_eq!(shape.leaf_paths().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramShape {
    /// The tasks of the root parallelism descriptor.
    pub tasks: Vec<ShapeNode>,
}

impl ProgramShape {
    /// Creates a shape from root-descriptor nodes.
    #[must_use]
    pub fn new(tasks: Vec<ShapeNode>) -> Self {
        ProgramShape { tasks }
    }

    /// Derives the shape of a root descriptor of [`TaskSpec`]s.
    #[must_use]
    pub fn of_specs(specs: &[TaskSpec]) -> Self {
        ProgramShape {
            tasks: specs.iter().map(ShapeNode::of_spec).collect(),
        }
    }

    /// Resolves the node at `path`, following *first* alternatives.
    ///
    /// Mechanisms that choose non-default alternatives should resolve
    /// against the [`Config`](crate::Config) instead; this accessor is for
    /// structural queries that do not depend on the chosen alternative.
    #[must_use]
    pub fn node(&self, path: &TaskPath) -> Option<&ShapeNode> {
        self.node_in_alt(path, &|_| 0)
    }

    /// Resolves the node at `path`, with `alt_of(path)` supplying the
    /// chosen alternative for every nest node along the way.
    #[must_use]
    fn node_in_alt(
        &self,
        path: &TaskPath,
        alt_of: &dyn Fn(&TaskPath) -> usize,
    ) -> Option<&ShapeNode> {
        let mut indices = path.indices();
        let first = indices.next()?;
        let mut node = self.tasks.get(first as usize)?;
        let mut prefix = TaskPath::root_child(first);
        for idx in indices {
            let alt = alt_of(&prefix);
            node = node.alternatives.get(alt)?.get(idx as usize)?;
            prefix = prefix.child(idx);
        }
        Some(node)
    }

    /// Paths of all leaf tasks, following first alternatives, in
    /// depth-first order.
    #[must_use]
    pub fn leaf_paths(&self) -> Vec<TaskPath> {
        fn walk(nodes: &[ShapeNode], prefix: &TaskPath, out: &mut Vec<TaskPath>) {
            for (i, node) in nodes.iter().enumerate() {
                let path = prefix.child(i as u16);
                if node.is_leaf() {
                    out.push(path);
                } else {
                    walk(&node.alternatives[0], &path, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.tasks, &TaskPath::root(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkerSlot;
    use crate::status::TaskStatus;
    use crate::task::{body_fn, TaskBody};

    fn pipeline_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::nest(
            "outer",
            TaskKind::Par,
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(8),
                ShapeNode::leaf("write", TaskKind::Seq),
            ],
        )])
    }

    #[test]
    fn node_resolution() {
        let shape = pipeline_shape();
        assert_eq!(shape.node(&"0".parse().unwrap()).unwrap().name, "outer");
        assert_eq!(shape.node(&"0.0".parse().unwrap()).unwrap().name, "read");
        assert_eq!(
            shape.node(&"0.1".parse().unwrap()).unwrap().max_extent,
            Some(8)
        );
        assert!(shape.node(&"0.3".parse().unwrap()).is_none());
        assert!(shape.node(&"1".parse().unwrap()).is_none());
    }

    #[test]
    fn leaf_paths_are_depth_first() {
        let shape = pipeline_shape();
        let paths: Vec<String> = shape.leaf_paths().iter().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["0.0", "0.1", "0.2"]);
    }

    #[test]
    fn shape_of_specs_matches_structure() {
        let spec = TaskSpec::nest("outer", TaskKind::Par, |_replica: u32| {
            vec![TaskSpec::leaf("stage", TaskKind::Par, |_s: WorkerSlot| {
                Box::new(body_fn(|_| TaskStatus::Finished)) as Box<dyn TaskBody>
            })
            .with_max_extent(4)]
        });
        let shape = ProgramShape::of_specs(&[spec]);
        assert_eq!(shape.tasks.len(), 1);
        assert_eq!(shape.tasks[0].alternatives.len(), 1);
        let inner = &shape.tasks[0].alternatives[0][0];
        assert_eq!(inner.name, "stage");
        assert_eq!(inner.max_extent, Some(4));
    }

    #[test]
    fn parkind_display() {
        assert_eq!(ParKind::Seq.to_string(), "SEQ");
        assert_eq!(ParKind::DoAll.to_string(), "DOALL");
        assert_eq!(ParKind::Pipe.to_string(), "PIPE");
    }

    #[test]
    fn node_in_alt_follows_choice() {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: "outer".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![ShapeNode::leaf("split", TaskKind::Par)],
                vec![ShapeNode::leaf("fused", TaskKind::Par)],
            ],
        }]);
        let p: TaskPath = "0.0".parse().unwrap();
        let in_alt1 = shape.node_in_alt(&p, &|_| 1).unwrap();
        assert_eq!(in_alt1.name, "fused");
        let in_alt0 = shape.node_in_alt(&p, &|_| 0).unwrap();
        assert_eq!(in_alt0.name, "split");
    }
}
