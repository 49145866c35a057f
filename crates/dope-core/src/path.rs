//! Paths addressing tasks in a configured loop nest.

use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// Address of a task in the configured parallelism tree.
///
/// A path is a sequence of child indices: the first element selects a task
/// in the root parallelism descriptor, each following element selects a
/// child within the chosen nested descriptor. Replicas of a task share a
/// path — monitoring data is aggregated across replicas.
///
/// # Example
///
/// ```
/// use dope_core::TaskPath;
///
/// let transform: TaskPath = "0.1".parse().unwrap();
/// assert_eq!(transform.depth(), 2);
/// assert_eq!(transform.parent(), Some("0".parse().unwrap()));
/// assert_eq!(transform.to_string(), "0.1");
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct TaskPath(Repr);

/// Deepest path stored in place: as many components as fit in the 24
/// bytes a `Vec<u16>` would take. The paper's nests are two or three
/// levels deep, so building, cloning and recording a path allocates
/// nothing; a deeper one spills to the heap.
const INLINE_DEPTH: usize = 11;

#[derive(Clone)]
enum Repr {
    /// `indices[..len]` are the components.
    Inline {
        len: u8,
        indices: [u16; INLINE_DEPTH],
    },
    /// Only for paths deeper than [`INLINE_DEPTH`].
    Heap(Box<[u16]>),
}

impl TaskPath {
    /// The empty path, addressing the root descriptor itself.
    #[must_use]
    pub fn root() -> Self {
        TaskPath(Repr::Inline {
            len: 0,
            indices: [0; INLINE_DEPTH],
        })
    }

    /// Path addressing the `index`-th task of the root descriptor.
    #[must_use]
    pub fn root_child(index: u16) -> Self {
        TaskPath::root().child(index)
    }

    /// Creates a path from raw indices.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = u16>>(indices: I) -> Self {
        let mut path = TaskPath::root();
        for index in indices {
            path.push(index);
        }
        path
    }

    fn as_slice(&self) -> &[u16] {
        match &self.0 {
            Repr::Inline { len, indices } => &indices[..usize::from(*len)],
            Repr::Heap(indices) => indices,
        }
    }

    fn push(&mut self, index: u16) {
        if let Repr::Inline { len, indices } = &mut self.0 {
            if let Some(slot) = indices.get_mut(usize::from(*len)) {
                *slot = index;
                *len += 1;
                return;
            }
        }
        let mut spilled = self.as_slice().to_vec();
        spilled.push(index);
        self.0 = Repr::Heap(spilled.into());
    }

    /// Returns this path extended by one child index.
    #[must_use]
    pub fn child(&self, index: u16) -> Self {
        let mut path = self.clone();
        path.push(index);
        path
    }

    /// The parent path, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<Self> {
        let (_, parent) = self.as_slice().split_last()?;
        Some(TaskPath::from_indices(parent.iter().copied()))
    }

    /// Number of components (nesting depth). The root has depth zero.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` for the root path.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The index of the top-level path this path runs under (its first
    /// component; zero for the root).
    #[must_use]
    pub fn top_index(&self) -> usize {
        usize::from(self.as_slice().first().copied().unwrap_or(0))
    }

    /// Iterates over the component indices.
    pub fn indices(&self) -> impl Iterator<Item = u16> + '_ {
        self.as_slice().iter().copied()
    }

    /// Returns `true` if `self` is a (non-strict) prefix of `other`.
    #[must_use]
    pub fn is_prefix_of(&self, other: &TaskPath) -> bool {
        other.as_slice().starts_with(self.as_slice())
    }
}

impl Default for TaskPath {
    fn default() -> Self {
        TaskPath::root()
    }
}

impl std::fmt::Debug for TaskPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TaskPath").field(&self.as_slice()).finish()
    }
}

// Equality, order and hash are those of the component sequence, whichever
// representation holds it.
impl PartialEq for TaskPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TaskPath {}

impl PartialOrd for TaskPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TaskPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for TaskPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Display for TaskPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            return f.write_str("<root>");
        }
        let mut first = true;
        for i in self.indices() {
            if !first {
                f.write_str(".")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`TaskPath`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError(String);

impl std::fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid task path: {}", self.0)
    }
}

impl std::error::Error for ParsePathError {}

impl FromStr for TaskPath {
    type Err = ParsePathError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s.is_empty() || s == "<root>" {
            return Ok(TaskPath::root());
        }
        let mut path = TaskPath::root();
        for part in s.split('.') {
            path.push(part.parse().map_err(|_| ParsePathError(s.to_string()))?);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "0.1", "3.2.1", "12.0"] {
            let p: TaskPath = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn root_parses_from_empty() {
        let p: TaskPath = "".parse().unwrap();
        assert!(p.is_root());
        assert_eq!(p.to_string(), "<root>");
    }

    #[test]
    fn parent_and_child_are_inverse() {
        let p: TaskPath = "1.2.3".parse().unwrap();
        assert_eq!(p.parent().unwrap().child(3), p);
    }

    #[test]
    fn prefix_checks() {
        let outer: TaskPath = "0".parse().unwrap();
        let inner: TaskPath = "0.1".parse().unwrap();
        assert!(outer.is_prefix_of(&inner));
        assert!(!inner.is_prefix_of(&outer));
        assert!(TaskPath::root().is_prefix_of(&outer));
        assert!(outer.is_prefix_of(&outer));
    }

    #[test]
    fn invalid_parse_reports_error() {
        let err = "0.x".parse::<TaskPath>().unwrap_err();
        assert!(err.to_string().contains("0.x"));
    }

    #[test]
    fn deep_paths_spill_and_still_compare_by_content() {
        assert_eq!(std::mem::size_of::<TaskPath>(), 24);
        let deep = TaskPath::from_indices(0..=INLINE_DEPTH as u16);
        assert!(matches!(deep.0, Repr::Heap(_)));
        assert_eq!(deep.depth(), INLINE_DEPTH + 1);
        assert_eq!(deep.to_string().parse::<TaskPath>().unwrap(), deep);
        let parent = deep.parent().unwrap();
        assert!(matches!(parent.0, Repr::Inline { .. }));
        assert_eq!(parent.child(INLINE_DEPTH as u16), deep);
        assert!(parent < deep && parent.is_prefix_of(&deep));
        // A spilled and an in-place copy of one sequence are one path.
        let spilled = TaskPath(Repr::Heap(vec![0, 1].into()));
        let inline: TaskPath = "0.1".parse().unwrap();
        assert_eq!(spilled, inline);
        assert_eq!(spilled.cmp(&inline), std::cmp::Ordering::Equal);
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: TaskPath = "0.1".parse().unwrap();
        let b: TaskPath = "0.2".parse().unwrap();
        let c: TaskPath = "1".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn top_index_is_the_first_component() {
        assert_eq!(TaskPath::root().top_index(), 0);
        assert_eq!("2".parse::<TaskPath>().unwrap().top_index(), 2);
        assert_eq!("3.0.1".parse::<TaskPath>().unwrap().top_index(), 3);
    }
}
