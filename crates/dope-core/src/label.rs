//! Short strings stored in place.
//!
//! The names a control period writes down — a mechanism's name, an
//! observed signal, a candidate action such as `"width=6"`, a task name —
//! are a dozen bytes long, built once per decision and cloned again on
//! the way into a trace. A [`Label`] keeps such a string inside its own
//! 24 bytes (the size of a `String`), so building and cloning one
//! allocates nothing; a longer string falls back to the heap.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest string (in UTF-8 bytes) a [`Label`] holds without allocating.
const INLINE_LEN: usize = 22;

/// An immutable string that stores up to 22 bytes in place.
///
/// Compares, hashes and prints as its content; dereferences to `str`.
///
/// # Example
///
/// ```
/// use dope_core::Label;
///
/// let action: Label = format!("width={}", 6).into();
/// assert_eq!(action, "width=6");
/// assert!(action.starts_with("width"));
/// assert_eq!(std::mem::size_of::<Label>(), std::mem::size_of::<String>());
/// ```
#[derive(Clone)]
pub struct Label(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is a whole `str`, copied from one.
    Inline { len: u8, bytes: [u8; INLINE_LEN] },
    /// Only for content longer than [`INLINE_LEN`].
    Heap(Box<str>),
}

impl Label {
    /// The content as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a str"),
            Repr::Heap(text) => text,
        }
    }

    fn inline(text: &str) -> Option<Self> {
        let mut bytes = [0; INLINE_LEN];
        bytes
            .get_mut(..text.len())?
            .copy_from_slice(text.as_bytes());
        let len = u8::try_from(text.len()).ok()?;
        Some(Label(Repr::Inline { len, bytes }))
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Self {
        Label::inline(text).unwrap_or_else(|| Label(Repr::Heap(text.into())))
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Label::inline(&text).unwrap_or_else(|| Label(Repr::Heap(text.into_boxed_str())))
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Label {}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Label> for &str {
    fn eq(&self, other: &Label) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_inline(label: &Label) -> bool {
        matches!(label.0, Repr::Inline { .. })
    }

    #[test]
    fn a_label_is_no_larger_than_a_string() {
        assert_eq!(std::mem::size_of::<Label>(), std::mem::size_of::<String>());
    }

    #[test]
    fn content_survives_on_both_sides_of_the_inline_limit() {
        for len in [0, 1, INLINE_LEN - 1, INLINE_LEN, INLINE_LEN + 1, 300] {
            let text = "x".repeat(len);
            for label in [Label::from(text.as_str()), Label::from(text.clone())] {
                assert_eq!(label, text);
                assert_eq!(label.len(), len);
                assert_eq!(is_inline(&label), len <= INLINE_LEN, "{len} bytes");
                assert_eq!(label.clone(), label);
            }
        }
    }

    #[test]
    fn the_limit_counts_bytes_not_characters() {
        // Eleven two-byte characters fill the inline buffer exactly; one
        // ASCII byte more spills, and the split is never inside a
        // character because the content is never split at all.
        let full = "é".repeat(11);
        assert_eq!(full.len(), INLINE_LEN);
        assert!(is_inline(&Label::from(full.as_str())));
        let spilled = format!("{full}x");
        let label = Label::from(spilled.as_str());
        assert!(!is_inline(&label));
        assert_eq!(label, spilled);
        let wide = Label::from("stage-π→σ");
        assert_eq!(wide.chars().count(), 9);
        assert_eq!(wide.to_string(), "stage-π→σ");
    }

    #[test]
    fn equality_and_hash_follow_content_not_representation() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |label: &Label| {
            let mut hasher = DefaultHasher::new();
            label.hash(&mut hasher);
            hasher.finish()
        };
        let inline = Label::from("hold");
        let heap = Label(Repr::Heap("hold".into()));
        assert_eq!(inline, heap);
        assert_eq!(hash(&inline), hash(&heap));
        assert_ne!(inline, Label::from("held"));
        assert_eq!(inline, "hold");
        assert_eq!(inline, *"hold");
        assert_eq!(inline, "hold".to_string());
        assert_eq!(format!("{inline:?} {inline:>6}"), "\"hold\"   hold");
    }
}
