//! Error types for the DoPE core crate.

use crate::diag::DiagCode;
use crate::path::TaskPath;

/// A specialized [`Result`](std::result::Result) with [`enum@Error`] as the
/// error type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while validating or applying parallelism configurations.
///
/// # Example
///
/// ```
/// use dope_core::{Config, Error, ProgramShape, TaskConfig};
///
/// let shape = ProgramShape::new(vec![]);
/// let config = Config::new(vec![TaskConfig::leaf("ghost", 1)]);
/// match config.validate(&shape, 8) {
///     Err(Error::ShapeMismatch { .. }) => {}
///     other => panic!("expected shape mismatch, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The configuration tree does not match the program's shape.
    ShapeMismatch {
        /// Path at which the mismatch was detected.
        path: TaskPath,
        /// The rule broken: DV005, DV006, DV008, DV011 or DV012.
        code: DiagCode,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A configuration assigns zero extent to a task.
    ZeroExtent {
        /// Path of the offending task.
        path: TaskPath,
    },
    /// A configuration requires more threads than the resource budget allows.
    BudgetExceeded {
        /// Threads required by the configuration.
        required: u32,
        /// Threads available under the administrator's constraint.
        available: u32,
    },
    /// A sequential task was assigned an extent greater than one.
    SequentialExtent {
        /// Path of the offending task.
        path: TaskPath,
        /// The (invalid) extent that was assigned.
        extent: u32,
    },
    /// An alternative index is out of range for a nest node.
    UnknownAlternative {
        /// Path of the offending task.
        path: TaskPath,
        /// The requested alternative.
        requested: usize,
        /// Number of alternatives the shape declares.
        available: usize,
    },
    /// A path does not address a node in the configured tree.
    UnknownPath {
        /// The path that failed to resolve.
        path: TaskPath,
    },
    /// The executive or a harness was misused.
    Usage(
        /// Description of the misuse.
        String,
    ),
    /// A task body failed (panicked) at run time and the failure policy
    /// chose to abort the run.
    TaskFailed {
        /// Path of the failed task.
        path: TaskPath,
        /// The panic payload (or a description of how the task was lost).
        reason: String,
    },
    /// An admission policy carries degenerate parameters (zero capacity
    /// or high watermark, non-positive deadline budget).
    AdmissionPolicy {
        /// Human-readable description of the misconfiguration.
        detail: String,
    },
}

impl Error {
    /// The stable diagnostic code for this error.
    ///
    /// Codes come from the `DV0xx` catalogue in [`crate::diag`], which
    /// the static analyzer in `dope-verify` shares; a config rejected by
    /// [`Config::validate`](crate::Config::validate) carries the code of
    /// the analyzer's first error diagnostic for it.
    ///
    /// # Example
    ///
    /// ```
    /// use dope_core::diag::DiagCode;
    /// use dope_core::Error;
    ///
    /// let err = Error::BudgetExceeded { required: 32, available: 24 };
    /// assert_eq!(err.code(), DiagCode::BudgetExceeded);
    /// assert_eq!(err.code().to_string(), "DV001");
    /// ```
    #[must_use]
    pub fn code(&self) -> DiagCode {
        match self {
            Error::ShapeMismatch { code, .. } => *code,
            Error::ZeroExtent { .. } => DiagCode::ZeroExtent,
            Error::BudgetExceeded { .. } => DiagCode::BudgetExceeded,
            Error::SequentialExtent { .. } => DiagCode::SequentialExtent,
            Error::UnknownAlternative { .. } => DiagCode::AltOutOfRange,
            Error::UnknownPath { .. } => DiagCode::UnknownPath,
            Error::Usage(_) => DiagCode::Usage,
            Error::TaskFailed { .. } => DiagCode::TaskFailed,
            Error::AdmissionPolicy { .. } => DiagCode::AdmissionPolicy,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch { path, detail, .. } => {
                write!(f, "configuration does not match shape at {path}: {detail}")
            }
            Error::ZeroExtent { path } => {
                write!(f, "task at {path} was assigned extent zero")
            }
            Error::BudgetExceeded {
                required,
                available,
            } => write!(
                f,
                "configuration needs {required} threads but only {available} are available"
            ),
            Error::SequentialExtent { path, extent } => write!(
                f,
                "sequential task at {path} was assigned extent {extent} (must be 1)"
            ),
            Error::UnknownAlternative {
                path,
                requested,
                available,
            } => write!(
                f,
                "task at {path} has {available} parallelism descriptors but alternative {requested} was requested"
            ),
            Error::UnknownPath { path } => write!(f, "no task at path {path}"),
            Error::Usage(detail) => write!(f, "usage error: {detail}"),
            Error::TaskFailed { path, reason } => {
                write!(f, "task at {path} failed: {reason}")
            }
            Error::AdmissionPolicy { detail } => {
                write!(f, "admission policy misconfigured: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            Error::ShapeMismatch {
                path: TaskPath::root_child(0),
                code: DiagCode::NameMismatch,
                detail: "name".into(),
            },
            Error::ZeroExtent {
                path: TaskPath::root_child(1),
            },
            Error::BudgetExceeded {
                required: 32,
                available: 24,
            },
            Error::SequentialExtent {
                path: TaskPath::root_child(0),
                extent: 4,
            },
            Error::UnknownAlternative {
                path: TaskPath::root_child(0),
                requested: 2,
                available: 1,
            },
            Error::UnknownPath {
                path: TaskPath::root_child(7),
            },
            Error::Usage("spawned twice".into()),
            Error::TaskFailed {
                path: TaskPath::root_child(0),
                reason: "worker panicked: boom".into(),
            },
            Error::AdmissionPolicy {
                detail: "Shed admission with high_water 0 would shed everything".into(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn codes_are_stable_and_round_trip() {
        use crate::diag::DiagCode;

        let cases = [
            (
                Error::ShapeMismatch {
                    path: TaskPath::root_child(0),
                    code: DiagCode::NameMismatch,
                    detail: "name".into(),
                },
                "DV005",
            ),
            (
                Error::ShapeMismatch {
                    path: TaskPath::root_child(0),
                    code: DiagCode::MaxExtentExceeded,
                    detail: "cap".into(),
                },
                "DV006",
            ),
            (
                Error::ZeroExtent {
                    path: TaskPath::root_child(1),
                },
                "DV007",
            ),
            (
                Error::BudgetExceeded {
                    required: 32,
                    available: 24,
                },
                "DV001",
            ),
            (
                Error::SequentialExtent {
                    path: TaskPath::root_child(0),
                    extent: 4,
                },
                "DV003",
            ),
            (
                Error::UnknownAlternative {
                    path: TaskPath::root_child(0),
                    requested: 2,
                    available: 1,
                },
                "DV004",
            ),
            (
                Error::UnknownPath {
                    path: TaskPath::root_child(7),
                },
                "DV013",
            ),
            (Error::Usage("spawned twice".into()), "DV014"),
            (
                Error::TaskFailed {
                    path: TaskPath::root_child(0),
                    reason: "worker panicked: boom".into(),
                },
                "DV016",
            ),
            (
                Error::AdmissionPolicy {
                    detail: "zero capacity".into(),
                },
                "DV017",
            ),
        ];
        for (err, expected) in cases {
            let code = err.code();
            assert_eq!(code.to_string(), expected, "{err}");
            // Display output parses back to the same code.
            let parsed: DiagCode = code.to_string().parse().unwrap();
            assert_eq!(parsed, code);
        }
    }
}
