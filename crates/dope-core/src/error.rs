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
/// use dope_core::diag::DiagCode;
/// use dope_core::{Config, Error, ProgramShape, TaskConfig};
///
/// let shape = ProgramShape::new(vec![]);
/// let config = Config::new(vec![TaskConfig::leaf("ghost", 1)]);
/// match config.validate(&shape, 8) {
///     Err(err @ Error::Invalid { .. }) => assert_eq!(err.code(), DiagCode::ArityMismatch),
///     other => panic!("expected an arity mismatch, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration breaks a rule of the `DV0xx` catalogue: it does
    /// not match the program's shape, or does not fit the thread budget.
    Invalid {
        /// Path of the offending task (the root path for the budget).
        path: TaskPath,
        /// The rule broken.
        code: DiagCode,
        /// What is wrong: the analyzer's message for the rule's
        /// [`Finding`](crate::diag::Finding). The one refusal without a
        /// finding, the executive's relaunch of a nested path apart from
        /// its nest, says that in words.
        detail: String,
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
    /// use dope_core::{Error, TaskPath};
    ///
    /// let err = Error::Invalid {
    ///     path: TaskPath::root(),
    ///     code: DiagCode::BudgetExceeded,
    ///     detail: "configuration needs 32 threads but only 24 are available".into(),
    /// };
    /// assert_eq!(err.code(), DiagCode::BudgetExceeded);
    /// assert_eq!(err.code().to_string(), "DV001");
    /// ```
    #[must_use]
    pub fn code(&self) -> DiagCode {
        match self {
            Error::Invalid { code, .. } => *code,
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
            Error::Invalid { path, detail, .. } => {
                write!(f, "configuration is invalid at {path}: {detail}")
            }
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
            Error::Invalid {
                path: TaskPath::root_child(0),
                code: DiagCode::NameMismatch,
                detail: "expected task `a`, found `b`".into(),
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
                Error::Invalid {
                    path: TaskPath::root_child(0),
                    code: DiagCode::NameMismatch,
                    detail: "name".into(),
                },
                "DV005",
            ),
            (
                Error::Invalid {
                    path: TaskPath::root(),
                    code: DiagCode::BudgetExceeded,
                    detail: "budget".into(),
                },
                "DV001",
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
