//! Structured diagnostics shared by validation and static analysis.
//!
//! Every problem the workspace can report about a [`Config`](crate::Config)
//! against a [`ProgramShape`](crate::ProgramShape) carries a **stable
//! code** from the `DV0xx` catalogue below. The codes are part of the
//! public contract: tools (CI gates, the `dope-verify` CLI, editors) may
//! match on them, so once published a code's meaning never changes.
//!
//! | Code  | Meaning                                                     |
//! |-------|-------------------------------------------------------------|
//! | DV001 | thread budget exceeded                                      |
//! | DV002 | thread budget heavily under-subscribed (warning)            |
//! | DV003 | sequential task with extent > 1                             |
//! | DV004 | alternative index out of range                              |
//! | DV005 | task name mismatch between config and shape                 |
//! | DV006 | extent above the shape's declared `max_extent`              |
//! | DV007 | zero extent                                                 |
//! | DV008 | empty or degenerate nest                                    |
//! | DV009 | unreachable alternative (warning)                           |
//! | DV010 | pipeline stage starvation                                   |
//! | DV011 | arity mismatch between config and shape                     |
//! | DV012 | structural mismatch (leaf vs nest)                          |
//! | DV013 | path does not resolve                                       |
//! | DV014 | API misuse                                                  |
//! | DV015 | duplicate task name among siblings (warning)                |
//! | DV016 | task body failed (panicked) at run time                     |
//! | DV017 | admission policy misconfigured                              |

use std::fmt;
use std::str::FromStr;

use crate::error::Error;
use crate::path::TaskPath;

catalogue! {
    /// Stable diagnostic codes (`DV0xx`) for configuration problems.
    ///
    /// # Example
    ///
    /// ```
    /// use dope_core::diag::DiagCode;
    ///
    /// let code: DiagCode = "DV001".parse().unwrap();
    /// assert_eq!(code, DiagCode::BudgetExceeded);
    /// assert_eq!(code.to_string(), "DV001");
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    #[non_exhaustive]
    pub enum DiagCode {
        /// DV001: the configuration needs more threads than the budget allows.
        BudgetExceeded = "DV001",
        /// DV002: the configuration uses a small fraction of the budget.
        UnderSubscription = "DV002",
        /// DV003: a sequential task was assigned extent greater than one.
        SequentialExtent = "DV003",
        /// DV004: a nest selects an alternative the shape does not declare.
        AltOutOfRange = "DV004",
        /// DV005: a task name in the config differs from the shape's name.
        NameMismatch = "DV005",
        /// DV006: an extent exceeds the shape's declared `max_extent`.
        MaxExtentExceeded = "DV006",
        /// DV007: a task was assigned extent zero.
        ZeroExtent = "DV007",
        /// DV008: a nest alternative contains no tasks, or a shape node
        /// declares no alternatives at all.
        EmptyNest = "DV008",
        /// DV009: a shape alternative can never be selected.
        UnreachableAlternative = "DV009",
        /// DV010: a pipeline stage has far less capacity than its siblings.
        PipeStarvation = "DV010",
        /// DV011: a config level has a different number of tasks than the
        /// shape's selected alternative.
        ArityMismatch = "DV011",
        /// DV012: a config node is a leaf where the shape declares a nest,
        /// or vice versa.
        StructureMismatch = "DV012",
        /// DV013: a path does not address a node in the tree.
        UnknownPath = "DV013",
        /// DV014: the executive or a harness was misused.
        Usage = "DV014",
        /// DV015: two sibling tasks share a name, making paths ambiguous to
        /// humans (addressing is positional, so this is only a warning).
        DuplicateTaskName = "DV015",
        /// DV016: a task body failed (panicked) at run time. This code is
        /// emitted by the runtime's supervision layer, never by the static
        /// analyzer — no configuration can predict a panic.
        TaskFailed = "DV016",
        /// DV017: an admission policy carries degenerate parameters (zero
        /// capacity / high watermark, or a non-positive deadline budget):
        /// the gate would admit nothing.
        AdmissionPolicy = "DV017",
    }
    fn as_str;
}

impl DiagCode {
    /// The severity this code is reported at by default.
    ///
    /// Warnings describe configurations that are legal but probably not
    /// what the developer intended; errors describe configurations the
    /// runtime would reject.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::UnderSubscription
            | DiagCode::UnreachableAlternative
            | DiagCode::PipeStarvation
            | DiagCode::DuplicateTaskName => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDiagCodeError(String);

impl fmt::Display for ParseDiagCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown diagnostic code: {:?}", self.0)
    }
}

impl std::error::Error for ParseDiagCodeError {}

impl FromStr for DiagCode {
    type Err = ParseDiagCodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DiagCode::ALL
            .into_iter()
            .find(|code| code.as_str() == s)
            .ok_or_else(|| ParseDiagCodeError(s.to_string()))
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal but suspicious; the runtime would accept the configuration.
    Warning,
    /// The runtime would reject the configuration.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One rule of the catalogue that a configuration breaks, with the
/// rule's own data and no rendered text: what
/// [`Config::check`](crate::Config::check) hands its visitor.
/// `task` is always the *configured* task's name. [`Display`](fmt::Display)
/// renders the message, which the analyzer reports and the validator's
/// [`Error`] ([`to_error`](Finding::to_error)) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding<'a> {
    /// DV011: a level configures `found` tasks where the chosen
    /// descriptor declares `expected`.
    Arity {
        /// Tasks in the shape's descriptor.
        expected: usize,
        /// Tasks in the configuration.
        found: usize,
    },
    /// DV005: the shape calls the task `expected`.
    Name {
        /// The shape's name.
        expected: &'a str,
        /// The configured name.
        found: &'a str,
    },
    /// DV007: extent zero.
    ZeroExtent {
        /// The offending task.
        task: &'a str,
    },
    /// DV003: a sequential task with `extent` above one.
    SequentialExtent {
        /// The offending task.
        task: &'a str,
        /// Its configured extent.
        extent: u32,
    },
    /// DV006: `extent` is above the shape's declared `cap`.
    MaxExtent {
        /// The offending task.
        task: &'a str,
        /// Its configured extent.
        extent: u32,
        /// The shape's `max_extent`.
        cap: u32,
    },
    /// DV012: the configuration nests a task the shape declares a leaf
    /// (`nested`), or configures a nested task as a leaf.
    Structure {
        /// The offending task.
        task: &'a str,
        /// `true` when the configuration is the side that nests.
        nested: bool,
    },
    /// DV004: the nest picks alternative `requested` of `available`.
    UnknownAlternative {
        /// The offending task.
        task: &'a str,
        /// The chosen alternative.
        requested: usize,
        /// Alternatives the shape declares.
        available: usize,
    },
    /// DV008: the chosen alternative holds no tasks.
    EmptyAlternative {
        /// The offending task.
        task: &'a str,
        /// The chosen alternative.
        alternative: usize,
    },
    /// DV010: a stage with extent zero beside active siblings.
    StarvedStage {
        /// The offending task.
        task: &'a str,
    },
    /// DV001: the configuration occupies `required` threads (saturating
    /// at `u32::MAX`) of `available`.
    BudgetExceeded {
        /// Threads the configuration occupies.
        required: u32,
        /// The budget.
        available: u32,
    },
    /// DV002: `required` is at most
    /// [`UNDER_SUBSCRIPTION_FRACTION`](crate::config::UNDER_SUBSCRIPTION_FRACTION)
    /// of a budget worth warning about.
    UnderSubscribed {
        /// Threads the configuration occupies.
        required: u32,
        /// The budget.
        available: u32,
    },
}

impl Finding<'_> {
    /// The catalogue code of the broken rule.
    #[must_use]
    pub fn code(&self) -> DiagCode {
        match self {
            Finding::Arity { .. } => DiagCode::ArityMismatch,
            Finding::Name { .. } => DiagCode::NameMismatch,
            Finding::ZeroExtent { .. } => DiagCode::ZeroExtent,
            Finding::SequentialExtent { .. } => DiagCode::SequentialExtent,
            Finding::MaxExtent { .. } => DiagCode::MaxExtentExceeded,
            Finding::Structure { .. } => DiagCode::StructureMismatch,
            Finding::UnknownAlternative { .. } => DiagCode::AltOutOfRange,
            Finding::EmptyAlternative { .. } => DiagCode::EmptyNest,
            Finding::StarvedStage { .. } => DiagCode::PipeStarvation,
            Finding::BudgetExceeded { .. } => DiagCode::BudgetExceeded,
            Finding::UnderSubscribed { .. } => DiagCode::UnderSubscription,
        }
    }

    /// This finding at `path` as the [`Error::Invalid`] that carries its
    /// code and message: what `Config::validate` returns for the first
    /// error-severity finding.
    #[must_use]
    pub fn to_error(&self, path: &TaskPath) -> Error {
        Error::Invalid {
            path: path.clone(),
            code: self.code(),
            detail: self.to_string(),
        }
    }
}

impl fmt::Display for Finding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Finding::Arity { expected, found } => write!(
                f,
                "descriptor has {expected} tasks but configuration has {found}"
            ),
            Finding::Name { expected, found } => {
                write!(f, "expected task `{expected}`, found `{found}`")
            }
            Finding::ZeroExtent { task } => write!(f, "task `{task}` was assigned extent zero"),
            Finding::SequentialExtent { task, extent } => write!(
                f,
                "sequential task `{task}` was assigned extent {extent} (must be 1)"
            ),
            Finding::MaxExtent { task, extent, cap } => {
                write!(
                    f,
                    "task `{task}` extent {extent} exceeds declared cap {cap}"
                )
            }
            Finding::Structure { task, nested: true } => {
                write!(f, "configuration nests leaf task `{task}`")
            }
            Finding::Structure {
                task,
                nested: false,
            } => {
                write!(f, "configuration treats nested task `{task}` as a leaf")
            }
            Finding::UnknownAlternative {
                task,
                requested,
                available,
            } => write!(
                f,
                "task `{task}` has {available} parallelism descriptors but alternative \
                 {requested} was requested"
            ),
            Finding::EmptyAlternative { task, alternative } => write!(
                f,
                "task `{task}` selects empty alternative {alternative}: the nest does no work"
            ),
            Finding::StarvedStage { task } => write!(
                f,
                "pipeline stage `{task}` has extent 0 while sibling stages are active; \
                 items will pile up and the pipeline will starve"
            ),
            Finding::BudgetExceeded {
                required,
                available,
            } => write!(
                f,
                "configuration needs {required} threads but only {available} are available"
            ),
            Finding::UnderSubscribed {
                required,
                available,
            } => write!(
                f,
                "configuration uses {required} of {available} budgeted threads ({}%)",
                100 * u64::from(required) / u64::from(available.max(1))
            ),
        }
    }
}

/// One structured finding about a configuration.
///
/// Unlike [`Error`], which models the runtime's
/// first-error-wins validation, diagnostics are collected exhaustively:
/// an analysis pass reports *every* problem it can find, each tagged
/// with a stable [`DiagCode`], the offending [`TaskPath`], a severity,
/// and a suggested fix.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable catalogue code.
    pub code: DiagCode,
    /// How serious the finding is.
    pub severity: Severity,
    /// Path of the offending node (the root path for whole-tree findings).
    pub path: TaskPath,
    /// Human-readable description of the problem.
    pub message: String,
    /// Suggested fix, if the analysis can propose one.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at `code`'s default severity.
    #[must_use]
    pub fn new(code: DiagCode, path: TaskPath, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            path,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// `true` if this diagnostic is an error (not a warning).
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.severity, self.code, self.path, self.message
        )?;
        if let Some(suggestion) = &self.suggestion {
            write!(f, " (suggestion: {suggestion})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_display() {
        for code in DiagCode::ALL {
            let text = code.to_string();
            assert!(text.starts_with("DV"), "{text}");
            assert_eq!(text.len(), 5, "{text}");
            let parsed: DiagCode = text.parse().unwrap();
            assert_eq!(parsed, code);
        }
    }

    #[test]
    fn codes_are_unique_and_ordered() {
        let texts: Vec<&str> = DiagCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = texts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted, texts,
            "codes must be unique and numerically ordered"
        );
    }

    #[test]
    fn unknown_code_fails_to_parse() {
        assert!("DV099".parse::<DiagCode>().is_err());
        assert!("".parse::<DiagCode>().is_err());
        assert!("dv001".parse::<DiagCode>().is_err());
    }

    #[test]
    fn severity_defaults() {
        assert_eq!(DiagCode::BudgetExceeded.default_severity(), Severity::Error);
        assert_eq!(
            DiagCode::UnderSubscription.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagCode::PipeStarvation.default_severity(),
            Severity::Warning
        );
    }

    #[test]
    fn diagnostic_display_contains_parts() {
        let d = Diagnostic::new(
            DiagCode::ZeroExtent,
            TaskPath::root_child(2),
            "task `write` has extent zero",
        )
        .with_suggestion("set extent to at least 1");
        let text = d.to_string();
        assert!(text.contains("DV007"), "{text}");
        assert!(text.contains("error"), "{text}");
        assert!(text.contains('2'), "{text}");
        assert!(text.contains("suggestion"), "{text}");
        assert!(d.is_error());
    }
}
