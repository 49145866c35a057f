//! `dope-lint` — a workspace-aware static analyzer that mechanically
//! enforces DoPE's cross-crate contracts.
//!
//! The compiler cannot see the conventions DoPE's correctness rests on:
//! every metric name catalogued and documented, every DV diagnostic
//! documented, a deadlock-free lock order across the
//! executive/monitor/pool, no panicking APIs in the runtime's hot paths,
//! and a documentation book whose relative links all resolve. This
//! crate turns those conventions into five analysis passes over a
//! lightweight in-tree Rust lexer (no `rustc` or `syn` dependency),
//! emitting a stable `DL0xx` catalogue with `file:line` spans — see `docs/static-analysis.md` for the catalogue,
//! waiver syntax, and exit-code contract.
//!
//! # Example
//!
//! ```
//! use dope_lint::{DlCode, Report};
//!
//! // Reports round-trip through strict JSON for CI consumption.
//! let empty = Report::new();
//! let back = Report::from_json(&empty.to_json()).unwrap();
//! assert!(back.is_clean(true));
//! assert_eq!(DlCode::ALL.len(), 5);
//! ```

#![warn(missing_docs)]

mod findings;
pub mod lexer;
pub mod passes;
pub mod scan;
pub mod workspace;

pub use findings::{DlCode, Finding, ParseDlCodeError, Report};
pub use workspace::{SourceFile, Waiver, Workspace};

use std::io;
use std::path::Path;

/// Loads the workspace at `root` and runs every pass.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn check(root: &Path) -> io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(passes::run_all(&ws))
}
