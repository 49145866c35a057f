//! The five analysis passes behind the `DL0xx` catalogue.
//!
//! Each pass reads its anchors (the files it analyzes) out of the
//! loaded [`Workspace`]. A pass whose anchors are absent records them
//! in [`Report::missing_anchors`] and emits nothing — that is what lets
//! the per-code fixture corpora exercise one pass at a time. Running on
//! the real workspace uses `--strict`, where a missing anchor is fatal.

use crate::findings::{DlCode, Finding, Report};
use crate::workspace::Workspace;

pub mod dl002;
pub mod dl003;
pub mod dl004;
pub mod dl005;
pub mod dl007;

/// Shared pass context: the workspace plus the report under
/// construction, with waiver-aware emission.
pub(crate) struct Ctx<'a> {
    ws: &'a Workspace,
    report: &'a mut Report,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(ws: &'a Workspace, report: &'a mut Report) -> Self {
        Ctx { ws, report }
    }

    pub(crate) fn ws(&self) -> &'a Workspace {
        self.ws
    }

    /// Emits a finding, routing it to the waived list when the source
    /// file carries a matching waiver comment at (or just above) the
    /// anchor line. Findings in non-Rust anchors cannot be waived.
    pub(crate) fn emit(&mut self, code: DlCode, file: &str, line: u32, message: String) {
        let finding = Finding {
            code,
            file: file.to_string(),
            line,
            message,
        };
        let waived = self.ws.file(file).is_some_and(|f| f.is_waived(code, line));
        if waived {
            self.report.waived.push(finding);
        } else {
            self.report.findings.push(finding);
        }
    }

    /// Records a missing anchor (deduplicated).
    pub(crate) fn missing(&mut self, anchor: &str) {
        if !self.report.missing_anchors.iter().any(|a| a == anchor) {
            self.report.missing_anchors.push(anchor.to_string());
        }
    }
}

/// Runs every pass over the workspace and returns the sorted report.
#[must_use]
pub fn run_all(ws: &Workspace) -> Report {
    let mut report = Report::new();
    {
        let mut ctx = Ctx::new(ws, &mut report);
        dl002::run(&mut ctx);
        dl003::run(&mut ctx);
        dl004::run(&mut ctx);
        dl005::run(&mut ctx);
        dl007::run(&mut ctx);
    }
    report.sort();
    report
}
