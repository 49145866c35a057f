//! Analysis reports: ordered collections of diagnostics with rendering.

use std::fmt;

use dope_core::diag::{Diagnostic, Severity};

/// The result of one analysis pass: every diagnostic found, in
/// traversal order (shape lints first, then the config walk, then
/// whole-tree budget findings).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// All findings, warnings and errors alike.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wraps a list of diagnostics.
    #[must_use]
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// `true` if no diagnostics at all were produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if at least one error-severity diagnostic was produced.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Error-severity diagnostics, in report order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity diagnostics, in report order.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Renders the report as an aligned text table (used by the CLI).
    ///
    /// ```text
    /// SEVERITY  CODE   PATH   MESSAGE
    /// error     DV001  <root> configuration needs 40 threads ...
    /// ```
    #[must_use]
    pub fn render_table(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings\n".to_string();
        }
        let mut rows: Vec<[String; 4]> = vec![[
            "SEVERITY".into(),
            "CODE".into(),
            "PATH".into(),
            "MESSAGE".into(),
        ]];
        for d in &self.diagnostics {
            let mut message = d.message.clone();
            if let Some(s) = &d.suggestion {
                message.push_str(" — fix: ");
                message.push_str(s);
            }
            rows.push([
                d.severity.to_string(),
                d.code.to_string(),
                d.path.to_string(),
                message,
            ]);
        }
        let mut widths = [0usize; 3];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            for (w, cell) in widths.iter().zip(row.iter()) {
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', w - cell.len() + 2));
            }
            out.push_str(&row[3]);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("no findings");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::diag::DiagCode;
    use dope_core::TaskPath;

    fn sample() -> Report {
        Report::new(vec![
            Diagnostic::new(
                DiagCode::BudgetExceeded,
                TaskPath::root(),
                "needs 40 threads, 24 available",
            ),
            Diagnostic::new(
                DiagCode::UnderSubscription,
                TaskPath::root(),
                "uses 2 of 24 threads",
            )
            .with_suggestion("raise extents"),
        ])
    }

    #[test]
    fn severity_partition() {
        let report = sample();
        assert!(report.has_errors());
        assert!(!report.is_clean());
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn table_contains_all_rows_and_header() {
        let table = sample().render_table();
        assert!(table.contains("SEVERITY"), "{table}");
        assert!(table.contains("DV001"), "{table}");
        assert!(table.contains("DV002"), "{table}");
        assert!(table.contains("fix: raise extents"), "{table}");
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn empty_report_renders_no_findings() {
        let report = Report::default();
        assert!(report.is_clean());
        assert_eq!(report.render_table(), "no findings\n");
        assert_eq!(report.to_string(), "no findings");
    }
}
