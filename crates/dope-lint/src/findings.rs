//! The `DL0xx` diagnostic catalogue and the report it populates.
//!
//! Like the `DV0xx` codes in `dope-core`, the `DL0xx` codes are a
//! **stable public contract**: CI gates and editors may match on them,
//! so once published a code's meaning never changes. The catalogue lives
//! in `docs/static-analysis.md` with one worked finding per code.

use std::fmt;
use std::str::FromStr;

use dope_core::json::{self, Value};

/// Stable diagnostic codes emitted by the workspace analyzer.
///
/// `DL001` (event-kind exhaustiveness) and `DL006` (additive-field
/// contract) are **retired**: the trace schema is now generated from one
/// table in `dope-trace`, so the compiler and a unit test there cover
/// what those passes policed. Their numbers are never reused, and they
/// no longer parse.
///
/// # Example
///
/// ```
/// use dope_lint::DlCode;
///
/// let code: DlCode = "DL004".parse().unwrap();
/// assert_eq!(code, DlCode::LockOrder);
/// assert_eq!(code.to_string(), "DL004");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DlCode {
    /// DL002: a metric name drifted between registration sites,
    /// `dope_metrics::names::ALL`, and the operator guide's table.
    MetricNameDrift,
    /// DL003: an `Error::code()` mapping or `DiagCode` catalogue entry
    /// drifted from `docs/event-schema.md`.
    DvCodeDrift,
    /// DL004: a lock acquisition violates the declared lock-order
    /// manifest (descending rank, re-entrancy, undeclared lock, or a
    /// cycle in the observed acquisition graph).
    LockOrder,
    /// DL005: a forbidden API in a hot path — `unwrap`/`expect` in
    /// `dope-runtime`, unbounded channel construction, or a wall-clock
    /// read inside `dope-trace` record paths.
    ForbiddenApi,
    /// DL007: a relative Markdown link in `README.md` or `docs/*.md`
    /// resolves to no file, or its `#fragment` matches no heading in
    /// the target document.
    DocsLink,
}

impl DlCode {
    /// All catalogued codes, in numeric order.
    pub const ALL: [DlCode; 5] = [
        DlCode::MetricNameDrift,
        DlCode::DvCodeDrift,
        DlCode::LockOrder,
        DlCode::ForbiddenApi,
        DlCode::DocsLink,
    ];

    /// The stable textual form, e.g. `"DL002"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DlCode::MetricNameDrift => "DL002",
            DlCode::DvCodeDrift => "DL003",
            DlCode::LockOrder => "DL004",
            DlCode::ForbiddenApi => "DL005",
            DlCode::DocsLink => "DL007",
        }
    }

    /// A one-line description of what the code checks.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            DlCode::MetricNameDrift => "metric-name drift between registry, catalogue, and docs",
            DlCode::DvCodeDrift => "DV-code drift between Error::code, DiagCode, and docs",
            DlCode::LockOrder => "lock-order discipline against the declared manifest",
            DlCode::ForbiddenApi => "forbidden APIs in hot paths",
            DlCode::DocsLink => "relative-link integrity across the documentation book",
        }
    }
}

impl fmt::Display for DlCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown `DL0xx` string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDlCodeError(String);

impl fmt::Display for ParseDlCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown DL code `{}`", self.0)
    }
}

impl std::error::Error for ParseDlCodeError {}

impl FromStr for DlCode {
    type Err = ParseDlCodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DlCode::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ParseDlCodeError(s.to_string()))
    }
}

/// One diagnostic: a code, a `file:line` span, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The catalogue code.
    pub code: DlCode,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding's anchor.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.code, self.file, self.line, self.message
        )
    }
}

/// The result of running the analyzer: findings, waived findings, and
/// the anchors (files the passes analyze) that could not be found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Live findings — these fail the gate.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an in-source waiver comment. Kept so the
    /// report stays honest about what was silenced.
    pub waived: Vec<Finding>,
    /// Pass anchors (e.g. `crates/dope-lint/lock-order.txt`) missing from
    /// the analyzed tree. Fatal under `--strict`; fixture corpora that
    /// exercise one pass at a time ignore them.
    pub missing_anchors: Vec<String>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// True when there is nothing to report. Under `strict`, missing
    /// anchors also count as findings.
    #[must_use]
    pub fn is_clean(&self, strict: bool) -> bool {
        self.findings.is_empty() && (!strict || self.missing_anchors.is_empty())
    }

    /// Sorts findings by code, then file, then line — the stable order
    /// the CLI prints and tests assert on.
    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.code, f.file.clone(), f.line);
        self.findings.sort_by_key(key);
        self.waived.sort_by_key(key);
        self.missing_anchors.sort();
    }

    /// Renders the human-readable table plus a summary line.
    #[must_use]
    pub fn render(&self, strict: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        for f in &self.waived {
            out.push_str(&format!("waived {f}\n"));
        }
        for anchor in &self.missing_anchors {
            out.push_str(&format!(
                "{}anchor missing: {anchor}\n",
                if strict { "" } else { "note: " }
            ));
        }
        out.push_str(&format!(
            "{} finding{}, {} waived, {} anchor{} missing\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.waived.len(),
            self.missing_anchors.len(),
            if self.missing_anchors.len() == 1 {
                ""
            } else {
                "s"
            },
        ));
        out
    }

    /// Serializes the report as one line of strict JSON (see
    /// [`dope_core::json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let finding = |f: &Finding| {
            Value::Object(vec![
                ("code".into(), Value::String(f.code.as_str().into())),
                ("file".into(), Value::String(f.file.clone())),
                ("line".into(), Value::Number(u64::from(f.line))),
                ("message".into(), Value::String(f.message.clone())),
            ])
        };
        let doc = Value::Object(vec![
            ("v".into(), Value::Number(1)),
            (
                "findings".into(),
                Value::Array(self.findings.iter().map(finding).collect()),
            ),
            (
                "waived".into(),
                Value::Array(self.waived.iter().map(finding).collect()),
            ),
            (
                "missing_anchors".into(),
                Value::Array(
                    self.missing_anchors
                        .iter()
                        .map(|a| Value::String(a.clone()))
                        .collect(),
                ),
            ),
        ]);
        doc.to_json()
    }

    /// Parses a report previously produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] when the text is not strict JSON or
    /// does not match the report schema (unknown version, missing or
    /// mistyped fields, unknown DL codes).
    pub fn from_json(text: &str) -> Result<Report, json::JsonError> {
        let doc = json::parse(text)?;
        let version = doc
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| json::JsonError::decode("report is missing its `v` field"))?;
        if version != 1 {
            return Err(json::JsonError::decode(format!(
                "unsupported report version {version}"
            )));
        }
        let decode_list = |key: &str| -> Result<Vec<Finding>, json::JsonError> {
            let Some(Value::Array(items)) = doc.get(key) else {
                return Err(json::JsonError::decode(format!("`{key}` must be an array")));
            };
            items.iter().map(decode_finding).collect()
        };
        let findings = decode_list("findings")?;
        let waived = decode_list("waived")?;
        let missing_anchors = match doc.get("missing_anchors") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::String(s) => Ok(s.clone()),
                    _ => Err(json::JsonError::decode("anchors must be strings")),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(json::JsonError::decode(
                    "`missing_anchors` must be an array",
                ))
            }
        };
        Ok(Report {
            findings,
            waived,
            missing_anchors,
        })
    }
}

fn decode_finding(v: &Value) -> Result<Finding, json::JsonError> {
    let str_field = |key: &str| -> Result<String, json::JsonError> {
        match v.get(key) {
            Some(Value::String(s)) => Ok(s.clone()),
            _ => Err(json::JsonError::decode(format!(
                "finding is missing string field `{key}`"
            ))),
        }
    };
    let code: DlCode = str_field("code")?
        .parse()
        .map_err(|e: ParseDlCodeError| json::JsonError::decode(e.to_string()))?;
    let line = v
        .get("line")
        .and_then(Value::as_u64)
        .ok_or_else(|| json::JsonError::decode("finding is missing numeric field `line`"))?;
    Ok(Finding {
        code,
        file: str_field("file")?,
        line: u32::try_from(line)
            .map_err(|_| json::JsonError::decode("finding line out of range"))?,
        message: str_field("message")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                code: DlCode::ForbiddenApi,
                file: "crates/dope-runtime/src/pool.rs".into(),
                line: 96,
                message: "`unwrap()` in runtime code".into(),
            }],
            waived: vec![Finding {
                code: DlCode::ForbiddenApi,
                file: "crates/dope-runtime/src/executive.rs".into(),
                line: 7,
                message: "unbounded channel".into(),
            }],
            missing_anchors: vec!["crates/dope-lint/lock-order.txt".into()],
        }
    }

    #[test]
    fn codes_round_trip_through_display_and_parse() {
        for code in DlCode::ALL {
            let parsed: DlCode = code.to_string().parse().unwrap();
            assert_eq!(parsed, code);
        }
        assert!("DL099".parse::<DlCode>().is_err());
        // Retired codes stay retired: they neither parse nor get reused.
        assert!("DL001".parse::<DlCode>().is_err());
        assert!("DL006".parse::<DlCode>().is_err());
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json(
            r#"{"v": 2, "findings": [], "waived": [], "missing_anchors": []}"#
        )
        .is_err());
        assert!(Report::from_json(
            r#"{"v": 1, "findings": [{"code": "DL099", "file": "f", "line": 1, "message": "m"}], "waived": [], "missing_anchors": []}"#
        )
        .is_err());
    }

    #[test]
    fn cleanliness_depends_on_strictness() {
        let mut r = Report::new();
        assert!(r.is_clean(true));
        r.missing_anchors.push("x".into());
        assert!(r.is_clean(false));
        assert!(!r.is_clean(true));
        r.findings.push(sample().findings[0].clone());
        assert!(!r.is_clean(false));
    }

    #[test]
    fn render_summarizes() {
        let text = sample().render(false);
        assert!(
            text.contains("DL005 crates/dope-runtime/src/pool.rs:96:"),
            "{text}"
        );
        assert!(text.contains("waived DL005"), "{text}");
        assert!(
            text.contains("1 finding, 1 waived, 1 anchor missing"),
            "{text}"
        );
    }
}
