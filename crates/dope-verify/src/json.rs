//! JSON document codec for the `dope-verify` CLI.
//!
//! The strict JSON parser and the typed codec live in [`dope_core::json`]
//! (they are shared with the `dope-trace` flight recorder); this module
//! keeps only what is specific to the CLI: the [`VerifyInput`] document,
//! whose `shape` and `config` are read by their codec rows.
//!
//! The document format is:
//!
//! ```json
//! {
//!   "threads": 24,
//!   "shape": { "tasks": [
//!     { "name": "transcode", "kind": "par", "alternatives": [[
//!       { "name": "read", "kind": "seq" },
//!       { "name": "transform", "kind": "par", "max_extent": 16 },
//!       { "name": "write", "kind": "seq" }
//!     ]] }
//!   ]},
//!   "config": { "tasks": [
//!     { "name": "transcode", "extent": 3, "nested": { "alternative": 0, "tasks": [
//!       { "name": "read", "extent": 1 },
//!       { "name": "transform", "extent": 6 },
//!       { "name": "write", "extent": 1 }
//!     ]}}
//!   ]}
//! }
//! ```

use dope_core::json::{parse, JsonError, Wire};
use dope_core::{Config, ProgramShape};

/// The decoded CLI input: a shape, a configuration, and a thread budget.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyInput {
    /// The program's parallelism structure.
    pub shape: ProgramShape,
    /// The configuration to analyze.
    pub config: Config,
    /// The administrator's thread budget.
    pub threads: u32,
}

/// Decodes a full CLI document.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or on a document missing
/// required fields / using wrong types.
pub fn input_from_json(text: &str) -> Result<VerifyInput, JsonError> {
    let doc = parse(text)?;
    Ok(VerifyInput {
        shape: Wire::take_field(&doc, "shape", None)?,
        config: Wire::take_field(&doc, "config", None)?,
        threads: Wire::take_field(&doc, "threads", None)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ShapeNode, TaskConfig, TaskKind};

    fn sample() -> VerifyInput {
        VerifyInput {
            shape: ProgramShape::new(vec![ShapeNode::nest(
                "transcode",
                TaskKind::Par,
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
            )]),
            config: Config::new(vec![TaskConfig::nest(
                "transcode",
                3,
                0,
                vec![
                    TaskConfig::leaf("read", 1),
                    TaskConfig::leaf("transform", 6),
                    TaskConfig::leaf("write", 1),
                ],
            )]),
            threads: 24,
        }
    }

    #[test]
    fn parses_the_documented_format() {
        let text = r#"{
          "threads": 24,
          "shape": { "tasks": [
            { "name": "transcode", "kind": "par", "alternatives": [[
              { "name": "read", "kind": "seq" },
              { "name": "transform", "kind": "par", "max_extent": 16 },
              { "name": "write", "kind": "seq" }
            ]] }
          ]},
          "config": { "tasks": [
            { "name": "transcode", "extent": 3, "nested": { "alternative": 0, "tasks": [
              { "name": "read", "extent": 1 },
              { "name": "transform", "extent": 6 },
              { "name": "write", "extent": 1 }
            ]}}
          ]}
        }"#;
        assert_eq!(input_from_json(text).unwrap(), sample());
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = input_from_json("{\"threads\": 4}").unwrap_err();
        assert!(err.to_string().contains("shape"), "{err}");
        let err = input_from_json("{\"threads\": 4, \"shape\": {\"tasks\": []}, \"config\": {}}")
            .unwrap_err();
        assert!(err.to_string().contains("config.tasks"), "{err}");
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let text = "{\"threads\": 4, \"shape\": {\"tasks\": [{\"name\": \"t\", \"kind\": \"pipe\"}]}, \"config\": {\"tasks\": []}}";
        let err = input_from_json(text).unwrap_err();
        assert!(err.to_string().contains("seq"), "{err}");
    }
}
