//! The workspace's strict JSON codec.
//!
//! The vendored `serde` is an offline no-op shim, so every crate that
//! speaks JSON — the `dope-verify` CLI, the `dope-trace` flight
//! recorder — shares this hand-rolled codec instead: a strict JSON
//! subset (objects, arrays, strings, integers, finite floats, `null`,
//! booleans) with precise byte-offset errors, plus encoders and
//! decoders for the [`Config`]/[`ProgramShape`] trees that appear in
//! serialized documents.
//!
//! The codec is deliberately strict: no comments, no trailing commas,
//! no `NaN`/`Infinity` (non-finite floats encode as `null`), and no
//! duplicate-silently-wins semantics — objects preserve insertion
//! order and [`Value::get`] returns the first match.
//!
//! # Example
//!
//! ```
//! use dope_core::json::{parse, Value};
//!
//! let doc = parse(r#"{"threads": 24, "load": 0.75, "tags": ["a", null]}"#).unwrap();
//! assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(24));
//! assert_eq!(doc.get("load").and_then(Value::as_f64), Some(0.75));
//! // Values render back to compact JSON.
//! assert_eq!(doc.get("tags").unwrap().to_json(), r#"["a", null]"#);
//! ```

use std::fmt;

use crate::config::{Config, NestConfig, TaskConfig};
use crate::shape::{ProgramShape, ShapeNode};
use crate::spec::TaskKind;

/// A parse or decode failure, with a byte offset when parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input, if the failure was syntactic.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A syntactic failure at byte `offset`.
    #[must_use]
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// A semantic (decode) failure with no position.
    #[must_use]
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} (at byte {offset})", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Number(u64),
    /// A signed or fractional number (anything that is not a plain
    /// non-negative integer).
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen losslessly up to 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An [`f64`] encoded canonically: integers that fit `u64` exactly
    /// become [`Value::Number`], non-finite values become [`Value::Null`].
    #[must_use]
    pub fn from_f64(x: f64) -> Value {
        if !x.is_finite() {
            return Value::Null;
        }
        if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
            // Lossless integral encoding (within f64's exact-int range).
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            return Value::Number(x as u64);
        }
        Value::Float(x)
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    let text = format!("{x}");
                    // `{}` renders integral floats without a fraction
                    // ("2" for 2.0); keep a marker so the value parses
                    // back as written when it carried a sign.
                    out.push_str(&text);
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Escapes a string for embedding in JSON output: newline and tab become
/// `\n` and `\t`, any other control character `\u00XX` (lower-case hex),
/// so any string survives [`parse`] unchanged.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input or
/// trailing garbage.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::at(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(
            *pos,
            format!("expected `{}`", char::from(byte)),
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'-') => parse_number(bytes, pos),
        Some(c) if c.is_ascii_digit() => parse_number(bytes, pos),
        Some(_) => Err(JsonError::at(*pos, "unexpected character")),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected `{keyword}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        return Err(JsonError::at(*pos, "expected a digit"));
    }
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let mut fractional = false;
    if bytes.get(*pos) == Some(&b'.') {
        fractional = true;
        *pos += 1;
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(JsonError::at(*pos, "expected a digit after `.`"));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if let Some(b'e' | b'E') = bytes.get(*pos) {
        fractional = true;
        *pos += 1;
        if let Some(b'+' | b'-') = bytes.get(*pos) {
            *pos += 1;
        }
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(JsonError::at(*pos, "expected a digit in exponent"));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number"))?;
    if !negative && !fractional {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Number(n));
        }
        // Integers beyond u64 fall through to the f64 representation.
    }
    text.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .map(Value::Float)
        .ok_or_else(|| JsonError::at(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // The plain run up to the next quote, backslash or control byte
        // goes in whole (those are ASCII: it ends on a char boundary).
        let start = *pos;
        let plain = |&&c: &&u8| c != b'"' && c != b'\\' && c >= 0x20;
        *pos += bytes[start..].iter().take_while(plain).count();
        let run = std::str::from_utf8(&bytes[start..*pos]);
        out.push_str(run.map_err(|_| JsonError::at(start, "invalid UTF-8"))?);
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                out.push(parse_escape(bytes, pos)?);
            }
            Some(_) => return Err(JsonError::at(*pos, "control character in string")),
        }
    }
}

/// Decodes the escape whose letter is at `pos` and moves past it. A
/// `\uXXXX` naming a UTF-16 high surrogate must be followed by a
/// `\uXXXX` naming a low one; a lone surrogate is refused.
fn parse_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let at = *pos;
    *pos += 1;
    Ok(match bytes.get(at) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b't') => '\t',
        Some(b'r') => '\r',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let mut code = parse_hex4(bytes, pos)?;
            if (0xD800..0xDC00).contains(&code) && bytes[*pos..].starts_with(b"\\u") {
                *pos += 2;
                let low = parse_hex4(bytes, pos)?;
                if (0xDC00..0xE000).contains(&low) {
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
            }
            // Still a surrogate: it was not half of a pair.
            char::from_u32(code).ok_or_else(|| JsonError::at(at, "lone surrogate in \\u escape"))?
        }
        _ => return Err(JsonError::at(at, "unsupported escape")),
    })
}

/// Reads the four hex digits of a `\u` escape at `pos`.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let unit = bytes
        .get(*pos..*pos + 4)
        .filter(|digits| digits.iter().all(u8::is_ascii_hexdigit))
        .and_then(|digits| u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok())
        .ok_or_else(|| JsonError::at(*pos, "expected four hex digits"))?;
    *pos += 4;
    Ok(unit)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Shape / config tree codecs (shared by dope-verify and dope-trace).
// ---------------------------------------------------------------------------

fn field_string(value: &Value, key: &str, what: &str) -> Result<String, JsonError> {
    match value.get(key) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(_) => Err(JsonError::decode(format!("{what}.{key} must be a string"))),
        None => Err(JsonError::decode(format!("{what} is missing `{key}`"))),
    }
}

fn as_array<'a>(value: &'a Value, what: &str) -> Result<&'a [Value], JsonError> {
    value
        .as_array()
        .ok_or_else(|| JsonError::decode(format!("{what} must be an array")))
}

/// Encodes a [`ShapeNode`] as a JSON value.
#[must_use]
pub fn shape_node_to_value(node: &ShapeNode) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::String(node.name.clone())),
        (
            "kind".to_string(),
            Value::String(
                match node.kind {
                    TaskKind::Seq => "seq",
                    TaskKind::Par => "par",
                }
                .to_string(),
            ),
        ),
    ];
    if let Some(max) = node.max_extent {
        fields.push(("max_extent".to_string(), Value::Number(u64::from(max))));
    }
    if !node.alternatives.is_empty() {
        fields.push((
            "alternatives".to_string(),
            Value::Array(
                node.alternatives
                    .iter()
                    .map(|alt| Value::Array(alt.iter().map(shape_node_to_value).collect()))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

/// Encodes a [`ProgramShape`] as `{"tasks": [...]}`.
#[must_use]
pub fn shape_to_value(shape: &ProgramShape) -> Value {
    Value::Object(vec![(
        "tasks".to_string(),
        Value::Array(shape.tasks.iter().map(shape_node_to_value).collect()),
    )])
}

/// Decodes one [`ShapeNode`].
///
/// # Errors
///
/// Returns a [`JsonError`] when required fields are missing or typed
/// wrongly.
pub fn shape_node_from_value(value: &Value) -> Result<ShapeNode, JsonError> {
    let name = field_string(value, "name", "shape node")?;
    let kind = match field_string(value, "kind", "shape node")?.as_str() {
        "seq" => TaskKind::Seq,
        "par" => TaskKind::Par,
        other => {
            return Err(JsonError::decode(format!(
                "shape node kind must be \"seq\" or \"par\", got {other:?}"
            )))
        }
    };
    let max_extent = match value.get("max_extent") {
        None | Some(Value::Null) => None,
        Some(Value::Number(n)) => Some(
            u32::try_from(*n).map_err(|_| JsonError::decode("`max_extent` does not fit in u32"))?,
        ),
        Some(_) => return Err(JsonError::decode("`max_extent` must be an integer or null")),
    };
    let alternatives = match value.get("alternatives") {
        None | Some(Value::Null) => Vec::new(),
        Some(alts) => as_array(alts, "alternatives")?
            .iter()
            .map(|alt| {
                as_array(alt, "alternative")?
                    .iter()
                    .map(shape_node_from_value)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(ShapeNode {
        name,
        kind,
        max_extent,
        alternatives,
    })
}

/// Decodes a [`ProgramShape`] from `{"tasks": [...]}`.
///
/// # Errors
///
/// Returns a [`JsonError`] on missing or mistyped fields.
pub fn shape_from_value(value: &Value) -> Result<ProgramShape, JsonError> {
    let tasks = value
        .get("tasks")
        .ok_or_else(|| JsonError::decode("shape is missing `tasks`"))?;
    Ok(ProgramShape::new(
        as_array(tasks, "shape tasks")?
            .iter()
            .map(shape_node_from_value)
            .collect::<Result<Vec<_>, _>>()?,
    ))
}

/// Encodes a [`TaskConfig`] as a JSON value.
#[must_use]
pub fn task_config_to_value(task: &TaskConfig) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::String(task.name.to_string())),
        ("extent".to_string(), Value::Number(u64::from(task.extent))),
    ];
    if let Some(nest) = &task.nested {
        fields.push((
            "nested".to_string(),
            Value::Object(vec![
                (
                    "alternative".to_string(),
                    Value::Number(nest.alternative as u64),
                ),
                (
                    "tasks".to_string(),
                    Value::Array(nest.tasks.iter().map(task_config_to_value).collect()),
                ),
            ]),
        ));
    }
    Value::Object(fields)
}

/// Encodes a [`Config`] as `{"tasks": [...]}`.
#[must_use]
pub fn config_to_value(config: &Config) -> Value {
    Value::Object(vec![(
        "tasks".to_string(),
        Value::Array(config.tasks.iter().map(task_config_to_value).collect()),
    )])
}

/// Decodes one [`TaskConfig`].
///
/// # Errors
///
/// Returns a [`JsonError`] on missing or mistyped fields.
pub fn task_config_from_value(value: &Value) -> Result<TaskConfig, JsonError> {
    let name = field_string(value, "name", "config node")?;
    let extent = match value.get("extent") {
        Some(Value::Number(n)) => {
            u32::try_from(*n).map_err(|_| JsonError::decode("`extent` does not fit in u32"))?
        }
        Some(_) => return Err(JsonError::decode("`extent` must be an integer")),
        None => return Err(JsonError::decode("config node is missing `extent`")),
    };
    let nested = match value.get("nested") {
        None | Some(Value::Null) => None,
        Some(nest) => {
            let alternative = match nest.get("alternative") {
                Some(Value::Number(n)) => usize::try_from(*n)
                    .map_err(|_| JsonError::decode("`alternative` does not fit in usize"))?,
                Some(_) => return Err(JsonError::decode("`alternative` must be an integer")),
                None => return Err(JsonError::decode("nested block is missing `alternative`")),
            };
            let tasks = nest
                .get("tasks")
                .ok_or_else(|| JsonError::decode("nested block is missing `tasks`"))?;
            Some(NestConfig {
                alternative,
                tasks: as_array(tasks, "config tasks")?
                    .iter()
                    .map(task_config_from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            })
        }
    };
    Ok(TaskConfig {
        name: name.into(),
        extent,
        nested,
    })
}

/// Decodes a [`Config`] from `{"tasks": [...]}`.
///
/// # Errors
///
/// Returns a [`JsonError`] on missing or mistyped fields.
pub fn config_from_value(value: &Value) -> Result<Config, JsonError> {
    let tasks = value
        .get("tasks")
        .ok_or_else(|| JsonError::decode("config is missing `tasks`"))?;
    Ok(Config::new(
        as_array(tasks, "config tasks")?
            .iter()
            .map(task_config_from_value)
            .collect::<Result<Vec<_>, _>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ShapeNode;

    #[test]
    fn parses_whitespace_and_escapes() {
        let value = parse(" { \"a\\n\" : [ 1 , true , null , \"x\" ] } ").unwrap();
        let arr = value.get("a\n").unwrap();
        assert_eq!(
            arr,
            &Value::Array(vec![
                Value::Number(1),
                Value::Bool(true),
                Value::Null,
                Value::String("x".into()),
            ])
        );
    }

    /// Every control character survives `escape` then `parse`: newline
    /// and tab keep their short escapes, the rest go out as `\u00XX`.
    #[test]
    fn every_control_character_round_trips() {
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/ä😀".chars())
            .collect();
        let encoded = Value::String(all.clone()).to_json();
        assert!(encoded.bytes().all(|b| b >= 0x20), "{encoded:?}");
        assert!(encoded.contains("\\n") && encoded.contains("\\t") && encoded.contains("\\u000d"));
        assert_eq!(parse(&encoded).unwrap(), Value::String(all));
    }

    #[test]
    fn decodes_every_escape() {
        let decoded = parse(r#""\r\b\f\/\u00e9\u20AC\ud83d\ude00""#).unwrap();
        assert_eq!(decoded, Value::String("\r\u{8}\u{c}/é€😀".to_string()));
        for lone in [
            r#""\ud800""#,
            r#""\udc00x""#,
            r#""\ud800\u0041""#,
            r#""\u12""#,
            r#""\q""#,
        ] {
            assert!(parse(lone).is_err(), "{lone}");
        }
    }

    /// Decoding a string is linear in its length: a 64 KiB string takes
    /// about 16 times as long as a 4 KiB one (the per-character
    /// re-validation of the rest of the input made it about 256 times).
    /// The bound is a ratio of best-of-N timings, never a wall-clock one.
    #[test]
    fn string_decode_is_linear() {
        let line = |kib: usize| format!(r#"{{"reason": "{}"}}"#, "abc€\\n".repeat(kib * 1024 / 8));
        let best = |doc: &str| {
            (0..15)
                .map(|_| {
                    let started = std::time::Instant::now();
                    assert!(parse(doc).is_ok());
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let (small, large) = (line(4), line(64));
        let ratio = best(&large).as_secs_f64() / best(&small).as_secs_f64().max(1e-9);
        assert!(ratio < 64.0, "64 KiB took {ratio:.0}x the 4 KiB decode");
    }

    #[test]
    fn parses_floats_and_negatives() {
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("-3").unwrap(), Value::Float(-3.0));
        assert_eq!(parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(parse("-0.25").unwrap(), Value::Float(-0.25));
        assert_eq!(parse("7").unwrap(), Value::Number(7));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("-").is_err());
        assert!(parse("1e").is_err());
    }

    #[test]
    fn parse_error_carries_offset() {
        let err = parse("[1, ?]").unwrap_err();
        assert_eq!(err.offset, Some(4));
    }

    #[test]
    fn values_round_trip_through_to_json() {
        let cases = [
            "null",
            "true",
            "42",
            "0.5",
            "\"hi \\\"there\\\"\"",
            "[1, 2, [3]]",
            "{\"a\": 1, \"b\": [true, null]}",
        ];
        for text in cases {
            let value = parse(text).unwrap();
            assert_eq!(parse(&value.to_json()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn from_f64_canonicalizes() {
        assert_eq!(Value::from_f64(3.0), Value::Number(3));
        assert_eq!(Value::from_f64(0.25), Value::Float(0.25));
        assert_eq!(Value::from_f64(f64::NAN), Value::Null);
        assert_eq!(Value::from_f64(f64::INFINITY), Value::Null);
        // Negative integral values stay floats (Number is unsigned).
        assert_eq!(Value::from_f64(-2.0), Value::Float(-2.0));
    }

    #[test]
    fn float_encoding_survives_a_parse_cycle() {
        for x in [0.1, 1.0 / 3.0, 123.456e-7, 9.9e200] {
            let encoded = Value::from_f64(x).to_json();
            let back = parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{encoded}");
        }
    }

    fn sample_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::nest(
            "transcode",
            TaskKind::Par,
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
                ShapeNode::leaf("write", TaskKind::Seq),
            ],
        )])
    }

    fn sample_config() -> Config {
        Config::new(vec![TaskConfig::nest(
            "transcode",
            3,
            0,
            vec![
                TaskConfig::leaf("read", 1),
                TaskConfig::leaf("transform", 6),
                TaskConfig::leaf("write", 1),
            ],
        )])
    }

    #[test]
    fn shape_round_trips() {
        let shape = sample_shape();
        let value = shape_to_value(&shape);
        let back = shape_from_value(&parse(&value.to_json()).unwrap()).unwrap();
        assert_eq!(back, shape);
    }

    #[test]
    fn config_round_trips() {
        let config = sample_config();
        let value = config_to_value(&config);
        let back = config_from_value(&parse(&value.to_json()).unwrap()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let value = parse(r#"{"name": "t", "kind": "pipe"}"#).unwrap();
        let err = shape_node_from_value(&value).unwrap_err();
        assert!(err.to_string().contains("seq"), "{err}");
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = config_from_value(&parse("{}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("tasks"), "{err}");
        let err = task_config_from_value(&parse(r#"{"name": "x"}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("extent"), "{err}");
    }
}
