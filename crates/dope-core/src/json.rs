//! The workspace's one typed codec.
//!
//! The vendored `serde` is an offline no-op shim, so every crate that
//! speaks JSON — the `dope-verify` CLI, the `dope-trace` flight
//! recorder — shares this hand-rolled codec instead. It has two layers:
//!
//! * a strict JSON subset (objects, arrays, strings, integers, finite
//!   floats, `null`, booleans) parsed into a [`Value`] with precise
//!   byte-offset errors, and written back by [`Value::to_json`];
//! * [`Wire`], the one rule for how a typed value becomes a [`Value`] and
//!   is read back. Leaves (numbers, strings, tags) have an impl each; the
//!   structs — configurations, shapes, snapshot payloads — are *rows* of
//!   one table at the bottom of this file, keyed by their field names.
//!   `dope-trace` adds the trace envelope and its kinds on top, and
//!   `dope-verify` reads its input document through the same rows.
//!
//! The codec is deliberately strict: no comments, no trailing commas, no
//! leading zeros, no `NaN`/`Infinity` (non-finite floats encode as
//! `null`), and no duplicate-silently-wins semantics — objects preserve
//! insertion order and [`Value::get`] returns the first match. A decode
//! error names the key path of the value that failed
//! (`` `config.tasks[0].extent` is missing ``).
//!
//! # Example
//!
//! ```
//! use dope_core::json::{parse, Value, Wire};
//! use dope_core::{Config, TaskConfig};
//!
//! let doc = parse(r#"{"threads": 24, "load": 0.75, "tags": ["a", null]}"#).unwrap();
//! assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(24));
//! assert_eq!(doc.get("load").and_then(Value::as_f64), Some(0.75));
//! // Values render back to compact JSON.
//! assert_eq!(doc.get("tags").unwrap().to_json(), r#"["a", null]"#);
//!
//! // Typed values go through their `Wire` row.
//! let config = Config::new(vec![TaskConfig::leaf("work", 4)]);
//! let text = config.put().to_json();
//! assert_eq!(text, r#"{"tasks": [{"name": "work", "extent": 4}]}"#);
//! assert_eq!(Config::take(&parse(&text).unwrap()).unwrap(), config);
//! ```

use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::admission::AdmissionStats;
use crate::config::{Config, NestConfig, TaskConfig};
use crate::control::Verdict;
use crate::decision::{DecisionCandidate, Rationale};
use crate::diag::DiagCode;
use crate::label::Label;
use crate::metrics::{MonitorSnapshot, QueueStats, TaskStats, TaskTable};
use crate::path::TaskPath;
use crate::shape::{ProgramShape, ShapeNode};
use crate::spec::TaskKind;

/// A parse or decode failure, with a byte offset when parsing failed and
/// the key path of the value when decoding it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input, if the failure was syntactic.
    pub offset: Option<usize>,
    /// Where in the document a decode failed, e.g. `config.tasks[0].extent`;
    /// empty for syntax errors and for failures of the document as a whole.
    path: String,
}

impl JsonError {
    /// A syntactic failure at byte `offset`.
    #[must_use]
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
            path: String::new(),
        }
    }

    /// A semantic (decode) failure with no position.
    #[must_use]
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
            path: String::new(),
        }
    }

    /// The same failure, one step further out: `step` (a key, or `[i]`
    /// for an array element) is prefixed to the path as the error unwinds.
    fn within(mut self, step: impl fmt::Display) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{step}{dot}{}", self.path);
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} (at byte {offset})", self.message),
            None if self.path.is_empty() => f.write_str(&self.message),
            None => write!(f, "`{}` {}", self.path, self.message),
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
    /// become [`Value::Number`] (negative zero too: `-0.0` is written
    /// `0`), non-finite values become [`Value::Null`].
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
        self.write_json(&mut out);
        out
    }

    /// Appends the value's compact JSON to `out`: numbers and strings are
    /// written in place, with no buffer of their own.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            // Writing to a `String` cannot fail.
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::String(s) => escape(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape(key, out);
                    out.push_str(": ");
                    value.write_json(out);
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

/// Appends `s` to `out` as a quoted JSON string: newline and tab become
/// `\n` and `\t`, any other control character `\u00XX` (lower-case hex),
/// so any string survives [`parse`] unchanged. Runs of plain characters
/// are copied whole.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        // The escaped byte is ASCII: the rest starts on a char boundary.
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
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
    if bytes[*pos] == b'0' && bytes.get(*pos + 1).is_some_and(u8::is_ascii_digit) {
        return Err(JsonError::at(*pos, "leading zero in number"));
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
// Typed values: the `Wire` rule and the table of rows.
// ---------------------------------------------------------------------------

/// The wire form of one type: `put` is its JSON value and `take` reads
/// it back; `put_field` / `take_field` are the key(s) it owns in an
/// enclosing object — one key, its own, unless overridden ([`Verdict`]
/// flattens into two).
///
/// A `take` error names only what was wrong; `take_field` prefixes the
/// key, and a sequence the element index, so the error that reaches the
/// caller names the whole path (`` `snapshot.queue.occupancy` is missing ``).
pub trait Wire: Sized {
    /// The keys a row writes, in order; empty for every other type.
    const KEYS: &'static [&'static str] = &[];

    /// The value's JSON form.
    fn put(&self) -> Value;

    /// Reads a value back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `value` is mistyped or a key it
    /// needs is missing.
    fn take(value: &Value) -> Result<Self, JsonError>;

    /// Appends the value to an object under construction, under `key`.
    fn put_field(&self, key: &str, out: &mut Vec<(String, Value)>) {
        out.push((key.to_string(), self.put()));
    }

    /// Reads the value under `key` of `obj`. A `default` marks an
    /// *additive* field: absent or `null` (a document written before the
    /// field existed, or a writer that did not measure) reads as the
    /// default — so a non-finite additive number, which the encoder
    /// writes as `null`, also reads back as its default. Present but
    /// mistyped is still an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] whose path starts at `key`.
    fn take_field(obj: &Value, key: &str, default: Option<Self>) -> Result<Self, JsonError> {
        match (obj.get(key), default) {
            (None | Some(Value::Null), Some(default)) => Ok(default),
            (value, _) => required(value)
                .and_then(Self::take)
                .map_err(|err| err.within(key)),
        }
    }
}

fn required(value: Option<&Value>) -> Result<&Value, JsonError> {
    value.ok_or_else(|| JsonError::decode("is missing"))
}

fn mistyped(expected: &str) -> JsonError {
    JsonError::decode(format!("must be {expected}"))
}

fn take_str(value: &Value) -> Result<&str, JsonError> {
    value.as_str().ok_or_else(|| mistyped("a string"))
}

/// The items of an array, each read by `take`; an item's error is
/// prefixed with its index.
fn take_items<T, C: FromIterator<T>>(
    value: &Value,
    take: impl Fn(&Value) -> Result<T, JsonError>,
) -> Result<C, JsonError> {
    let items = value.as_array().ok_or_else(|| mistyped("an array"))?;
    let item = |(i, item)| take(item).map_err(|err: JsonError| err.within(format_args!("[{i}]")));
    items.iter().enumerate().map(item).collect()
}

fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// The leaf types, one entry each: how `self` becomes a value, then how
/// a value is read back.
macro_rules! wire {
    ($(
        $(#[$doc:meta])*
        $ty:ty: |$this:ident| $put:expr, |$value:ident| $take:expr;
    )+) => {$(
        $(#[$doc])*
        impl Wire for $ty {
            fn put(&self) -> Value {
                let $this = self;
                $put
            }

            fn take($value: &Value) -> Result<Self, JsonError> {
                $take
            }
        }
    )+};
}

wire! {
    u64: |n| Value::Number(*n),
        |value| value.as_u64().ok_or_else(|| mistyped("a non-negative integer"));
    u32: |n| Value::Number(u64::from(*n)),
        |value| u32::try_from(u64::take(value)?)
            .map_err(|_| JsonError::decode("does not fit in u32"));
    usize: |n| Value::Number(*n as u64),
        |value| usize::try_from(u64::take(value)?)
            .map_err(|_| JsonError::decode("does not fit in usize"));
    /// JSON has no NaN or infinity, so the encoder writes every
    /// non-finite float as `null`; a `null` where a number is required
    /// therefore decodes as NaN ("the writer had no finite reading")
    /// instead of failing the whole document. Anything else that is not
    /// a number is still an error.
    f64: |x| Value::from_f64(*x),
        |value| match value {
            Value::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or_else(|| mistyped("a number")),
        };
    String: |s| Value::String(s.clone()),
        |value| take_str(value).map(str::to_string);
    Label: |s| Value::String(s.to_string()),
        |value| take_str(value).map(Label::from);
    TaskPath: |path| Value::String(path.to_string()),
        |value| take_str(value)?.parse().map_err(|_| mistyped("a valid task path"));
    DiagCode: |code| Value::String(code.to_string()),
        |value| take_str(value)?.parse().map_err(|_| mistyped("a catalogued DV code"));
    Rationale: |rationale| Value::String(rationale.code().to_string()),
        |value| Rationale::from_code(take_str(value)?)
            .ok_or_else(|| mistyped("a catalogued rationale code"));
    /// A task's kind is its lowercase tag.
    TaskKind: |kind| Value::String(match kind {
            TaskKind::Seq => "seq",
            TaskKind::Par => "par",
        }.to_string()),
        |value| match take_str(value)? {
            "seq" => Ok(TaskKind::Seq),
            "par" => Ok(TaskKind::Par),
            other => Err(mistyped(&format!("\"seq\" or \"par\", got {other:?}"))),
        };
    /// One observed `(signal, value)` pair of a decision.
    (Label, f64): |pair| Value::Object(vec![
            ("signal".to_string(), pair.0.put()),
            ("value".to_string(), pair.1.put()),
        ]),
        |obj| Ok((
            Wire::take_field(obj, "signal", None)?,
            Wire::take_field(obj, "value", None)?,
        ));
}

/// `None` ("not measured") is `null` on the wire.
impl<T: Wire> Wire for Option<T> {
    fn put(&self) -> Value {
        self.as_ref().map_or(Value::Null, Wire::put)
    }

    fn take(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            other => T::take(other).map(Some),
        }
    }
}

/// Shared in memory, the value itself on the wire: a decoded value
/// holds an allocation of its own.
impl<T: Wire> Wire for Arc<T> {
    fn put(&self) -> Value {
        T::put(self)
    }

    fn take(value: &Value) -> Result<Self, JsonError> {
        T::take(value).map(Arc::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self) -> Value {
        Value::Array(self.iter().map(Wire::put).collect())
    }

    fn take(value: &Value) -> Result<Self, JsonError> {
        take_items(value, T::take)
    }
}

/// A snapshot's per-task table: an array of rows in path order, each the
/// task's `path` followed by its [`TaskStats`] keys, flattened. Rows are
/// read in any order; of rows repeating a `path` the last one stays.
impl Wire for TaskTable {
    fn put(&self) -> Value {
        let row = |(path, stats): (&TaskPath, &TaskStats)| {
            let mut row = Vec::with_capacity(1 + TaskStats::KEYS.len());
            path.put_field("path", &mut row);
            if let Value::Object(stats) = stats.put() {
                row.extend(stats);
            }
            Value::Object(row)
        };
        Value::Array(self.iter().map(row).collect())
    }

    fn take(value: &Value) -> Result<Self, JsonError> {
        take_items(value, |row| {
            Ok((Wire::take_field(row, "path", None)?, TaskStats::take(row)?))
        })
    }
}

/// The verdict's tag is its value; a rejection's `DV0xx` diagnostic
/// rides beside it in the enclosing object, under `code`.
impl Wire for Verdict {
    fn put(&self) -> Value {
        let tag = match self {
            Verdict::Accepted => "accepted",
            Verdict::Unchanged => "unchanged",
            Verdict::Rejected { .. } => "rejected",
            Verdict::Superseded => "superseded",
        };
        Value::String(tag.to_string())
    }

    /// The three verdicts a bare tag can carry; `"rejected"` needs its
    /// `code` and is read by `take_field`.
    fn take(value: &Value) -> Result<Self, JsonError> {
        match take_str(value)? {
            "accepted" => Ok(Verdict::Accepted),
            "unchanged" => Ok(Verdict::Unchanged),
            "superseded" => Ok(Verdict::Superseded),
            other => Err(mistyped(&format!(
                "\"accepted\", \"unchanged\", \"rejected\" or \"superseded\", got {other:?}"
            ))),
        }
    }

    fn put_field(&self, key: &str, out: &mut Vec<(String, Value)>) {
        out.push((key.to_string(), self.put()));
        if let Verdict::Rejected { code } = self {
            code.put_field("code", out);
        }
    }

    fn take_field(obj: &Value, key: &str, _: Option<Self>) -> Result<Self, JsonError> {
        match obj.get(key) {
            Some(Value::String(tag)) if tag == "rejected" => Ok(Verdict::Rejected {
                code: Wire::take_field(obj, "code", None)?,
            }),
            value => required(value)
                .and_then(Self::take)
                .map_err(|err| err.within(key)),
        }
    }
}

/// Expands the table of rows: structs whose wire form is an object keyed
/// by their field names, in table order. A field is `name`, optionally
/// `= default`: an *additive* field that reads as the default when a
/// document written before it existed omits it (or carries `null`). A
/// field marked `#[omit_empty]` is left out when it equals its type's
/// default (an absent cap, no alternatives, no nest) and reads back as
/// that default; every other field is always written, `null` included.
macro_rules! wire_rows {
    ($(
        struct $row:ident {
            $($(#[$marker:ident])? $field:ident $(= $default:expr)?),+ $(,)?
        }
    )+) => {$(
        impl Wire for $row {
            const KEYS: &'static [&'static str] = &[$(stringify!($field)),+];

            fn put(&self) -> Value {
                let mut out = Vec::with_capacity(Self::KEYS.len());
                $(wire_rows!(@put $($marker)? self.$field, stringify!($field), out);)+
                Value::Object(out)
            }

            fn take(obj: &Value) -> Result<Self, JsonError> {
                Ok($row {
                    $($field: Wire::take_field(
                        obj,
                        stringify!($field),
                        wire_rows!(@default $($marker)? $(= $default)?),
                    )?),+
                })
            }
        }
    )+};
    (@put omit_empty $value:expr, $key:expr, $out:ident) => {
        if !is_default(&$value) {
            $value.put_field($key, &mut $out);
        }
    };
    (@put $value:expr, $key:expr, $out:ident) => {
        $value.put_field($key, &mut $out)
    };
    (@default omit_empty) => { Some(Default::default()) };
    (@default = $default:expr) => { Some($default) };
    (@default) => { None };
}

wire_rows! {
    // The `p*_exec_secs` percentiles arrived with the metrics plane;
    // older traces omit them, which reads as 0.0 ("not measured").
    struct TaskStats {
        invocations, mean_exec_secs, throughput, load, utilization,
        p50_exec_secs = 0.0, p95_exec_secs = 0.0, p99_exec_secs = 0.0,
    }
    struct QueueStats { occupancy, arrival_rate, enqueued, completed }
    struct AdmissionStats {
        offered, admitted, shed_high_water, shed_deadline, mean_queue_delay_secs,
    }
    struct DecisionCandidate { action, score, predicted_throughput = None }
    // `admission` arrived with the admission gate; pre-admission traces
    // omit it, which reads as all-zero counters ("no gate installed").
    struct MonitorSnapshot {
        time_secs, tasks, queue, power_watts = None, dispatches_since_reconfig,
        admission = AdmissionStats::default(),
    }
    struct ShapeNode { name, kind, #[omit_empty] max_extent, #[omit_empty] alternatives }
    struct ProgramShape { tasks }
    struct TaskConfig { name, extent, #[omit_empty] nested }
    struct NestConfig { alternative, tasks }
    struct Config { tasks }
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
        for leading_zero in ["01", "-01", "00", "[1, 007]"] {
            let err = parse(leading_zero).unwrap_err();
            assert!(err.offset.is_some(), "{leading_zero}: {err}");
        }
        for zero in ["0", "-0", "0.5", "0e1", "-0.25", "10"] {
            assert!(parse(zero).is_ok(), "{zero}");
        }
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
        let value = shape.put();
        let back = ProgramShape::take(&parse(&value.to_json()).unwrap()).unwrap();
        assert_eq!(back, shape);
    }

    #[test]
    fn config_round_trips() {
        let config = sample_config();
        let value = config.put();
        let back = Config::take(&parse(&value.to_json()).unwrap()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let value = parse(r#"{"name": "t", "kind": "pipe"}"#).unwrap();
        let err = ShapeNode::take(&value).unwrap_err();
        assert!(err.to_string().contains("seq"), "{err}");
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = Config::take(&parse("{}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("tasks"), "{err}");
        let err = TaskConfig::take(&parse(r#"{"name": "x"}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("extent"), "{err}");
    }

    /// A decode error names the whole key path of the value that failed,
    /// through objects, arrays and arrays of arrays.
    #[test]
    fn a_missing_nested_key_reports_its_full_path() {
        let doc = parse(
            r#"{"config": {"tasks": [{"name": "t", "extent": 2, "nested": {"alternative": 0, "tasks": [{"name": "a", "extent": 1}, {"name": "b"}]}}]},
                "shape": {"tasks": [{"name": "t", "kind": "par", "alternatives": [[{"name": "a", "kind": "seq"}, {"name": "b", "kind": 3}]]}]},
                "snapshot": {"time_secs": 0.5, "tasks": [], "queue": {"arrival_rate": 0, "enqueued": 0, "completed": 0}, "power_watts": null, "dispatches_since_reconfig": 0}}"#,
        )
        .unwrap();
        let err = Config::take_field(&doc, "config", None).unwrap_err();
        assert_eq!(err.path, "config.tasks[0].nested.tasks[1].extent");
        assert_eq!(
            err.to_string(),
            "`config.tasks[0].nested.tasks[1].extent` is missing"
        );
        let err = ProgramShape::take_field(&doc, "shape", None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "`shape.tasks[0].alternatives[0][1].kind` must be a string"
        );
        let err = MonitorSnapshot::take_field(&doc, "snapshot", None).unwrap_err();
        assert_eq!(err.to_string(), "`snapshot.queue.occupancy` is missing");
    }

    /// Configurations and shapes leave out an absent cap, an empty
    /// alternative list and an absent nest, and read them back from
    /// either an absent key or `null`.
    #[test]
    fn empty_tree_fields_are_omitted_and_read_as_their_default() {
        let leaf = ShapeNode::leaf("read", TaskKind::Seq);
        assert_eq!(leaf.put().to_json(), r#"{"name": "read", "kind": "seq"}"#);
        let nulls = r#"{"name": "read", "kind": "seq", "max_extent": null, "alternatives": null}"#;
        assert_eq!(ShapeNode::take(&parse(nulls).unwrap()).unwrap(), leaf);
        let task = TaskConfig::leaf("read", 1);
        assert_eq!(task.put().to_json(), r#"{"name": "read", "extent": 1}"#);
        let null_nest = r#"{"name": "read", "extent": 1, "nested": null}"#;
        assert_eq!(TaskConfig::take(&parse(null_nest).unwrap()).unwrap(), task);
    }
}
