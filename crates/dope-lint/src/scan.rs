//! Item-level scanning helpers over the token stream.
//!
//! These are deliberately shallow: they recognise the handful of shapes
//! the passes need (enum bodies, `Type::Variant` paths, `const`
//! catalogues) rather than parsing Rust. Anything they
//! fail to recognise is simply not reported — passes pair these scans
//! with anchor checks so silent misses surface as missing anchors, not
//! silent cleanliness.

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};
use crate::workspace::SourceFile;

/// One enum variant: name and the 1-based line of the variant name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// The variant's name.
    pub name: String,
    /// Line of the variant identifier.
    pub line: u32,
}

fn code(file: &SourceFile) -> Vec<&Token> {
    file.tokens.iter().filter(|t| !t.is_comment()).collect()
}

/// Finds `enum name { ... }` and returns its variants, or `None` when
/// the file has no such enum.
#[must_use]
pub fn enum_variants(file: &SourceFile, name: &str) -> Option<Vec<Variant>> {
    let toks = code(file);
    let start = toks
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident(name) && w[2].is_punct('{'))?;
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut i = start + 2;
    while i < toks.len() {
        let t = toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            if depth == 1 && t.is_punct('}') {
                break;
            }
            depth = depth.saturating_sub(1);
        } else if depth == 1 && t.kind == TokKind::Ident {
            // A variant name is an identifier at body depth that is not
            // part of an attribute (`#[...]` nests, so already depth 2).
            // A preceding `]` is the close of a variant attribute like
            // `#[non_exhaustive]`.
            let prev_is_sep =
                toks[i - 1].is_punct('{') || toks[i - 1].is_punct(',') || toks[i - 1].is_punct(']');
            if prev_is_sep {
                variants.push(Variant {
                    name: t.text.clone(),
                    line: t.line,
                });
            }
        }
        i += 1;
    }
    Some(variants)
}

/// Every variant referenced as `type_name::Variant`, with the line of
/// the first reference. Handles or-patterns and expression paths alike
/// (they are the same token shape).
#[must_use]
pub fn path_refs(file: &SourceFile, type_name: &str) -> Vec<(String, u32)> {
    let toks = code(file);
    let mut seen = BTreeSet::new();
    let mut refs = Vec::new();
    for w in toks.windows(4) {
        if w[0].is_ident(type_name)
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && w[3].kind == TokKind::Ident
            && seen.insert(w[3].text.clone())
        {
            refs.push((w[3].text.clone(), w[3].line));
        }
    }
    refs
}

/// Finds `const name ... = [A, B, ...]` and returns the identifier
/// entries inside the array (e.g. a catalogue array referencing other
/// consts), with lines.
#[must_use]
pub fn const_ident_array(file: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let toks = code(file);
    let at = toks
        .windows(2)
        .position(|w| w[0].is_ident("const") && w[1].is_ident(name))?;
    let eq = toks[at..]
        .iter()
        .position(|t| t.is_punct('='))
        .map(|off| at + off)?;
    let open = toks[eq..]
        .iter()
        .position(|t| t.is_punct('['))
        .map(|off| eq + off)?;
    let mut out = Vec::new();
    let mut depth = 0usize;
    for t in &toks[open..] {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            out.push((t.text.clone(), t.line));
        }
    }
    Some(out)
}

/// Every `const NAME: &str = "value";` in the file (also matching
/// `&'static str`), as `(name, value, line)`.
#[must_use]
pub fn str_consts(file: &SourceFile) -> Vec<(String, String, u32)> {
    let toks = code(file);
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < toks.len() {
        if toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct(':')
        {
            let name = &toks[i + 1];
            // Accept `&str`, `&'static str`, `&'a str`.
            let mut j = i + 3;
            if j < toks.len() && toks[j].is_punct('&') {
                j += 1;
                if j < toks.len() && toks[j].kind == TokKind::Lifetime {
                    j += 1;
                }
                if j + 2 < toks.len()
                    && toks[j].is_ident("str")
                    && toks[j + 1].is_punct('=')
                    && toks[j + 2].kind == TokKind::Str
                {
                    if let Some(v) = toks[j + 2].str_value() {
                        out.push((name.text.clone(), v, name.line));
                    }
                    i = j + 3;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Token indices (into `file.tokens`) of every `.method(` call with the
/// given method name, excluding test code.
#[must_use]
pub fn method_calls(file: &SourceFile, method: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let idxs: Vec<usize> = file
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    for w in idxs.windows(3) {
        let (a, b, c) = (&file.tokens[w[0]], &file.tokens[w[1]], &file.tokens[w[2]]);
        if a.is_punct('.') && b.is_ident(method) && c.is_punct('(') && !file.in_test_code(w[1]) {
            out.push(w[1]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::from_text("x.rs".into(), text.into())
    }

    #[test]
    fn variants_with_bodies_and_attributes() {
        let f = file(
            "pub enum Event {\n\
               /// doc\n\
               Launched { mechanism: String, threads: usize },\n\
               #[non_exhaustive]\n\
               Finished { completed: u64 },\n\
               Ping,\n\
               Pair(u32, u32),\n\
             }\n",
        );
        let vs = enum_variants(&f, "Event").unwrap();
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Launched", "Finished", "Ping", "Pair"]);
    }

    #[test]
    fn path_refs_dedupe_and_cover_or_patterns() {
        let f = file(
            "match e { Event::A | Event::B => {}, Event::A => {} }\n\
             let x = Event::C { y: 1 };\n",
        );
        let refs: Vec<String> = path_refs(&f, "Event").into_iter().map(|r| r.0).collect();
        assert_eq!(refs, ["A", "B", "C"]);
    }

    #[test]
    fn const_arrays_and_str_consts() {
        let f = file(
            "pub const NAME: &str = \"dope_up\";\n\
             pub const OTHER: &'static str = \"dope_down\";\n\
             pub const ALL: &[&str] = &[NAME, \"dope_extra\"];\n",
        );
        let consts = str_consts(&f);
        assert_eq!(consts.len(), 2);
        assert_eq!(consts[0].1, "dope_up");
        let arr = const_ident_array(&f, "ALL").unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].0, "NAME");
    }

    #[test]
    fn method_calls_skip_tests_and_comments() {
        let f = file(
            "fn a() { x.lock(); } // x.lock()\n#[cfg(test)]\nmod t { fn b() { y.lock(); } }\n",
        );
        assert_eq!(method_calls(&f, "lock").len(), 1);
    }
}
