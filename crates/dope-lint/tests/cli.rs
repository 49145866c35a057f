//! End-to-end tests of the `dope-lint` binary's exit-code and output
//! contract: 0 clean, 1 findings, 2 usage/io — mirroring `dope-verify`.

use std::path::PathBuf;
use std::process::{Command, Output};

use dope_lint::Report;

fn fixture(code: &str, flavor: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(code)
        .join(flavor)
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dope-lint"))
        .args(args)
        .output()
        .expect("spawn dope-lint")
}

fn lint_with_stdin(args: &[&str], stdin: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dope-lint"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dope-lint");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait dope-lint")
}

#[test]
fn clean_fixture_exits_zero() {
    let out = lint(&[fixture("dl002", "good").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 findings"), "{text}");
}

#[test]
fn bad_fixture_exits_one_and_names_the_code() {
    let out = lint(&[fixture("dl004", "bad").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DL004"), "{text}");
    assert!(text.contains("monitor.rs:"), "findings carry spans: {text}");
}

#[test]
fn strict_turns_missing_anchors_into_failure() {
    // dl002/good is finding-free but omits other passes' anchors.
    let root = fixture("dl002", "good");
    let relaxed = lint(&[root.to_str().unwrap()]);
    assert_eq!(relaxed.status.code(), Some(0), "{relaxed:?}");
    let strict = lint(&["--strict", root.to_str().unwrap()]);
    assert_eq!(strict.status.code(), Some(1), "{strict:?}");
}

#[test]
fn json_output_parses_as_a_report() {
    let out = lint(&["--json", fixture("dl005", "bad").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let report = Report::from_json(&text).expect("strict JSON");
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn parse_report_round_trips_json_from_stdin() {
    let json = lint(&["--json", fixture("dl003", "bad").to_str().unwrap()]);
    assert_eq!(json.status.code(), Some(1));
    let text = String::from_utf8(json.stdout).unwrap();
    // Re-reading the report applies the same exit contract: findings -> 1.
    let reparse = lint_with_stdin(&["--parse-report", "-"], &text);
    assert_eq!(reparse.status.code(), Some(1), "{reparse:?}");

    let clean = lint(&["--json", fixture("dl003", "good").to_str().unwrap()]);
    assert_eq!(clean.status.code(), Some(0));
    let text = String::from_utf8(clean.stdout).unwrap();
    let reparse = lint_with_stdin(&["--parse-report", "-"], &text);
    assert_eq!(reparse.status.code(), Some(0), "{reparse:?}");
}

#[test]
fn parse_report_rejects_garbage_with_exit_two() {
    let out = lint_with_stdin(&["--parse-report", "-"], "not json at all");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!out.stderr.is_empty(), "errors go to stderr");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn nonexistent_root_is_an_io_error() {
    let out = lint(&["/nonexistent/dope-lint-root"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn help_exits_zero() {
    let out = lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("--strict"), "{text}");
    assert!(text.contains("--json"), "{text}");
}
