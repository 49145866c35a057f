//! End-to-end tests of the `dope-verify` binary against the checked-in
//! example documents.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn testdata(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dope-verify"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn dope-verify")
}

#[test]
fn clean_input_exits_zero() {
    let out = run(&[testdata("transcode-ok.json").to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("no findings"), "{stdout}");
    assert!(stdout.contains("0 errors"), "{stdout}");
}

#[test]
fn bad_input_prints_table_and_fails() {
    let out = run(&[testdata("transcode-bad.json").to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    for code in ["DV001", "DV003", "DV006", "DV007", "DV010"] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
    assert!(stdout.contains("SEVERITY"), "{stdout}");
    assert!(stdout.contains("4 errors, 1 warning"), "{stdout}");
}

/// Two extents whose sum wraps a `u32` to zero are over every budget
/// (DV001), in debug and release alike — not "0 configured", exit 0.
#[test]
fn a_thread_sum_that_overflows_exceeds_the_budget() {
    let out = run(&[testdata("overflow.json").to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("DV001"), "{stdout}");
    assert!(stdout.contains("1 error, 0 warnings"), "{stdout}");
}

#[test]
fn missing_file_exits_two() {
    let out = run(&[testdata("does-not-exist.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("failed to read"), "{stderr}");
}

#[test]
fn malformed_json_exits_two() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dope-verify"))
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dope-verify");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"threads\": }")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("byte"), "{stderr}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage"), "{stderr}");
}
