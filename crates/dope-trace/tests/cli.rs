//! End-to-end tests of the `dope-trace` binary: the exit codes its usage
//! text documents — 0 on success, 1 on an unreadable trace or a diverged
//! replay, 2 on a usage error.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use dope_trace::{parse_jsonl, to_jsonl, TraceEvent, TraceRecord};

/// Runs `dope-trace args..` with `stdin` piped in.
fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dope-trace"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dope-trace");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("dope-trace runs")
}

/// The built-in scenario's recording, as `record` prints it.
fn recorded() -> String {
    let out = run(&["record"], "");
    assert!(out.status.success(), "record failed");
    String::from_utf8(out.stdout).expect("utf-8 trace")
}

/// A recording of two replica failures: `record` cannot inject a panic,
/// so the reading half of failure accounting takes a fixture.
const FAILURES: &str = concat!(
    r#"{"v": 1, "seq": 0, "t": 0.1, "kind": "FeatureRead", "feature": "SystemPower", "value": 612.5}"#,
    "\n",
    r#"{"v": 1, "seq": 1, "t": 0.5, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom", "policy": "restart"}"#,
    "\n",
    r#"{"v": 1, "seq": 2, "t": 0.9, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom again", "policy": "restart"}"#,
    "\n",
    r#"{"v": 1, "seq": 3, "t": 1.5, "kind": "Finished", "completed": 48, "reconfigurations": 1, "dropped_events": 0}"#,
    "\n",
);

#[test]
fn every_subcommand_exits_zero_on_a_good_trace() {
    let trace = recorded();
    for (input, args, needle) in [
        (&*trace, &["stats", "-"][..], "finished:"),
        (&trace, &["timeline", "-"][..], "LAUNCH"),
        (&trace, &["explain", "-"][..], "decision audit:"),
        (&trace, &["explain", "-", "--json"][..], "DecisionTraced"),
        (&trace, &["replay", "-"][..], "replay OK"),
        (FAILURES, &["stats", "-"][..], "2 failed replica(s)"),
        (FAILURES, &["timeline", "-"][..], "FAILED"),
    ] {
        let out = run(args, input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.contains(needle), "{args:?} printed:\n{stdout}");
    }
}

#[test]
fn an_unreadable_trace_exits_one() {
    let missing = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/no-such-trace.jsonl");
    for command in ["stats", "timeline", "explain", "replay"] {
        let out = run(&[command, missing], "");
        assert_eq!(out.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot read"), "{command}: {stderr}");
    }
    let out = run(&["stats", "-"], "{\"v\": 1, \"seq\": ");
    assert_eq!(out.status.code(), Some(1), "a malformed line");
}

/// A trace that claims an epoch re-applied the launch configuration: the
/// control core judges that proposal unchanged, so the replay cannot
/// reproduce it.
#[test]
fn a_diverged_replay_exits_one() {
    let records = parse_jsonl(&recorded()).expect("recorded trace parses");
    let launched = records[0].clone();
    let TraceEvent::Launched { config, .. } = &launched.event else {
        panic!("a trace opens with Launched");
    };
    let epoch = TraceRecord {
        seq: 1,
        time_secs: 1.0,
        event: TraceEvent::ReconfigureEpoch {
            pause_secs: 0.0,
            relaunch_secs: 0.0,
            jobs: 1,
            config: config.clone(),
            scope: "full".into(),
            paths_drained: 1,
        },
    };
    let out = run(&["replay", "-"], &to_jsonl(&[launched, epoch]));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replay DIVERGED"), "{stderr}");
}

#[test]
fn a_usage_error_exits_two() {
    for args in [
        &[][..],
        &["stats"][..],
        &["stats", "a", "b"][..],
        &["explain", "-", "--yaml"][..],
        &["frobnicate", "-"][..],
    ] {
        let out = run(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}
