//! Per-code fixture tests: every DL code fires on its `bad` fixture and
//! stays silent on the `good` one.
//!
//! Each fixture under `tests/fixtures/dl00N/` is a miniature workspace
//! mirroring the real repository layout (same relative paths the passes
//! anchor on). The `bad` tree is constructed so that *only* code DL00N
//! fires; the `good` tree is finding-free. Passes whose anchors a
//! fixture omits record missing anchors instead of findings, which is
//! exactly the non-strict contract these tests pin down.

use std::path::PathBuf;

use dope_lint::{check, DlCode, Report};

fn fixture(code: &str, flavor: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(code)
        .join(flavor)
}

fn run(code: &str, flavor: &str) -> Report {
    check(&fixture(code, flavor)).unwrap_or_else(|err| panic!("check {code}/{flavor}: {err}"))
}

/// The bad fixture yields at least one finding, all carrying `expect`.
fn assert_fires(code: &str, expect: DlCode) {
    let report = run(code, "bad");
    assert!(
        !report.findings.is_empty(),
        "{code}/bad produced no findings"
    );
    for finding in &report.findings {
        assert_eq!(
            finding.code, expect,
            "{code}/bad leaked a foreign finding: {finding:?}"
        );
    }
}

/// The good fixture yields no findings at all (waivers are fine).
fn assert_silent(code: &str) {
    let report = run(code, "good");
    assert!(
        report.findings.is_empty(),
        "{code}/good is not clean: {:?}",
        report.findings
    );
}

#[test]
fn dl002_fires_on_catalogued_but_unregistered_metric() {
    assert_fires("dl002", DlCode::MetricNameDrift);
    let report = run("dl002", "bad");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("dope_ghost_total")),
        "the drifting name should be called out: {:?}",
        report.findings
    );
}

#[test]
fn dl002_silent_when_catalogue_registrations_and_docs_agree() {
    assert_silent("dl002");
}

#[test]
fn dl003_fires_on_undocumented_dv_code() {
    assert_fires("dl003", DlCode::DvCodeDrift);
    let report = run("dl003", "bad");
    assert!(
        report.findings.iter().any(|f| f.message.contains("DV002")),
        "the undocumented code should be named: {:?}",
        report.findings
    );
}

#[test]
fn dl003_silent_when_docs_cover_the_catalogue() {
    assert_silent("dl003");
}

#[test]
fn dl004_fires_on_descending_acquisition() {
    assert_fires("dl004", DlCode::LockOrder);
}

#[test]
fn dl004_silent_on_ascending_acquisition_including_via_calls() {
    assert_silent("dl004");
}

#[test]
fn dl005_fires_on_forbidden_hot_path_apis() {
    assert_fires("dl005", DlCode::ForbiddenApi);
    let report = run("dl005", "bad");
    // unwrap + mpsc::channel + unbounded in the runtime, Instant::now in
    // the trace crate: four distinct sites.
    assert_eq!(report.findings.len(), 4, "{:?}", report.findings);
}

#[test]
fn dl005_waivers_suppress_and_are_accounted_for() {
    assert_silent("dl005");
    let report = run("dl005", "good");
    assert_eq!(
        report.waived.len(),
        4,
        "every waived site must be retained for the report: {:?}",
        report.waived
    );
    assert!(report.waived.iter().all(|f| f.code == DlCode::ForbiddenApi));
}

#[test]
fn dl007_fires_on_broken_docs_links() {
    assert_fires("dl007", DlCode::DocsLink);
    let report = run("dl007", "bad");
    // A dangling file, a dead fragment, and a root escape: three sites.
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("ghost.md")),
        "the dangling target should be named: {:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("no-such-heading")),
        "the dead fragment should be named: {:?}",
        report.findings
    );
}

#[test]
fn dl007_silent_when_every_link_resolves() {
    assert_silent("dl007");
}

#[test]
fn missing_anchors_are_fatal_only_under_strict() {
    // Every fixture omits some other pass's anchors, so non-strict runs
    // are clean-able while strict runs are not.
    let report = run("dl002", "good");
    assert!(!report.missing_anchors.is_empty());
    assert!(report.is_clean(false));
    assert!(!report.is_clean(true));
}

#[test]
fn reports_round_trip_through_json_for_every_fixture() {
    for code in ["dl002", "dl003", "dl004", "dl005", "dl007"] {
        for flavor in ["bad", "good"] {
            let report = run(code, flavor);
            let back = Report::from_json(&report.to_json())
                .unwrap_or_else(|err| panic!("{code}/{flavor} JSON round-trip: {err}"));
            assert_eq!(back.findings, report.findings, "{code}/{flavor}");
            assert_eq!(back.waived, report.waived, "{code}/{flavor}");
            assert_eq!(back.missing_anchors, report.missing_anchors);
        }
    }
}
