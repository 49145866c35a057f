//! Keeps the prose documentation in lock-step with the code.
//!
//! The Rust examples in `docs/` are already enforced as doctests of the
//! umbrella crate (see `src/lib.rs`). The markdown-prose contracts —
//! the DV diagnostic catalogue and the metric naming table — are
//! enforced by `dope-lint`'s DL003 and DL002 passes, invoked here as a
//! library so plain `cargo test` catches drift with full `file:line`
//! findings instead of ad-hoc string scans. What remains inline are the
//! checks dope-lint does not model: per-event schema sections, the
//! stated schema version, and the book's cross-references.

use std::path::Path;

use dope_lint::{DlCode, Report};
use dope_trace::TraceEvent;

const EVENT_SCHEMA: &str = include_str!("../docs/event-schema.md");
const ARCHITECTURE: &str = include_str!("../docs/architecture.md");
const OPERATOR_GUIDE: &str = include_str!("../docs/operator-guide.md");
const STATIC_ANALYSIS: &str = include_str!("../docs/static-analysis.md");
const OVERLOAD: &str = include_str!("../docs/overload.md");
const BOOK_INDEX: &str = include_str!("../docs/README.md");

fn lint_workspace() -> Report {
    dope_lint::check(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint the workspace")
}

fn assert_no_findings(report: &Report, code: DlCode) {
    let drift: Vec<_> = report.findings.iter().filter(|f| f.code == code).collect();
    assert!(
        drift.is_empty(),
        "{code} ({}) drift:\n{drift:#?}",
        code.title()
    );
}

#[test]
fn metric_catalogue_registrations_and_guide_agree() {
    // DL002 closes the loop ad-hoc scans here used to check one side
    // of: names::ALL <-> declared consts <-> live registrations <-> the
    // operator guide's naming table.
    assert_no_findings(&lint_workspace(), DlCode::MetricNameDrift);
}

#[test]
fn dv_catalogue_and_event_schema_book_agree() {
    // DL003: every catalogued DV code documented, every documented code
    // catalogued, every DiagCode reference declared.
    assert_no_findings(&lint_workspace(), DlCode::DvCodeDrift);
}

#[test]
fn every_event_kind_has_a_schema_section_naming_every_key() {
    // `FIELDS` is generated from the schema table (the codec's single
    // source), kinds first: each kind's section must name every key.
    for (kind, keys) in &TraceEvent::FIELDS[..TraceEvent::KINDS.len()] {
        let heading = format!("## `{kind}`");
        let start = EVENT_SCHEMA
            .find(&heading)
            .unwrap_or_else(|| panic!("docs/event-schema.md is missing a section for {kind}"));
        let rest = &EVENT_SCHEMA[start + heading.len()..];
        let section = &rest[..rest.find("\n## ").unwrap_or(rest.len())];
        let example = format!("\"kind\": \"{kind}\"");
        assert!(
            section.contains(&example),
            "docs/event-schema.md has no worked JSONL example for {kind}"
        );
        for key in *keys {
            assert!(
                section.contains(&format!("| `{key}`")),
                "docs/event-schema.md: the {kind} field table is missing `{key}`"
            );
        }
    }
    // The nested payload structs have no section of their own; their
    // keys must at least appear in a worked example.
    for (payload, keys) in &TraceEvent::FIELDS[TraceEvent::KINDS.len()..] {
        for key in *keys {
            assert!(
                EVENT_SCHEMA.contains(&format!("\"{key}\": ")),
                "docs/event-schema.md never shows {payload}'s `{key}` key"
            );
        }
    }
}

#[test]
fn schema_doc_states_the_current_version() {
    let marker = format!("`v = {}`", dope_trace::SCHEMA_VERSION);
    assert!(
        EVENT_SCHEMA.contains(&marker),
        "docs/event-schema.md must state schema version {}",
        dope_trace::SCHEMA_VERSION
    );
}

#[test]
fn book_pages_cross_reference_each_other() {
    for (name, text) in [
        ("architecture.md", ARCHITECTURE),
        ("operator-guide.md", OPERATOR_GUIDE),
    ] {
        assert!(
            text.contains("event-schema.md"),
            "docs/{name} must point readers at the schema contract"
        );
    }
}

#[test]
fn book_index_links_every_chapter_and_every_link_resolves() {
    // The index must name each chapter file in docs/ exactly once as a
    // link target...
    let chapters =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs")).expect("read docs/");
    for entry in chapters {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if name == "README.md" || !name.ends_with(".md") {
            continue;
        }
        assert!(
            BOOK_INDEX.contains(&format!("]({name})")),
            "docs/README.md does not link chapter {name}"
        );
    }
    // ...and DL007 proves every relative link in the whole book (index
    // included) resolves to a real file and a real heading.
    assert_no_findings(&lint_workspace(), DlCode::DocsLink);
}

#[test]
fn overload_chapter_covers_the_surface_it_owns() {
    // The chapter other pages link to for "the wiring and the alerting
    // guidance" must actually document every policy, every metric
    // family, the trace event, and the mechanism wrapper.
    for needle in [
        "`Open`",
        "`Block`",
        "`Shed`",
        "`Deadline`",
        "dope_admitted_total",
        "dope_shed_total",
        "dope_admission_queue_delay",
        "AdmissionDecision",
        "ShedAware",
        "DV017",
        "offered == admitted + shed_high_water",
    ] {
        assert!(
            OVERLOAD.contains(needle),
            "docs/overload.md is missing {needle}"
        );
    }
}

#[test]
fn static_analysis_doc_catalogues_every_dl_code() {
    for code in DlCode::ALL {
        assert!(
            STATIC_ANALYSIS.contains(code.as_str()),
            "docs/static-analysis.md is missing {}",
            code.as_str()
        );
    }
    assert!(
        STATIC_ANALYSIS.contains("dope-lint: allow("),
        "docs/static-analysis.md must document the waiver syntax"
    );
}

#[test]
fn lock_order_manifest_is_documented() {
    // Every manifest lock name must appear in the static-analysis book's
    // rank table, so the documented order cannot drift from the one the
    // lint (and the debug rank guard) enforce.
    let manifest = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/dope-lint/lock-order.txt"),
    )
    .expect("read lock-order manifest");
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (rank, name) = line.split_once(' ').expect("manifest line is `rank name`");
        let row = format!("| {rank} | `{name}` |");
        assert!(
            STATIC_ANALYSIS.contains(&row),
            "docs/static-analysis.md lock-order table is missing `{name}` (rank {rank})"
        );
    }
}
