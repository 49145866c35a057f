//! Keeps the prose documentation in lock-step with the code.
//!
//! The Rust examples in `docs/` are already enforced as doctests of the
//! umbrella crate (see `src/lib.rs`). The markdown-prose contracts are
//! asserted here, each directly against the catalogue it documents:
//! the metric naming table against `dope_metrics::names::ALL`, the DV
//! table against `DiagCode::ALL`, the per-event schema sections against
//! `TraceEvent::FIELDS`, and the book's relative links (and those of the
//! pages pointing into `results/runs/`) against the tree.
//! (The lock-rank table is checked next to its owner, in
//! `dope_runtime::lockrank`.)

use std::collections::BTreeSet;
use std::path::Path;

use dope_core::DiagCode;
use dope_metrics::names;
use dope_trace::TraceEvent;

const EVENT_SCHEMA: &str = include_str!("../docs/event-schema.md");
const ARCHITECTURE: &str = include_str!("../docs/architecture.md");
const OPERATOR_GUIDE: &str = include_str!("../docs/operator-guide.md");
const OVERLOAD: &str = include_str!("../docs/overload.md");
const BOOK_INDEX: &str = include_str!("../docs/README.md");

/// How `guide`'s metric table (the rows starting ``| `dope_``) differs
/// from `names::ALL`: rows outside the catalogue, then names with no row.
fn metric_table_drift(guide: &str) -> Vec<String> {
    let rows: BTreeSet<&str> = guide
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("| `")?.split('`').next())
        .filter(|name| name.starts_with("dope_"))
        .collect();
    let all: BTreeSet<&str> = names::ALL.iter().copied().collect();
    let undeclared = rows.difference(&all).map(|name| format!("+{name}"));
    let undocumented = all.difference(&rows).map(|name| format!("-{name}"));
    undeclared.chain(undocumented).collect()
}

#[test]
fn operator_guide_metric_table_is_the_catalogue() {
    assert_eq!(metric_table_drift(OPERATOR_GUIDE), [""; 0]);
}

#[test]
fn the_metric_table_check_bites_in_both_directions() {
    // A row the catalogue lacks, then a catalogued name with no row.
    let extra = format!("{OPERATOR_GUIDE}\n| `dope_bogus_total` | counter | |\n");
    assert_eq!(metric_table_drift(&extra), ["+dope_bogus_total"]);
    let missing = OPERATOR_GUIDE.replace("| `dope_shed_total`", "| `shed_total`");
    assert_eq!(metric_table_drift(&missing), ["-dope_shed_total"]);
}

/// Every `DVnnn` code `text` mentions (`DV0xx` prose is not one).
fn dv_codes(text: &str) -> BTreeSet<&str> {
    text.match_indices("DV")
        .filter_map(|(at, _)| text.get(at..at + 5))
        .filter(|code| code[2..].bytes().all(|b| b.is_ascii_digit()))
        .collect()
}

#[test]
fn dv_catalogue_and_event_schema_book_agree() {
    // Set equality is both directions: every catalogued code documented,
    // every documented code catalogued. (`Error::code()` is an exhaustive
    // `match` onto `DiagCode`; the compiler holds that half.)
    let catalogued: BTreeSet<&str> = DiagCode::ALL.iter().map(|c| c.as_str()).collect();
    assert_eq!(dv_codes(EVENT_SCHEMA), catalogued);
}

#[test]
fn the_dv_scan_reads_codes_not_the_dv0xx_placeholder() {
    assert_eq!(
        dv_codes("`DV0xx` codes: DV001, \"code\": \"DV099\""),
        BTreeSet::from(["DV001", "DV099"])
    );
}

/// Link targets of `text`, skipping fenced blocks and code spans.
fn links(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            // Odd segments between backticks are code spans.
            for mut prose in line.split('`').step_by(2) {
                while let Some((_, after)) = prose.split_once("](") {
                    let Some((target, rest)) = after.split_once(')') else {
                        break;
                    };
                    // `[text](target "title")`: the target is the first word.
                    out.extend(target.split_whitespace().next());
                    prose = rest;
                }
            }
        }
    }
    out
}

/// GitHub heading slugs of `markdown`: lowercase, punctuation dropped,
/// spaces to hyphens, a repeated heading suffixed `-1`, `-2`, ...
fn heading_slugs(markdown: &str) -> Vec<String> {
    let mut slugs: Vec<String> = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            let slug: String = line
                .trim_start_matches('#')
                .trim()
                .to_ascii_lowercase()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || "-_ ".contains(*c))
                .map(|c| if c == ' ' { '-' } else { c })
                .collect();
            let repeats = slugs.iter().filter(|s| **s == slug).count();
            slugs.push(if repeats == 0 {
                slug
            } else {
                format!("{slug}-{repeats}")
            });
        }
    }
    slugs
}

/// The relative links of `page` (workspace-relative name, body `text`)
/// that name no file in the workspace or no heading in their target.
fn dead_links(page: &str, text: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .canonicalize()
        .expect("workspace root");
    let page_path = root.join(page);
    let mut dead = Vec::new();
    for target in links(text) {
        if ["http://", "https://", "mailto:"]
            .iter()
            .any(|scheme| target.starts_with(scheme))
        {
            continue;
        }
        let (path, fragment) = target.split_once('#').unwrap_or((target, ""));
        let file = page_path.with_file_name(path);
        let body = if path.is_empty() {
            text.to_string() // a same-page `#fragment`
        } else if !file.canonicalize().is_ok_and(|f| f.starts_with(&root)) {
            dead.push(format!("{page}: `{target}` names no file in the workspace"));
            continue;
        } else if path.ends_with(".md") {
            std::fs::read_to_string(&file).expect("read link target")
        } else {
            continue; // only markdown has headings to check a fragment against
        };
        if !fragment.is_empty() && !heading_slugs(&body).iter().any(|slug| slug == fragment) {
            dead.push(format!("{page}: `{target}` names no heading of its target"));
        }
    }
    dead
}

#[test]
fn the_link_check_reports_dead_paths_and_dead_fragments_only() {
    let page = "# Here\n[ok](overload.md) [self](#here) [web](https://example.com/gone.md)\n\
        [gone](no-such-chapter.md) and [lost](README.md#no-such-heading \"title\")\n\
        ```text\n[fenced](nope.md)\n```\ncode span `[idx](nope.md)`, [up](../README.md#workspace-layout)\n";
    assert_eq!(
        dead_links("docs/fabricated.md", page),
        [
            "docs/fabricated.md: `no-such-chapter.md` names no file in the workspace",
            "docs/fabricated.md: `README.md#no-such-heading` names no heading of its target",
        ]
    );
}

#[test]
fn heading_slugs_follow_github() {
    assert_eq!(
        heading_slugs("## The `Shed` policy: drop, don't wait\n## Setup\n## Setup\n"),
        ["the-shed-policy-drop-dont-wait", "setup", "setup-1"]
    );
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The pages that point into `results/runs/` are part of the book for
    // this purpose, and so are the run files themselves.
    let mut pages: Vec<String> = ["README.md", "EXPERIMENTS.md", "CHANGES.md"]
        .map(String::from)
        .into();
    for entry in std::fs::read_dir(root.join("results/runs")).expect("read results/runs/") {
        let name = entry.expect("dir entry").file_name();
        pages.push(format!("results/runs/{}", name.to_string_lossy()));
    }
    for entry in std::fs::read_dir(root.join("docs")).expect("read docs/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if !name.ends_with(".md") {
            continue;
        }
        // The index must name each chapter file in docs/ as a link target...
        assert!(
            name == "README.md" || BOOK_INDEX.contains(&format!("]({name})")),
            "docs/README.md does not link chapter {name}"
        );
        pages.push(format!("docs/{name}"));
    }
    // ...and every relative link in the whole book (index included)
    // resolves to a real file and, for a `#fragment`, a real heading.
    let dead: Vec<String> = pages
        .iter()
        .flat_map(|page| {
            let text = std::fs::read_to_string(root.join(page)).expect("read page");
            dead_links(page, &text)
        })
        .collect();
    assert!(dead.is_empty(), "dead links in the book:\n{dead:#?}");
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
