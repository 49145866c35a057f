//! Tables 3 and 4: mechanism implementation sizes and application
//! metadata.

/// Source text of each mechanism implementation, embedded at compile time.
const MECHANISM_SOURCES: &[(&str, &str, u32)] = &[
    (
        "WQT-H",
        include_str!("../../dope-mechanisms/src/wqt_h.rs"),
        28,
    ),
    (
        "WQ-Linear",
        include_str!("../../dope-mechanisms/src/wq_linear.rs"),
        9,
    ),
    ("TBF", include_str!("../../dope-mechanisms/src/tbf.rs"), 89),
    ("FDP", include_str!("../../dope-mechanisms/src/fdp.rs"), 94),
    (
        "SEDA",
        include_str!("../../dope-mechanisms/src/seda.rs"),
        30,
    ),
    ("TPC", include_str!("../../dope-mechanisms/src/tpc.rs"), 154),
];

/// Source text of the helpers the mechanisms are written on (the decision
/// audit they share), printed as Table 3's footer row.
const HELPER_SOURCES: &[&str] = &[
    include_str!("../../dope-mechanisms/src/pipeline_util.rs"),
    include_str!("../../dope-mechanisms/src/two_level.rs"),
];

/// Counts effective implementation lines: everything before the test
/// module, excluding blanks, comments, and doc comments.
#[must_use]
pub fn effective_loc(source: &str) -> usize {
    source
        .split("#[cfg(test)]")
        .next()
        .unwrap_or(source)
        .lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("///") && !l.starts_with("//!")
        })
        .count()
}

/// One Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismLoc {
    /// Mechanism name.
    pub name: &'static str,
    /// Lines of code in this reproduction.
    pub ours: usize,
    /// Lines of code the paper reports.
    pub paper: u32,
}

/// Computes Table 3.
#[must_use]
pub fn table3() -> Vec<MechanismLoc> {
    MECHANISM_SOURCES
        .iter()
        .map(|&(name, source, paper)| MechanismLoc {
            name,
            ours: effective_loc(source),
            paper,
        })
        .collect()
}

/// Prints Table 3, with the shared helpers as a footer row.
pub fn report_table3() {
    let rows = table3();
    let helpers: usize = HELPER_SOURCES.iter().map(|s| effective_loc(s)).sum();
    let footer = ["helpers".into(), helpers.to_string(), "-".into()];
    crate::print_table(
        "== Table 3: lines of code per mechanism ==",
        &["mechanism", "this repo", "paper"],
        rows.iter()
            .map(|r| [r.name.to_string(), r.ours.to_string(), r.paper.to_string()])
            .chain([footer]),
    );
}

/// Prints Table 4 (application metadata).
pub fn report_table4() {
    crate::print_table(
        "== Table 4: applications enhanced using DoPE ==",
        &["app", "levels", "DoP_min", "description"],
        dope_apps::all_apps().into_iter().map(|app| {
            [
                app.name.to_string(),
                app.loop_nest_levels.to_string(),
                app.inner_dop_min.map_or("-".to_string(), |d| d.to_string()),
                // Left-aligned: wider than its cell, it prints whole after
                // one more space.
                format!(" {}", app.description),
            ]
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_mechanism_is_counted() {
        let rows = table3();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.ours > 0, "{} has no source lines", r.name);
        }
    }

    #[test]
    fn loc_counter_skips_comments_and_tests() {
        let src = "/// doc\n// comment\nfn a() {}\n\n#[cfg(test)]\nmod tests { fn b() {} }\n";
        assert_eq!(effective_loc(src), 1);
    }

    #[test]
    fn mechanism_ordering_matches_paper_table() {
        // The paper's Table 3 order, with relative sizes broadly similar:
        // WQ-Linear is the smallest, TPC among the largest.
        let rows = table3();
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap().ours;
        assert!(by_name("WQ-Linear") < by_name("TBF"));
        assert!(by_name("WQ-Linear") < by_name("TPC"));
    }
}
