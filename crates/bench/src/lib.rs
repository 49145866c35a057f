//! Benchmark harness regenerating every table and figure of the DoPE
//! paper's evaluation (§8).
//!
//! Each module reproduces one artifact on the simulated 24-context
//! testbed (see `DESIGN.md` for the substitution rationale) and prints the
//! same rows/series the paper reports:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig02`] | Figure 2: x264 execution time / throughput / response time vs load, with the oracle |
//! | [`fig11`] | Figure 11: response time vs load under Static, WQT-H, WQ-Linear for four applications |
//! | [`fig12`] | Figure 12: ferret response time vs load (static even, oversubscribed, DoPE) |
//! | [`fig13`] | Figure 13: ferret throughput over time under TBF |
//! | [`fig14`] | Figure 14: ferret power/throughput over time under TPC |
//! | [`fig15`] | Figure 15: ferret and dedup throughput across mechanisms |
//! | [`tables`] | Tables 3 (mechanism LoC) and 4 (application metadata) |
//! | [`ablations`] | sensitivity sweeps of the mechanisms' knobs (beyond the paper) |
//! | [`trace`] | flight-recorder captures of representative fig11/fig15 runs |
//! | [`perf`] | perf ledger: the three probes the repo benchmark cannot host (control tick, sampled timing, paced park), emitting `BENCH_perf.json` (beyond the paper) |
//! | [`alloc`] | counting allocator behind the allocation budgets of a control period (beyond the paper) |
//!
//! Run any artifact with `cargo run -p dope-bench --release --bin <id>`.

#![warn(missing_docs)]

pub mod ablations;
pub mod alloc;
pub mod fig02;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod perf;
pub mod tables;
pub mod trace;

/// The paper's load-factor sweep.
#[must_use]
pub fn load_factors(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.2, 0.5, 0.8, 1.0]
    } else {
        (1..=10).map(|i| f64::from(i) / 10.0).collect()
    }
}

/// Number of requests per load point ("N was set to 500", §8.2).
///
/// The count is *not* reduced in quick mode: the response-time crossover
/// of Figure 2(c) is a queueing transient that needs the full run length.
pub const REQUESTS: usize = 500;

/// Prints one table: `title`, then `header` and each of `rows` as a line
/// of right-aligned 12-character cells joined by one space (a wider cell
/// prints whole).
pub fn print_table<R: AsRef<[String]>>(
    title: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = R>,
) {
    fn line<S: AsRef<str>>(cells: &[S]) -> String {
        let cells: Vec<String> = cells
            .iter()
            .map(|c| format!("{:>12}", c.as_ref()))
            .collect();
        cells.join(" ")
    }
    println!("{title}\n{}", line(header));
    for cells in rows {
        println!("{}", line(cells.as_ref()));
    }
}

/// The `PATH` of a figure binary's `--trace=PATH` argument, or
/// `default_path` for a bare `--trace`; `None` when it is absent.
#[must_use]
pub fn trace_path(args: &[String], default_path: &str) -> Option<String> {
    args.iter()
        .find_map(|arg| match arg.strip_prefix("--trace")? {
            "" => Some(default_path.to_string()),
            rest => rest.strip_prefix('=').map(ToString::to_string),
        })
}

/// Writes a `--trace` recording to `path`, saying on stderr how many
/// lines it wrote, or why it could not.
pub fn write_trace(path: &str, text: &str) {
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("trace: wrote {} lines to {path}", text.lines().count()),
        Err(err) => eprintln!("trace: cannot write {path}: {err}"),
    }
}

/// Formats a float cell.
#[must_use]
pub fn cell(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_path_parses_bare_and_valued_flags() {
        let args = vec!["--quick".to_string(), "--trace".to_string()];
        assert_eq!(trace_path(&args, "d.jsonl"), Some("d.jsonl".to_string()));
        let args = vec!["--tracer".to_string(), "--trace=x.jsonl".to_string()];
        assert_eq!(trace_path(&args, "d.jsonl"), Some("x.jsonl".to_string()));
        assert_eq!(trace_path(&args[..1], "d.jsonl"), None);
        assert_eq!(trace_path(&[], "d.jsonl"), None);
    }
}
