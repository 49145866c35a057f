//! The perf-ledger binary: runs the in-tree probes and writes
//! `BENCH_perf.json`.
//!
//! ```text
//! cargo run --release -p dope-bench --bin perf -- [--quick] [--out=PATH]
//! ```
//!
//! Exits non-zero when the overload frontier does not hold
//! ([`perf::gate_failures`]).
//!
//! `--check-history=PATH` runs no probes: it validates every line of the
//! per-PR ledger `results/perf-history.jsonl` (strict codec, a `pr`
//! number, a hexadecimal `parent` and — once backfilled — `commit`).

use dope_bench::perf;
use dope_core::json::parse;
use std::process::ExitCode;

/// Counts allocations for the `control` section's per-consult readings.
#[global_allocator]
static ALLOCATOR: dope_bench::alloc::Counting = dope_bench::alloc::Counting;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = String::from("BENCH_perf.json");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(path) = arg.strip_prefix("--check-history=") {
            return check_history(path);
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_path = path.to_string();
        } else {
            eprintln!(
                "perf: unknown argument `{arg}` \
                 (expected --quick, --out=PATH, --check-history=PATH)"
            );
            return ExitCode::FAILURE;
        }
    }

    let report = perf::run(quick);
    print!("{}", perf::summary(&report));

    let text = perf::to_validated_json(&report);
    if let Err(err) = std::fs::write(&out_path, &text) {
        eprintln!("perf: failed to write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("perf: report written to {out_path}");

    let failures = perf::gate_failures(&report);
    for failure in &failures {
        eprintln!("perf: GATE FAILURE: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Validates the per-PR perf ledger: every line must parse under the
/// strict codec and pass [`perf::history_row_pr`].
fn check_history(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("perf: failed to read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut last = None;
    for (at, line) in text.lines().enumerate() {
        match parse(line).map(|row| perf::history_row_pr(&row)) {
            Ok(Ok(pr)) => last = Some(pr),
            Ok(Err(why)) => {
                eprintln!("perf: {path}:{}: {why}", at + 1);
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!(
                    "perf: {path}:{}: rejected by the strict codec: {err}",
                    at + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match last {
        Some(pr) => {
            println!("perf: every row of {path} is valid; the newest is PR {pr}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("perf: {path} has no rows");
            ExitCode::FAILURE
        }
    }
}
