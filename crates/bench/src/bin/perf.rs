//! The perf-gate binary: runs the pinned microbenches and writes
//! `BENCH_perf.json`.
//!
//! ```text
//! cargo run --release -p dope-bench --bin perf -- [--quick] \
//!     [--out=PATH] [--compare=BASELINE] [--threshold=FRACTION]
//! ```
//!
//! Exits non-zero when an in-run gate fails (the delta drain must beat
//! the full drain; the overload frontier must hold) or, with `--compare`, when
//! any tracked metric regresses past the threshold against the
//! baseline report.
//!
//! `--check=PATH` runs no benches: it validates an existing report
//! against the strict codec and schema tag, then exits.
//! `--check-history=PATH` does the same for every line of the per-PR
//! ledger `results/perf-history.jsonl` (strict codec, a `pr` number, a
//! hexadecimal `parent` and — once backfilled — `commit`).

use dope_bench::perf;
use dope_core::json::parse;
use std::process::ExitCode;

/// Counts allocations for the `control` section's per-consult readings.
#[global_allocator]
static ALLOCATOR: dope_bench::alloc::Counting = dope_bench::alloc::Counting;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = String::from("BENCH_perf.json");
    let mut compare_path: Option<String> = None;
    let mut threshold = perf::DEFAULT_THRESHOLD;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(path) = arg.strip_prefix("--check=") {
            return check_report(path);
        } else if let Some(path) = arg.strip_prefix("--check-history=") {
            return check_history(path);
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_path = path.to_string();
        } else if let Some(path) = arg.strip_prefix("--compare=") {
            compare_path = Some(path.to_string());
        } else if let Some(value) = arg.strip_prefix("--threshold=") {
            match value.parse::<f64>() {
                Ok(t) if t > 0.0 => threshold = t,
                _ => {
                    eprintln!("perf: --threshold must be a positive fraction, got `{value}`");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            eprintln!(
                "perf: unknown argument `{arg}` \
                 (expected --quick, --out=PATH, --compare=PATH, --threshold=X, --check=PATH, \
                 --check-history=PATH)"
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

    let mut failed = false;
    for failure in perf::gate_failures(&report) {
        eprintln!("perf: GATE FAILURE: {failure}");
        failed = true;
    }

    if let Some(path) = compare_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(text) => match parse(&text) {
                Ok(value) => value,
                Err(err) => {
                    eprintln!("perf: baseline {path} is not valid JSON: {err}");
                    return ExitCode::FAILURE;
                }
            },
            Err(err) => {
                eprintln!("perf: failed to read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let regressions = perf::compare(&report, &baseline, threshold);
        if regressions.is_empty() {
            println!(
                "perf: no regressions vs {path} (threshold +{:.0} %)",
                threshold * 100.0
            );
        }
        for regression in &regressions {
            eprintln!("perf: REGRESSION: {regression}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The file's text, or the failure exit code after saying why not.
fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|err| {
        eprintln!("perf: failed to read {path}: {err}");
        ExitCode::FAILURE
    })
}

/// Validates an existing report file: it must parse under the strict
/// codec and carry the expected schema tag.
fn check_report(path: &str) -> ExitCode {
    let text = match read(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let report = match parse(&text) {
        Ok(value) => value,
        Err(err) => {
            eprintln!("perf: {path} rejected by the strict codec: {err}");
            return ExitCode::FAILURE;
        }
    };
    match report.get("schema").and_then(|v| v.as_str()) {
        Some(schema) if schema == perf::SCHEMA => {
            println!("perf: {path} is a valid {schema} report");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "perf: {path} has schema {other:?}, expected {:?}",
                perf::SCHEMA
            );
            ExitCode::FAILURE
        }
    }
}

/// Validates the per-PR perf ledger: every line must parse under the
/// strict codec and pass [`perf::history_row_pr`].
fn check_history(path: &str) -> ExitCode {
    let text = match read(path) {
        Ok(text) => text,
        Err(code) => return code,
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
