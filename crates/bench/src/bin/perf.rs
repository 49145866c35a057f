//! The perf-ledger binary: runs the in-tree probes and writes
//! `BENCH_perf.json`.
//!
//! ```text
//! cargo run --release -p dope-bench --bin perf -- [--quick] [--out=PATH]
//! ```
//!
//! Exits non-zero only on an unknown argument or a failed write: the
//! report is a reading, not a gate.

use dope_bench::perf;
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
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_path = path.to_string();
        } else {
            eprintln!("perf: unknown argument `{arg}` (expected --quick, --out=PATH)");
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
    ExitCode::SUCCESS
}
