//! Regenerates the paper's fig15 artifact. Run with --release.
//!
//! Pass `--trace[=PATH]` to additionally record one representative run
//! (ferret under TBF, saturated source) as a `dope-trace` JSONL flight
//! recording (default `fig15-ferret-tbf.jsonl`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    dope_bench::fig15::report(quick);
    if let Some(path) = dope_bench::trace_path(&args, "fig15-ferret-tbf.jsonl") {
        dope_bench::write_trace(&path, &dope_bench::trace::record_fig15(quick));
    }
}
