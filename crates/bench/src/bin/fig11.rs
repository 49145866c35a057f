//! Regenerates the paper's fig11 artifact. Run with --release.
//!
//! Pass `--trace[=PATH]` to additionally record one representative run
//! (x264 under WQ-Linear at 0.8 load) as a `dope-trace` JSONL flight
//! recording (default `fig11-x264-wqlinear.jsonl`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    dope_bench::fig11::report(quick);
    if let Some(path) = dope_bench::trace_path(&args, "fig11-x264-wqlinear.jsonl") {
        dope_bench::write_trace(&path, &dope_bench::trace::record_fig11(quick));
    }
}
