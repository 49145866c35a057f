//! Regenerates the paper's fig11 artifact. Run with --release.
//!
//! Pass `--trace[=PATH]` to additionally record one representative run
//! (x264 under WQ-Linear at 0.8 load) as a `dope-trace` JSONL flight
//! recording (default `fig11-x264-wqlinear.jsonl`), and/or
//! `--metrics[=PATH]` to dump the sweep's response-time histograms as a
//! Prometheus-text registry (default `fig11-metrics.prom`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sweeps = dope_bench::fig11::report(quick);
    if let Some(path) = dope_bench::flag_path(&args, "--trace", "fig11-x264-wqlinear.jsonl") {
        dope_bench::write_output("trace", &path, &dope_bench::trace::record_fig11(quick));
    }
    if let Some(path) = dope_bench::flag_path(&args, "--metrics", "fig11-metrics.prom") {
        let text = dope_bench::metrics::fig11_registry(&sweeps).render();
        dope_bench::write_output("metrics", &path, &text);
    }
}
