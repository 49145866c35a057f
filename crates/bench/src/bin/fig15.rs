//! Regenerates the paper's fig15 artifact. Run with --release.
//!
//! Pass `--trace[=PATH]` to additionally record one representative run
//! (ferret under TBF, saturated source) as a `dope-trace` JSONL flight
//! recording (default `fig15-ferret-tbf.jsonl`), and/or
//! `--metrics[=PATH]` to dump per-(app, mechanism) throughput gauges as
//! a Prometheus-text registry (default `fig15-metrics.prom`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let results = dope_bench::fig15::report(quick);
    if let Some(path) = dope_bench::flag_path(&args, "--trace", "fig15-ferret-tbf.jsonl") {
        dope_bench::write_output("trace", &path, &dope_bench::trace::record_fig15(quick));
    }
    if let Some(path) = dope_bench::flag_path(&args, "--metrics", "fig15-metrics.prom") {
        let text = dope_bench::metrics::fig15_registry(&results).render();
        dope_bench::write_output("metrics", &path, &text);
    }
}
