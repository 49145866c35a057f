//! `--metrics[=PATH]` support for the figure binaries.
//!
//! The figure harnesses already aggregate their sweeps into tables; this
//! module additionally renders them as a final [`MetricsRegistry`] dump
//! in Prometheus text format — the same exposition the live endpoint
//! serves — so dashboards built against the runtime's metric names can
//! be smoke-tested against simulated data:
//!
//! * [`fig11_registry`] — one `dope_response_seconds{app,mechanism}`
//!   histogram per Figure 11 cell group (the bounded response
//!   accumulators merged across the load sweep);
//! * [`fig15_registry`] — one `dope_pipeline_throughput{app,mechanism}`
//!   gauge per Figure 15 cell.
//!
//! Run `cargo run -p dope-bench --release --bin fig11 -- --metrics` (or
//! `--metrics=PATH`) to write the dump next to the figure output.

use dope_metrics::{names, MetricsRegistry};

/// Builds the Figure 11 registry: per-(app, mechanism) response-time
/// histograms merged across the load sweep.
#[must_use]
pub fn fig11_registry(sweeps: &[crate::fig11::AppSweep]) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    for sweep in sweeps {
        for (mechanism, response) in &sweep.responses {
            let hist = registry.histogram_with_labels(
                names::RESPONSE_SECONDS,
                "End-to-end response time (seconds)",
                &[("app", sweep.name), ("mechanism", mechanism)],
            );
            hist.merge_local(response.histogram());
        }
    }
    registry
}

/// Builds the Figure 15 registry: per-(app, mechanism) stable-throughput
/// gauges.
#[must_use]
pub fn fig15_registry(results: &[crate::fig15::AppResults]) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    for app in results {
        for (mechanism, throughput) in &app.rows {
            registry
                .gauge_with_labels(
                    names::PIPELINE_THROUGHPUT,
                    "Pipeline sink throughput (items per second)",
                    &[("app", app.name), ("mechanism", mechanism)],
                )
                .set(*throughput);
        }
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_registry_exports_response_histograms() {
        let sweeps = crate::fig11::run(&[0.5], 100);
        let registry = fig11_registry(&sweeps);
        let text = registry.render();
        assert!(
            text.contains("dope_response_seconds_bucket{app=\"x264 (video transcoding)\""),
            "{text}"
        );
        assert!(
            text.contains("mechanism=\"WQ-Linear\"") && text.contains("_count"),
            "{text}"
        );
    }

    #[test]
    fn fig15_registry_exports_throughput_gauges() {
        let results = vec![crate::fig15::AppResults {
            name: "ferret",
            rows: vec![("DoPE-TBF", 42.5)],
        }];
        let text = fig15_registry(&results).render();
        assert!(
            text.contains("dope_pipeline_throughput{app=\"ferret\",mechanism=\"DoPE-TBF\"} 42.5"),
            "{text}"
        );
    }
}
