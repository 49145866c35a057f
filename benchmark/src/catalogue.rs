//! Every metric the benchmark prints, by name, with its unit.
//!
//! `BENCHMARK.json` at the repo root states the same lists; a unit test
//! keeps the two from drifting.

/// `(name, unit, regression bound)`; all are lower-is-better.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("setup_s", "s", 0.25),
    ("cpu_us_per_job", "us", 0.25),
    ("peak_rss_mb", "MB", 0.20),
];

/// `(name, unit, higher is better)`.
pub const PER_LAYER: [(&str, &str, bool); 83] = [
    // Proposed as end-to-end metrics, moved here under the same names
    // because their run-to-run spread on this host exceeds any bound the
    // contract allows (README, "How the bounds were derived").
    ("cpu_us_per_sim_request", "us", false),
    ("cpu_us_per_trace_event", "us", false),
    // dope-workload: isolated probes, then the live pass's gate counters.
    ("workload.queue_enq_ns", "ns", false),
    ("workload.queue_deq_ns", "ns", false),
    ("workload.offer_open_ns", "ns", false),
    ("workload.take_ns", "ns", false),
    ("workload.resp_record_ns", "ns", false),
    ("workload.queue_wake_us", "us", false),
    ("workload.offer_shed_ns", "ns", false),
    ("workload.arrivals_ns_per_event", "ns", false),
    ("workload.offered", "count", true),
    ("workload.admitted", "count", true),
    ("workload.shed", "count", false),
    // dope-runtime.
    ("runtime.invoke_ns", "ns", false),
    ("runtime.record_path_ns", "ns", false),
    ("runtime.record_path_contended_ns", "ns", false),
    ("runtime.monitoring_overhead_ratio", "ratio", false),
    ("runtime.pool_submit_ns", "ns", false),
    ("runtime.pool_roundtrip_us", "us", false),
    ("runtime.launch_us", "us", false),
    ("runtime.snapshot_us", "us", false),
    ("runtime.pause_p50_us", "us", false),
    ("runtime.pause_p99_us", "us", false),
    ("runtime.relaunch_p50_us", "us", false),
    ("runtime.full_pause_p50_us", "us", false),
    ("runtime.reconfigs_per_s", "1/s", true),
    ("runtime.rejected_configs", "count", false),
    ("runtime.pool_dispatched", "count", false),
    ("runtime.pool_parks", "count", false),
    ("runtime.wait_tail_us", "us", false),
    ("runtime.lost_jobs", "count", false),
    ("runtime.task_failures", "count", false),
    // dope-mechanisms, dope-verify, dope-core.
    ("mechanisms.consult_ns", "ns", false),
    ("mechanisms.consult_max_ns", "ns", false),
    ("verify.analyze_ns", "ns", false),
    ("core.validate_ns", "ns", false),
    ("core.json_parse_mb_s", "MB/s", true),
    // dope-trace, dope-sim.
    ("trace.record_ns", "ns", false),
    ("trace.record_disabled_ns", "ns", false),
    ("trace.dropped_events", "count", false),
    ("trace.encode_ns_per_event", "ns", false),
    ("trace.decode_ns_per_event", "ns", false),
    ("trace.summarize_ns_per_event", "ns", false),
    ("trace.explain_ns_per_event", "ns", false),
    ("trace.replay_ns_per_event", "ns", false),
    ("trace.bytes_per_event", "B", false),
    ("sim.consults", "count", false),
    ("sim.events_per_request", "ratio", false),
    // dope-metrics.
    ("metrics.hist_record_ns", "ns", false),
    ("metrics.render_us", "us", false),
    // dope-apps, and the benchmark's own kernel.
    ("apps.work_ns", "ns", false),
    ("apps.inline_cpu_us_per_job", "us", false),
    ("apps.pipeline_live_cpu_us_per_job", "us", false),
    ("apps.sink_record_ns", "ns", false),
    // Wall-clock figures: kept out of the end-to-end set on this host.
    ("wall.jobs_per_s", "1/s", true),
    ("wall.resp_p50_us", "us", false),
    ("wall.resp_p99_us", "us", false),
    ("wall.resp_samples", "count", true),
    ("wall.sim_requests_per_s", "1/s", true),
    ("wall.trace_events_per_s", "1/s", true),
    ("wall.setup_ms", "ms", false),
    // The benchmark's view of itself and of the host.
    ("bench.steal_share", "ratio", false),
    ("bench.gen_late_p50_us", "us", false),
    ("bench.gen_late_p99_us", "us", false),
    ("bench.rep_spread", "ratio", false),
    ("bench.allocs_per_job", "count", false),
    ("bench.alloc_bytes_per_job", "B", false),
    ("bench.trace_overhead_ratio", "ratio", false),
    ("bench.closure_ratio", "ratio", true),
    ("bench.nproc", "count", true),
    // In-situ spans from the traced pass.
    ("span.workload.offer_ns", "ns", false),
    ("span.workload.take_ns", "ns", false),
    ("span.runtime.begin_end_ns", "ns", false),
    ("span.apps.work_ns", "ns", false),
    ("span.workload.enq_ns", "ns", false),
    ("span.workload.deq_ns", "ns", false),
    ("span.workload.sink_ns", "ns", false),
    ("span.job.total_us", "us", false),
    ("span.job.wait_us", "us", false),
    ("span.job.overfull", "count", false),
    ("span.mechanisms.consult_ns", "ns", false),
    ("span.runtime.probe_ns", "ns", false),
    ("span.runtime.snapshot_us", "us", false),
];

pub fn bound_of(metric: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(name, _, _)| *name == metric)
        .map(|&(_, _, bound)| bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::json::{parse, Value};

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is strict JSON");

        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string(), "lower".to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), end_to_end);
        for (metric, &(_, _, bound)) in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(metric.get("bound").and_then(Value::as_f64), Some(bound));
        }

        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, higher)| {
                let better = if higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(names(&doc, "per_layer"), per_layer);
        assert!(PER_LAYER.len() <= 128);

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let plans: Vec<String> = crate::plan::PLANS
            .iter()
            .map(|p| p.name.to_string())
            .collect();
        assert_eq!(workloads, plans);
    }
}
