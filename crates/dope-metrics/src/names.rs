//! Canonical metric names exported by the instrumented DoPE stack.
//!
//! Every name the runtime registers is one row of the table below, which
//! declares the constant and lists it in [`ALL`] in the same breath, so
//! documentation, tests, and dashboards cross-check against one
//! authoritative list that cannot drift from its constants. Naming
//! follows Prometheus conventions: `dope_` prefix, base units (seconds,
//! watts), `_total` suffix on counters.

/// Declares each `NAME = "value"` row as a `pub const NAME: &str` and
/// generates [`ALL`] from the same rows, in table order.
macro_rules! metric_names {
    ($($(#[$doc:meta])* $name:ident = $value:literal;)+) => {
        $($(#[$doc])* pub const $name: &str = $value;)+

        /// Every canonical metric name, for docs/tests cross-checks.
        pub const ALL: &[&str] = &[$($name),+];
    };
}

metric_names! {
    /// Per-task execution latency histogram, labelled `path`.
    TASK_EXEC_SECONDS = "dope_task_exec_seconds";
    /// Per-task invocation counter, labelled `path`.
    TASK_INVOCATIONS_TOTAL = "dope_task_invocations_total";
    /// Monitor snapshots taken so far.
    MONITOR_SNAPSHOTS_TOTAL = "dope_monitor_snapshots_total";
    /// Per-worker recorder shards the monitor merged while aggregating
    /// snapshots and scrapes.
    MONITOR_SHARD_MERGES_TOTAL = "dope_monitor_shard_merges_total";
    /// Seconds the monitor spent measuring (its self-accounted overhead).
    MONITORING_OVERHEAD_SECONDS = "dope_monitoring_overhead_seconds";
    /// Monitoring overhead as a fraction of total application work
    /// (the paper's "< 1 %" claim, self-measured).
    MONITORING_OVERHEAD_RATIO = "dope_monitoring_overhead_ratio";
    /// Completed reconfiguration epochs.
    RECONFIGURE_EPOCHS_TOTAL = "dope_reconfigure_epochs_total";
    /// Measured pause (suspend + drain) latency per reconfiguration.
    RECONFIGURE_PAUSE_SECONDS = "dope_reconfigure_pause_seconds";
    /// Measured relaunch latency per reconfiguration.
    RECONFIGURE_RELAUNCH_SECONDS = "dope_reconfigure_relaunch_seconds";
    /// Reconfiguration epochs applied as *partial* (delta) reconfigurations:
    /// only the changed paths drained, everything else kept running.
    RECONFIG_PARTIAL_TOTAL = "dope_reconfig_partial_total";
    /// Replica-carrying paths drained per reconfiguration boundary (1 for a
    /// typical delta, the whole path set for a full drain).
    RECONFIG_PATHS_DRAINED = "dope_reconfig_paths_drained";
    /// Mechanism proposals evaluated, labelled `verdict`
    /// (`accepted` / `unchanged` / `rejected`).
    PROPOSALS_TOTAL = "dope_proposals_total";
    /// Jobs dispatched to pool workers.
    POOL_JOBS_DISPATCHED_TOTAL = "dope_pool_jobs_dispatched_total";
    /// Times a pool worker went back to waiting on the job queue.
    POOL_WORKER_PARKS_TOTAL = "dope_pool_worker_parks_total";
    /// Job panics the pool's supervision layer caught (the worker thread
    /// survived each one).
    POOL_PANICS_CAUGHT_TOTAL = "dope_pool_panics_caught_total";
    /// Current worker-pool thread count.
    POOL_THREADS = "dope_pool_threads";
    /// Work-queue occupancy gauge.
    QUEUE_OCCUPANCY = "dope_queue_occupancy";
    /// Work-queue arrival-rate gauge (requests per second).
    QUEUE_ARRIVAL_RATE = "dope_queue_arrival_rate";
    /// Requests enqueued so far.
    QUEUE_ENQUEUED_TOTAL = "dope_queue_enqueued_total";
    /// Requests completed so far.
    QUEUE_COMPLETED_TOTAL = "dope_queue_completed_total";
    /// Platform power draw gauge (watts), mirrored from the `SystemPower`
    /// feature when one is registered.
    POWER_WATTS = "dope_power_watts";
    /// End-to-end response-time histogram (open workloads).
    RESPONSE_SECONDS = "dope_response_seconds";
    /// Pipeline sink throughput gauge (items per second), labelled
    /// `app`/`mechanism` by the benchmark harness.
    PIPELINE_THROUGHPUT = "dope_pipeline_throughput";
    /// Task replicas that failed (panicked or vanished) during the run.
    TASK_FAILURES_TOTAL = "dope_task_failures_total";
    /// Failed replicas the `Restart` failure policy re-instantiated.
    TASK_RESTARTS_TOTAL = "dope_task_restarts_total";
    /// Replicas currently dead in the running epoch (excluded from
    /// monitor snapshots until restart or degrade clears them).
    TASK_FAILED_REPLICAS = "dope_task_failed_replicas";
    /// Magnitude of the mechanism's signed relative throughput-prediction
    /// error, labelled `sign` (`over` = promised more than realized,
    /// `under` = promised less).
    MECHANISM_PREDICTION_ERROR = "dope_mechanism_prediction_error";
    /// Decisions explained by the mechanism, labelled `rationale` with the
    /// stable rationale code of each decision.
    DECISION_RATIONALE_TOTAL = "dope_decision_rationale_total";
    /// Offers the admission gate admitted into the work queue.
    ADMITTED_TOTAL = "dope_admitted_total";
    /// Offers the admission gate dropped, labelled `reason`
    /// (`high_water` / `deadline`).
    SHED_TOTAL = "dope_shed_total";
    /// Queue delay (offer to dispatch) of admitted requests, in seconds.
    ADMISSION_QUEUE_DELAY = "dope_admission_queue_delay";
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_prefixed_and_conventional() {
        let mut seen = std::collections::BTreeSet::new();
        for &name in ALL {
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(name.starts_with("dope_"), "{name} lacks dope_ prefix");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name} not snake_case"
            );
        }
    }

    /// The scrape surface is an operator contract: a table edit that
    /// renames, drops or reorders a family must change this list too.
    #[test]
    fn the_table_generates_the_shipped_catalogue_in_order() {
        assert_eq!(
            ALL,
            [
                "dope_task_exec_seconds",
                "dope_task_invocations_total",
                "dope_monitor_snapshots_total",
                "dope_monitor_shard_merges_total",
                "dope_monitoring_overhead_seconds",
                "dope_monitoring_overhead_ratio",
                "dope_reconfigure_epochs_total",
                "dope_reconfigure_pause_seconds",
                "dope_reconfigure_relaunch_seconds",
                "dope_reconfig_partial_total",
                "dope_reconfig_paths_drained",
                "dope_proposals_total",
                "dope_pool_jobs_dispatched_total",
                "dope_pool_worker_parks_total",
                "dope_pool_panics_caught_total",
                "dope_pool_threads",
                "dope_queue_occupancy",
                "dope_queue_arrival_rate",
                "dope_queue_enqueued_total",
                "dope_queue_completed_total",
                "dope_power_watts",
                "dope_response_seconds",
                "dope_pipeline_throughput",
                "dope_task_failures_total",
                "dope_task_restarts_total",
                "dope_task_failed_replicas",
                "dope_mechanism_prediction_error",
                "dope_decision_rationale_total",
                "dope_admitted_total",
                "dope_shed_total",
                "dope_admission_queue_delay",
            ]
        );
        assert_eq!(super::POOL_JOBS_DISPATCHED_TOTAL, ALL[12]);
    }
}
