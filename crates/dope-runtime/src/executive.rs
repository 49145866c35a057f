//! The DoPE-Executive: launch, monitor, reconfigure, finish.

use crate::instance::{instantiate_paths, LiveCx, WorkerJob};
use crate::monitor::{AdmissionProbe, Monitor, QueueProbe};
use crate::pool::WorkerPool;
use dope_core::control::{
    Action, ControlCore, ControlSink, DrainTiming, Phase, Rules, Scope, Verdict,
};
use dope_core::{
    AdmissionPolicy, AdmissionStats, Config, DecisionTrace, Error, FailurePolicy, FailureVerdict,
    Goal, Mechanism, MonitorSnapshot, ProgramShape, QueueStats, Resources, Result, StaticMechanism,
    TaskOutcome, TaskPath, TaskSpec, TaskStatus,
};
use dope_metrics::{names, Counter, Gauge, Histogram, MetricsRegistry};
use dope_platform::FeatureRegistry;
use dope_trace::{Recorder, RecordingObserver};
use dope_workload::{DequeueOutcome, WorkQueue};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Report returned when a DoPE-managed application finishes.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Number of applied reconfigurations.
    pub reconfigurations: u64,
    /// Mechanism proposals rejected by validation.
    pub rejected_configs: u64,
    /// Configuration in force at the end.
    pub final_config: Config,
    /// `(elapsed_secs, config)` for every applied configuration, the
    /// initial one included.
    pub config_history: Vec<(f64, Config)>,
    /// Task replicas that failed (panicked or vanished) during the run.
    pub task_failures: u64,
    /// Failed replicas the `Restart` policy re-instantiated.
    pub task_restarts: u64,
    /// Worker jobs that vanished without reporting a status. Always
    /// `<= task_failures`; non-zero means the report must not be read
    /// as clean success even if the run "completed".
    pub lost_jobs: u64,
    /// The failure-handling verdict: clean, recovered, degraded, or
    /// lost-work (most severe thing that happened, see
    /// [`FailureVerdict`]).
    pub failure_verdict: FailureVerdict,
}

/// Builder for a [`Dope`] executive (the paper's `DoPE::create`).
pub struct DopeBuilder {
    goal: Goal,
    mechanism: Option<Box<dyn Mechanism>>,
    control_period: Duration,
    throughput_window: Duration,
    features: FeatureRegistry,
    queue_probe: Option<QueueProbe>,
    admission: AdmissionPolicy,
    admission_probe: Option<AdmissionProbe>,
    pool_threads: Option<u32>,
    recorder: Recorder,
    metrics: Option<MetricsRegistry>,
    failure_policy: FailurePolicy,
    delta_reconfig: bool,
}

impl std::fmt::Debug for DopeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DopeBuilder")
            .field("goal", &self.goal)
            .field("control_period", &self.control_period)
            .finish_non_exhaustive()
    }
}

impl DopeBuilder {
    fn new(goal: Goal) -> Self {
        DopeBuilder {
            goal,
            mechanism: None,
            control_period: Duration::from_millis(100),
            throughput_window: Duration::from_secs(5),
            features: FeatureRegistry::new(),
            queue_probe: None,
            admission: AdmissionPolicy::Open,
            admission_probe: None,
            pool_threads: None,
            recorder: Recorder::disabled(),
            metrics: None,
            failure_policy: FailurePolicy::default(),
            delta_reconfig: true,
        }
    }

    /// Overrides the mechanism (otherwise the executive runs a static even
    /// split — link `dope-mechanisms` and pass `for_goal(goal)` for the
    /// adaptive defaults).
    #[must_use]
    pub fn mechanism(mut self, mechanism: Box<dyn Mechanism>) -> Self {
        self.mechanism = Some(mechanism);
        self
    }

    /// How often the executive consults the mechanism.
    #[must_use]
    pub fn control_period(mut self, period: Duration) -> Self {
        self.control_period = period;
        self
    }

    /// The sliding window for throughput measurements.
    #[must_use]
    pub fn throughput_window(mut self, window: Duration) -> Self {
        self.throughput_window = window;
        self
    }

    /// Installs a platform feature registry (paper Figure 9); register a
    /// `"SystemPower"` feature to feed power-aware mechanisms.
    #[must_use]
    pub fn features(mut self, features: FeatureRegistry) -> Self {
        self.features = features;
        self
    }

    /// Installs the work-queue probe behind `snapshot().queue`.
    #[must_use]
    pub fn queue_probe<F>(mut self, probe: F) -> Self
    where
        F: Fn() -> QueueStats + Send + Sync + 'static,
    {
        self.queue_probe = Some(Arc::new(probe));
        self
    }

    /// Declares the run's admission policy — how the front door treats
    /// offered requests past saturation (see
    /// [`AdmissionPolicy`]). Validated at [`launch`](Self::launch)
    /// (diagnostic `DV017`). The executive does not gate requests
    /// itself — the application routes its producers through a
    /// `dope_workload::admission::AdmissionQueue` built with the same
    /// policy — but declaring it here makes the launch fail fast on a
    /// degenerate policy and stamps the policy kind into the recorded
    /// `Launched` event.
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Installs the admission-gate probe behind `snapshot().admission`
    /// (pass `AdmissionQueue::stats_probe()`): the monitor then polls
    /// the gate's cumulative counters into every snapshot — so
    /// mechanisms see admission pressure as a monitored signal — and,
    /// when a metrics registry is attached, each control period that saw
    /// traffic refreshes `dope_admitted_total` / `dope_shed_total` /
    /// `dope_admission_queue_delay`. A recording keeps the counters in
    /// each `SnapshotTaken`, from which `dope-trace` derives the period's
    /// `AdmissionDecision`.
    #[must_use]
    pub fn admission_probe<F>(mut self, probe: F) -> Self
    where
        F: Fn() -> AdmissionStats + Send + Sync + 'static,
    {
        self.admission_probe = Some(Arc::new(probe));
        self
    }

    /// Overrides the worker-pool size (defaults to the goal's thread
    /// budget). Values above the budget let baselines oversubscribe.
    #[must_use]
    pub fn pool_threads(mut self, threads: u32) -> Self {
        self.pool_threads = Some(threads);
        self
    }

    /// Attaches a flight recorder (see `dope-trace`): the executive then
    /// records `Launched` (with the admission policy), per control period
    /// one `SnapshotTaken` (task rows, queue, power reading and gate
    /// counters inside), then `ProposalEvaluated`, `ReconfigureEpoch`
    /// (with measured pause/relaunch latencies), `TaskFailed` and
    /// `Finished` — the same records, in the same order, a simulated run
    /// leaves. A disabled recorder ([`Recorder::disabled`], the default)
    /// keeps hooks no-ops.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a live metrics registry (see `dope-metrics`): the
    /// monitor then exports per-task `dope_task_exec_seconds` latency
    /// histograms; the executive exports, from each control period's
    /// snapshot, the queue gauges, `dope_power_watts` and the monitor's
    /// self-measured overhead, plus `dope_reconfigure_epochs_total`,
    /// measured pause/relaunch latency histograms, and per-verdict
    /// proposal counts; the pool exports dispatch/park counters. Serve
    /// the same registry with `dope_metrics::MetricsServer` to scrape the
    /// run live, or dump `registry.render()` at the end.
    #[must_use]
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// What the executive does when a task body panics mid-run (the
    /// worker thread itself always survives — the pool contains the
    /// unwind). The default is [`FailurePolicy::Abort`]: fail fast with
    /// the panic message in the returned error. `Restart` re-instantiates
    /// every task (up to a retry budget, with backoff); `Degrade` drops
    /// the failed replica's degree of parallelism and keeps going.
    /// Either way the failure is counted in the [`RunReport`], traced as
    /// a `TaskFailed` event, and exported as
    /// `dope_task_failures_total`.
    #[must_use]
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Enables or disables partial (delta) reconfigurations (enabled by
    /// default): which top-level paths a reconfiguration drains. When
    /// enabled, an accepted proposal that only changes the extent of
    /// top-level leaf tasks drains *just those paths* to a consistent
    /// point and relaunches them — every other replica keeps executing
    /// across the boundary. Structural changes (and every drain
    /// triggered by stop or a failure policy) drain every top-level
    /// path. Disable to make every drain the paper's drain-the-world
    /// one, e.g. for A/B latency measurements.
    #[must_use]
    pub fn delta_reconfig(mut self, enabled: bool) -> Self {
        self.delta_reconfig = enabled;
        self
    }

    /// Launches the application described by `descriptor` under the DoPE
    /// run-time system.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial configuration fails validation or
    /// the descriptor cannot be instantiated.
    pub fn launch(self, descriptor: Vec<TaskSpec>) -> Result<Dope> {
        Dope::launch(self, descriptor)
    }
}

/// Shared executive state.
struct Shared {
    /// Set by the first [`Dope::stop`], which also posts [`Note::Stop`].
    stop: AtomicBool,
    monitor: Monitor,
    /// The run's done channel: every replica reports on it once, a stop
    /// request wakes the control thread through it, and the control
    /// thread closes it on its way out, refusing late notes.
    notes: WorkQueue<Note>,
}

/// What wakes the control thread besides its tick.
enum Note {
    /// A replica at this (leaf) path returned for good, with its outcome,
    /// or `None` if its job ended without one (see [`Report`]).
    Done(TaskPath, Option<TaskOutcome>),
    /// [`Dope::stop`] was called.
    Stop,
}

/// A replica's one report, owned by its pool job and posted on drop: with
/// the outcome [`send`](Report::send) gave it, or with none if the job
/// never got there — dropped unrun, or unwound past its own
/// containment. Every submitted replica is therefore heard exactly once.
struct Report {
    notes: WorkQueue<Note>,
    path: TaskPath,
    outcome: Option<TaskOutcome>,
}

impl Report {
    fn send(mut self, outcome: TaskOutcome) {
        self.outcome = Some(outcome);
    }
}

impl Drop for Report {
    fn drop(&mut self) {
        // Refused once the run is over: nobody reads the notes then.
        let _ = self
            .notes
            .enqueue(Note::Done(self.path.clone(), self.outcome.take()));
    }
}

/// The Degree of Parallelism Executive.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Dope {
    control: Option<JoinHandle<Result<RunReport>>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Dope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dope").finish_non_exhaustive()
    }
}

impl Dope {
    /// Starts building an executive for `goal`.
    #[must_use]
    pub fn builder(goal: Goal) -> DopeBuilder {
        DopeBuilder::new(goal)
    }

    /// The live monitor (snapshots, feature registry).
    #[must_use]
    pub fn monitor(&self) -> Monitor {
        self.shared.monitor.clone()
    }

    /// Requests an orderly early stop: tasks are suspended and the run
    /// report is produced.
    pub fn stop(&self) {
        if !self.shared.stop.swap(true, Ordering::AcqRel) {
            // The run may be over already, its done channel closed.
            let _ = self.shared.notes.enqueue(Note::Stop);
        }
    }

    /// Waits for the application to finish (the paper's `DoPE::destroy`
    /// waits for registered tasks to end).
    ///
    /// # Errors
    ///
    /// Propagates launch-time validation errors from reconfigurations,
    /// [`Error::TaskFailed`] when the failure policy aborted the run,
    /// and — should the control thread itself panic — an
    /// [`Error::Usage`] carrying the downcast panic payload so operators
    /// see *why* the executive died, not just that it did.
    pub fn wait(mut self) -> Result<RunReport> {
        let Some(handle) = self.control.take() else {
            return Err(Error::Usage(
                "wait() may only be called once per Dope instance".to_string(),
            ));
        };
        handle.join().map_err(|payload| {
            Error::Usage(format!(
                "executive control thread panicked: {}",
                panic_reason(payload.as_ref())
            ))
        })?
    }

    fn launch(builder: DopeBuilder, descriptor: Vec<TaskSpec>) -> Result<Dope> {
        builder.admission.validate()?;
        let goal = builder.goal;
        let budget = goal.threads().max(1);
        let shape = ProgramShape::of_specs(&descriptor);
        let res = Resources {
            threads: budget,
            power_budget_watts: goal.power_budget_watts(),
            peak_power_watts: None,
        };

        let mut mechanism: Box<dyn Mechanism> = builder.mechanism.unwrap_or_else(|| {
            Box::new(StaticMechanism::new(Config::even(&shape, budget)).named("Static-Even"))
        });

        let initial = mechanism
            .initial(&shape, &res)
            .unwrap_or_else(|| Config::even(&shape, budget));
        let launch_budget = builder.pool_threads.unwrap_or(budget).max(budget);
        initial.validate(&shape, launch_budget)?;
        debug_verify_gate("launch", &shape, &initial, launch_budget);

        let monitor = Monitor::with_sources(
            builder.throughput_window,
            0.25,
            builder.features,
            builder.queue_probe,
            builder.admission_probe,
            builder.metrics.clone(),
        );
        // Run time zero is the monitor's: snapshots, the core's clock and
        // (through the observer's offset) the recorder all count from it.
        let recorder = builder.recorder;
        let mut observer = recorder.is_enabled().then(|| {
            RecordingObserver::new(recorder.clone())
                .with_goal(goal.to_string())
                .with_admission_policy(builder.admission.kind())
                .with_clock_offset(recorder.elapsed_secs() - monitor.elapsed_secs())
        });
        if let Some(observer) = &mut observer {
            observer.launched(mechanism.name(), budget, &shape, &initial);
        }

        #[expect(
            clippy::disallowed_methods,
            reason = "depth is bounded by the run's live replicas plus one stop note: every other sender is a submitted job, which reports once, and the control thread takes whenever it is not relaunching or backing off"
        )]
        let notes = WorkQueue::new();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            monitor: monitor.clone(),
            notes,
        });

        let pool = WorkerPool::new(builder.pool_threads.unwrap_or(budget).max(1));
        if let Some(registry) = &builder.metrics {
            pool.register_metrics(registry);
        }
        let executive = Executive {
            descriptor,
            shape,
            res,
            pool,
            shared: Arc::clone(&shared),
            control_period: builder.control_period,
            window: builder.throughput_window,
            rules: Rules {
                budget,
                delta: builder.delta_reconfig,
                policy: builder.failure_policy,
            },
            metrics: builder.metrics.as_ref().map(ExecMetrics::new),
            task_failures: Cell::new(0),
            lost_jobs: Cell::new(0),
        };
        let control = std::thread::Builder::new()
            .name("dope-executive".to_string())
            .spawn(move || executive.run(mechanism, initial, observer))
            .map_err(|err| Error::Usage(format!("spawning the executive thread failed: {err}")))?;

        Ok(Dope {
            control: Some(control),
            shared,
        })
    }
}

/// Extracts a human-readable panic reason from a caught payload.
///
/// `panic!("...")` yields `&'static str`; `panic!("{x}")` and
/// `String::from` payloads yield `String`; anything else (custom
/// `panic_any` values) is summarized as opaque.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Registry handles for every series the control thread writes: the
/// control loop's own, and the ones refreshed from each control period's
/// snapshot. (The monitor registers what a scrape reads per path, the
/// pool its own counters.)
struct ExecMetrics {
    epochs: Arc<Counter>,
    pause: Arc<Histogram>,
    relaunch: Arc<Histogram>,
    reconfig_partial: Arc<Counter>,
    paths_drained: Arc<Histogram>,
    proposals_accepted: Arc<Counter>,
    proposals_unchanged: Arc<Counter>,
    proposals_rejected: Arc<Counter>,
    task_failures: Arc<Counter>,
    task_restarts: Arc<Counter>,
    failed_replicas: Arc<Gauge>,
    prediction_over: Arc<Histogram>,
    prediction_under: Arc<Histogram>,
    snapshots: Arc<Counter>,
    overhead_seconds: Arc<Gauge>,
    overhead_ratio: Arc<Gauge>,
    queue_occupancy: Arc<Gauge>,
    queue_arrival_rate: Arc<Gauge>,
    queue_enqueued: Arc<Counter>,
    queue_completed: Arc<Counter>,
    power_watts: Arc<Gauge>,
    admitted_total: Arc<Counter>,
    shed_high_water_total: Arc<Counter>,
    shed_deadline_total: Arc<Counter>,
    admission_queue_delay: Arc<Gauge>,
    /// Kept for the per-rationale decision counters: the label value is
    /// the decision's rationale code, which is only known when the
    /// decision happens, so the series is created (or re-fetched) on
    /// first use per code.
    registry: MetricsRegistry,
}

impl ExecMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let proposals = |verdict: &str| {
            registry.counter_with_labels(
                names::PROPOSALS_TOTAL,
                "Mechanism proposals evaluated, by verdict",
                &[("verdict", verdict)],
            )
        };
        let prediction = |sign: &str| {
            registry.histogram_with_labels(
                names::MECHANISM_PREDICTION_ERROR,
                "Magnitude of the mechanism's relative throughput-prediction error, by sign",
                &[("sign", sign)],
            )
        };
        let shed = |reason: &str| {
            registry.counter_with_labels(
                names::SHED_TOTAL,
                "Offers the admission gate dropped, by reason",
                &[("reason", reason)],
            )
        };
        ExecMetrics {
            epochs: registry.counter(
                names::RECONFIGURE_EPOCHS_TOTAL,
                "Completed reconfiguration epochs",
            ),
            pause: registry.histogram(
                names::RECONFIGURE_PAUSE_SECONDS,
                "Measured suspend-and-drain latency per reconfiguration",
            ),
            relaunch: registry.histogram(
                names::RECONFIGURE_RELAUNCH_SECONDS,
                "Measured relaunch latency per reconfiguration",
            ),
            reconfig_partial: registry.counter(
                names::RECONFIG_PARTIAL_TOTAL,
                "Reconfiguration epochs applied as partial (delta) drains",
            ),
            paths_drained: registry.histogram(
                names::RECONFIG_PATHS_DRAINED,
                "Replica-carrying paths drained per reconfiguration boundary",
            ),
            proposals_accepted: proposals("accepted"),
            proposals_unchanged: proposals("unchanged"),
            proposals_rejected: proposals("rejected"),
            task_failures: registry.counter(
                names::TASK_FAILURES_TOTAL,
                "Task replicas that failed (panicked or vanished) during the run",
            ),
            task_restarts: registry.counter(
                names::TASK_RESTARTS_TOTAL,
                "Failed replicas re-instantiated by the Restart failure policy",
            ),
            failed_replicas: registry.gauge(
                names::TASK_FAILED_REPLICAS,
                "Replicas currently dead (until their path is relaunched)",
            ),
            prediction_over: prediction("over"),
            prediction_under: prediction("under"),
            snapshots: registry.counter(
                names::MONITOR_SNAPSHOTS_TOTAL,
                "Control-period snapshots handed to the mechanism",
            ),
            overhead_seconds: registry.gauge(
                names::MONITORING_OVERHEAD_SECONDS,
                "Seconds spent inside monitoring code (self-measured)",
            ),
            overhead_ratio: registry.gauge(
                names::MONITORING_OVERHEAD_RATIO,
                "Monitoring overhead as a fraction of application work",
            ),
            queue_occupancy: registry.gauge(names::QUEUE_OCCUPANCY, "Work-queue occupancy"),
            queue_arrival_rate: registry.gauge(
                names::QUEUE_ARRIVAL_RATE,
                "Work-queue arrival rate (requests per second)",
            ),
            queue_enqueued: registry.counter(names::QUEUE_ENQUEUED_TOTAL, "Requests enqueued"),
            queue_completed: registry.counter(names::QUEUE_COMPLETED_TOTAL, "Requests completed"),
            power_watts: registry.gauge(names::POWER_WATTS, "Platform power draw (watts)"),
            admitted_total: registry.counter(
                names::ADMITTED_TOTAL,
                "Offers the admission gate admitted into the work queue",
            ),
            shed_high_water_total: shed("high_water"),
            shed_deadline_total: shed("deadline"),
            admission_queue_delay: registry.gauge(
                names::ADMISSION_QUEUE_DELAY,
                "Mean queue delay (offer to dispatch) of admitted requests, seconds",
            ),
            registry: registry.clone(),
        }
    }

    /// Accounts one explained decision: bumps the rationale counter and,
    /// when the decision was scored, records the prediction-error
    /// magnitude under its sign (`over` = the mechanism promised more
    /// throughput than the next snapshot realized).
    fn record_decision(&self, rationale_code: &str, prediction_error: Option<f64>) {
        self.registry
            .counter_with_labels(
                names::DECISION_RATIONALE_TOTAL,
                "Decisions explained by the mechanism, by rationale code",
                &[("rationale", rationale_code)],
            )
            .inc();
        if let Some(error) = prediction_error {
            let histogram = if error >= 0.0 {
                &self.prediction_over
            } else {
                &self.prediction_under
            };
            histogram.record_secs(error.abs());
        }
    }

    /// Refreshes every series derived from a monitor snapshot: queue,
    /// admission gate, power, and the monitor's own overhead meter.
    fn publish(&self, snap: &MonitorSnapshot, monitor: &Monitor) {
        self.queue_occupancy.set(snap.queue.occupancy);
        self.queue_arrival_rate.set(snap.queue.arrival_rate);
        self.queue_enqueued.set_at_least(snap.queue.enqueued);
        self.queue_completed.set_at_least(snap.queue.completed);
        if let Some(watts) = snap.power_watts {
            self.power_watts.set(watts);
        }
        self.overhead_seconds
            .set(monitor.monitoring_overhead_secs());
        self.overhead_ratio.set(monitor.monitoring_overhead_ratio());
        if snap.admission.offered > 0 {
            self.admitted_total.set_at_least(snap.admission.admitted);
            self.shed_high_water_total
                .set_at_least(snap.admission.shed_high_water);
            self.shed_deadline_total
                .set_at_least(snap.admission.shed_deadline);
            self.admission_queue_delay
                .set(snap.admission.mean_queue_delay_secs);
        }
    }
}

/// The control core's sink on the live side. Records are written by the
/// simulators' [`RecordingObserver`] — the one place a control event
/// becomes a trace record, so a live recording and a simulated one read
/// alike; this adds the `dope_*` series and marks the monitor.
struct LiveSink<'a> {
    exec: &'a Executive,
    /// `None` when no recorder is attached.
    observer: Option<RecordingObserver>,
}

impl ControlSink for LiveSink<'_> {
    fn audits_decisions(&self) -> bool {
        self.observer.is_some() || self.exec.metrics.is_some()
    }

    fn snapshot_taken(&mut self, snapshot: &MonitorSnapshot) {
        if let Some(observer) = &mut self.observer {
            observer.snapshot_taken(snapshot);
        }
        if let Some(m) = &self.exec.metrics {
            m.snapshots.inc();
            m.publish(snapshot, &self.exec.shared.monitor);
        }
    }

    fn decision_scored(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) {
        if let Some(m) = &self.exec.metrics {
            m.record_decision(trace.rationale.code(), trace.prediction_error(realized));
        }
        if let Some(observer) = &mut self.observer {
            observer.decision_scored(time_secs, mechanism, trace, realized);
        }
    }

    fn proposal_evaluated(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        proposal: &Config,
        verdict: Verdict,
    ) {
        if let Some(observer) = &mut self.observer {
            observer.proposal_evaluated(time_secs, mechanism, proposal, verdict);
        }
        if let Some(m) = &self.exec.metrics {
            match verdict {
                Verdict::Accepted => m.proposals_accepted.inc(),
                Verdict::Unchanged => m.proposals_unchanged.inc(),
                Verdict::Rejected { .. } => m.proposals_rejected.inc(),
                Verdict::Superseded => {}
            }
        }
    }

    fn reconfigured(&mut self, time: f64, config: &Config, scope: &Scope, timing: DrainTiming) {
        if let Some(observer) = &mut self.observer {
            observer.reconfigured(time, config, scope, timing);
        }
        if let Some(m) = &self.exec.metrics {
            m.epochs.inc();
            m.pause.record_secs(timing.pause_secs);
            m.relaunch.record_secs(timing.relaunch_secs);
            if matches!(scope, Scope::Partial(_)) {
                m.reconfig_partial.inc();
            }
            m.paths_drained
                .record_secs(scope.paths_drained(config) as f64);
        }
        self.exec.shared.monitor.mark_reconfig();
    }

    fn task_failed(&mut self, time: f64, path: &TaskPath, reason: &str, policy: &str) {
        if let Some(observer) = &mut self.observer {
            observer.task_failed(time, path, reason, policy);
        }
        self.exec.shared.monitor.mark_failed(path);
        if let Some(m) = &self.exec.metrics {
            m.task_failures.inc();
        }
        self.exec.export_failed_replicas();
    }
}

/// Debug-build verification gate.
///
/// Every configuration the executive runs — the initial one at launch
/// and each one the control core switches to at a drain boundary (an
/// accepted proposal, a `Degrade` shrink) — is additionally run through
/// the `dope-verify` static analyzer in debug builds. The analyzer reads
/// the same rule walk `Config::validate` stops in and adds the shape's
/// own lints, so a panic here means the program's shape is degenerate
/// (an alternative nothing could run) or a configuration reached the
/// runtime unvalidated. Release builds compile this to nothing.
fn debug_verify_gate(stage: &str, shape: &ProgramShape, config: &Config, threads: u32) {
    #[cfg(debug_assertions)]
    {
        let report = dope_verify::analyze(shape, config, &Resources::threads(threads));
        if report.has_errors() {
            let errors: Vec<String> = report.errors().map(ToString::to_string).collect();
            panic!(
                "verification gate ({stage}): config {config} has error diagnostics:\n  {}",
                errors.join("\n  ")
            );
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (stage, shape, config, threads);
    }
}

/// One top-level path's share of the run.
#[derive(Default)]
struct PathLedger {
    /// The path's suspend flag, the one every replica under it reads: a
    /// drain sets it for exactly the paths it suspends, their relaunch
    /// clears it.
    suspend: Arc<AtomicBool>,
    /// The (leaf) path of every replica submitted that has not reported.
    outstanding: Vec<TaskPath>,
    /// Replicas submitted since the path was last relaunched that have
    /// not reported `Finished`.
    unfinished: usize,
}

/// The run's accounting, kept per top-level path from launch to the
/// end: who runs, who has reported, and which drain is in flight. Every
/// relaunch splices into it.
#[derive(Default)]
struct RunLedger {
    paths: HashMap<TaskPath, PathLedger>,
    /// The paths the suspend request in flight names, and when the first
    /// request of this drain was made.
    drain: Option<(Vec<TaskPath>, Instant)>,
}

/// The top-level path a (leaf) path runs under.
fn top_level(path: &TaskPath) -> TaskPath {
    TaskPath::root_child(path.indices().next().unwrap_or(0))
}

impl RunLedger {
    /// Replicas still out, over all paths.
    fn remaining(&self) -> usize {
        self.paths.values().map(|p| p.outstanding.len()).sum()
    }

    /// Books one reported outcome; a failure hands back its reason.
    fn settle(&mut self, path: &TaskPath, outcome: TaskOutcome) -> Option<String> {
        if let Some(entry) = self.paths.get_mut(&top_level(path)) {
            if let Some(at) = entry.outstanding.iter().position(|p| p == path) {
                entry.outstanding.swap_remove(at);
            }
            let finished = outcome == TaskOutcome::Completed(TaskStatus::Finished);
            entry.unfinished = entry.unfinished.saturating_sub(usize::from(finished));
        }
        match outcome {
            TaskOutcome::Completed(_) => None,
            TaskOutcome::Failed { reason } => Some(reason),
        }
    }

    /// Does what a suspend request asks — sets the named paths' flags —
    /// and waits for those paths from now on; every other action is the
    /// caller's business.
    fn suspend(&mut self, action: Action) {
        if let Action::SuspendPaths(paths) = action {
            for path in &paths {
                if let Some(entry) = self.paths.get(path) {
                    entry.suspend.store(true, Ordering::Release);
                }
            }
            let since = self
                .drain
                .take()
                .map_or_else(Instant::now, |(_, since)| since);
            self.drain = Some((paths, since));
        }
    }

    /// Every replica of the paths the drain in flight waits for has
    /// reported — or, with no drain in flight, every replica has.
    fn at_boundary(&self) -> bool {
        match &self.drain {
            Some((paths, _)) => paths.iter().all(|path| {
                self.paths
                    .get(path)
                    .is_none_or(|p| p.outstanding.is_empty())
            }),
            None => self.remaining() == 0,
        }
    }

    /// The program is complete: every replica launched (since its path
    /// was last relaunched) reported `Finished`.
    fn finished(&self) -> bool {
        self.paths.values().all(|p| p.unfinished == 0)
    }
}

/// Everything the control thread owns: the live driver of the
/// [`ControlCore`]. The core decides; this keeps only what is genuinely
/// live — instants, suspend flags, pool submits, the done channel,
/// metrics and the debug verify gate.
struct Executive {
    descriptor: Vec<TaskSpec>,
    shape: ProgramShape,
    res: Resources,
    pool: WorkerPool,
    shared: Arc<Shared>,
    control_period: Duration,
    window: Duration,
    rules: Rules,
    metrics: Option<ExecMetrics>,
    /// Failure accounting for the honest `RunReport` (cells: the sink
    /// borrows the executive for as long as the core lives).
    task_failures: Cell<u64>,
    lost_jobs: Cell<u64>,
}

impl Executive {
    /// Runs the application to its end. Every exit — clean, stopped,
    /// aborted by the failure policy, or a relaunch that could not be
    /// instantiated — passes through the core's `finish`, so the held
    /// decision is emitted and an in-flight target superseded before
    /// an error propagates (without a `Finished` record: that one closes
    /// *complete* traces only).
    fn run(
        self,
        mut mechanism: Box<dyn Mechanism>,
        initial: Config,
        observer: Option<RecordingObserver>,
    ) -> Result<RunReport> {
        let mut sink = LiveSink {
            exec: &self,
            observer,
        };
        let mut core = ControlCore::new(
            mechanism.as_mut(),
            &mut sink,
            &self.shape,
            self.res,
            self.rules,
            initial,
        );
        let outcome = self.drive(&mut core);
        // Replicas still out report into a closed channel: nobody reads
        // their notes any more.
        self.shared.notes.close();
        // One last look, to score a held decision against and to leave
        // the exported series at the run's final totals.
        let last = (core.holds_decision() || self.metrics.is_some())
            .then(|| self.shared.monitor.snapshot());
        let control = core.finish(self.now(), last.as_ref());
        if let (Some(m), Some(last)) = (&self.metrics, &last) {
            m.publish(last, &self.shared.monitor);
        }
        outcome?;
        if let Some(observer) = &mut sink.observer {
            let completed = self.shared.monitor.queue_completed();
            observer.finished_at(self.now(), completed, control.reconfigurations);
        }
        let lost = if self.lost_jobs.get() > 0 {
            FailureVerdict::LostWork
        } else {
            FailureVerdict::Clean
        };
        Ok(RunReport {
            elapsed: Duration::from_secs_f64(self.now()),
            reconfigurations: control.reconfigurations,
            rejected_configs: control.rejected,
            final_config: control.final_config,
            config_history: control.config_history,
            task_failures: self.task_failures.get(),
            task_restarts: control.restarts,
            lost_jobs: self.lost_jobs.get(),
            failure_verdict: control.failure_verdict.worsen(lost),
        })
    }

    /// Run-relative seconds — the monitor's clock, so the core's times
    /// and its snapshots' share one origin.
    fn now(&self) -> f64 {
        self.shared.monitor.elapsed_secs()
    }

    /// Mirrors the monitor's dead-replica count into its gauge.
    fn export_failed_replicas(&self) {
        if let Some(m) = &self.metrics {
            m.failed_replicas
                .set(f64::from(self.shared.monitor.failed_replicas()));
        }
    }

    /// Launches every top-level path, then monitors the run — ticks,
    /// outcomes, stop notes — answering each drained boundary with the
    /// relaunch the core asks for, until the core says the run is over.
    fn drive(&self, core: &mut ControlCore<'_>) -> Result<()> {
        let mut ledger = RunLedger::default();
        self.relaunch(core, &mut ledger, &Scope::Full, 0.0)?;
        // Control ticks run off an absolute deadline: driving the timer
        // from the wait's timeout alone reset it on every completion, so
        // a flood of completions starved the mechanism of consults.
        let mut next_tick = Instant::now() + self.control_period;
        loop {
            if Instant::now() >= next_tick {
                next_tick = Instant::now() + self.control_period;
                if core.is_running() {
                    let snap = self.shared.monitor.snapshot();
                    ledger.suspend(core.tick(self.now(), &snap));
                }
            }
            if ledger.at_boundary() {
                let pause_secs = ledger
                    .drain
                    .take()
                    .map_or(0.0, |(_, since)| since.elapsed().as_secs_f64());
                let action = core.drained(ledger.finished());
                if matches!(core.phase(), Phase::Applying { .. }) {
                    debug_verify_gate("reconfigure", &self.shape, core.config(), self.rules.budget);
                }
                match action {
                    Action::Relaunch(scope) => {
                        self.relaunch(core, &mut ledger, &scope, pause_secs)?
                    }
                    Action::Restart { replicas, backoff } => {
                        if let Some(m) = &self.metrics {
                            m.task_restarts.add(replicas);
                        }
                        // Nothing runs during the back-off: the one note
                        // that can end it early is a stop.
                        if self.shared.notes.dequeue_timeout(backoff).item().is_some() {
                            core.stop(self.now());
                            return Ok(());
                        }
                        self.relaunch(core, &mut ledger, &Scope::Full, pause_secs)?;
                    }
                    Action::Abort(err) => return Err(err),
                    _ => return Ok(()),
                }
            }
            let wait = next_tick.saturating_duration_since(Instant::now());
            match self.shared.notes.dequeue_timeout(wait) {
                DequeueOutcome::Item(Note::Done(path, outcome)) => {
                    // A job that ended without an outcome is counted as a
                    // failure that poisons the verdict, never dropped.
                    let outcome = outcome.unwrap_or_else(|| {
                        self.lost_jobs.set(self.lost_jobs.get() + 1);
                        let reason = "worker job vanished without reporting an outcome";
                        TaskOutcome::Failed {
                            reason: reason.to_string(),
                        }
                    });
                    if let Some(reason) = ledger.settle(&path, outcome) {
                        self.failed(core, &mut ledger, path, reason);
                    }
                }
                DequeueOutcome::Item(Note::Stop) => ledger.suspend(core.stop(self.now())),
                DequeueOutcome::TimedOut | DequeueOutcome::Drained => {}
            }
        }
    }

    /// Counts one failed (or vanished) replica and tells the core, which
    /// reports it to the sink and suspends every top-level path.
    fn failed(
        &self,
        core: &mut ControlCore<'_>,
        ledger: &mut RunLedger,
        path: TaskPath,
        reason: String,
    ) {
        self.task_failures.set(self.task_failures.get() + 1);
        ledger.suspend(core.task_failed(self.now(), path, reason));
    }

    /// Relaunches the scope's top-level paths under the core's
    /// configuration — the launch, every drain's relaunch and a restart
    /// alike — beside the replicas still running, and confirms it to the
    /// core: instantiates the paths, installs them in the monitor, clears
    /// their suspend flags and submits their replicas.
    fn relaunch(
        &self,
        core: &mut ControlCore<'_>,
        ledger: &mut RunLedger,
        scope: &Scope,
        pause_secs: f64,
    ) -> Result<()> {
        let started = Instant::now();
        let paths = scope.paths(core.config());
        let launch = instantiate_paths(&self.descriptor, core.config(), &paths)?;
        self.shared.monitor.install(&paths, launch.tasks);
        self.export_failed_replicas();
        // The relaunched paths' share of the completion target restarts
        // with them, and they resume *before* the submit so the new
        // replicas never observe a stale suspend flag.
        for path in paths {
            let entry = ledger.paths.entry(path).or_default();
            entry.unfinished = 0;
            entry.suspend.store(false, Ordering::Release);
        }
        self.submit(ledger, launch.jobs)?;
        // A no-op for the launch; confirms every later relaunch.
        core.relaunched(
            self.now(),
            DrainTiming {
                pause_secs,
                relaunch_secs: started.elapsed().as_secs_f64(),
                jobs: ledger.remaining() as u64,
            },
        );
        Ok(())
    }

    /// Submits one relaunch's worker jobs, wiring each body to its
    /// top-level path's suspend flag and the run's done channel.
    fn submit(&self, ledger: &mut RunLedger, jobs: Vec<WorkerJob>) -> Result<()> {
        for job in jobs {
            let entry = ledger.paths.entry(top_level(&job.path)).or_default();
            entry.outstanding.push(job.path.clone());
            entry.unfinished += 1;
            let suspend = Arc::clone(&entry.suspend);
            let monitor = self.shared.monitor.clone();
            let window = self.window;
            let report = Report {
                notes: self.shared.notes.clone(),
                path: job.path,
                outcome: None,
            };
            self.pool.try_submit(move || {
                let mut cx = LiveCx::new(&monitor, suspend, &report.path, job.slot, window);
                let mut body = job.body;
                // The paper's TaskExecutor (Figure 4a): re-invoke while the
                // body reports EXECUTING. The suspend directive reaches the
                // body through begin/end; the *body* decides when it has
                // steered into a globally consistent state (drained its
                // queues) and yields — the executor must not cut it short.
                //
                // Supervision: a panic anywhere in init/invoke is caught
                // here so it can be *reported* as a first-class outcome;
                // the pool's own net only sees panics this wrapper
                // cannot express (and keeps the thread alive either way).
                let result = catch_unwind(AssertUnwindSafe(|| {
                    body.init();
                    loop {
                        let status = body.invoke(&mut cx);
                        if status.is_terminal() {
                            break status;
                        }
                        cx.invoke_returned();
                    }
                }));
                // Flushes the context's unrecorded tail before the
                // executive can learn that this replica is done.
                drop(cx);
                let failed = |payload: Box<dyn std::any::Any + Send>| TaskOutcome::Failed {
                    reason: panic_reason(payload.as_ref()),
                };
                let outcome = match result {
                    // A `fini` that panics after a clean finish fails the
                    // replica, as a panic in `invoke` does.
                    Ok(status) => catch_unwind(AssertUnwindSafe(|| body.fini(status)))
                        .map_or_else(failed, |()| TaskOutcome::Completed(status)),
                    Err(payload) => {
                        // The executive's contract is that `fini` always
                        // runs; a `fini` that panics in turn is contained
                        // rather than allowed to mask the original reason.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            body.fini(TaskStatus::Suspended);
                        }));
                        failed(payload)
                    }
                };
                report.send(outcome);
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "each test queue holds at most the items its test enqueues"
)]
mod tests {
    use super::*;
    use dope_core::{body_fn, TaskBody, TaskKind, TaskSpec, WorkerSlot};
    use dope_trace::TraceEvent;
    use std::sync::atomic::AtomicU64;

    /// A leaf task draining a shared queue of `n` items.
    fn drain_spec(name: &str, queue: WorkQueue<u64>, hits: Arc<AtomicU64>) -> TaskSpec {
        TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
            let queue = queue.clone();
            let hits = Arc::clone(&hits);
            Box::new(body_fn(move |cx| {
                cx.begin();
                let item = queue.dequeue_timeout(Duration::from_millis(2));
                cx.end();
                match item {
                    dope_workload::DequeueOutcome::Item(_) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        TaskStatus::Executing
                    }
                    dope_workload::DequeueOutcome::Drained => TaskStatus::Finished,
                    dope_workload::DequeueOutcome::TimedOut => {
                        if cx.directive().wants_suspend() {
                            TaskStatus::Suspended
                        } else {
                            TaskStatus::Executing
                        }
                    }
                }
            })) as Box<dyn TaskBody>
        })
    }

    /// The shape whose self-metered monitoring overhead read 7.4 % before
    /// timing was sampled: two ~1 µs stages joined by a queue. Budget: one
    /// timed invocation in 64 at ~165 ns plus 10 snapshots/s, over ~1 µs
    /// of work per invocation.
    #[test]
    fn monitoring_a_fine_grained_pipeline_costs_about_a_percent() {
        const ITEMS: u64 = 200_000;
        fn stage(
            name: &str,
            input: WorkQueue<u64>,
            output: Option<WorkQueue<u64>>,
            done: Arc<AtomicU64>,
        ) -> TaskSpec {
            TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
                let (input, output, done) = (input.clone(), output.clone(), Arc::clone(&done));
                Box::new(body_fn(move |cx| {
                    if cx.directive().wants_suspend() {
                        return TaskStatus::Suspended;
                    }
                    match input.dequeue_timeout(Duration::from_millis(2)) {
                        dope_workload::DequeueOutcome::Item(item) => {
                            cx.begin();
                            let t0 = Instant::now();
                            while t0.elapsed() < Duration::from_micros(1) {
                                std::hint::spin_loop();
                            }
                            cx.end();
                            match &output {
                                Some(next) => drop(next.enqueue(item)),
                                None => drop(done.fetch_add(1, Ordering::Relaxed)),
                            }
                            TaskStatus::Executing
                        }
                        dope_workload::DequeueOutcome::TimedOut => TaskStatus::Executing,
                        dope_workload::DequeueOutcome::Drained => {
                            if let Some(next) = &output {
                                next.close();
                            }
                            TaskStatus::Finished
                        }
                    }
                })) as Box<dyn TaskBody>
            })
        }
        let (first, second) = (WorkQueue::new(), WorkQueue::new());
        for i in 0..ITEMS {
            first.enqueue(i).unwrap();
        }
        first.close();
        let done = Arc::new(AtomicU64::new(0));
        let specs = vec![
            stage("s1", first, Some(second.clone()), Arc::clone(&done)),
            stage("s2", second, None, Arc::clone(&done)),
        ];
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .launch(specs)
            .unwrap();
        let monitor = dope.monitor();
        dope.wait().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), ITEMS);
        let ratio = monitor.monitoring_overhead_ratio();
        assert!(ratio < 0.015, "monitoring overhead {:.2} %", ratio * 100.0);
    }

    /// A nest whose only alternative is empty matches the arity rule
    /// (zero tasks against zero tasks) and would replicate nothing:
    /// `launch` refuses it with DV008, in debug and release alike.
    #[test]
    fn launch_gate_rejects_empty_nest() {
        let spec = TaskSpec::nest("hollow", TaskKind::Par, |_replica: u32| Vec::new());
        let refused = Dope::builder(Goal::MaxThroughput { threads: 4 }).launch(vec![spec]);
        match refused {
            Err(err) => assert_eq!(err.code(), dope_core::DiagCode::EmptyNest, "{err}"),
            Ok(_) => panic!("an empty nest launched"),
        }
    }

    /// The reconfiguration gate re-analyzes accepted proposals. A
    /// well-formed static mechanism must sail through it (the run below
    /// applies one reconfiguration, so the gate executes).
    #[test]
    fn reconfigure_gate_accepts_valid_proposals() {
        let queue = WorkQueue::new();
        for i in 0..2000u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        let pinned = Config::new(vec![dope_core::TaskConfig::leaf("drain", 2)]);
        let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
            .mechanism(Box::new(StaticMechanism::new(pinned.clone())))
            .control_period(Duration::from_millis(5))
            .launch(vec![spec])
            .unwrap();
        let report = dope.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2000);
        assert_eq!(report.final_config, pinned);
    }

    /// A recorded run captures the whole decision loop: launch, the
    /// accepted proposal, the reconfiguration epoch with its measured
    /// pause/relaunch latencies, and the terminal summary.
    #[test]
    fn attached_recorder_captures_the_decision_loop() {
        let queue = WorkQueue::new();
        for i in 0..200u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        // Each item takes ~1 ms so the run outlives several control
        // periods and the mechanism actually gets consulted.
        let q = queue.clone();
        let h = Arc::clone(&hits);
        let spec = TaskSpec::leaf(
            "drain",
            TaskKind::Par,
            move |_slot: dope_core::WorkerSlot| {
                let queue = q.clone();
                let hits = Arc::clone(&h);
                Box::new(dope_core::body_fn(move |cx| {
                    cx.begin();
                    let item = queue.dequeue_timeout(Duration::from_millis(2));
                    cx.end();
                    match item {
                        dope_workload::DequeueOutcome::Item(_) => {
                            std::thread::sleep(Duration::from_millis(1));
                            hits.fetch_add(1, Ordering::Relaxed);
                            // Each item is a consistent point: honoring
                            // the directive here lets the drain finish
                            // while the queue still holds work, which is
                            // what makes the delta path observable.
                            if cx.directive().wants_suspend() {
                                TaskStatus::Suspended
                            } else {
                                TaskStatus::Executing
                            }
                        }
                        dope_workload::DequeueOutcome::Drained => TaskStatus::Finished,
                        dope_workload::DequeueOutcome::TimedOut => {
                            if cx.directive().wants_suspend() {
                                TaskStatus::Suspended
                            } else {
                                TaskStatus::Executing
                            }
                        }
                    }
                })) as Box<dyn dope_core::TaskBody>
            },
        );
        let pinned = Config::new(vec![dope_core::TaskConfig::leaf("drain", 2)]);
        // Starts on the executive's even split, then proposes the pinned
        // config at the first decision point — guaranteeing exactly the
        // reconfiguration this test wants to see traced.
        struct OneShot {
            target: Config,
        }
        impl Mechanism for OneShot {
            fn name(&self) -> &'static str {
                "OneShot"
            }
            fn reconfigure(
                &mut self,
                _snap: &dope_core::MonitorSnapshot,
                _current: &Config,
                _shape: &ProgramShape,
                _res: &Resources,
            ) -> Option<Config> {
                Some(self.target.clone())
            }
        }
        let recorder = dope_trace::Recorder::bounded(4096);
        let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
            .mechanism(Box::new(OneShot {
                target: pinned.clone(),
            }))
            .control_period(Duration::from_millis(5))
            .recorder(recorder.clone())
            .launch(vec![spec])
            .unwrap();
        let report = dope.wait().unwrap();
        assert!(report.reconfigurations >= 1);

        let records = recorder.records();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.first(), Some(&"Launched"));
        assert_eq!(kinds.last(), Some(&"Finished"));
        // A control period is recorded once: the snapshot carries the
        // task rows, and no flattened sample copy rides beside it.
        assert!(records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::SnapshotTaken { snapshot } if !snapshot.tasks.is_empty()
        )));
        assert!(!kinds.contains(&"TaskStatsSample") && !kinds.contains(&"QueueSample"));
        assert!(kinds.contains(&"ProposalEvaluated"));
        assert!(kinds.contains(&"ReconfigureEpoch"));
        let epoch = records
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::ReconfigureEpoch {
                    pause_secs,
                    relaunch_secs,
                    jobs,
                    config,
                    scope,
                    paths_drained,
                } => Some((
                    *pause_secs,
                    *relaunch_secs,
                    *jobs,
                    config.clone(),
                    scope.clone(),
                    *paths_drained,
                )),
                _ => None,
            })
            .expect("a ReconfigureEpoch event");
        assert!(epoch.0 >= 0.0 && epoch.1 >= 0.0);
        assert_eq!(epoch.2, 2, "new epoch runs the pinned extent-2 jobs");
        assert_eq!(epoch.3, pinned);
        assert_eq!(
            epoch.4, "partial",
            "a single-leaf extent change takes the delta path"
        );
        assert_eq!(epoch.5, 1, "exactly the changed path drained");
    }

    /// A clean run reports a clean verdict and zero failure counters —
    /// the honest-report fields must not cry wolf.
    #[test]
    fn clean_run_reports_clean_verdict() {
        let queue = WorkQueue::new();
        for i in 0..100u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .launch(vec![spec])
            .unwrap();
        let report = dope.wait().unwrap();
        assert_eq!(report.task_failures, 0);
        assert_eq!(report.task_restarts, 0);
        assert_eq!(report.lost_jobs, 0);
        assert_eq!(report.failure_verdict, FailureVerdict::Clean);
    }

    /// If the control thread itself dies, `wait` must surface the panic
    /// payload — "the executive died" without a *why* is undebuggable.
    #[test]
    fn wait_surfaces_control_thread_panic_payload() {
        struct Exploding;
        impl Mechanism for Exploding {
            fn name(&self) -> &'static str {
                "Exploding"
            }
            fn reconfigure(
                &mut self,
                _snap: &dope_core::MonitorSnapshot,
                _current: &Config,
                _shape: &ProgramShape,
                _res: &Resources,
            ) -> Option<Config> {
                panic!("mechanism exploded");
            }
        }
        // A finite but slow drain: the run outlives the first control
        // tick (which detonates the mechanism), yet the workers finish
        // on their own so the pool can be torn down afterwards.
        let queue = WorkQueue::new();
        for i in 0..100u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let q = queue.clone();
        let h = Arc::clone(&hits);
        let spec = TaskSpec::leaf("drain", TaskKind::Par, move |_slot: WorkerSlot| {
            let queue = q.clone();
            let hits = Arc::clone(&h);
            Box::new(body_fn(move |cx| {
                cx.begin();
                let item = queue.dequeue_timeout(Duration::from_millis(2));
                cx.end();
                match item {
                    dope_workload::DequeueOutcome::Item(_) => {
                        std::thread::sleep(Duration::from_millis(1));
                        hits.fetch_add(1, Ordering::Relaxed);
                        TaskStatus::Executing
                    }
                    dope_workload::DequeueOutcome::Drained => TaskStatus::Finished,
                    dope_workload::DequeueOutcome::TimedOut => TaskStatus::Executing,
                }
            })) as Box<dyn TaskBody>
        });
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .mechanism(Box::new(Exploding))
            .control_period(Duration::from_millis(5))
            .launch(vec![spec])
            .unwrap();
        let err = dope.wait().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("executive control thread panicked"), "{text}");
        assert!(text.contains("mechanism exploded"), "{text}");
    }

    #[test]
    fn runs_to_completion_and_counts_work() {
        let queue = WorkQueue::new();
        for i in 0..500u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
            .launch(vec![spec])
            .unwrap();
        let report = dope.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        assert_eq!(report.reconfigurations, 0);
    }

    #[test]
    fn stop_interrupts_long_run() {
        let queue: WorkQueue<u64> = WorkQueue::new();
        // Never closed: tasks would run forever.
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .control_period(Duration::from_millis(5))
            .launch(vec![spec])
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        dope.stop();
        let report = dope.wait().unwrap();
        assert!(report.elapsed >= Duration::from_millis(30));
    }

    /// A degenerate admission policy must die at `launch`, not at the
    /// first offer: the builder validates and surfaces `DV017`.
    #[test]
    fn degenerate_admission_policy_fails_launch() {
        let queue = WorkQueue::new();
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        let err = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .admission(AdmissionPolicy::Shed { high_water: 0 })
            .launch(vec![spec])
            .unwrap_err();
        assert_eq!(err.code().to_string(), "DV017");
    }

    /// End-to-end admission wiring: producers offer through a shedding
    /// `AdmissionQueue`, workers drain it, and the builder-installed
    /// probe makes the pressure visible — in the monitor's snapshots,
    /// as the `AdmissionDecision` rows a reader derives from the trace,
    /// and in the gate's exported counters, which end at the gate's own
    /// totals.
    #[test]
    fn admission_gate_pressure_reaches_snapshots_trace_and_metrics() {
        let gate: dope_workload::AdmissionQueue<u64> =
            dope_workload::AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 4 });
        let hits = Arc::new(AtomicU64::new(0));
        let q = gate.clone();
        let h = Arc::clone(&hits);
        let spec = TaskSpec::leaf("serve", TaskKind::Par, move |_slot: WorkerSlot| {
            let gate = q.clone();
            let hits = Arc::clone(&h);
            Box::new(body_fn(move |cx| {
                cx.begin();
                let item = gate.take(Duration::from_millis(2));
                cx.end();
                match item {
                    dope_workload::DequeueOutcome::Item(_) => {
                        std::thread::sleep(Duration::from_millis(1));
                        hits.fetch_add(1, Ordering::Relaxed);
                        TaskStatus::Executing
                    }
                    dope_workload::DequeueOutcome::Drained => TaskStatus::Finished,
                    dope_workload::DequeueOutcome::TimedOut => {
                        if cx.directive().wants_suspend() {
                            TaskStatus::Suspended
                        } else {
                            TaskStatus::Executing
                        }
                    }
                }
            })) as Box<dyn TaskBody>
        });
        let recorder = dope_trace::Recorder::bounded(4096);
        let registry = MetricsRegistry::new();
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .admission(gate.policy())
            .admission_probe(gate.stats_probe())
            .control_period(Duration::from_millis(5))
            .recorder(recorder.clone())
            .metrics(registry.clone())
            .launch(vec![spec])
            .unwrap();
        // An offer storm against slow workers: the watermark guarantees
        // sheds, the drain guarantees completions.
        for i in 0..400u64 {
            let _ = gate.offer(i);
        }
        // Let at least one pressured control period elapse, then close
        // the gate so the epoch drains.
        std::thread::sleep(Duration::from_millis(40));
        gate.close();
        dope.wait().unwrap();

        let stats = gate.stats();
        assert_eq!(stats.offered, 400);
        assert!(stats.shed_high_water > 0, "the storm must overflow");
        assert_eq!(stats.offered, stats.admitted + stats.shed_high_water);
        assert_eq!(hits.load(Ordering::Relaxed), stats.admitted);
        // The policy is declared once, at launch; a pressured period's
        // snapshot reads as a shed window.
        let records = recorder.records();
        assert!(matches!(
            &records[0].event,
            TraceEvent::Launched { admission, .. } if admission == "shed"
        ));
        let timeline = dope_trace::render_timeline(&records);
        assert!(
            timeline.contains("ADMIT    shed verdict=shed"),
            "{timeline}"
        );
        let text = registry.render();
        let admitted = format!("dope_admitted_total {}", stats.admitted);
        assert!(text.contains(&admitted), "{text}");
        let shed = format!(
            "dope_shed_total{{reason=\"high_water\"}} {}",
            stats.shed_high_water
        );
        assert!(text.contains(&shed), "{text}");
        assert!(
            text.contains("dope_shed_total{reason=\"deadline\"} 0"),
            "{text}"
        );
    }

    /// The lock-rank guard checks the acquisitions a run actually makes,
    /// so this run makes all of them: launch, a snapshot and a scrape
    /// from this thread, a partial reconfiguration, a replica failure
    /// with a restart, and the final drain. A descending acquisition on
    /// the executive thread would surface from `wait()`, one on a worker
    /// as a surplus task failure; this thread's own chains are asserted.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the lock-rank guard is compiled out in release builds"
    )]
    fn every_rank_is_acquired_by_a_live_run() {
        use crate::lockrank::{chains_on_this_thread, rank};

        /// Widens `fast` at the first consult, then holds.
        struct Widen(bool);
        impl Mechanism for Widen {
            fn name(&self) -> &'static str {
                "Widen"
            }
            fn initial(&mut self, _: &ProgramShape, _: &Resources) -> Option<Config> {
                Some(pair(1))
            }
            fn reconfigure(
                &mut self,
                _: &MonitorSnapshot,
                _: &Config,
                _: &ProgramShape,
                _: &Resources,
            ) -> Option<Config> {
                (!std::mem::replace(&mut self.0, true)).then(|| pair(2))
            }
        }
        fn pair(fast: u32) -> Config {
            Config::new(vec![
                dope_core::TaskConfig::leaf("fast", fast),
                dope_core::TaskConfig::leaf("slow", 1),
            ])
        }
        const POISON: u64 = u64::MAX;

        let (fast, slow) = (WorkQueue::new(), WorkQueue::new());
        let hits = Arc::new(AtomicU64::new(0));
        let poisoned = slow.clone();
        let slow_spec = TaskSpec::leaf("slow", TaskKind::Par, move |_slot: WorkerSlot| {
            let queue = poisoned.clone();
            Box::new(body_fn(move |cx| {
                cx.begin();
                let item = queue.dequeue_timeout(Duration::from_millis(2));
                cx.end();
                match item {
                    dope_workload::DequeueOutcome::Item(POISON) => panic!("poisoned item"),
                    dope_workload::DequeueOutcome::Drained => TaskStatus::Finished,
                    _ if cx.directive().wants_suspend() => TaskStatus::Suspended,
                    _ => TaskStatus::Executing,
                }
            })) as Box<dyn TaskBody>
        });
        let recorder = Recorder::bounded(4096);
        let registry = MetricsRegistry::new();
        let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
            .mechanism(Box::new(Widen(false)))
            .control_period(Duration::from_millis(5))
            .failure_policy(FailurePolicy::Restart {
                max_retries: 1,
                backoff: Duration::ZERO,
            })
            .recorder(recorder.clone())
            .metrics(registry.clone())
            .launch(vec![
                drain_spec("fast", fast.clone(), Arc::clone(&hits)),
                slow_spec,
            ])
            .unwrap();
        for i in 0..100u64 {
            fast.enqueue(i).unwrap();
        }

        // Workers create their path's cell when they start: wait for both.
        let deadline = Instant::now() + Duration::from_secs(10);
        while dope.monitor().snapshot().tasks.len() < 2 {
            assert!(Instant::now() < deadline, "replicas never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = chains_on_this_thread();
        let _ = dope.monitor().snapshot();
        assert!(registry.render().contains(names::TASK_INVOCATIONS_TOTAL));
        let acquired: Vec<Vec<u32>> = chains_on_this_thread()
            .into_iter()
            .filter(|(chain, count)| before.get(chain) != Some(count))
            .map(|(chain, _)| chain)
            .collect();
        for row in rank::ORDER {
            assert!(
                acquired.iter().any(|chain| chain.last() == Some(&row.0)),
                "`{}` (rank {}) was never acquired: {acquired:?}",
                row.1,
                row.0
            );
        }
        let nested = vec![rank::PATHS.0, rank::EPOCH.0, rank::SHARDS.0];
        assert!(acquired.contains(&nested), "{acquired:?}");

        // The failure comes after the partial boundary, so both the splice
        // and the failure path's full relaunch run under the guard.
        let partial = |r: &dope_trace::TraceRecord| matches!(&r.event, TraceEvent::ReconfigureEpoch { scope, .. } if scope == "partial");
        while !recorder.records().iter().any(partial) {
            assert!(Instant::now() < deadline, "no partial reconfiguration");
            std::thread::sleep(Duration::from_millis(1));
        }
        slow.enqueue(POISON).unwrap();
        slow.close();
        fast.close();
        let report = dope.wait().expect("no guard panic on the executive thread");
        assert_eq!(report.final_config, pair(2));
        assert_eq!((report.task_failures, report.task_restarts), (1, 1));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn static_mechanism_reconfigures_once_then_settles() {
        let queue = WorkQueue::new();
        for i in 0..2000u64 {
            queue.enqueue(i).unwrap();
        }
        queue.close();
        let hits = Arc::new(AtomicU64::new(0));
        let spec = drain_spec("drain", queue, Arc::clone(&hits));
        // The mechanism pins extent 3, while the initial even split uses 4.
        let target = Config::new(vec![dope_core::TaskConfig::leaf("drain", 3)]);
        let mut mech = StaticMechanism::new(target.clone());
        // Force a different initial config.
        let shape = ProgramShape::new(vec![dope_core::ShapeNode::leaf("drain", TaskKind::Par)]);
        let _ = &mut mech;
        let _ = shape;
        let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
            .mechanism(Box::new(mech))
            .control_period(Duration::from_millis(5))
            .launch(vec![spec])
            .unwrap();
        let report = dope.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2000);
        assert_eq!(report.final_config, target);
    }

    /// A report is posted once whether its job reached `send` or not: a
    /// job dropped unrun, or unwound past its own containment, still
    /// reports — with no outcome, which the run counts as lost work.
    #[test]
    fn a_report_posts_once_sent_or_dropped() {
        let notes = WorkQueue::new();
        let report = || Report {
            notes: notes.clone(),
            path: TaskPath::root_child(0),
            outcome: None,
        };
        report().send(TaskOutcome::Completed(TaskStatus::Finished));
        drop(report());
        notes.close();
        let posted: Vec<_> = std::iter::from_fn(|| notes.dequeue())
            .map(|note| match note {
                Note::Done(_, outcome) => outcome,
                Note::Stop => panic!("no stop was requested"),
            })
            .collect();
        assert_eq!(
            posted,
            vec![Some(TaskOutcome::Completed(TaskStatus::Finished)), None]
        );
    }
}
