//! The DoPE-Executive: launch, monitor, reconfigure, finish.

use crate::carrier::{self, Joiner};
use crate::instance::{instantiate_paths, LiveCx, WorkerJob};
use crate::monitor::{AdmissionProbe, Monitor, QueueProbe};
use crate::pool::WorkerPool;
use dope_core::control::{Action, ControlCore, ControlSink, DrainTiming, Rules, Scope, Verdict};
use dope_core::{
    AdmissionPolicy, AdmissionStats, Config, DecisionTrace, Error, FailurePolicy, FailureVerdict,
    Goal, Mechanism, MonitorSnapshot, ProgramShape, QueueStats, Resources, Result, StaticMechanism,
    TaskOutcome, TaskPath, TaskSpec, TaskStatus,
};
use dope_metrics::{names, Counter, Gauge, Histogram, MetricsRegistry};
use dope_platform::FeatureRegistry;
use dope_trace::{Recorder, RecordingObserver};
use dope_workload::{DequeueOutcome, SuspendFlag, WorkQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    pub config_history: Vec<(f64, Arc<Config>)>,
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
    /// budget). It may only oversubscribe, as baselines do: `launch`
    /// refuses a size below the budget with [`Error::Usage`], since
    /// replicas of a configuration within the budget could then wait for
    /// a thread forever.
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
    /// Returns an error if the descriptor declares no tasks (a run with
    /// nothing to execute would never finish), [`pool_threads`](Self::pool_threads)
    /// is below the goal's thread budget, the initial configuration
    /// fails validation, or the descriptor cannot be instantiated.
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
    control: Option<Joiner<Result<RunReport>>>,
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

    /// The live monitor (snapshots, overhead meter, dead replicas).
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
        if descriptor.is_empty() {
            return Err(Error::Usage("the descriptor declares no tasks".to_string()));
        }
        builder.admission.validate()?;
        let goal = builder.goal;
        let budget = goal.threads().max(1);
        let pool_threads = builder.pool_threads.unwrap_or(budget);
        if pool_threads < budget {
            return Err(Error::Usage(format!(
                "pool_threads({pool_threads}) is below the goal's thread budget of {budget}: \
                 replicas of a configuration within the budget would never run"
            )));
        }
        let shape = ProgramShape::of_specs(&descriptor);
        let res = Resources {
            threads: budget,
            power_budget_watts: goal.power_budget_watts(),
        };

        let mut mechanism: Box<dyn Mechanism> = builder.mechanism.unwrap_or_else(|| {
            Box::new(StaticMechanism::new(Config::even(&shape, budget)).named("Static-Even"))
        });

        let initial: Arc<Config> = mechanism
            .initial(&shape, &res)
            .unwrap_or_else(|| Config::even(&shape, budget))
            .into();
        initial.validate(&shape, pool_threads)?;

        let monitor = Monitor::with_sources(
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

        let pool = WorkerPool::new(pool_threads);
        if let Some(registry) = &builder.metrics {
            pool.register_metrics(registry);
        }
        let executive = Executive {
            suspend: shape.tasks.iter().map(|_| Arc::default()).collect(),
            descriptor,
            shape,
            res,
            pool,
            shared: Arc::clone(&shared),
            control_period: builder.control_period,
            rules: Rules {
                budget,
                delta: builder.delta_reconfig,
                policy: builder.failure_policy,
            },
            metrics: builder.metrics.as_ref().map(ExecMetrics::new),
        };
        let control = carrier::spawn(&carrier::EXECUTIVE, move || {
            executive.run(mechanism, initial, observer)
        })
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
        proposal: &Arc<Config>,
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

    fn reconfigured(
        &mut self,
        time: f64,
        config: &Arc<Config>,
        scope: &Scope,
        timing: DrainTiming,
    ) {
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

/// Everything the control thread owns: the live driver of the
/// [`ControlCore`]. The core decides and keeps the books; this keeps
/// only what is genuinely live — the clock, suspend flags, pool
/// submits, the done channel and metrics.
struct Executive {
    descriptor: Vec<TaskSpec>,
    shape: ProgramShape,
    res: Resources,
    pool: WorkerPool,
    shared: Arc<Shared>,
    control_period: Duration,
    rules: Rules,
    metrics: Option<ExecMetrics>,
    /// One suspend flag per top-level path, by index, read by every
    /// replica under it: a drain sets it for exactly the paths it
    /// suspends — waking their replicas parked in `take_for` — and their
    /// relaunch clears it.
    suspend: Vec<Arc<SuspendFlag>>,
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
        initial: Arc<Config>,
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
        // One last look, over the last whole period however soon after a
        // tick the run stopped: a held decision's score, the final series.
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
        Ok(RunReport {
            elapsed: Duration::from_secs_f64(self.now()),
            reconfigurations: control.reconfigurations,
            rejected_configs: control.rejected,
            final_config: control.final_config,
            config_history: control.config_history,
            task_failures: control.task_failures,
            task_restarts: control.restarts,
            lost_jobs: control.lost_jobs,
            failure_verdict: control.failure_verdict,
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

    /// Launches every top-level path, then feeds the core one input at a
    /// time — a tick, a replica's report, a stop note — and does the
    /// action it returns, until the core says the run is over.
    fn drive(&self, core: &mut ControlCore<'_>) -> Result<()> {
        let mut action = Action::Relaunch(Scope::Full);
        // Control ticks run off an absolute deadline: driving the timer
        // from the wait's timeout alone reset it on every completion, so
        // a flood of completions starved the mechanism of consults.
        let mut next_tick = Instant::now() + self.control_period;
        loop {
            match action {
                Action::Continue => {}
                Action::SuspendPaths(paths) => {
                    for path in &paths {
                        self.suspend[path.top_index()].set();
                    }
                    core.suspended(self.now());
                }
                Action::Relaunch(scope) => self.relaunch(core, &scope)?,
                Action::Restart { replicas, backoff } => {
                    if let Some(m) = &self.metrics {
                        m.task_restarts.add(replicas);
                    }
                    // Nothing runs during the back-off: the one note that
                    // can end it early is a stop.
                    action = match self.shared.notes.dequeue_timeout(backoff).item() {
                        Some(_) => core.stop(self.now()),
                        None => Action::Relaunch(Scope::Full),
                    };
                    continue;
                }
                Action::Finish => return Ok(()),
                Action::Abort(err) => return Err(err),
            }
            action = if Instant::now() >= next_tick {
                next_tick = Instant::now() + self.control_period;
                if core.is_running() {
                    let snap = self.shared.monitor.close_period();
                    core.tick(snap.time_secs, &snap) // stamped with its snapshot's time
                } else {
                    Action::Continue
                }
            } else {
                let wait = next_tick.saturating_duration_since(Instant::now());
                match self.shared.notes.dequeue_timeout(wait) {
                    DequeueOutcome::Item(Note::Done(path, outcome)) => {
                        core.reported(self.now(), path, outcome)
                    }
                    DequeueOutcome::Item(Note::Stop) => core.stop(self.now()),
                    DequeueOutcome::TimedOut | DequeueOutcome::Drained => Action::Continue,
                }
            };
        }
    }

    /// Relaunches the scope's top-level paths under the core's
    /// configuration — the launch, every drain's relaunch and a restart
    /// alike — beside the replicas still running, and confirms it to the
    /// core: instantiates the paths, installs them in the monitor, clears
    /// their suspend flags and submits their replicas.
    fn relaunch(&self, core: &mut ControlCore<'_>, scope: &Scope) -> Result<()> {
        let started = Instant::now();
        let paths = scope.paths(core.config());
        let launch = instantiate_paths(&self.descriptor, core.config(), &paths)?;
        self.shared.monitor.install(&paths, launch.tasks);
        self.export_failed_replicas();
        // The relaunched paths resume *before* the submit so the new
        // replicas never observe a stale suspend flag.
        for path in &paths {
            self.suspend[path.top_index()].clear();
        }
        let launched: Vec<TaskPath> = launch.jobs.iter().map(|job| job.path.clone()).collect();
        self.submit(launch.jobs)?;
        core.relaunched(self.now(), started.elapsed().as_secs_f64(), &launched);
        Ok(())
    }

    /// Submits one relaunch's worker jobs, wiring each body to its leaf's
    /// row, its top-level path's suspend flag and the run's done channel.
    fn submit(&self, jobs: Vec<WorkerJob>) -> Result<()> {
        for job in jobs {
            let Some(stats) = self.shared.monitor.stats_for(&job.path) else {
                return Err(Error::UnknownPath { path: job.path });
            };
            let suspend = Arc::clone(&self.suspend[job.path.top_index()]);
            let report = Report {
                notes: self.shared.notes.clone(),
                path: job.path,
                outcome: None,
            };
            self.pool.try_submit(move || {
                let mut cx = LiveCx::new(&stats, suspend);
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
// The integration tests' harness: the trace rules, the scripted mechanism
// and the queue-draining leaf. Compiled here too, it may name only the
// crates this one depends on (see its module doc).
#[path = "../../../tests/support/mod.rs"]
#[expect(
    clippy::disallowed_methods,
    reason = "a harness queue holds at most the items its test enqueues"
)]
mod support;

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "each test queue holds at most the items its test enqueues"
)]
mod tests {
    use super::support::{check, Leaf, Point, Scripted};
    use super::*;
    use dope_core::{body_fn, TaskBody, TaskKind, TaskSpec, WorkerSlot};
    use dope_trace::TraceEvent;
    use dope_workload::Waited;
    use std::sync::atomic::AtomicU64;

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
                Box::new(body_fn(move |cx| match input.dequeue_for(cx) {
                    Waited::Item(item) => {
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
                    Waited::Suspended => TaskStatus::Suspended,
                    Waited::Closed => {
                        if let Some(next) = &output {
                            next.close();
                        }
                        TaskStatus::Finished
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

    /// The lock-rank guard checks the acquisitions a run actually makes,
    /// so this run makes all of them: launch, a partial reconfiguration,
    /// a snapshot and a scrape from this thread, a replica failure with a
    /// restart, and the final drain. A descending acquisition on
    /// the executive thread would surface from `wait()`, one on a worker
    /// as a surplus task failure; this thread's own chains are asserted.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the lock-rank guard is compiled out in release builds"
    )]
    fn every_rank_is_acquired_by_a_live_run() {
        use crate::lockrank::{chains_on_this_thread, rank};

        fn pair(fast: u32) -> Config {
            Config::new(vec![
                dope_core::TaskConfig::leaf("fast", fast),
                dope_core::TaskConfig::leaf("slow", 1),
            ])
        }
        const POISON: u64 = u64::MAX;

        let (fast, slow) = (WorkQueue::new(), WorkQueue::new());
        let hits = Arc::new(AtomicU64::new(0));
        let slow_spec = Leaf::new("slow", slow.clone())
            .fault(|_, point| {
                assert_ne!(point, Point::Took(POISON), "poisoned item");
                true
            })
            .spec();
        let recorder = Recorder::bounded(4096);
        let registry = MetricsRegistry::new();
        // Launch takes the idle carriers; the snapshot and the scrape
        // below take the monitor's locks.
        let before = chains_on_this_thread();
        let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
            .mechanism(Box::new(Scripted::once(0, pair(2)).starting(pair(1))))
            .control_period(Duration::from_millis(5))
            .failure_policy(FailurePolicy::Restart {
                max_retries: 1,
                backoff: Duration::ZERO,
            })
            .recorder(recorder.clone())
            .metrics(registry.clone())
            .launch(vec![
                Leaf::new("fast", fast.clone()).hits(&hits).spec(),
                slow_spec,
            ])
            .unwrap();
        for i in 0..100u64 {
            fast.enqueue(i).unwrap();
        }

        // The failure comes after the partial boundary, so both the splice
        // and the failure path's full relaunch run under the guard.
        let epochs = || {
            let records = recorder.records();
            (records.iter())
                .filter_map(|r| match &r.event {
                    TraceEvent::ReconfigureEpoch {
                        scope,
                        paths_drained,
                        ..
                    } => Some((scope.to_string(), *paths_drained)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !epochs().iter().any(|(scope, _)| scope == "partial") {
            assert!(Instant::now() < deadline, "no partial reconfiguration");
            std::thread::sleep(Duration::from_millis(1));
        }
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
        let nested = vec![rank::PATHS.0, rank::SHARDS.0];
        assert!(acquired.contains(&nested), "{acquired:?}");

        slow.enqueue(POISON).unwrap();
        slow.close();
        fast.close();
        let report = dope.wait().expect("no guard panic on the executive thread");
        check(&recorder.records(), true);
        assert_eq!(epochs(), [("partial".to_string(), 1)]);
        assert_eq!(report.final_config, pair(2));
        assert_eq!((report.task_failures, report.task_restarts), (1, 1));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
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
