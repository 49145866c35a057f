//! The DoPE-Executive: launch, monitor, reconfigure, finish.

use crate::instance::{instantiate, instantiate_paths, LiveCx, WorkerJob};
use crate::monitor::Monitor;
use crate::pool::WorkerPool;
use dope_core::{
    realized_throughput, AdmissionPolicy, AdmissionStats, Config, DecisionTrace, Error,
    FailurePolicy, FailureVerdict, Goal, Mechanism, ProgramShape, QueueStats, Resources, Result,
    StaticMechanism, TaskOutcome, TaskPath, TaskSpec, TaskStatus,
};
use dope_metrics::{names, Counter, Histogram, MetricsRegistry};
use dope_platform::{FeatureObserver, FeatureRegistry};
use dope_trace::{Recorder, TraceEvent, Verdict};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
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
    queue_probe: Option<Arc<dyn Fn() -> QueueStats + Send + Sync>>,
    admission: AdmissionPolicy,
    admission_probe: Option<Arc<dyn Fn() -> AdmissionStats + Send + Sync>>,
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
    /// degenerate policy and tags the admission samples the monitor
    /// records with the policy kind.
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Installs the admission-gate probe behind `snapshot().admission`
    /// (pass `AdmissionQueue::stats_probe()`): the monitor then polls
    /// the gate's cumulative counters into every snapshot — so
    /// mechanisms see admission pressure as a monitored signal — and,
    /// when a recorder or metrics registry is attached, emits one
    /// `AdmissionDecision` trace event per pressured control period and
    /// exports `dope_admitted_total` / `dope_shed_total` /
    /// `dope_admission_queue_delay`.
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
    /// records `Launched`, `SnapshotTaken`, `ProposalEvaluated`,
    /// `ReconfigureEpoch` (with measured pause/relaunch latencies), and
    /// `Finished` events; the monitor records per-task and queue samples;
    /// and platform feature reads record `FeatureRead`. A
    /// [`Recorder::disabled`] handle (the default) keeps every hook a
    /// no-op.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a live metrics registry (see `dope-metrics`): the
    /// monitor then exports per-task `dope_task_exec_seconds` latency
    /// histograms, queue gauges, and its self-measured overhead; the
    /// executive exports `dope_reconfigure_epochs_total`, measured
    /// pause/relaunch latency histograms, and per-verdict proposal
    /// counts; the pool exports dispatch/park counters; and platform
    /// feature reads mirror into the `dope_power_watts` gauge. Serve the
    /// same registry with `dope_metrics::MetricsServer` to scrape the
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
    /// the epoch (up to a retry budget, with backoff); `Degrade` drops
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
    /// default). When enabled, an accepted proposal that only changes
    /// the extent of top-level leaf tasks drains *just those paths* to a
    /// consistent point and splices the relaunched replicas into the
    /// running epoch — every other replica keeps executing across the
    /// boundary. Structural changes (and every drain triggered by stop
    /// or a failure policy) always take the full-drain path. Disable to
    /// force the paper's original drain-the-world protocol, e.g. for
    /// A/B latency measurements.
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
    suspend: Arc<AtomicBool>,
    stop: AtomicBool,
    monitor: Monitor,
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
        self.shared.stop.store(true, Ordering::Release);
        self.shared.suspend.store(true, Ordering::Release);
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

        let recorder = builder.recorder;
        recorder.record_with(|| TraceEvent::Launched {
            mechanism: mechanism.name().to_string(),
            goal: goal.to_string(),
            threads: budget,
            shape: shape.clone(),
            config: initial.clone(),
        });

        let monitor = Monitor::new(builder.throughput_window, 0.25, builder.features.clone());
        if let Some(probe) = &builder.queue_probe {
            let probe = Arc::clone(probe);
            monitor.set_queue_probe(move || probe());
        }
        if let Some(probe) = &builder.admission_probe {
            let probe = Arc::clone(probe);
            monitor.set_admission_probe(builder.admission.kind(), move || probe());
        }
        if recorder.is_enabled() {
            monitor.set_recorder(recorder.clone());
        }
        let exec_metrics = builder.metrics.as_ref().map(|registry| {
            monitor.set_metrics(registry.clone());
            ExecMetrics::new(registry)
        });
        // The feature registry has a single observer slot, so the
        // flight-recorder hook and the platform metrics mirror compose
        // into one closure.
        let mut observers: Vec<FeatureObserver> = Vec::new();
        if recorder.is_enabled() {
            let feature_recorder = recorder.clone();
            observers.push(Arc::new(move |feature: &str, value: f64| {
                feature_recorder.record(TraceEvent::FeatureRead {
                    feature: feature.to_string(),
                    value,
                });
            }));
        }
        if let Some(registry) = &builder.metrics {
            observers.push(dope_platform::metrics_observer(registry));
        }
        if !observers.is_empty() {
            builder
                .features
                .set_observer(Some(Arc::new(move |feature: &str, value: f64| {
                    for observer in &observers {
                        observer(feature, value);
                    }
                })));
        }

        let shared = Arc::new(Shared {
            suspend: Arc::new(AtomicBool::new(false)),
            stop: AtomicBool::new(false),
            monitor: monitor.clone(),
        });

        let pool = WorkerPool::new(builder.pool_threads.unwrap_or(budget).max(1));
        if let Some(registry) = &builder.metrics {
            pool.register_metrics(registry);
        }
        let control_period = builder.control_period;
        let window = builder.throughput_window;
        let failure_policy = builder.failure_policy;
        let delta_enabled = builder.delta_reconfig;
        let shared_for_thread = Arc::clone(&shared);

        let control = std::thread::Builder::new()
            .name("dope-executive".to_string())
            .spawn(move || {
                run_control_loop(
                    &descriptor,
                    &shape,
                    initial,
                    mechanism.as_mut(),
                    res,
                    &pool,
                    &shared_for_thread,
                    control_period,
                    window,
                    failure_policy,
                    delta_enabled,
                    &recorder,
                    exec_metrics.as_ref(),
                )
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

/// Registry handles for the executive's own metric series.
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
    prediction_over: Arc<Histogram>,
    prediction_under: Arc<Histogram>,
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
            prediction_over: registry.histogram_with_labels(
                names::MECHANISM_PREDICTION_ERROR,
                "Magnitude of the mechanism's relative throughput-prediction error, by sign",
                &[("sign", "over")],
            ),
            prediction_under: registry.histogram_with_labels(
                names::MECHANISM_PREDICTION_ERROR,
                "Magnitude of the mechanism's relative throughput-prediction error, by sign",
                &[("sign", "under")],
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
}

/// Emits one held decision, scored against `realized` (the bottleneck
/// throughput of the snapshot that followed it), stamped at the
/// decision's own time, and feeds the same score to the metrics.
fn emit_decision(
    recorder: &Recorder,
    metrics: Option<&ExecMetrics>,
    time_secs: f64,
    mechanism: String,
    trace: DecisionTrace,
    realized: Option<f64>,
) {
    let event = TraceEvent::decision(mechanism, trace, realized);
    if let (
        Some(m),
        TraceEvent::DecisionTraced {
            rationale,
            prediction_error,
            ..
        },
    ) = (metrics, &event)
    {
        m.record_decision(rationale.code(), *prediction_error);
    }
    recorder.record_at(time_secs, event);
}

/// Debug-build verification gate.
///
/// Every configuration the executive accepts — the initial one at
/// launch and each mechanism proposal that survives
/// [`Config::validate`] at a reconfiguration decision — is additionally
/// run through the `dope-verify` static analyzer in debug builds. The
/// analyzer is strictly stronger than the validator (it also rejects
/// degenerate trees such as empty nests), so a panic here means a
/// mechanism or shape produced something the first-error-wins validator
/// is blind to. Release builds compile this to nothing.
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

/// An in-flight partial (delta) reconfiguration: the accepted target
/// configuration, the paths being steered to a consistent point, and
/// when the drain started (for the measured pause latency).
struct PartialDrain {
    target: Config,
    changed: Vec<TaskPath>,
    started: Instant,
}

/// Traces an accepted-but-discarded reconfiguration target: a failure
/// or stop raced the drain and the epoch the target was meant for no
/// longer exists, so the proposal is retired as `superseded` instead of
/// being dropped without a trace.
fn record_superseded(recorder: &Recorder, mechanism: &str, proposal: Config) {
    recorder.record_with(|| TraceEvent::ProposalEvaluated {
        mechanism: mechanism.to_string(),
        proposal,
        verdict: Verdict::Superseded,
    });
}

/// Submits one batch of worker jobs — a full epoch or a partial
/// relaunch — wiring each body to the global and per-path suspend flags
/// and the epoch's done channel, and folding the batch into the epoch's
/// accounting maps under `generation`.
#[allow(clippy::too_many_arguments)]
fn submit_epoch_jobs(
    jobs: Vec<WorkerJob>,
    generation: u64,
    pool: &WorkerPool,
    shared: &Shared,
    path_flags: &HashMap<TaskPath, Arc<AtomicBool>>,
    window: Duration,
    done_tx: &mpsc::Sender<(TaskPath, u64, TaskOutcome)>,
    unreported: &mut HashMap<(TaskPath, u64), u32>,
    per_path_outstanding: &mut HashMap<TaskPath, usize>,
    submitted_by_path: &mut HashMap<TaskPath, usize>,
    remaining: &mut usize,
) -> Result<()> {
    for job in jobs {
        *unreported
            .entry((job.path.clone(), generation))
            .or_insert(0) += 1;
        *per_path_outstanding.entry(job.path.clone()).or_insert(0) += 1;
        *submitted_by_path.entry(job.path.clone()).or_insert(0) += 1;
        *remaining += 1;
        let monitor = shared.monitor.clone();
        let suspend = Arc::clone(&shared.suspend);
        let path_suspend = path_flags.get(&job.path).cloned().unwrap_or_default();
        let done = done_tx.clone();
        pool.try_submit(move || {
            let mut cx = LiveCx::new(&monitor, suspend, path_suspend, &job.path, job.slot, window);
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
                }
            }));
            let outcome = match result {
                Ok(status) => {
                    body.fini(status);
                    TaskOutcome::Completed(status)
                }
                Err(payload) => {
                    let reason = panic_reason(payload.as_ref());
                    // The executive's contract is that `fini` always
                    // runs; a `fini` that panics in turn is contained
                    // rather than allowed to mask the original reason.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        body.fini(TaskStatus::Suspended);
                    }));
                    TaskOutcome::Failed { reason }
                }
            };
            let _ = done.send((job.path, generation, outcome));
        })?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
#[allow(clippy::too_many_lines)]
fn run_control_loop(
    descriptor: &[TaskSpec],
    shape: &ProgramShape,
    initial: Config,
    mechanism: &mut dyn Mechanism,
    res: Resources,
    pool: &WorkerPool,
    shared: &Shared,
    control_period: Duration,
    window: Duration,
    policy: FailurePolicy,
    delta_enabled: bool,
    recorder: &Recorder,
    metrics: Option<&ExecMetrics>,
) -> Result<RunReport> {
    let start = Instant::now();
    let mut config = initial;
    let mut reconfigurations: u64 = 0;
    let mut rejected: u64 = 0;
    let mut history = vec![(0.0, config.clone())];
    let budget = res.threads;
    // Pause latency of a completed drain, waiting for the relaunch half
    // of its `ReconfigureEpoch` event.
    let mut pending_pause: Option<f64> = None;
    // The last explained decision, held for one control period so its
    // throughput prediction can be scored against the *next* snapshot's
    // realized bottleneck throughput before the `DecisionTraced` event
    // goes out.
    let mut pending_decision: Option<(f64, String, DecisionTrace)> = None;
    let audit_decisions = recorder.is_enabled() || metrics.is_some();
    // Failure accounting for the honest RunReport.
    let mut task_failures: u64 = 0;
    let mut task_restarts: u64 = 0;
    let mut lost_jobs: u64 = 0;
    let mut restarts_used: u64 = 0;
    let mut verdict = FailureVerdict::Clean;

    'epochs: loop {
        // Launch the epoch.
        let relaunch_started = Instant::now();
        let epoch = instantiate(descriptor, &config)?;
        shared
            .monitor
            .install_epoch(epoch.load_cbs, epoch.extents.clone());
        shared.suspend.store(false, Ordering::Release);

        // One suspend flag per live path: a partial (delta) drain flips
        // only the changed paths' flags, while stop and full drains keep
        // using the global flag. Workers suspend on the union.
        let mut path_flags: HashMap<TaskPath, Arc<AtomicBool>> = HashMap::new();
        for job in &epoch.jobs {
            path_flags.entry(job.path.clone()).or_default();
        }

        // dope-lint: allow(DL005): depth is bounded by the epoch's job count — every sender is one submitted job (plus the executive's handle kept for partial relaunches), and the epoch drains before the next one launches
        let (done_tx, done_rx) = mpsc::channel::<(TaskPath, u64, TaskOutcome)>();
        // Replicas submitted per (path, generation), decremented as
        // outcomes arrive: whatever is left when the epoch breaks early
        // is lost work. The generation counts partial relaunches, so a
        // relaunched path's old and new replicas stay distinct.
        let mut unreported: HashMap<(TaskPath, u64), u32> = HashMap::new();
        let mut per_path_outstanding: HashMap<TaskPath, usize> = HashMap::new();
        let mut submitted_by_path: HashMap<TaskPath, usize> = HashMap::new();
        let mut finished_by_path: HashMap<TaskPath, usize> = HashMap::new();
        let mut generation: u64 = 0;
        let mut remaining: usize = 0;
        // Finished outcomes the program needs to count as complete; a
        // partial relaunch retires the drained paths' share and adds the
        // relaunched replicas'.
        let mut expected_finishes = epoch.jobs.len();
        submit_epoch_jobs(
            epoch.jobs,
            generation,
            pool,
            shared,
            &path_flags,
            window,
            &done_tx,
            &mut unreported,
            &mut per_path_outstanding,
            &mut submitted_by_path,
            &mut remaining,
        )?;
        if let Some(pause_secs) = pending_pause.take() {
            let relaunch_secs = relaunch_started.elapsed().as_secs_f64();
            let jobs = remaining as u64;
            let paths_drained = config.paths().len() as u64;
            let config_now = &config;
            recorder.record_with(|| TraceEvent::ReconfigureEpoch {
                pause_secs,
                relaunch_secs,
                jobs,
                config: config_now.clone(),
                scope: "full".to_string(),
                paths_drained,
            });
            if let Some(m) = metrics {
                m.epochs.inc();
                m.pause.record_secs(pause_secs);
                m.relaunch.record_secs(relaunch_secs);
                m.paths_drained.record_secs(paths_drained as f64);
            }
        }

        // Monitor until the epoch ends or a reconfiguration triggers.
        let mut finished = 0usize;
        let mut failures: Vec<(TaskPath, String)> = Vec::new();
        let mut reconfig_target: Option<Config> = None;
        let mut suspend_started: Option<Instant> = None;
        let mut partial: Option<PartialDrain> = None;
        // Control ticks run off an absolute deadline: driving the timer
        // from `recv_timeout` alone reset it on every completion, so a
        // flood of completions starved the mechanism of consults.
        let mut next_tick = Instant::now() + control_period;
        // The executive's own `done_tx` (kept for partial relaunches)
        // prevents the channel from ever disconnecting, so vanished jobs
        // are detected via pool quiescence instead — two consecutive
        // idle timeouts with every submitted job parked.
        let mut pool_idle_seen = false;
        // A pending partial keeps the loop alive past `remaining == 0`:
        // when the drained paths were the only ones left, the boundary
        // check below still has to run to splice in the relaunch.
        while remaining > 0 || partial.is_some() {
            let stopping = shared.stop.load(Ordering::Acquire);
            if stopping {
                shared.suspend.store(true, Ordering::Release);
            }
            if Instant::now() >= next_tick {
                next_tick = Instant::now() + control_period;
                let draining =
                    reconfig_target.is_some() || !failures.is_empty() || partial.is_some();
                if !stopping && !draining {
                    let snap = shared.monitor.snapshot();
                    recorder.record_with(|| TraceEvent::SnapshotTaken {
                        snapshot: snap.clone(),
                    });
                    // Score the previous control period's decision
                    // against what this snapshot actually realized,
                    // then emit it.
                    if let Some((at, mech, trace)) = pending_decision.take() {
                        let realized = realized_throughput(&snap);
                        emit_decision(recorder, metrics, at, mech, trace, realized);
                    }
                    let proposal = mechanism.reconfigure(&snap, &config, shape, &res);
                    // Hold the mechanism's explanation — hold decisions
                    // included — for scoring at the next snapshot.
                    if audit_decisions {
                        if let Some(trace) = mechanism.explain() {
                            pending_decision = Some((
                                recorder.elapsed_secs(),
                                mechanism.name().to_string(),
                                trace,
                            ));
                        }
                    }
                    if let Some(proposal) = proposal {
                        if proposal == config {
                            recorder.record_with(|| TraceEvent::ProposalEvaluated {
                                mechanism: mechanism.name().to_string(),
                                proposal: proposal.clone(),
                                verdict: Verdict::Unchanged,
                            });
                            if let Some(m) = metrics {
                                m.proposals_unchanged.inc();
                            }
                        } else {
                            match proposal.validate(shape, budget) {
                                Ok(()) => {
                                    debug_verify_gate("reconfigure", shape, &proposal, budget);
                                    recorder.record_with(|| TraceEvent::ProposalEvaluated {
                                        mechanism: mechanism.name().to_string(),
                                        proposal: proposal.clone(),
                                        verdict: Verdict::Accepted,
                                    });
                                    if let Some(m) = metrics {
                                        m.proposals_accepted.inc();
                                    }
                                    let delta = if delta_enabled {
                                        config.delta_paths(&proposal)
                                    } else {
                                        None
                                    };
                                    if let Some(changed) = delta {
                                        // Steer only the changed paths to
                                        // a consistent point; every other
                                        // replica keeps running across
                                        // the boundary.
                                        for path in &changed {
                                            if let Some(flag) = path_flags.get(path) {
                                                flag.store(true, Ordering::Release);
                                            }
                                        }
                                        partial = Some(PartialDrain {
                                            target: proposal,
                                            changed,
                                            started: Instant::now(),
                                        });
                                    } else {
                                        reconfig_target = Some(proposal);
                                        suspend_started = Some(Instant::now());
                                        shared.suspend.store(true, Ordering::Release);
                                    }
                                }
                                Err(err) => {
                                    rejected += 1;
                                    recorder.record_with(|| TraceEvent::ProposalEvaluated {
                                        mechanism: mechanism.name().to_string(),
                                        proposal: proposal.clone(),
                                        verdict: Verdict::Rejected { code: err.code() },
                                    });
                                    if let Some(m) = metrics {
                                        m.proposals_rejected.inc();
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Partial boundary: every changed path's replicas have
            // reported while the rest of the nest keeps running. Splice
            // the relaunched replicas into the live epoch. A stop takes
            // precedence: the global drain is already in flight and the
            // target is retired as superseded at epoch end.
            if !stopping {
                if let Some(p) = partial.take() {
                    let drained_now = p
                        .changed
                        .iter()
                        .all(|path| per_path_outstanding.get(path).copied().unwrap_or(0) == 0);
                    if drained_now {
                        let PartialDrain {
                            target,
                            changed,
                            started,
                        } = p;
                        let pause_secs = started.elapsed().as_secs_f64();
                        let relaunch_started = Instant::now();
                        config = target;
                        let relaunched = instantiate_paths(descriptor, &config, &changed)?;
                        // The drained paths' share of the completion
                        // target is retired with them; the relaunched
                        // replicas take their place.
                        for path in &changed {
                            expected_finishes -= submitted_by_path.remove(path).unwrap_or(0);
                            finished -= finished_by_path.remove(path).unwrap_or(0);
                        }
                        expected_finishes += relaunched.jobs.len();
                        shared.monitor.merge_epoch_paths(
                            relaunched.load_cbs,
                            relaunched.extents,
                            &changed,
                        );
                        // Resume the relaunched paths *before* submitting
                        // so the new replicas never observe a stale
                        // suspend flag.
                        for path in &changed {
                            if let Some(flag) = path_flags.get(path) {
                                flag.store(false, Ordering::Release);
                            }
                        }
                        generation += 1;
                        submit_epoch_jobs(
                            relaunched.jobs,
                            generation,
                            pool,
                            shared,
                            &path_flags,
                            window,
                            &done_tx,
                            &mut unreported,
                            &mut per_path_outstanding,
                            &mut submitted_by_path,
                            &mut remaining,
                        )?;
                        let relaunch_secs = relaunch_started.elapsed().as_secs_f64();
                        let jobs = remaining as u64;
                        let paths_drained = changed.len() as u64;
                        let config_now = &config;
                        recorder.record_with(|| TraceEvent::ReconfigureEpoch {
                            pause_secs,
                            relaunch_secs,
                            jobs,
                            config: config_now.clone(),
                            scope: "partial".to_string(),
                            paths_drained,
                        });
                        if let Some(m) = metrics {
                            m.epochs.inc();
                            m.pause.record_secs(pause_secs);
                            m.relaunch.record_secs(relaunch_secs);
                            m.reconfig_partial.inc();
                            m.paths_drained.record_secs(paths_drained as f64);
                        }
                        reconfigurations += 1;
                        history.push((start.elapsed().as_secs_f64(), config.clone()));
                        shared.monitor.mark_reconfig();
                        mechanism.applied(&config);
                    } else {
                        partial = Some(p);
                    }
                }
            }
            match done_rx.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
                Ok((path, job_generation, outcome)) => {
                    pool_idle_seen = false;
                    remaining -= 1;
                    if let Some(left) = unreported.get_mut(&(path.clone(), job_generation)) {
                        *left = left.saturating_sub(1);
                    }
                    if let Some(out) = per_path_outstanding.get_mut(&path) {
                        *out = out.saturating_sub(1);
                    }
                    match outcome {
                        TaskOutcome::Completed(status) => {
                            if status == TaskStatus::Finished {
                                finished += 1;
                                *finished_by_path.entry(path).or_insert(0) += 1;
                            }
                        }
                        TaskOutcome::Failed { reason } => {
                            task_failures += 1;
                            shared.monitor.mark_failed(&path);
                            if let Some(m) = metrics {
                                m.task_failures.inc();
                            }
                            let event_path = path.clone();
                            let event_reason = reason.clone();
                            recorder.record_with(|| TraceEvent::TaskFailed {
                                path: event_path,
                                reason: event_reason,
                                policy: policy.kind().to_string(),
                            });
                            failures.push((path, reason));
                            // Drain the epoch so the failure policy acts
                            // at a globally consistent point. A partial
                            // drain in flight escalates to a full one:
                            // its accepted target is retired as
                            // superseded rather than dropped silently.
                            if let Some(p) = partial.take() {
                                record_superseded(recorder, mechanism.name(), p.target);
                            }
                            shared.suspend.store(true, Ordering::Release);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Vanished-job detection: every send happens before
                    // its worker parks, so once submitted == dispatched
                    // == parks the channel holds all outcomes that will
                    // ever arrive. One more recv attempt (the next loop
                    // iteration) drains any straggler; a second idle
                    // timeout means the missing replicas are lost work.
                    let idle =
                        pool.submitted() == pool.dispatched() && pool.dispatched() == pool.parks();
                    if idle && pool_idle_seen {
                        break;
                    }
                    pool_idle_seen = idle;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        // Anything still unreported when the channel closed vanished
        // without sending an outcome (an escaped unwind, a worker died
        // some other way). Silently shrinking `remaining` here is how
        // work used to get lost without a trace — count every missing
        // replica as a failure and poison the verdict.
        if remaining > 0 {
            for ((path, _generation), left) in &unreported {
                for _ in 0..*left {
                    task_failures += 1;
                    lost_jobs += 1;
                    shared.monitor.mark_failed(path);
                    if let Some(m) = metrics {
                        m.task_failures.inc();
                    }
                    let reason = "worker job vanished without reporting an outcome".to_string();
                    let event_path = path.clone();
                    let event_reason = reason.clone();
                    recorder.record_with(|| TraceEvent::TaskFailed {
                        path: event_path,
                        reason: event_reason,
                        policy: policy.kind().to_string(),
                    });
                    failures.push((path.clone(), reason));
                }
            }
            verdict = verdict.worsen(FailureVerdict::LostWork);
        }

        // Epoch-end failure handling: the policy decides what the run
        // does *before* any stop or reconfiguration logic sees the
        // drained epoch.
        if !failures.is_empty() {
            match policy {
                FailurePolicy::Abort => {
                    let (path, reason) = failures.swap_remove(0);
                    return Err(Error::TaskFailed { path, reason });
                }
                FailurePolicy::Restart {
                    max_retries,
                    backoff,
                } => {
                    let needed = failures.len() as u64;
                    if restarts_used + needed > u64::from(max_retries) {
                        let (path, reason) = failures.swap_remove(0);
                        return Err(Error::TaskFailed {
                            path,
                            reason: format!("{reason} (restart budget of {max_retries} exhausted)"),
                        });
                    }
                    restarts_used += needed;
                    task_restarts += needed;
                    if let Some(m) = metrics {
                        m.task_restarts.add(needed);
                    }
                    verdict = verdict.worsen(FailureVerdict::Recovered);
                    // A restart rebuilds the epoch from the live config,
                    // so an accepted-but-unapplied proposal dies here —
                    // say so in the trace rather than dropping it.
                    if let Some(target) = reconfig_target.take() {
                        record_superseded(recorder, mechanism.name(), target);
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        break 'epochs;
                    }
                    // Sleep in slices so a stop request interrupts the
                    // backoff instead of blocking shutdown through it.
                    let deadline = Instant::now() + backoff;
                    loop {
                        if shared.stop.load(Ordering::Acquire) {
                            break 'epochs;
                        }
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(5)));
                    }
                    continue 'epochs;
                }
                FailurePolicy::Degrade => {
                    // Shrink each failed task's degree of parallelism by
                    // its dead-replica count; a task with no survivors
                    // cannot be degraded, only aborted.
                    let mut dead: HashMap<TaskPath, u32> = HashMap::new();
                    for (path, _) in &failures {
                        *dead.entry(path.clone()).or_insert(0) += 1;
                    }
                    let mut degraded = config.clone();
                    for (path, count) in &dead {
                        let extent = degraded.extent_of(path).unwrap_or(0);
                        let survivors = extent.saturating_sub(*count);
                        if survivors == 0 {
                            let reason = failures
                                .iter()
                                .find(|(p, _)| p == path)
                                .map_or_else(String::new, |(_, r)| r.clone());
                            return Err(Error::TaskFailed {
                                path: path.clone(),
                                reason: format!(
                                    "all {extent} replica(s) failed; cannot degrade below one: {reason}"
                                ),
                            });
                        }
                        degraded.set_extent(path, survivors)?;
                    }
                    degraded.validate(shape, budget)?;
                    debug_verify_gate("degrade", shape, &degraded, budget);
                    config = degraded;
                    reconfigurations += 1;
                    history.push((start.elapsed().as_secs_f64(), config.clone()));
                    shared.monitor.mark_reconfig();
                    mechanism.applied(&config);
                    verdict = verdict.worsen(FailureVerdict::Degraded);
                    // The degraded config replaces whatever the
                    // mechanism had accepted; retire the stale target
                    // as superseded instead of discarding it silently.
                    if let Some(target) = reconfig_target.take() {
                        record_superseded(recorder, mechanism.name(), target);
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        break 'epochs;
                    }
                    continue 'epochs;
                }
                // `FailurePolicy` is non-exhaustive: a policy this
                // executive does not know yet fails safe, exactly like
                // `Abort`.
                _ => {
                    let (path, reason) = failures.swap_remove(0);
                    return Err(Error::TaskFailed { path, reason });
                }
            }
        }

        // Epoch fully drained.
        if shared.stop.load(Ordering::Acquire) {
            // Stop wins over any accepted-but-unapplied target, partial
            // or full — retire both as superseded so the trace closes
            // the accepted proposal's story.
            if let Some(p) = partial.take() {
                record_superseded(recorder, mechanism.name(), p.target);
            }
            if let Some(target) = reconfig_target.take() {
                record_superseded(recorder, mechanism.name(), target);
            }
            break 'epochs;
        }
        // A partial drain that outran the epoch (every replica finished
        // before the boundary check applied it) degenerates into a full
        // reconfiguration: the epoch is empty anyway, so apply the
        // target on relaunch.
        if let Some(p) = partial.take() {
            suspend_started = Some(p.started);
            reconfig_target = Some(p.target);
        }
        if let Some(new_config) = reconfig_target {
            config = new_config;
            reconfigurations += 1;
            history.push((start.elapsed().as_secs_f64(), config.clone()));
            shared.monitor.mark_reconfig();
            mechanism.applied(&config);
            pending_pause =
                Some(suspend_started.map_or(0.0, |since| since.elapsed().as_secs_f64()));
            continue 'epochs;
        }
        // No reconfiguration pending: did the program finish?
        if finished == expected_finishes {
            break 'epochs;
        }
        // Mixed suspension without a target (stop raced): relaunch as-is.
    }

    // The run is over: score the last decision against a final
    // snapshot instead of dropping its outcome — every consult the
    // audit holds must reach the trace, scored when a reading exists.
    if let Some((at, mech, trace)) = pending_decision.take() {
        let realized = realized_throughput(&shared.monitor.snapshot());
        emit_decision(recorder, metrics, at, mech, trace, realized);
    }
    if recorder.is_enabled() {
        let completed = shared.monitor.queue_completed();
        recorder.record(TraceEvent::Finished {
            completed,
            reconfigurations,
            dropped_events: recorder.dropped(),
        });
    }
    Ok(RunReport {
        elapsed: start.elapsed(),
        reconfigurations,
        rejected_configs: rejected,
        final_config: config,
        config_history: history,
        task_failures,
        task_restarts,
        lost_jobs,
        failure_verdict: verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{body_fn, TaskBody, TaskKind, TaskSpec, WorkerSlot};
    use dope_workload::WorkQueue;
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

    /// The launch gate catches degenerate programs `Config::validate`
    /// tolerates: a nest whose only alternative is empty passes the
    /// first-error-wins validator (zero tasks match zero tasks) but is
    /// rejected by the static analyzer (DV008) in debug builds.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "gate compiles out in release builds")]
    #[should_panic(expected = "verification gate (launch)")]
    fn launch_gate_rejects_empty_nest() {
        let spec = TaskSpec::nest("hollow", TaskKind::Par, |_replica: u32| Vec::new());
        let _ = Dope::builder(Goal::MaxThroughput { threads: 4 }).launch(vec![spec]);
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
        assert!(kinds.contains(&"SnapshotTaken"));
        assert!(kinds.contains(&"TaskStatsSample"));
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
    /// probe makes the pressure visible — in the monitor's snapshots
    /// and as `AdmissionDecision` events in the trace.
    #[test]
    fn admission_gate_pressure_reaches_snapshots_and_trace() {
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
        let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
            .admission(gate.policy())
            .admission_probe(gate.stats_probe())
            .control_period(Duration::from_millis(5))
            .recorder(recorder.clone())
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
        let decision = recorder
            .records()
            .into_iter()
            .find_map(|r| match r.event {
                TraceEvent::AdmissionDecision {
                    policy, verdict, ..
                } => Some((policy, verdict)),
                _ => None,
            })
            .expect("a pressured period must emit an AdmissionDecision");
        assert_eq!(decision.0, "shed");
        assert_eq!(decision.1, "shed");
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
}
