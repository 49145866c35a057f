//! The open transaction-serving system model (Figures 2 and 11).
//!
//! User requests arrive according to a Poisson process and wait in a work
//! queue. The machine has a fixed number of hardware contexts. Each
//! transaction executes under the current parallelism configuration: it
//! occupies `width` contexts for `exec_time(width)` seconds, and at most
//! `DoP_outer` transactions run concurrently. A [`Mechanism`] is consulted
//! on every arrival — the paper's per-task adaptation granularity — and
//! may change the configuration for subsequent dispatches.
//!
//! The row's `utilization` is the busy contexts time-averaged since the
//! previous arrival's consult, over the budget. Its `throughput` counts the
//! trailing 60 s instead: one inter-arrival gap holds too few completions
//! to score a decision against.

use crate::event::{Accrual, Agenda};
use crate::profile::AmdahlProfile;
use dope_core::control::{ControlCore, ControlSink, NullSink};
use dope_core::nest::{self, TwoLevelNest};
use dope_core::{
    AdmissionPolicy, AdmissionStats, Config, Mechanism, MonitorSnapshot, ProgramShape, Resources,
    ShapeNode, TaskKind, TaskStats,
};
use dope_workload::{AdmissionQueue, ArrivalSchedule, DequeueOutcome, ResponseStats, TimeSeries};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A two-level application model: an outer transaction loop whose body
/// parallelizes per a calibrated [`AmdahlProfile`].
///
/// # Example
///
/// ```
/// use dope_sim::profile::AmdahlProfile;
/// use dope_sim::system::TwoLevelModel;
///
/// let x264 = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(50.4, 0.985, 0.2, 0.12));
/// let config = x264.config_for_width(24, 8);
/// assert_eq!(x264.width_of(&config), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelModel {
    name: String,
    shape: ProgramShape,
    nest: TwoLevelNest,
    profile: AmdahlProfile,
}

impl TwoLevelModel {
    /// A transaction whose body is a read/transform/write pipeline plus a
    /// sequential-transaction alternative (x264, bzip).
    #[must_use]
    pub fn pipeline(name: &str, profile: AmdahlProfile) -> Self {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: name.to_string(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
            ],
        }]);
        Self::custom(name, shape, profile)
    }

    /// A transaction whose body is a DOALL loop (swaptions, gimp).
    #[must_use]
    pub fn doall(name: &str, profile: AmdahlProfile) -> Self {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: name.to_string(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![ShapeNode::leaf("chunk", TaskKind::Par)]],
        }]);
        Self::custom(name, shape, profile)
    }

    /// A transaction with a caller-provided shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape contains no nested task.
    fn custom(name: &str, shape: ProgramShape, profile: AmdahlProfile) -> Self {
        let nest = nest::find_two_level(&shape).expect("shape must contain a two-level nest");
        TwoLevelModel {
            name: name.to_string(),
            shape,
            nest,
            profile,
        }
    }

    /// The application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program shape mechanisms see.
    #[must_use]
    pub fn shape(&self) -> &ProgramShape {
        &self.shape
    }

    /// The located two-level nest.
    #[must_use]
    pub fn nest(&self) -> &TwoLevelNest {
        &self.nest
    }

    /// The calibrated service-time profile.
    #[must_use]
    pub fn profile(&self) -> &AmdahlProfile {
        &self.profile
    }

    /// The configuration whose transactions occupy `width` contexts.
    #[must_use]
    pub fn config_for_width(&self, threads: u32, width: u32) -> Config {
        nest::config_for_width(&self.shape, &self.nest, threads, width)
    }

    /// Reads the transaction width out of a configuration.
    #[must_use]
    pub fn width_of(&self, config: &Config) -> u32 {
        nest::width_of(config, &self.nest)
    }

    /// Transaction service time at `width` contexts.
    #[must_use]
    pub fn exec_time(&self, width: u32) -> f64 {
        self.profile.exec_time(width)
    }

    /// Maximum sustainable throughput with transactions of `width`:
    /// `floor(threads / width) / exec_time(width)`.
    ///
    /// The paper's load factor normalizes arrival rates by the width-1
    /// value ("executing each task itself sequentially", §8.2).
    #[must_use]
    pub fn max_throughput(&self, threads: u32, width: u32) -> f64 {
        let slots = (threads / width.max(1)).max(1);
        f64::from(slots) / self.exec_time(width)
    }
}

/// The trailing window the snapshot's throughput counts completions
/// over, pruned at each consult.
const THROUGHPUT_WINDOW_SECS: f64 = 60.0;

/// Fixed parameters of a system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Hardware contexts of the simulated machine.
    pub contexts: u32,
    /// How the front door treats offered requests (default
    /// [`AdmissionPolicy::Open`]). Requests queue in the live runtime's
    /// own gate, `dope_workload::AdmissionQueue`, driven on simulated
    /// time, so its verdicts are the ones judged here and shed-vs-block
    /// frontiers swept here transfer to the live runtime. `Block` holds
    /// offers in a FIFO beside the gate until it would admit them
    /// (closed-loop backpressure — response times then include the
    /// blocking delay); a held offer counts as offered when it reaches
    /// the gate.
    pub admission: AdmissionPolicy,
}

impl Default for SystemParams {
    /// The paper's machine: 24 contexts, an open front door.
    fn default() -> Self {
        SystemParams {
            contexts: 24,
            admission: AdmissionPolicy::Open,
        }
    }
}

/// Results of one system simulation.
#[derive(Debug, Clone)]
pub struct SystemOutcome {
    /// Per-request response times (submission to completion).
    pub response: ResponseStats,
    /// Requests completed.
    pub completed: u64,
    /// Time at which the last request completed.
    pub horizon_secs: f64,
    /// Mean transaction service time over all dispatches (Figure 2a's
    /// y-axis).
    pub mean_exec_secs: f64,
    /// Transaction width over time (the oracle's "ideal DoP" trace).
    pub dop_series: TimeSeries,
    /// Applied reconfigurations.
    pub config_changes: u64,
    /// `(time, config)` for every applied configuration, the launch
    /// configuration (at 0.0) included.
    pub config_history: Vec<(f64, Arc<Config>)>,
    /// Mechanism proposals rejected by validation.
    pub rejected_configs: u64,
    /// Configuration in force at the end of the run.
    pub final_config: Config,
    /// Admission-gate counters at the end of the run (under `Open`
    /// every offer admitted, nothing shed).
    pub admission: AdmissionStats,
}

impl SystemOutcome {
    /// Mean response time in seconds.
    #[must_use]
    pub fn mean_response(&self) -> f64 {
        self.response.mean().unwrap_or(0.0)
    }

    /// Overall system throughput: completions per second of makespan.
    #[must_use]
    pub fn system_throughput(&self) -> f64 {
        if self.horizon_secs > 0.0 {
            self.completed as f64 / self.horizon_secs
        } else {
            0.0
        }
    }

    /// Goodput: the fraction of *offered* requests that completed, in
    /// `[0, 1]`. Equals `1.0` under `Open` or `Block` admission (no
    /// request is lost) and drops by the shed fraction otherwise.
    #[must_use]
    pub fn goodput_fraction(&self) -> f64 {
        if self.admission.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.admission.offered as f64
        }
    }
}

/// A transaction in service: what its departure gives back.
struct Job {
    submit: f64,
    width: u32,
}

/// Simulates the open system over a full arrival schedule, draining all
/// requests.
///
/// The mechanism is consulted once at launch (`initial`) and then on every
/// arrival — the paper's per-task adaptation — through one
/// [`ControlCore`] tick each.
pub fn run_system(
    model: &TwoLevelModel,
    schedule: &ArrivalSchedule,
    mechanism: &mut dyn Mechanism,
    res: Resources,
    params: &SystemParams,
) -> SystemOutcome {
    run_system_observed(model, schedule, mechanism, res, params, &mut NullSink)
}

/// [`run_system`] with a [`ControlSink`] hearing every decision point.
///
/// The sink hears the launch configuration, each frozen snapshot, each
/// scored decision, each proposal verdict, and each applied
/// configuration — enough to build a replayable flight-recorder trace
/// of the run.
///
/// # Panics
///
/// Panics if `params.admission` fails
/// [`validate`](AdmissionPolicy::validate) — sweep drivers construct
/// policies from validated inputs.
pub fn run_system_observed(
    model: &TwoLevelModel,
    schedule: &ArrivalSchedule,
    mechanism: &mut dyn Mechanism,
    res: Resources,
    params: &SystemParams,
    observer: &mut dyn ControlSink,
) -> SystemOutcome {
    let budget = res.threads.min(params.contexts).max(1);
    let res = Resources {
        threads: budget,
        ..res
    };
    let shape = model.shape();

    let config: Arc<Config> = mechanism
        .initial(shape, &res)
        .filter(|c| c.validate(shape, budget).is_ok())
        .unwrap_or_else(|| model.config_for_width(budget, 1))
        .into();
    observer.launched(mechanism.name(), budget, shape, &config);
    let mut width = model.width_of(&config).max(1);
    let mut outer_cap = nest::outer_extent_of(&config, model.nest()).max(1);
    let mut exec = model.exec_time(width);
    let mut core = ControlCore::new(
        mechanism,
        observer,
        shape,
        res,
        crate::rules(budget),
        config,
    );

    // The runtime's own gate queues the requests and judges every offer
    // and dispatch; the simulator supplies the clock.
    let gate = AdmissionQueue::new(params.admission);
    // Offers `Block` holds back, stamped with their offer time: a simulator
    // cannot park its producer, so they wait here until the gate would no
    // longer hold them, and their response time includes the wait.
    let mut held: VecDeque<f64> = VecDeque::new();
    let mut in_flight: Agenda<Job> = Agenda::new();
    let mut now = 0.0_f64;
    // Busy contexts.
    let mut busy = Accrual::new(0.0, 0_u32);
    let mut active: u32 = 0;

    let mut response = ResponseStats::new();
    let mut dop_series = TimeSeries::new("inner DoP extent");
    dop_series.push(0.0, f64::from(width));
    let mut exec_sum = 0.0_f64;
    let mut dispatched: u64 = 0;
    let mut completed: u64 = 0;
    let mut dispatches_since_reconfig: u64 = 0;
    let mut exec_ewma = dope_core::Ewma::default();
    let mut recent_completions: VecDeque<f64> = VecDeque::new();

    let arrivals = schedule.times();
    let mut next_arrival = 0usize;

    loop {
        // The earliest pending event; an arrival at the same instant as a
        // departure goes first.
        let (event_time, is_arrival) = match (arrivals.get(next_arrival), in_flight.peek_time()) {
            (None, None) => break,
            (Some(&a), Some(d)) if d < a => (d, false),
            (Some(&a), _) => (a, true),
            (None, Some(d)) => (d, false),
        };
        now = event_time;

        if is_arrival {
            next_arrival += 1;
            // The gate decides before the work queue sees the offer; a shed
            // offer never enters the system.
            if params.admission.holds(gate.len() as u64) {
                held.push_back(now);
            } else {
                gate.offer_at(now, now);
            }

            // Consult the mechanism at task granularity — shed offers
            // included: the pressure they create is exactly what a
            // shed-aware mechanism needs to see.
            let admission = gate.stats();
            let queued = gate.len() as f64;
            let mut snap = MonitorSnapshot::at(now);
            snap.admission = admission;
            snap.queue.occupancy = queued;
            snap.queue.enqueued = admission.admitted;
            snap.queue.completed = completed;
            snap.queue.arrival_rate = if now > 0.0 {
                admission.admitted as f64 / now
            } else {
                0.0
            };
            snap.dispatches_since_reconfig = dispatches_since_reconfig;
            let cutoff = now - THROUGHPUT_WINDOW_SECS;
            while recent_completions.front().is_some_and(|&t| t < cutoff) {
                recent_completions.pop_front();
            }
            let window = THROUGHPUT_WINDOW_SECS.min(now.max(1e-9));
            snap.tasks.insert(
                model.nest().outer.clone(),
                TaskStats {
                    invocations: completed,
                    mean_exec_secs: exec_ewma.value_or(exec),
                    throughput: recent_completions.len() as f64 / window,
                    load: queued,
                    utilization: busy.utilization(now, budget),
                    // Percentile fields stay 0.0: the simulator's
                    // monitor is analytic and does not measure latency
                    // distributions.
                    ..TaskStats::default()
                },
            );
            if core.tick_instant(now, &snap) {
                width = model.width_of(core.config()).max(1);
                outer_cap = nest::outer_extent_of(core.config(), model.nest()).max(1);
                exec = model.exec_time(width);
                dispatches_since_reconfig = 0;
                dop_series.push(now, f64::from(width));
            }
        } else {
            let (_, job) = in_flight.pop().expect("departure event exists");
            busy.set(now, busy.level() - job.width);
            active -= 1;
            completed += 1;
            response.record(now - job.submit);
            recent_completions.push_back(now);
        }

        // Dispatch as many queued transactions as resources allow,
        // admitting held offers as dispatches free queue slots — iterate
        // to a fixpoint so a freed slot admits and a fresh admission
        // dispatches within the same event. The gate drops a request past
        // its deadline inside `take_at`.
        loop {
            let mut progressed = false;
            while let Some(offered_at) =
                held.pop_front_if(|_| !params.admission.holds(gate.len() as u64))
            {
                gate.offer_at(offered_at, offered_at);
                progressed = true;
            }
            while active < outer_cap && budget - busy.level() >= width && !gate.is_empty() {
                let DequeueOutcome::Item(submit) = gate.take_at(now, Duration::ZERO) else {
                    break;
                };
                progressed = true;
                let service = exec;
                exec_sum += service;
                dispatched += 1;
                dispatches_since_reconfig += 1;
                exec_ewma.update(service);
                busy.set(now, busy.level() + width);
                active += 1;
                in_flight.push(now + service, Job { submit, width });
            }
            if !progressed {
                break;
            }
        }
    }

    // No final snapshot: the last decision goes out unscored.
    let control = core.finish(now, None);
    SystemOutcome {
        response,
        completed,
        horizon_secs: now,
        mean_exec_secs: if dispatched > 0 {
            exec_sum / dispatched as f64
        } else {
            0.0
        },
        dop_series,
        config_changes: control.reconfigurations,
        config_history: control.config_history,
        rejected_configs: control.rejected,
        final_config: control.final_config,
        admission: gate.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::StaticMechanism;

    fn model() -> TwoLevelModel {
        TwoLevelModel::pipeline("transcode", AmdahlProfile::new(10.0, 0.97, 0.1, 0.05))
    }

    fn run_static(width: u32, load: f64, n: usize) -> SystemOutcome {
        let m = model();
        let max_thr = m.max_throughput(24, 1);
        let schedule = ArrivalSchedule::for_load_factor(load, max_thr, n, 7);
        let mut mech = StaticMechanism::new(m.config_for_width(24, width));
        run_system(
            &m,
            &schedule,
            &mut mech,
            Resources::threads(24),
            &SystemParams::default(),
        )
    }

    #[test]
    fn all_requests_complete() {
        let out = run_static(1, 0.5, 200);
        assert_eq!(out.completed, 200);
        assert_eq!(out.response.count(), 200);
    }

    #[test]
    fn an_arrival_goes_before_a_departure_due_at_the_same_instant() {
        /// Holds, noting the completions each consult saw.
        struct CompletionWatch(Vec<u64>);
        impl Mechanism for CompletionWatch {
            fn name(&self) -> &'static str {
                "CompletionWatch"
            }
            fn reconfigure(
                &mut self,
                snap: &MonitorSnapshot,
                _current: &Config,
                _shape: &ProgramShape,
                _res: &Resources,
            ) -> Option<Config> {
                self.0.push(snap.queue.completed);
                None
            }
        }
        // One context, one-second transactions, one arrival a second:
        // every arrival after the first meets its predecessor's departure.
        let m = TwoLevelModel::doall("tick", AmdahlProfile::new(1.0, 0.9, 0.0, 0.0));
        let mut watch = CompletionWatch(Vec::new());
        let schedule = ArrivalSchedule::uniform(1.0, 5);
        let res = Resources::threads(1);
        let out = run_system(&m, &schedule, &mut watch, res, &SystemParams::default());
        assert_eq!(out.completed, 5);
        // The arrival is consulted on before the transaction departing at
        // its instant has completed.
        assert_eq!(watch.0, [0, 0, 1, 2, 3]);
        assert_eq!(out.mean_response(), 1.0);
    }

    /// Holds `.0`, noting the outer task's row at each consult.
    struct RowWatch(Config, Vec<TaskStats>);
    impl Mechanism for RowWatch {
        fn name(&self) -> &'static str {
            "RowWatch"
        }
        fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
            Some(self.0.clone())
        }
        fn reconfigure(
            &mut self,
            snap: &MonitorSnapshot,
            _current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            self.1.extend(snap.tasks.iter().map(|(_, row)| *row));
            None
        }
    }

    /// The rows consulted on while `width`-wide transactions of `model`
    /// serve `schedule` on `budget` contexts.
    fn rows(
        model: &TwoLevelModel,
        budget: u32,
        width: u32,
        schedule: &ArrivalSchedule,
    ) -> Vec<TaskStats> {
        let mut watch = RowWatch(model.config_for_width(budget, width), Vec::new());
        let res = Resources::threads(budget);
        run_system(model, schedule, &mut watch, res, &SystemParams::default());
        watch.1
    }

    #[test]
    fn utilization_averages_busy_contexts_since_the_previous_consult() {
        // Width 2 of 4 contexts, busy 0.125 s of every 0.25 s gap: each
        // consult after the first reads 2 × 0.125 / (0.25 × 4), though the
        // transaction before it has already left.
        let m = TwoLevelModel::doall("half", AmdahlProfile::new(0.25, 1.0, 0.0, 0.0));
        assert_eq!(m.exec_time(2), 0.125);
        let rows = rows(&m, 4, 2, &ArrivalSchedule::uniform(0.25, 5));
        let utilization: Vec<f64> = rows.iter().map(|row| row.utilization).collect();
        assert_eq!(utilization, [0.0, 0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn throughput_counts_only_the_last_window_of_completions() {
        // The one completion, at 101 s, is more than a window before the
        // second arrival at 200 s, and no departure came between to prune it.
        let m = TwoLevelModel::doall("short", AmdahlProfile::new(1.0, 0.9, 0.0, 0.0));
        let rows = rows(&m, 1, 1, &ArrivalSchedule::uniform(100.0, 2));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].invocations, 1);
        assert_eq!(rows[1].throughput, 0.0);
    }

    #[test]
    fn light_load_response_approximates_exec_time() {
        let m = model();
        let wide = run_static(8, 0.1, 200);
        let expected = m.exec_time(8);
        let mean = wide.mean_response();
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "mean {mean} vs exec {expected}"
        );
    }

    #[test]
    fn parallel_beats_sequential_at_light_load() {
        let seq = run_static(1, 0.2, 300);
        let par = run_static(8, 0.2, 300);
        assert!(
            par.mean_response() < seq.mean_response() / 2.0,
            "par {} vs seq {}",
            par.mean_response(),
            seq.mean_response()
        );
    }

    #[test]
    fn sequential_beats_parallel_at_saturation() {
        let seq = run_static(1, 1.0, 400);
        let par = run_static(8, 1.0, 400);
        assert!(
            seq.mean_response() < par.mean_response(),
            "seq {} vs par {}",
            seq.mean_response(),
            par.mean_response()
        );
        // And sustains higher throughput (Figure 2b's crossover).
        assert!(seq.system_throughput() > par.system_throughput());
    }

    #[test]
    fn mean_exec_matches_profile() {
        let m = model();
        let out = run_static(8, 0.5, 100);
        assert!((out.mean_exec_secs - m.exec_time(8)).abs() < 1e-9);
    }

    #[test]
    fn outcome_is_deterministic() {
        let a = run_static(4, 0.7, 150);
        let b = run_static(4, 0.7, 150);
        assert_eq!(a.mean_response(), b.mean_response());
        assert_eq!(a.horizon_secs, b.horizon_secs);
    }

    #[test]
    fn invalid_initial_config_falls_back() {
        let m = model();
        // Budget 4 but static config wants width 8 x outer: invalid.
        let bad = m.config_for_width(24, 8);
        let mut mech = StaticMechanism::new(bad);
        let schedule = ArrivalSchedule::uniform(1.0, 10);
        let out = run_system(
            &m,
            &schedule,
            &mut mech,
            Resources::threads(4),
            &SystemParams::default(),
        );
        assert_eq!(out.completed, 10);
        assert!(out.rejected_configs > 0);
    }

    fn run_overloaded(admission: AdmissionPolicy, load: f64, n: usize, seed: u64) -> SystemOutcome {
        let m = model();
        let max_thr = m.max_throughput(24, 1);
        let schedule = ArrivalSchedule::for_load_factor(load, max_thr, n, seed);
        let mut mech = StaticMechanism::new(m.config_for_width(24, 1));
        run_system(
            &m,
            &schedule,
            &mut mech,
            Resources::threads(24),
            &SystemParams {
                admission,
                ..SystemParams::default()
            },
        )
    }

    /// Every offer gets one verdict and every admitted request one end,
    /// under every policy, below and past saturation, for several arrival
    /// draws.
    #[test]
    fn admission_conserves_every_request() {
        const OFFERS: usize = 300;
        let budget_secs = model().exec_time(1) * 4.0;
        for admission in [
            AdmissionPolicy::Open,
            AdmissionPolicy::Shed { high_water: 8 },
            AdmissionPolicy::Block { capacity: 4 },
            AdmissionPolicy::Deadline { budget_secs },
        ] {
            for load in [0.5, 2.0, 3.0] {
                for seed in [7, 11, 13] {
                    let out = run_overloaded(admission, load, OFFERS, seed);
                    let gate = out.admission;
                    let case = format!("{admission} at load {load}, seed {seed}: {gate:?}");
                    assert_eq!(gate.offered, OFFERS as u64, "{case}");
                    assert_eq!(gate.offered, gate.admitted + gate.shed_high_water, "{case}");
                    assert_eq!(out.completed + gate.shed_deadline, gate.admitted, "{case}");
                    // Each policy sheds only at its own door.
                    if !matches!(admission, AdmissionPolicy::Shed { .. }) {
                        assert_eq!(gate.shed_high_water, 0, "{case}");
                    }
                    if !matches!(admission, AdmissionPolicy::Deadline { .. }) {
                        assert_eq!(gate.shed_deadline, 0, "{case}");
                    }
                    if matches!(
                        admission,
                        AdmissionPolicy::Open | AdmissionPolicy::Block { .. }
                    ) {
                        assert_eq!(out.goodput_fraction(), 1.0, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn shed_bounds_queue_delay_at_the_cost_of_goodput() {
        let open = run_overloaded(AdmissionPolicy::Open, 3.0, 400, 7);
        let shed = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 3.0, 400, 7);
        assert!(shed.admission.shed_high_water > 0, "3x load must overflow");
        // The point of shedding: admitted requests see bounded queueing
        // while the open queue's delay grows with the backlog.
        assert!(
            shed.admission.mean_queue_delay_secs < open.admission.mean_queue_delay_secs / 4.0,
            "shed {} vs open {}",
            shed.admission.mean_queue_delay_secs,
            open.admission.mean_queue_delay_secs
        );
        assert!(shed.goodput_fraction() < 1.0);

        // The frontier at 10x offered load (docs/overload.md), over a
        // short and a long storm: goodput is measured over the whole
        // makespan, so the storm must outlast the drain tail.
        let p99 = |out: &SystemOutcome| out.response.percentile(0.99).expect("served requests");
        for requests in [2_000, 10_000] {
            let saturation = run_overloaded(AdmissionPolicy::Open, 1.0, requests, 7);
            let open = run_overloaded(AdmissionPolicy::Open, 10.0, requests, 7);
            let shed = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 10.0, requests, 7);
            let block = run_overloaded(AdmissionPolicy::Block { capacity: 8 }, 10.0, requests, 7);
            let (open_p99, shed_p99) = (p99(&open), p99(&shed));
            assert!(
                open_p99 >= 4.0 * shed_p99,
                "{requests}: shed p99 {shed_p99} s vs open {open_p99} s"
            );
            let (goodput, ceiling) = (shed.system_throughput(), saturation.system_throughput());
            assert!(
                goodput >= 0.9 * ceiling,
                "{requests}: shed goodput {goodput}/s vs saturation {ceiling}/s"
            );
            // Against the schedule, not `offered`: a held offer counts as
            // offered only once it reaches the gate.
            assert_eq!(
                block.completed, requests as u64,
                "{requests}: Block lost requests"
            );
            assert!(shed.admission.shed() > 0, "{requests}: 10x load must shed");
        }
    }

    #[test]
    fn block_throttles_arrivals_into_response_time() {
        let out = run_overloaded(AdmissionPolicy::Block { capacity: 4 }, 3.0, 300, 7);
        // Blocking delay is real latency: responses include the wait at
        // the front door, so the mean exceeds the bare service time.
        assert!(out.mean_response() > model().exec_time(1));
    }

    #[test]
    fn deadline_sheds_stale_requests_at_dispatch() {
        let budget_secs = model().exec_time(1) * 4.0;
        let out = run_overloaded(AdmissionPolicy::Deadline { budget_secs }, 3.0, 400, 7);
        assert!(out.admission.shed_deadline > 0, "3x load must miss budgets");
        // Served requests were, by construction, within budget when
        // dispatched.
        assert!(out.admission.mean_queue_delay_secs <= budget_secs);
    }

    #[test]
    fn admission_outcomes_are_deterministic() {
        let a = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 2.0, 200, 7);
        let b = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 2.0, 200, 7);
        assert_eq!(a.admission, b.admission);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn max_throughput_scales_with_slots() {
        let m = model();
        let t1 = m.profile().t1();
        assert!((m.max_throughput(24, 1) - 24.0 / t1).abs() < 1e-12);
        let w8 = m.max_throughput(24, 8);
        assert!((w8 - 3.0 / m.exec_time(8)).abs() < 1e-12);
    }
}
