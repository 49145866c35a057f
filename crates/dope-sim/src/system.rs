//! The open transaction-serving system model (Figures 2 and 11).
//!
//! User requests arrive according to a Poisson process and wait in a work
//! queue. The machine has a fixed number of hardware contexts. Each
//! transaction executes under the current parallelism configuration: it
//! occupies `width` contexts for `exec_time(width)` seconds, and at most
//! `DoP_outer` transactions run concurrently. A [`Mechanism`] is consulted
//! on every arrival — the paper's per-task adaptation granularity — and
//! may change the configuration for subsequent dispatches.

use crate::event::OrdF64;
use crate::profile::AmdahlProfile;
use dope_core::control::{ControlCore, ControlSink, NullSink};
use dope_core::nest::{self, TwoLevelNest};
use dope_core::{
    AdmissionPolicy, AdmissionStats, Config, Mechanism, MonitorSnapshot, ProgramShape, Resources,
    ShapeNode, TaskKind, TaskStats,
};
use dope_workload::{ArrivalSchedule, ResponseStats, ThroughputMeter, TimeSeries};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
    #[must_use]
    pub fn custom(name: &str, shape: ProgramShape, profile: AmdahlProfile) -> Self {
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

/// Fixed parameters of a system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Hardware contexts of the simulated machine.
    pub contexts: u32,
    /// Dead time after a reconfiguration during which the mechanism is not
    /// consulted again (models the suspend/relaunch protocol cost).
    pub reconfig_penalty_secs: f64,
    /// Window for the snapshot's throughput estimate.
    pub throughput_window_secs: f64,
    /// Smoothing factor for the snapshot's execution-time average.
    pub ewma_alpha: f64,
    /// How the front door treats offered requests (default
    /// [`AdmissionPolicy::Open`]): `Shed` drops offers while queue
    /// occupancy is at or above the high watermark, `Deadline` drops
    /// admitted requests whose queue delay exceeds the budget at
    /// dispatch, and `Block` holds offers in a blocked FIFO until
    /// occupancy falls below capacity (closed-loop backpressure —
    /// response times then include the blocking delay). The same
    /// semantics as `dope_workload::admission::AdmissionQueue`, so
    /// shed-vs-block frontiers swept here transfer to the live runtime.
    pub admission: AdmissionPolicy,
}

impl Default for SystemParams {
    /// The paper's machine: 24 contexts, no reconfiguration dead time.
    fn default() -> Self {
        SystemParams {
            contexts: 24,
            reconfig_penalty_secs: 0.0,
            throughput_window_secs: 60.0,
            ewma_alpha: 0.25,
            admission: AdmissionPolicy::Open,
        }
    }
}

/// Results of one system simulation.
#[derive(Debug, Clone)]
pub struct SystemOutcome {
    /// Per-request response times (submission to completion).
    pub response: ResponseStats,
    /// Completion events.
    pub throughput: ThroughputMeter,
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
    pub config_history: Vec<(f64, Config)>,
    /// Mechanism proposals rejected by validation.
    pub rejected_configs: u64,
    /// Configuration in force at the end of the run.
    pub final_config: Config,
    /// Admission-gate counters at the end of the run (all zero when
    /// [`SystemParams::admission`] was `Open` — every offer admitted,
    /// nothing shed).
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

struct InFlight {
    finish: OrdF64,
    seq: u64,
    submit: f64,
    width: u32,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish, self.seq).cmp(&(other.finish, other.seq))
    }
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

    let config = mechanism
        .initial(shape, &res)
        .filter(|c| c.validate(shape, budget).is_ok())
        .unwrap_or_else(|| model.config_for_width(budget, 1));
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

    params
        .admission
        .validate()
        .expect("admission policy must validate");

    let mut now = 0.0_f64;
    let mut queue: VecDeque<(u64, f64)> = VecDeque::new();
    // Offers held back by `Block` admission, stamped with their offer
    // time: they enter `queue` once occupancy falls below capacity, so
    // their eventual response time includes the blocking delay.
    let mut blocked: VecDeque<f64> = VecDeque::new();
    let mut in_flight: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut free = budget;
    let mut active: u32 = 0;
    let mut seq: u64 = 0;

    let mut response = ResponseStats::new();
    let mut throughput = ThroughputMeter::new();
    let mut dop_series = TimeSeries::new("inner DoP extent");
    dop_series.push(0.0, f64::from(width));
    let mut exec_sum = 0.0_f64;
    let mut dispatched: u64 = 0;
    let mut enqueued: u64 = 0;
    let mut completed: u64 = 0;
    let mut offered: u64 = 0;
    let mut admitted: u64 = 0;
    let mut shed_high_water: u64 = 0;
    let mut shed_deadline: u64 = 0;
    let mut queue_delay_sum = 0.0_f64;
    let mut dispatches_since_reconfig: u64 = 0;
    let mut last_reconfig_at = f64::NEG_INFINITY;
    let mut exec_ewma = dope_core::Ewma::new(params.ewma_alpha);
    let mut recent_completions: VecDeque<f64> = VecDeque::new();

    let arrivals = schedule.times();
    let mut next_arrival = 0usize;

    loop {
        // Pick the earliest pending event.
        let arrival_time = arrivals.get(next_arrival).copied();
        let departure_time = in_flight.peek().map(|Reverse(j)| j.finish.get());
        let (event_time, is_arrival) = match (arrival_time, departure_time) {
            (None, None) => break,
            (Some(a), None) => (a, true),
            (None, Some(d)) => (d, false),
            (Some(a), Some(d)) => {
                if a <= d {
                    (a, true)
                } else {
                    (d, false)
                }
            }
        };
        now = event_time;

        if is_arrival {
            next_arrival += 1;
            offered += 1;
            // The front door decides before the work queue sees the
            // offer; a shed offer never enters the system.
            match params.admission {
                AdmissionPolicy::Shed { high_water } if queue.len() >= high_water as usize => {
                    shed_high_water += 1;
                }
                AdmissionPolicy::Block { capacity } if queue.len() >= capacity as usize => {
                    blocked.push_back(now);
                }
                _ => {
                    admitted += 1;
                    enqueued += 1;
                    queue.push_back((enqueued, now));
                }
            }

            // Consult the mechanism at task granularity — shed offers
            // included: the pressure they create is exactly what a
            // shed-aware mechanism needs to see.
            if now - last_reconfig_at >= params.reconfig_penalty_secs {
                let admission = AdmissionStats {
                    offered,
                    admitted,
                    shed_high_water,
                    shed_deadline,
                    mean_queue_delay_secs: if dispatched > 0 {
                        queue_delay_sum / dispatched as f64
                    } else {
                        0.0
                    },
                };
                let snap = build_snapshot(
                    now,
                    &queue,
                    enqueued,
                    completed,
                    dispatches_since_reconfig,
                    exec_ewma.value_or(exec),
                    &recent_completions,
                    params,
                    budget,
                    free,
                    model,
                    admission,
                );
                if core.tick_instant(now, &snap) {
                    width = model.width_of(core.config()).max(1);
                    outer_cap = nest::outer_extent_of(core.config(), model.nest()).max(1);
                    exec = model.exec_time(width);
                    dispatches_since_reconfig = 0;
                    last_reconfig_at = now;
                    dop_series.push(now, f64::from(width));
                }
            }
        } else {
            let Reverse(job) = in_flight.pop().expect("departure event exists");
            free += job.width;
            active -= 1;
            completed += 1;
            response.record(now - job.submit);
            throughput.record(now);
            recent_completions.push_back(now);
            let cutoff = now - params.throughput_window_secs;
            while recent_completions.front().is_some_and(|&t| t < cutoff) {
                recent_completions.pop_front();
            }
        }

        // Dispatch as many queued transactions as resources allow,
        // admitting blocked offers as dispatches free queue slots —
        // iterate to a fixpoint so a freed slot admits and a fresh
        // admission dispatches within the same event.
        loop {
            let mut progressed = false;
            if let AdmissionPolicy::Block { capacity } = params.admission {
                while !blocked.is_empty() && queue.len() < capacity as usize {
                    let offer_time = blocked.pop_front().expect("blocked non-empty");
                    admitted += 1;
                    enqueued += 1;
                    queue.push_back((enqueued, offer_time));
                    progressed = true;
                }
            }
            while !queue.is_empty() && active < outer_cap && free >= width {
                let (_, submit) = queue.pop_front().expect("queue non-empty");
                progressed = true;
                if let AdmissionPolicy::Deadline { budget_secs } = params.admission {
                    // Deadline-aware shedding acts at dispatch: the
                    // request's answer is already too late, so serving
                    // it would only delay requests still in budget.
                    if now - submit > budget_secs {
                        shed_deadline += 1;
                        continue;
                    }
                }
                seq += 1;
                let service = exec;
                exec_sum += service;
                dispatched += 1;
                dispatches_since_reconfig += 1;
                queue_delay_sum += (now - submit).max(0.0);
                exec_ewma.update(service);
                free -= width;
                active += 1;
                in_flight.push(Reverse(InFlight {
                    finish: OrdF64::new(now + service),
                    seq,
                    submit,
                    width,
                }));
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
        throughput,
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
        admission: AdmissionStats {
            offered,
            admitted,
            shed_high_water,
            shed_deadline,
            mean_queue_delay_secs: if dispatched > 0 {
                queue_delay_sum / dispatched as f64
            } else {
                0.0
            },
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn build_snapshot(
    now: f64,
    queue: &VecDeque<(u64, f64)>,
    enqueued: u64,
    completed: u64,
    dispatches_since_reconfig: u64,
    mean_exec: f64,
    recent_completions: &VecDeque<f64>,
    params: &SystemParams,
    budget: u32,
    free: u32,
    model: &TwoLevelModel,
    admission: AdmissionStats,
) -> MonitorSnapshot {
    let mut snap = MonitorSnapshot::at(now);
    snap.admission = admission;
    snap.queue.occupancy = queue.len() as f64;
    snap.queue.enqueued = enqueued;
    snap.queue.completed = completed;
    snap.queue.arrival_rate = if now > 0.0 {
        enqueued as f64 / now
    } else {
        0.0
    };
    snap.dispatches_since_reconfig = dispatches_since_reconfig;
    let window = params.throughput_window_secs.min(now.max(1e-9));
    let rate = recent_completions.len() as f64 / window;
    snap.tasks.insert(
        model.nest().outer.clone(),
        TaskStats {
            invocations: completed,
            mean_exec_secs: mean_exec,
            throughput: rate,
            load: queue.len() as f64,
            utilization: f64::from(budget - free) / f64::from(budget),
            // Percentile fields stay 0.0: the simulator's monitor is
            // analytic and does not measure latency distributions.
            ..TaskStats::default()
        },
    );
    snap
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
        assert_eq!(out.throughput.completed(), 200);
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

    fn run_overloaded(admission: AdmissionPolicy, load: f64, n: usize) -> SystemOutcome {
        let m = model();
        let max_thr = m.max_throughput(24, 1);
        let schedule = ArrivalSchedule::for_load_factor(load, max_thr, n, 7);
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

    #[test]
    fn open_admission_admits_everything_and_counts() {
        let out = run_overloaded(AdmissionPolicy::Open, 2.0, 300);
        assert_eq!(out.admission.offered, 300);
        assert_eq!(out.admission.admitted, 300);
        assert_eq!(out.admission.shed(), 0);
        assert_eq!(out.completed, 300);
        assert!((out.goodput_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shed_bounds_queue_delay_at_the_cost_of_goodput() {
        let open = run_overloaded(AdmissionPolicy::Open, 3.0, 400);
        let shed = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 3.0, 400);
        // Conservation: every offer is admitted or shed, never both.
        assert_eq!(shed.admission.offered, 400);
        assert_eq!(
            shed.admission.offered,
            shed.admission.admitted + shed.admission.shed_high_water
        );
        assert!(shed.admission.shed_high_water > 0, "3x load must overflow");
        assert_eq!(shed.completed, shed.admission.admitted);
        // The point of shedding: admitted requests see bounded queueing
        // while the open queue's delay grows with the backlog.
        assert!(
            shed.admission.mean_queue_delay_secs < open.admission.mean_queue_delay_secs / 4.0,
            "shed {} vs open {}",
            shed.admission.mean_queue_delay_secs,
            open.admission.mean_queue_delay_secs
        );
        assert!(shed.goodput_fraction() < 1.0);
    }

    #[test]
    fn block_loses_nothing_and_throttles_arrivals() {
        let out = run_overloaded(AdmissionPolicy::Block { capacity: 4 }, 3.0, 300);
        assert_eq!(out.admission.offered, 300);
        assert_eq!(out.admission.admitted, 300);
        assert_eq!(out.admission.shed(), 0);
        assert_eq!(out.completed, 300);
        // Blocking delay is real latency: responses include the wait at
        // the front door, so the mean exceeds the bare service time.
        assert!(out.mean_response() > model().exec_time(1));
    }

    #[test]
    fn deadline_sheds_stale_requests_at_dispatch() {
        let m = model();
        let out = run_overloaded(
            AdmissionPolicy::Deadline {
                budget_secs: m.exec_time(1) * 4.0,
            },
            3.0,
            400,
        );
        assert_eq!(out.admission.offered, 400);
        assert_eq!(out.admission.admitted, 400);
        assert!(out.admission.shed_deadline > 0, "3x load must miss budgets");
        assert!(out.admission.shed_deadline <= out.admission.admitted);
        assert_eq!(
            out.completed,
            out.admission.admitted - out.admission.shed_deadline
        );
        // Served requests were, by construction, within budget when
        // dispatched.
        assert!(out.admission.mean_queue_delay_secs <= m.exec_time(1) * 4.0);
    }

    #[test]
    fn admission_outcomes_are_deterministic() {
        let a = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 2.0, 200);
        let b = run_overloaded(AdmissionPolicy::Shed { high_water: 8 }, 2.0, 200);
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
