//! The stage-network model behind Figures 12–15.
//!
//! A pipeline application (ferret, dedup) is a chain of stages with
//! per-stage service times. Each stage has an extent (its worker count),
//! items flow stage to stage through queues, and a [`Mechanism`] is
//! consulted at a fixed control period. The model covers:
//!
//! * **task fusion** — a second descriptor alternative whose middle stages
//!   are merged, removing inter-stage forwarding overhead (TBF, §7.2);
//! * **oversubscription** — configurations with more workers than
//!   hardware contexts run, but services dilate by the oversubscription
//!   factor plus a context-switch penalty (the `Pthreads-OS` baseline);
//! * **power** — a [`PowerSensor`] samples a linear power model at the
//!   PDU's limited rate, feeding the TPC controller (§7.3, Figure 14).
//!
//! A stage's row reads like a live one over the control period:
//! `throughput` is its completions since the previous tick, `utilization`
//! its busy workers time-averaged since then over its extent at the tick.
//! Busy workers and power draw are integrated by one accrual rule.

use crate::event::{Accrual, Agenda};
use dope_core::control::{ControlCore, ControlSink, NullSink};
use dope_core::{
    Config, Ewma, Mechanism, MonitorSnapshot, ProgramShape, Resources, ShapeNode, TaskConfig,
    TaskKind, TaskPath, TaskStats,
};
use dope_platform::{PowerModel, PowerSensor};
use dope_workload::{ArrivalSchedule, ResponseStats, TimeSeries};
use std::collections::VecDeque;
use std::sync::Arc;

/// Service profile of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage name.
    pub name: String,
    /// Sequential or parallel stage.
    pub kind: TaskKind,
    /// Mean per-item service time, in seconds.
    pub mean_service_secs: f64,
    /// Cap on the stage's extent, if any.
    pub max_extent: Option<u32>,
}

impl StageProfile {
    /// A sequential stage.
    #[must_use]
    pub fn seq(name: &str, mean_service_secs: f64) -> Self {
        StageProfile {
            name: name.to_string(),
            kind: TaskKind::Seq,
            mean_service_secs,
            max_extent: Some(1),
        }
    }

    /// A parallel stage.
    #[must_use]
    pub fn par(name: &str, mean_service_secs: f64) -> Self {
        StageProfile {
            name: name.to_string(),
            kind: TaskKind::Par,
            mean_service_secs,
            max_extent: None,
        }
    }
}

/// A pipeline application model with optional fused alternative.
///
/// # Example
///
/// ```
/// use dope_sim::pipeline::{PipelineModel, StageProfile};
///
/// let ferret = PipelineModel::new(
///     "ferret",
///     vec![
///         StageProfile::seq("load", 0.002),
///         StageProfile::par("segment", 0.02),
///         StageProfile::par("extract", 0.03),
///         StageProfile::par("index", 0.08),
///         StageProfile::par("rank", 0.05),
///         StageProfile::seq("out", 0.002),
///     ],
/// );
/// assert_eq!(ferret.shape().tasks.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineModel {
    name: String,
    alternatives: Vec<Vec<StageProfile>>,
    forward_overhead_secs: f64,
    shape: ProgramShape,
}

impl PipelineModel {
    /// A pipeline with a single (unfused) descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    #[must_use]
    pub fn new(name: &str, stages: Vec<StageProfile>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let mut model = PipelineModel {
            name: name.to_string(),
            alternatives: vec![stages],
            forward_overhead_secs: 0.0,
            shape: ProgramShape::new(vec![]),
        };
        model.rebuild_shape();
        model
    }

    /// Registers a fused descriptor alternative (the paper's developer-
    /// provided fused task).
    #[must_use]
    pub fn with_fused(mut self, stages: Vec<StageProfile>) -> Self {
        assert!(!stages.is_empty(), "fused descriptor needs stages");
        self.alternatives.push(stages);
        self.rebuild_shape();
        self
    }

    /// Sets the per-boundary forwarding overhead added to every item's
    /// service at each stage after the first.
    #[must_use]
    pub fn with_forward_overhead(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "overhead must be non-negative");
        self.forward_overhead_secs = secs;
        self
    }

    fn rebuild_shape(&mut self) {
        let alternatives = self
            .alternatives
            .iter()
            .map(|alt| {
                alt.iter()
                    .map(|s| {
                        let mut node = ShapeNode::leaf(s.name.clone(), s.kind);
                        node.max_extent = s.max_extent;
                        node
                    })
                    .collect()
            })
            .collect();
        self.shape = ProgramShape::new(vec![ShapeNode {
            name: self.name.clone(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives,
        }]);
    }

    /// The application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shape mechanisms see: one nest node whose alternatives are the
    /// descriptor choices.
    #[must_use]
    pub fn shape(&self) -> &ProgramShape {
        &self.shape
    }

    /// The stage profiles of alternative `alt`.
    #[must_use]
    pub fn stages(&self, alt: usize) -> &[StageProfile] {
        &self.alternatives[alt]
    }

    /// Number of descriptor alternatives.
    #[must_use]
    pub fn alternative_count(&self) -> usize {
        self.alternatives.len()
    }

    /// A configuration selecting alternative `alt` with the given stage
    /// extents.
    ///
    /// # Panics
    ///
    /// Panics if `extents` does not match the alternative's stage count.
    #[must_use]
    fn config_with_extents(&self, alt: usize, extents: &[u32]) -> Config {
        let stages = &self.alternatives[alt];
        assert_eq!(
            stages.len(),
            extents.len(),
            "extents must match stage count"
        );
        let children = stages
            .iter()
            .zip(extents)
            .map(|(s, &e)| TaskConfig::leaf(s.name.as_str(), e))
            .collect();
        Config::new(vec![TaskConfig::nest(self.name.as_str(), 1, alt, children)])
    }

    /// The paper's `Pthreads-Baseline`: even split over parallel stages.
    #[must_use]
    pub fn config_even(&self, threads: u32) -> Config {
        Config::even(&self.shape, threads)
    }

    /// The paper's `Pthreads-OS`: every stage sized to the whole machine,
    /// leaving load balancing to the OS scheduler.
    #[must_use]
    pub fn config_oversubscribed(&self, threads: u32) -> Config {
        let extents: Vec<u32> = self.alternatives[0]
            .iter()
            .map(|s| match s.kind {
                TaskKind::Seq => 1,
                TaskKind::Par => threads,
            })
            .collect();
        self.config_with_extents(0, &extents)
    }
}

/// How items enter the pipeline.
#[derive(Debug, Clone)]
pub enum Source {
    /// Batch mode: the first stage always has input available.
    Saturated,
    /// Online mode: items arrive per a schedule (Figure 12).
    Open(ArrivalSchedule),
}

/// Power simulation attachment.
#[derive(Debug, Clone, Copy)]
pub struct PowerSim {
    /// The platform power model.
    pub model: PowerModel,
    /// Meter sampling interval (the AP7892's 60/13 s by default).
    pub sample_interval_secs: f64,
    /// Meter noise seed.
    pub seed: u64,
}

impl Default for PowerSim {
    fn default() -> Self {
        PowerSim {
            model: PowerModel::default(),
            sample_interval_secs: 60.0 / 13.0,
            seed: 17,
        }
    }
}

/// Fixed parameters of a pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineParams {
    /// Hardware contexts of the simulated machine.
    pub contexts: u32,
    /// Mechanism control period, in seconds.
    pub control_period_secs: f64,
    /// Simulation horizon, in seconds.
    pub horizon_secs: f64,
    /// Allow configurations that oversubscribe the contexts (needed for
    /// the `Pthreads-OS` baseline).
    pub allow_oversubscription: bool,
    /// Fractional service-time penalty (context switching, cache
    /// pollution) applied while the configuration has more workers than
    /// contexts. Application-dependent: small for compute-dense stages
    /// (ferret), large for cache-sensitive ones (dedup).
    pub oversub_penalty_frac: f64,
    /// Attach a power meter.
    pub power: Option<PowerSim>,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            contexts: 24,
            control_period_secs: 1.0,
            horizon_secs: 120.0,
            allow_oversubscription: false,
            oversub_penalty_frac: 0.1,
            power: None,
        }
    }
}

/// Results of one pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Items that left the final stage before the horizon.
    pub completed: u64,
    /// Simulated duration.
    pub horizon_secs: f64,
    /// Per-item response times (open source only).
    pub response: ResponseStats,
    /// Sink throughput at each control tick (Figure 13's y-axis).
    pub throughput_series: TimeSeries,
    /// Power-meter readings at each control tick (Figure 14).
    pub power_series: TimeSeries,
    /// `(time, config)` for every applied reconfiguration.
    pub config_history: Vec<(f64, Arc<Config>)>,
    /// Configuration in force at the end.
    pub final_config: Config,
    /// Time-weighted expected power, if a meter was attached.
    pub mean_power_watts: Option<f64>,
    /// Mechanism proposals rejected by validation.
    pub rejected_configs: u64,
}

impl PipelineOutcome {
    /// Overall throughput: completions per simulated second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.horizon_secs > 0.0 {
            self.completed as f64 / self.horizon_secs
        } else {
            0.0
        }
    }

    /// Mean of the throughput series from `from_secs` on (the stable
    /// region).
    #[must_use]
    pub fn stable_throughput(&self, from_secs: f64) -> f64 {
        self.throughput_series.mean_after(from_secs).unwrap_or(0.0)
    }
}

/// An item in flight; its `Complete` event carries it whole.
#[derive(Debug, Clone, Copy)]
struct Item {
    /// Submission time, exact. Rounding it down to whole microseconds
    /// would lengthen every response by up to 1 µs and buy nothing: no
    /// figure depends on that digit, and the events carry the `f64` as
    /// cheaply.
    submit: f64,
}

#[derive(Debug)]
struct StageState {
    queue: VecDeque<Item>,
    /// Busy workers.
    busy: Accrual<u32>,
    extent: u32,
    mean_service: f64,
    completions: u64,
    completions_at_tick: u64,
    exec_ewma: Ewma,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// `item` finished `stage` of the structure built as `generation`.
    Complete {
        generation: u32,
        stage: usize,
        item: Item,
    },
    Tick,
    Arrive,
}

/// Where stage `stage` of a structure with `old_len` stages lands in one
/// with `new_len`: proportionally, so a fused stage takes the items of the
/// stages it replaced (the identity when the lengths agree).
fn remap(stage: usize, old_len: usize, new_len: usize) -> usize {
    (stage * new_len)
        .checked_div(old_len)
        .map_or(0, |t| t.min(new_len.saturating_sub(1)))
}

struct Sim<'a> {
    model: &'a PipelineModel,
    params: &'a PipelineParams,
    now: f64,
    events: Agenda<Ev>,
    stages: Vec<StageState>,
    generation: u32,
    alt: usize,
    global_busy: u32,
    configured_threads: u32,
    saturated: bool,
    arrivals_done: bool,
    completed: u64,
    dispatches_since_reconfig: u64,
    response: ResponseStats,
    throughput_series: TimeSeries,
    power_series: TimeSeries,
    sensor: Option<PowerSensor>,
    /// Expected power draw in watts (held at 0 without a meter).
    draw: Accrual<f64>,
    sink_at_tick: u64,
}

impl<'a> Sim<'a> {
    fn service_time(&self, stage: usize) -> f64 {
        let base = self.stages[stage].mean_service
            + if stage > 0 {
                self.model.forward_overhead_secs
            } else {
                0.0
            };
        // Work-conserving processor sharing: with more busy workers than
        // contexts, every service dilates proportionally.
        let dilation = f64::from(self.global_busy.max(1)).max(f64::from(self.params.contexts))
            / f64::from(self.params.contexts);
        // Oversubscribed *configurations* additionally pay a scheduling and
        // cache-pollution tax on every item.
        let penalty = if self.configured_threads > self.params.contexts {
            1.0 + self.params.oversub_penalty_frac
        } else {
            1.0
        };
        base * dilation * penalty
    }

    fn try_start(&mut self, stage: usize) {
        loop {
            let st = &self.stages[stage];
            if st.busy.level() >= st.extent {
                return;
            }
            let item = if stage == 0 && self.saturated {
                if self.now >= self.params.horizon_secs {
                    return;
                }
                Some(Item { submit: self.now })
            } else {
                self.stages[stage].queue.pop_front()
            };
            let Some(item) = item else { return };
            let st = &mut self.stages[stage];
            st.busy.set(self.now, st.busy.level() + 1);
            self.set_global_busy(self.global_busy + 1);
            if stage == 0 {
                self.dispatches_since_reconfig += 1;
            }
            let service = self.service_time(stage);
            self.stages[stage].exec_ewma.update(service);
            let complete = Ev::Complete {
                generation: self.generation,
                stage,
                item,
            };
            self.events.push(self.now + service, complete);
        }
    }

    /// Moves the machine's busy workers to `busy`, and its power draw
    /// with them.
    fn set_global_busy(&mut self, busy: u32) {
        self.global_busy = busy;
        if let Some(power) = &self.params.power {
            let watts = power.model.expected_power(busy.min(self.params.contexts));
            self.draw.set(self.now, watts);
        }
    }

    fn deliver(&mut self, from_stage: usize, structure_len: usize, item: Item) {
        // Item finished `from_stage` of a structure with `structure_len`
        // stages; route it onward in the *current* structure.
        let next_old = from_stage + 1;
        if next_old >= structure_len {
            self.sink(item);
            return;
        }
        let target = remap(next_old, structure_len, self.stages.len());
        self.stages[target].queue.push_back(item);
        self.try_start(target);
    }

    fn sink(&mut self, item: Item) {
        self.completed += 1;
        self.response.record((self.now - item.submit).max(0.0));
    }

    fn snapshot(&mut self) -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(self.now);
        snap.dispatches_since_reconfig = self.dispatches_since_reconfig;
        snap.queue.occupancy = self.stages[0].queue.len() as f64;
        snap.queue.completed = self.completed;
        for (s, st) in self.stages.iter_mut().enumerate() {
            let path = TaskPath::root_child(0).child(s as u16);
            let window = self.params.control_period_secs;
            let rate = (st.completions - st.completions_at_tick) as f64 / window;
            snap.tasks.insert(
                path,
                TaskStats {
                    invocations: st.completions,
                    mean_exec_secs: st.exec_ewma.value_or(st.mean_service),
                    throughput: rate,
                    load: st.queue.len() as f64,
                    utilization: st.busy.utilization(self.now, st.extent),
                    // The analytic simulator does not model latency
                    // distributions; percentile fields stay at their
                    // "not measured" default of 0.0.
                    ..TaskStats::default()
                },
            );
        }
        if let Some(sensor) = &mut self.sensor {
            let busy = self.global_busy.min(self.params.contexts);
            snap.power_watts = Some(sensor.read(self.now, busy));
        }
        snap
    }

    fn build_structure(&mut self, config: &Config) {
        let nest = config.tasks[0]
            .nested
            .as_ref()
            .expect("pipeline config is a nest");
        let alt = nest.alternative;
        let profiles = self.model.stages(alt);
        let old_queues: Vec<VecDeque<Item>> = self
            .stages
            .iter_mut()
            .map(|s| std::mem::take(&mut s.queue))
            .collect();
        let old_len = self.stages.len();
        let mut new_stages: Vec<StageState> = profiles
            .iter()
            .zip(&nest.tasks)
            .map(|(p, t)| StageState {
                queue: VecDeque::new(),
                busy: Accrual::new(self.now, 0),
                extent: t.extent,
                mean_service: p.mean_service_secs,
                completions: 0,
                completions_at_tick: 0,
                exec_ewma: Ewma::default(),
            })
            .collect();
        // Remap queued items proportionally into the new structure.
        for (s, queue) in old_queues.into_iter().enumerate() {
            let target = remap(s, old_len, new_stages.len());
            for item in queue {
                new_stages[target].queue.push_back(item);
            }
        }
        self.stages = new_stages;
        self.alt = alt;
        self.generation += 1;
        // In-flight work of the old structure still holds contexts;
        // global_busy keeps counting it until its Complete events fire.
    }

    fn apply_config(&mut self, config: &Config) {
        let nest = config.tasks[0]
            .nested
            .as_ref()
            .expect("pipeline config is a nest");
        if nest.alternative != self.alt || nest.tasks.len() != self.stages.len() {
            self.build_structure(config);
        } else {
            for (st, t) in self.stages.iter_mut().zip(&nest.tasks) {
                st.extent = t.extent;
            }
        }
        self.configured_threads = config.total_threads();
        self.dispatches_since_reconfig = 0;
        for s in 0..self.stages.len() {
            self.try_start(s);
        }
    }
}

/// Simulates a pipeline under a mechanism.
///
/// With a [`Source::Saturated`] source the run lasts `horizon_secs`; with
/// an open source it ends when every item has drained (or at the horizon,
/// whichever is first).
pub fn run_pipeline(
    model: &PipelineModel,
    source: &Source,
    mechanism: &mut dyn Mechanism,
    res: Resources,
    params: &PipelineParams,
) -> PipelineOutcome {
    run_pipeline_observed(model, source, mechanism, res, params, &mut NullSink)
}

/// [`run_pipeline`] with a [`ControlSink`] hearing every decision point.
///
/// The sink hears the launch configuration, each control-tick snapshot,
/// each scored decision, each proposal verdict, and each applied
/// configuration — enough to build a replayable flight-recorder trace
/// of the run.
pub fn run_pipeline_observed(
    model: &PipelineModel,
    source: &Source,
    mechanism: &mut dyn Mechanism,
    res: Resources,
    params: &PipelineParams,
    observer: &mut dyn ControlSink,
) -> PipelineOutcome {
    let budget = if params.allow_oversubscription {
        u32::MAX
    } else {
        res.threads.min(params.contexts).max(1)
    };
    let shape = model.shape();
    let initial: Arc<Config> = mechanism
        .initial(shape, &res)
        .filter(|c| c.validate(shape, budget).is_ok())
        .unwrap_or_else(|| model.config_even(res.threads.min(params.contexts)))
        .into();

    let mut sim = Sim {
        model,
        params,
        now: 0.0,
        events: Agenda::new(),
        stages: Vec::new(),
        generation: 0,
        alt: 0,
        global_busy: 0,
        configured_threads: 0,
        saturated: matches!(source, Source::Saturated),
        arrivals_done: false,
        completed: 0,
        dispatches_since_reconfig: 0,
        response: ResponseStats::new(),
        throughput_series: TimeSeries::new("throughput"),
        power_series: TimeSeries::new("power"),
        sensor: params
            .power
            .map(|p| PowerSensor::new(p.model, p.sample_interval_secs, p.seed)),
        draw: Accrual::new(0.0, params.power.map_or(0.0, |p| p.model.idle_watts())),
        sink_at_tick: 0,
    };
    observer.launched(mechanism.name(), res.threads, shape, &initial);
    sim.apply_config(&initial);
    let mut core = ControlCore::new(
        mechanism,
        observer,
        shape,
        res,
        crate::rules(budget),
        initial,
    );

    // Arrivals enter the agenda one at a time, each as its predecessor
    // arrives.
    let mut arrivals = match source {
        Source::Open(schedule) => schedule.times(),
        Source::Saturated => &[],
    }
    .iter();
    let mut next_arrival = |sim: &mut Sim<'_>| match arrivals.next() {
        Some(&t) => sim.events.push(t, Ev::Arrive),
        None => sim.arrivals_done = true,
    };
    next_arrival(&mut sim);
    sim.events.push(params.control_period_secs, Ev::Tick);
    for s in 0..sim.stages.len() {
        sim.try_start(s);
    }

    while let Some((t, ev)) = sim.events.pop() {
        if t > params.horizon_secs {
            sim.now = params.horizon_secs;
            break;
        }
        sim.now = t;
        match ev {
            Ev::Arrive => {
                let item = Item { submit: sim.now };
                sim.stages[0].queue.push_back(item);
                sim.try_start(0);
                next_arrival(&mut sim);
            }
            Ev::Complete {
                generation,
                stage,
                item,
            } => {
                sim.set_global_busy(sim.global_busy.saturating_sub(1));
                if generation == sim.generation {
                    let st = &mut sim.stages[stage];
                    st.busy.set(sim.now, st.busy.level().saturating_sub(1));
                    st.completions += 1;
                    let len = sim.stages.len();
                    sim.deliver(stage, len, item);
                    sim.try_start(stage);
                } else {
                    // Stale completion from a replaced structure: route the
                    // item into the current structure.
                    let old_len = sim.model.stages(sim.alt).len().max(stage + 1);
                    sim.deliver(stage, old_len, item);
                }
            }
            Ev::Tick => {
                let snap = sim.snapshot();
                if let Some(power) = snap.power_watts {
                    sim.power_series.push(sim.now, power);
                }
                let window_rate =
                    (sim.completed - sim.sink_at_tick) as f64 / params.control_period_secs;
                sim.throughput_series.push(sim.now, window_rate);
                sim.sink_at_tick = sim.completed;

                if core.tick_instant(sim.now, &snap) {
                    sim.apply_config(core.config());
                }
                for st in &mut sim.stages {
                    st.completions_at_tick = st.completions;
                }
                if sim.now + params.control_period_secs <= params.horizon_secs {
                    sim.events
                        .push(sim.now + params.control_period_secs, Ev::Tick);
                }
            }
        }
        // Open-source termination: everything drained.
        if !sim.saturated
            && sim.arrivals_done
            && sim.global_busy == 0
            && sim.stages.iter().all(|s| s.queue.is_empty())
        {
            break;
        }
    }

    let control = core.finish(sim.now, None);
    let horizon = sim.now.min(params.horizon_secs).max(f64::MIN_POSITIVE);
    let mean_power = params.power.map(|_| sim.draw.mean(sim.now));
    PipelineOutcome {
        completed: sim.completed,
        horizon_secs: horizon,
        response: sim.response,
        throughput_series: sim.throughput_series,
        power_series: sim.power_series,
        // The initial configuration (history[0]) is not a "change".
        config_history: control.config_history.into_iter().skip(1).collect(),
        final_config: control.final_config,
        mean_power_watts: mean_power,
        rejected_configs: control.rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::StaticMechanism;

    fn three_stage() -> PipelineModel {
        PipelineModel::new(
            "pipe",
            vec![
                StageProfile::seq("in", 0.001),
                StageProfile::par("work", 0.010),
                StageProfile::seq("out", 0.001),
            ],
        )
    }

    fn run_static(model: &PipelineModel, extents: &[u32], horizon: f64) -> PipelineOutcome {
        let config = model.config_with_extents(0, extents);
        let mut mech = StaticMechanism::new(config);
        run_pipeline(
            model,
            &Source::Saturated,
            &mut mech,
            Resources::threads(24),
            &PipelineParams {
                horizon_secs: horizon,
                ..PipelineParams::default()
            },
        )
    }

    #[test]
    fn saturated_throughput_matches_bottleneck() {
        let model = three_stage();
        let out = run_static(&model, &[1, 10, 1], 50.0);
        // Bottleneck: work stage, 10 workers at 10 ms (+ forwarding 0) =>
        // 1000 items/s; in stage at 1 ms => 1000 items/s. Either bounds at
        // ~1000/s.
        let thr = out.throughput();
        assert!((900.0..=1050.0).contains(&thr), "throughput {thr}");
    }

    #[test]
    fn more_workers_on_bottleneck_increases_throughput() {
        let model = three_stage();
        let narrow = run_static(&model, &[1, 2, 1], 30.0);
        let wide = run_static(&model, &[1, 8, 1], 30.0);
        assert!(
            wide.throughput() > 1.5 * narrow.throughput(),
            "wide {} narrow {}",
            wide.throughput(),
            narrow.throughput()
        );
    }

    #[test]
    fn oversubscription_dilates_service() {
        // Two balanced parallel stages: a fair split saturates the machine
        // exactly; the oversubscribed configuration runs 50 workers on 24
        // contexts and pays the scheduling tax on every item.
        let model = PipelineModel::new(
            "pipe",
            vec![
                StageProfile::seq("in", 0.0001),
                StageProfile::par("a", 0.010),
                StageProfile::par("b", 0.010),
                StageProfile::seq("out", 0.0001),
            ],
        );
        let fair = run_static(&model, &[1, 11, 11, 1], 30.0);
        let config = model.config_oversubscribed(24);
        let mut mech = StaticMechanism::new(config);
        let os = run_pipeline(
            &model,
            &Source::Saturated,
            &mut mech,
            Resources::threads(24),
            &PipelineParams {
                horizon_secs: 30.0,
                allow_oversubscription: true,
                oversub_penalty_frac: 0.15,
                ..PipelineParams::default()
            },
        );
        assert!(
            os.throughput() < fair.throughput(),
            "oversubscribed {} vs fair {}",
            os.throughput(),
            fair.throughput()
        );
    }

    #[test]
    fn open_source_drains_and_reports_response() {
        let model = three_stage();
        let schedule = ArrivalSchedule::uniform(0.02, 100);
        let mut mech = StaticMechanism::new(model.config_with_extents(0, &[1, 4, 1]));
        let out = run_pipeline(
            &model,
            &Source::Open(schedule),
            &mut mech,
            Resources::threads(24),
            &PipelineParams {
                horizon_secs: 100.0,
                ..PipelineParams::default()
            },
        );
        assert_eq!(out.completed, 100);
        assert_eq!(out.response.count(), 100);
        assert!(out.response.mean().unwrap() > 0.0);
    }

    #[test]
    fn power_meter_reports_series_and_mean() {
        let model = three_stage();
        let mut mech = StaticMechanism::new(model.config_with_extents(0, &[1, 10, 1]));
        let out = run_pipeline(
            &model,
            &Source::Saturated,
            &mut mech,
            Resources::threads(24),
            &PipelineParams {
                horizon_secs: 30.0,
                power: Some(PowerSim::default()),
                ..PipelineParams::default()
            },
        );
        assert!(!out.power_series.is_empty());
        let mean = out.mean_power_watts.unwrap();
        let model_power = PowerModel::default();
        assert!(mean >= model_power.idle_watts() * 0.99, "mean {mean}");
        assert!(mean <= model_power.peak_power() * 1.01, "mean {mean}");
    }

    /// One sequential stage serving `count` items 0.25 s apart in 0.125 s
    /// each: busy half of every gap.
    fn half_busy(
        count: usize,
        mech: &mut dyn Mechanism,
        power: Option<PowerSim>,
    ) -> PipelineOutcome {
        let model = PipelineModel::new("p", vec![StageProfile::seq("s", 0.125)]);
        run_pipeline(
            &model,
            &Source::Open(ArrivalSchedule::uniform(0.25, count)),
            mech,
            Resources::threads(24),
            &PipelineParams {
                power,
                ..PipelineParams::default()
            },
        )
    }

    /// Holds, noting the first stage's utilization at each tick.
    struct UtilizationWatch(Vec<f64>);

    impl Mechanism for UtilizationWatch {
        fn name(&self) -> &'static str {
            "UtilizationWatch"
        }

        fn reconfigure(
            &mut self,
            snap: &MonitorSnapshot,
            _current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            let stage = TaskPath::root_child(0).child(0);
            self.0.push(
                snap.tasks
                    .get(&stage)
                    .map_or(f64::NAN, |row| row.utilization),
            );
            None
        }
    }

    #[test]
    fn utilization_averages_busy_workers_over_the_period() {
        let mut watch = UtilizationWatch(Vec::new());
        let out = half_busy(40, &mut watch, None);
        assert_eq!(out.completed, 40);
        // Each tick lands just before an arrival, with the stage idle. The
        // first period holds three services (arrivals start at 0.25 s),
        // the nine after it four each.
        let mut expected = vec![0.5; 10];
        expected[0] = 0.375;
        assert_eq!(watch.0, expected);
    }

    #[test]
    fn mean_power_charges_each_interval_at_the_level_held_in_it() {
        let model = PowerModel::new(500.0, 8.0, 24, 0.0);
        let power = PowerSim {
            model,
            sample_interval_secs: 1.0,
            seed: 1,
        };
        let out = half_busy(40, &mut UtilizationWatch(Vec::new()), Some(power));
        // 40 services of 0.125 s with one context busy, until the last
        // leaves at 10.125 s; idle otherwise.
        assert_eq!(out.horizon_secs, 10.125);
        let expected = 500.0 + 8.0 * (40.0 * 0.125) / 10.125;
        let mean = out.mean_power_watts.unwrap();
        assert!((mean - expected).abs() < 1e-9, "{mean} vs {expected}");
    }

    /// A four-stage pipeline whose second alternative fuses its middle
    /// stages.
    fn fusable() -> PipelineModel {
        PipelineModel::new(
            "p",
            vec![
                StageProfile::seq("in", 0.001),
                StageProfile::par("a", 0.004),
                StageProfile::par("b", 0.004),
                StageProfile::seq("out", 0.001),
            ],
        )
        .with_fused(vec![
            StageProfile::seq("in", 0.001),
            StageProfile::par("ab", 0.008),
            StageProfile::seq("out", 0.001),
        ])
    }

    /// 200 evenly spaced items through `model` under `mech`.
    fn run_open(model: &PipelineModel, mech: &mut dyn Mechanism) -> PipelineOutcome {
        run_pipeline(
            model,
            &Source::Open(ArrivalSchedule::uniform(0.005, 200)),
            mech,
            Resources::threads(24),
            &PipelineParams {
                horizon_secs: 100.0,
                ..PipelineParams::default()
            },
        )
    }

    #[test]
    fn fused_alternative_switch_is_work_conserving() {
        let model = fusable();
        // Static mechanism that switches to the fused alternative.
        let fused = model.config_with_extents(1, &[1, 8, 1]);
        let out = run_open(&model, &mut StaticMechanism::new(fused));
        assert_eq!(out.completed, 200, "no items lost across the switch");
    }

    /// Switches between a plain and a fused configuration every tick.
    struct Flip(Config, Config);

    impl Mechanism for Flip {
        fn name(&self) -> &'static str {
            "flip"
        }

        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            let next = if *current == self.0 { &self.1 } else { &self.0 };
            Some(next.clone())
        }
    }

    #[test]
    fn outcome_is_deterministic() {
        let model = fusable();
        let run = || {
            let plain = model.config_with_extents(0, &[1, 4, 4, 1]);
            let fused = model.config_with_extents(1, &[1, 8, 1]);
            run_open(&model, &mut Flip(plain, fused))
        };
        let (a, b) = (run(), run());
        assert!(a.response.count() > 0 && !a.config_history.is_empty());
        assert_eq!(a.throughput_series.points(), b.throughput_series.points());
        assert_eq!(a.response, b.response);
        assert_eq!(a.config_history, b.config_history);
        assert_eq!(a.completed, b.completed);
    }
}
