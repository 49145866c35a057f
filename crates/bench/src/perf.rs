//! The perf gate: pinned microbenches emitting `BENCH_perf.json`.
//!
//! Nine probes, each guarding one latency the DoPE stack promises to
//! keep small (see `docs/performance.md`):
//!
//! 1. **record path** — ns/op of the sharded task-completion record,
//!    single-threaded and contended
//!    ([`dope_runtime::perf::bench_record_path`]);
//! 2. **snapshot** — `Monitor::snapshot` latency over a populated path
//!    set ([`dope_runtime::perf::bench_snapshot`]);
//! 3. **reconfigure** — pause/relaunch latency of a real suspend +
//!    relaunch cycle, read back from a flight recording of a live
//!    transcode run;
//! 4. **partial reconfig pause** — the same single-leaf extent change
//!    applied as a partial (delta) drain versus a forced full drain on a
//!    wide program with slow sibling tasks; the gate demands the delta
//!    path pause at least 4x less than the full drain;
//! 5. **fig11** — wall time of an end-to-end figure-11 sweep, the
//!    macro-level canary;
//! 6. **overload** — admission policies under 10x offered load
//!    ([`crate::overload`]): with `Shed`, the p99 of admitted requests
//!    must stay bounded (at least 4x under the open queue's p99) while
//!    goodput holds at >= 90 % of saturation throughput, and `Block`
//!    must complete every offered request;
//! 7. **handoff** — the queue hand-offs every job crosses, with no peer
//!    parked (`WorkQueue::enqueue`, `AdmissionQueue::offer`/`take`: lock
//!    and push, no syscall) and with one parked (a real wake), next to
//!    the cost of the bare no-waiter notify they no longer pay;
//! 8. **control** — one `ControlCore` tick on an 8-path snapshot against
//!    a no-op sink: the consult/judge hop of a control period, holding
//!    and accepting; and what one recorded simulator consult allocates
//!    ([`record_sim_point`]). Ledger only: no gate, no baseline row;
//! 9. **monitor** — what "time one in k" costs and buys: a timed and an
//!    untimed `begin`..`end` on the live task context, the share of
//!    invocations timed back to back and 2 ms apart
//!    ([`dope_runtime::perf::bench_invoke`]), and a gate offer that
//!    stamps every item next to one that stamps a sample. Ledger only.
//!
//! The report also states `nproc`, the core count it was taken on.
//!
//! The report is strict-codec JSON (`dope_core::json`), diffable with
//! [`compare`] against a checked-in baseline
//! (`results/perf-baseline.json`); [`gate_failures`] additionally
//! enforces the in-run invariants: the delta drain beats the full drain
//! and the overload frontier holds.

use dope_apps::transcode;
use dope_core::control::{ControlCore, NullSink, Rules};
use dope_core::json::{parse, Value};
use dope_core::{
    body_fn, AdmissionPolicy, Config, FailurePolicy, Goal, Mechanism, MonitorSnapshot,
    ProgramShape, Resources, ShapeNode, TaskBody, TaskConfig, TaskKind, TaskPath, TaskSpec,
    TaskStats, TaskStatus, WorkerSlot,
};
use dope_mechanisms::WqLinear;
use dope_sim::system::{run_system_observed, SystemParams};
use dope_trace::{Recorder, RecordingObserver, TraceEvent, TraceRecord};
use dope_workload::{AdmissionQueue, ArrivalSchedule, DequeueOutcome, ResponseStats, WorkQueue};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Schema tag carried by every report.
pub const SCHEMA: &str = "dope-bench-perf/v1";

/// Comparison threshold used when the caller does not pass one: a
/// metric may grow by 75 % before the gate fails. Deliberately
/// generous — the gate exists to catch gross regressions (a lock back
/// on the hot path, an accidentally quadratic snapshot), not scheduler
/// jitter.
pub const DEFAULT_THRESHOLD: f64 = 0.75;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs every probe and assembles the `BENCH_perf.json` report.
///
/// `quick` shrinks iteration counts to CI-smoke size (about a second of
/// wall time); the full configuration pins each probe long enough for
/// stable numbers.
#[must_use]
pub fn run(quick: bool) -> Value {
    let record_iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let threads: u32 = 8;
    let snapshot_paths: u32 = 8;
    let snapshot_records: u64 = if quick { 20_000 } else { 200_000 };
    let snapshot_samples: u32 = if quick { 20 } else { 100 };

    println!("perf: record path ({record_iters} iters, {threads} threads)");
    let record = dope_runtime::perf::bench_record_path(record_iters, threads);

    println!("perf: snapshot ({snapshot_paths} paths x {snapshot_records} records)");
    let snapshot =
        dope_runtime::perf::bench_snapshot(snapshot_paths, snapshot_records, snapshot_samples);

    println!("perf: reconfigure pause (live transcode run)");
    let reconfigure = bench_reconfigure(quick);

    println!("perf: partial reconfig pause (delta vs full drain)");
    let partial_reconfig = bench_partial_reconfig(quick);

    println!("perf: overload (admission policies at 10x offered load)");
    let overload = crate::overload::run(quick);

    println!("perf: handoff (queue hand-offs, no peer parked / one parked)");
    let handoff = bench_handoff(quick);

    println!("perf: control (one core tick on an 8-path snapshot)");
    let control = bench_control(quick);

    println!("perf: monitor (timed vs untimed invocation, stamped vs sampled offer)");
    let monitor = bench_monitor(quick);

    let fig11_loads = if quick {
        vec![0.8]
    } else {
        crate::load_factors(true)
    };
    let fig11_requests = if quick {
        200
    } else {
        crate::request_count(true)
    };
    println!(
        "perf: fig11 sweep ({} load(s) x {fig11_requests} requests)",
        fig11_loads.len()
    );
    let t0 = Instant::now();
    let sweeps = crate::fig11::run(&fig11_loads, fig11_requests);
    let fig11_wall = t0.elapsed().as_secs_f64();
    let fig11_apps = sweeps.len() as u64;

    obj(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("quick", Value::Bool(quick)),
        (
            "nproc",
            Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        (
            "record_path",
            obj(vec![
                ("iters_per_thread", Value::Number(record.iters_per_thread)),
                ("threads", Value::Number(u64::from(record.threads))),
                (
                    "sharded_single_ns",
                    Value::from_f64(record.sharded_single_ns),
                ),
                (
                    "sharded_contended_ns",
                    Value::from_f64(record.sharded_contended_ns),
                ),
            ]),
        ),
        (
            "snapshot",
            obj(vec![
                ("paths", Value::Number(u64::from(snapshot.paths))),
                ("records_per_path", Value::Number(snapshot.records_per_path)),
                ("snapshot_micros", Value::from_f64(snapshot.snapshot_micros)),
            ]),
        ),
        ("reconfigure", reconfigure),
        ("partial_reconfig_pause", partial_reconfig),
        ("overload", overload),
        ("handoff", handoff),
        ("control", control),
        ("monitor", monitor),
        (
            "fig11",
            obj(vec![
                ("apps", Value::Number(fig11_apps)),
                ("loads", Value::Number(fig11_loads.len() as u64)),
                ("requests", Value::Number(fig11_requests as u64)),
                ("wall_secs", Value::from_f64(fig11_wall)),
            ]),
        ),
    ])
}

/// Runs a short live transcode under WQ-Linear with a flight recorder
/// attached and reads the reconfiguration pause/relaunch latencies back
/// out of the recording.
fn bench_reconfigure(quick: bool) -> Value {
    let videos: u64 = if quick { 24 } else { 96 };
    let (service, descriptor) = transcode::live_service();
    let recorder = Recorder::bounded(4096);
    let launched = dope_runtime::Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .recorder(recorder.clone())
        .launch(descriptor);
    let dope = match launched {
        Ok(dope) => dope,
        Err(err) => {
            return obj(vec![(
                "error",
                Value::String(format!("launch failed: {err}")),
            )])
        }
    };
    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    for id in 0..videos {
        let _ = service.queue.enqueue(transcode::make_video(id, params));
    }
    service.queue.close();
    let _ = dope.wait();

    let mut pauses = Vec::new();
    let mut relaunches = Vec::new();
    for record in recorder.records() {
        if let TraceEvent::ReconfigureEpoch {
            pause_secs,
            relaunch_secs,
            ..
        } = record.event
        {
            pauses.push(pause_secs);
            relaunches.push(relaunch_secs);
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    obj(vec![
        ("videos", Value::Number(videos)),
        ("epochs", Value::Number(pauses.len() as u64)),
        ("mean_pause_ms", Value::from_f64(mean(&pauses) * 1e3)),
        ("mean_relaunch_ms", Value::from_f64(mean(&relaunches) * 1e3)),
    ])
}

/// Proposes a pinned starting configuration, then one target
/// configuration at the first consult, then holds.
struct OneBump {
    fired: bool,
    start: Config,
    target: Config,
}

impl Mechanism for OneBump {
    fn name(&self) -> &'static str {
        "OneBump"
    }
    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(self.start.clone())
    }
    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        _current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        if self.fired {
            None
        } else {
            self.fired = true;
            Some(self.target.clone())
        }
    }
}

/// A leaf that drains its own queue at a fixed per-item cost, honoring
/// the suspend directive after every item — each item boundary is a
/// consistent point.
fn paced_drain_spec(name: &'static str, queue: WorkQueue<u64>, work: Duration) -> TaskSpec {
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
        let queue = queue.clone();
        Box::new(body_fn(move |cx| {
            cx.begin();
            let item = queue.dequeue_timeout(Duration::from_millis(2));
            cx.end();
            match item {
                DequeueOutcome::Item(_) => {
                    std::thread::sleep(work);
                    if cx.directive().wants_suspend() {
                        TaskStatus::Suspended
                    } else {
                        TaskStatus::Executing
                    }
                }
                DequeueOutcome::Drained => TaskStatus::Finished,
                DequeueOutcome::TimedOut => {
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

/// Measures the pause cost of the same single-leaf extent change taken
/// as a partial (delta) drain versus a forced full drain.
///
/// The program is one fine-grained leaf (1 ms items — the path whose
/// extent changes) next to seven coarse leaves (30 ms items). A full
/// drain must wait for the slowest in-flight coarse item before the
/// boundary, so its pause is dominated by work that has nothing to do
/// with the change; the delta path drains only the fine leaf. The gate
/// requires the partial pause to be at least 4x smaller.
fn bench_partial_reconfig(quick: bool) -> Value {
    const COARSE_PATHS: u64 = 7;
    let fine_items: u64 = if quick { 150 } else { 400 };
    let coarse_items: u64 = if quick { 8 } else { 16 };
    let fine_work = Duration::from_millis(1);
    let coarse_work = Duration::from_millis(30);

    let run_once = |delta: bool| -> (f64, u64) {
        let mut specs = Vec::new();
        let mut start_tasks = Vec::new();
        let fine_queue = WorkQueue::new();
        for i in 0..fine_items {
            let _ = fine_queue.enqueue(i);
        }
        fine_queue.close();
        specs.push(paced_drain_spec("fine", fine_queue, fine_work));
        start_tasks.push(TaskConfig::leaf("fine", 1));
        let coarse_names: [&'static str; COARSE_PATHS as usize] =
            ["c1", "c2", "c3", "c4", "c5", "c6", "c7"];
        for name in coarse_names {
            let queue = WorkQueue::new();
            for i in 0..coarse_items {
                let _ = queue.enqueue(i);
            }
            queue.close();
            specs.push(paced_drain_spec(name, queue, coarse_work));
            start_tasks.push(TaskConfig::leaf(name, 1));
        }
        let start = Config::new(start_tasks);
        let mut target = start.clone();
        if let Some(task) = target.tasks.first_mut() {
            task.extent = 2;
        }
        let recorder = Recorder::bounded(4096);
        let launched = dope_runtime::Dope::builder(Goal::MaxThroughput { threads: 9 })
            .mechanism(Box::new(OneBump {
                fired: false,
                start,
                target,
            }))
            .control_period(Duration::from_millis(10))
            .delta_reconfig(delta)
            .recorder(recorder.clone())
            .launch(specs);
        let Ok(dope) = launched else {
            return (0.0, 0);
        };
        let _ = dope.wait();
        let pauses: Vec<f64> = recorder
            .records()
            .iter()
            .filter_map(|record| match &record.event {
                TraceEvent::ReconfigureEpoch { pause_secs, .. } => Some(*pause_secs),
                _ => None,
            })
            .collect();
        if pauses.is_empty() {
            (0.0, 0)
        } else {
            let mean = pauses.iter().sum::<f64>() / pauses.len() as f64;
            (mean * 1e3, pauses.len() as u64)
        }
    };

    let (partial_pause_ms, partial_epochs) = run_once(true);
    let (full_pause_ms, full_epochs) = run_once(false);
    let pause_ratio = if partial_pause_ms > 0.0 {
        full_pause_ms / partial_pause_ms
    } else {
        0.0
    };
    obj(vec![
        ("paths", Value::Number(1 + COARSE_PATHS)),
        ("fine_items", Value::Number(fine_items)),
        ("coarse_items", Value::Number(coarse_items)),
        ("partial_pause_ms", Value::from_f64(partial_pause_ms)),
        ("partial_epochs", Value::Number(partial_epochs)),
        ("full_pause_ms", Value::from_f64(full_pause_ms)),
        ("full_epochs", Value::Number(full_epochs)),
        ("pause_ratio", Value::from_f64(pause_ratio)),
    ])
}

/// Times the hand-offs a job crosses on its way through a pipeline.
///
/// With no peer parked, `enqueue`/`offer`/`take` are a lock and a push or
/// pop: the queues notify only a parked thread (see
/// `docs/performance.md`, "Queue hand-off: wake only sleepers").
/// `notify_no_waiter_ns` is what one skipped notify would have cost on
/// this host; `wake_us` is what a hand-off to a parked consumer still
/// costs, enqueue to the consumer running.
/// Offers each hand-off and stamping probe times per run.
const OFFERS: u64 = 100_000;

/// Times `OFFERS` live offers into a fresh gate with nobody parked on it
/// (ns per offer), and hands back the filled gate.
fn time_offers(policy: AdmissionPolicy) -> (f64, AdmissionQueue<u64>) {
    let gate = AdmissionQueue::new(policy);
    let t0 = Instant::now();
    for i in 0..OFFERS {
        black_box(gate.offer(i));
    }
    (t0.elapsed().as_nanos() as f64 / OFFERS as f64, gate)
}

fn bench_handoff(quick: bool) -> Value {
    const ITERS: u64 = OFFERS;
    let reps = if quick { 5 } else { 20 };
    let wake_samples: u64 = if quick { 200 } else { 1_000 };
    let poll = Duration::from_millis(2);
    let ns_per_op = |t0: Instant| t0.elapsed().as_nanos() as f64 / ITERS as f64;
    // The fastest of `reps` runs is reported: interference only adds time.
    let (mut enqueue_ns, mut offer_ns, mut take_ns, mut notify_ns) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let queue: WorkQueue<u64> = WorkQueue::new();
        let t0 = Instant::now();
        for i in 0..ITERS {
            let _ = queue.enqueue(i);
        }
        enqueue_ns = enqueue_ns.min(ns_per_op(t0));

        let (ns, gate) = time_offers(AdmissionPolicy::Open);
        offer_ns = offer_ns.min(ns);
        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(gate.take(poll));
        }
        take_ns = take_ns.min(ns_per_op(t0));

        let nobody_waits = std::sync::Condvar::new();
        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(&nobody_waits).notify_one();
        }
        notify_ns = notify_ns.min(ns_per_op(t0));
    }

    let queue: WorkQueue<Instant> = WorkQueue::new();
    let consumer = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let mut wakes = ResponseStats::new();
            while let Some(sent) = queue.dequeue() {
                wakes.record(sent.elapsed().as_secs_f64());
            }
            wakes
        })
    };
    for _ in 0..wake_samples {
        // Long enough for the consumer to have parked again.
        std::thread::sleep(Duration::from_micros(300));
        let _ = queue.enqueue(Instant::now());
    }
    queue.close();
    let wakes = consumer.join().expect("the wake consumer does not panic");
    let wake_us = wakes.percentile(0.5).unwrap_or(0.0) * 1e6;

    obj(vec![
        ("iters", Value::Number(ITERS)),
        ("wake_samples", Value::Number(wake_samples)),
        ("enqueue_ns", Value::from_f64(enqueue_ns)),
        ("offer_ns", Value::from_f64(offer_ns)),
        ("take_ns", Value::from_f64(take_ns)),
        ("notify_no_waiter_ns", Value::from_f64(notify_ns)),
        ("wake_us", Value::from_f64(wake_us)),
    ])
}

/// Records `requests` transcode requests at load 1.0 (seed 7, 24
/// contexts) under WQ-Linear, the way the repo benchmark's `sim_replay`
/// records a grid point — bounded recorder, [`RecordingObserver`],
/// `finished`, `drain` — and returns the recording with the allocations
/// and bytes that took on the calling thread (see
/// [`crate::alloc::measure`]). The arrival schedule is built outside the
/// count.
#[must_use]
pub fn record_sim_point(requests: usize) -> (Vec<TraceRecord>, u64, u64) {
    const CONTEXTS: u32 = 24;
    let model = transcode::sim_model();
    let schedule =
        ArrivalSchedule::for_load_factor(1.0, model.max_throughput(CONTEXTS, 1), requests, 7);
    let mut mechanism = WqLinear::new(1, 8, 12.0);
    crate::alloc::measure(|| {
        let recorder = Recorder::bounded(schedule.len() * 8 + 64);
        let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MinResponseTime");
        let outcome = run_system_observed(
            &model,
            &schedule,
            &mut mechanism,
            Resources::threads(CONTEXTS),
            &SystemParams::default(),
            &mut observer,
        );
        observer.finished(outcome.completed, outcome.config_changes);
        recorder.drain()
    })
}

/// The control-tick hop of the ledger: one [`ControlCore::tick`] on an
/// 8-path snapshot against [`NullSink`]. `tick_hold_ns` is a consult
/// that proposes nothing; `tick_accept_ns` one whose proposal (a
/// single-leaf extent flip) is accepted, with the partial drain and the
/// relaunch answered at once — judge, delta classification, two
/// configuration clones and the history push included.
/// `allocs_per_consult` / `bytes_per_consult` are [`record_sim_point`]'s
/// counts over its consults (one `SnapshotTaken` each).
fn bench_control(quick: bool) -> Value {
    const PATHS: u16 = 8;
    /// Flips the first leaf between extents 1 and 2, or holds.
    struct Flip(bool);
    impl Mechanism for Flip {
        fn name(&self) -> &'static str {
            "Flip"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            self.0.then(|| {
                let mut next = current.clone();
                next.tasks[0].extent = 3 - next.tasks[0].extent;
                next
            })
        }
    }
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let reps = if quick { 5 } else { 20 };
    let name = |i: u16| format!("s{i}");
    let shape = ProgramShape::new(
        (0..PATHS)
            .map(|i| ShapeNode::leaf(name(i), TaskKind::Par))
            .collect(),
    );
    let initial = Config::new((0..PATHS).map(|i| TaskConfig::leaf(name(i), 1)).collect());
    let mut snap = MonitorSnapshot::at(1.0);
    for i in 0..PATHS {
        let stats = TaskStats {
            invocations: 1_000,
            throughput: 100.0,
            ..TaskStats::default()
        };
        snap.tasks.insert(TaskPath::root_child(i), stats);
    }
    let rules = Rules {
        budget: u32::from(PATHS) + 1,
        delta: true,
        policy: FailurePolicy::Abort,
    };
    // The fastest of `reps` runs is reported: interference only adds time.
    let ns_per_tick = |accept: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let (mut mechanism, mut sink) = (Flip(accept), NullSink);
            let res = Resources::threads(rules.budget);
            let mut core = ControlCore::new(
                &mut mechanism,
                &mut sink,
                &shape,
                res,
                rules,
                initial.clone(),
            );
            let t0 = Instant::now();
            for i in 0..iters {
                black_box(core.tick_instant(i as f64, black_box(&snap)));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
            black_box(core.finish(iters as f64, None));
        }
        best
    };
    let (records, allocs, bytes) = record_sim_point(if quick { 500 } else { 2_000 });
    let consults = records
        .iter()
        .filter(|record| matches!(record.event, TraceEvent::SnapshotTaken { .. }))
        .count()
        .max(1) as f64;
    obj(vec![
        ("paths", Value::Number(u64::from(PATHS))),
        ("iters", Value::Number(iters)),
        ("tick_hold_ns", Value::from_f64(ns_per_tick(false))),
        ("tick_accept_ns", Value::from_f64(ns_per_tick(true))),
        (
            "allocs_per_consult",
            Value::from_f64(allocs as f64 / consults),
        ),
        (
            "bytes_per_consult",
            Value::from_f64(bytes as f64 / consults),
        ),
    ])
}

/// The sampled-timing hop of the ledger (see `docs/performance.md`,
/// "Time one in k"). `invoke_*` come from
/// [`dope_runtime::perf::bench_invoke`]. `offer_stamped_ns` is a live
/// `offer` under `Deadline`, which stamps every item; `offer_unstamped_ns`
/// one under `Open` with no consumer parked, which stamps one in 16.
fn bench_monitor(quick: bool) -> Value {
    let invoke = dope_runtime::perf::bench_invoke(
        if quick { 200_000 } else { 2_000_000 },
        if quick { 25 } else { 100 },
    );
    // The fastest of `reps` runs is reported: interference only adds time.
    let offer_ns = |policy| {
        (0..if quick { 5 } else { 20 })
            .map(|_| time_offers(policy).0)
            .fold(f64::INFINITY, f64::min)
    };
    obj(vec![
        ("iters", Value::Number(invoke.iters)),
        ("invoke_timed_ns", Value::from_f64(invoke.timed_ns)),
        ("invoke_untimed_ns", Value::from_f64(invoke.untimed_ns)),
        (
            "timed_share_saturated",
            Value::from_f64(invoke.saturated_timed_share),
        ),
        (
            "timed_share_paced",
            Value::from_f64(invoke.paced_timed_share),
        ),
        (
            "offer_stamped_ns",
            Value::from_f64(offer_ns(AdmissionPolicy::Deadline {
                budget_secs: 3_600.0,
            })),
        ),
        (
            "offer_unstamped_ns",
            Value::from_f64(offer_ns(AdmissionPolicy::Open)),
        ),
    ])
}

fn metric(report: &Value, section: &str, key: &str) -> Option<f64> {
    report.get(section)?.get(key)?.as_f64()
}

/// In-run invariants a report must satisfy regardless of any baseline,
/// each measured in the same process on the same machine: the delta
/// drain must pause far less than the full drain, and the overload
/// frontier (bounded shed p99, goodput floor, lossless `Block`) must
/// hold. Returns violation messages (empty = pass).
#[must_use]
pub fn gate_failures(report: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    if report.get("partial_reconfig_pause").is_some() {
        match (
            metric(report, "partial_reconfig_pause", "partial_pause_ms"),
            metric(report, "partial_reconfig_pause", "full_pause_ms"),
        ) {
            (Some(partial), Some(full)) if partial > 0.0 => {
                let ratio = full / partial;
                if ratio < 4.0 {
                    failures.push(format!(
                        "partial_reconfig_pause: partial pause {partial:.2} ms is only \
                         {ratio:.1}x better than the full drain's {full:.2} ms \
                         (the delta path must pause at least 4x less)"
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed partial_reconfig_pause.partial_pause_ms / \
                 partial_reconfig_pause.full_pause_ms"
                    .to_string(),
            ),
        }
    }
    if report.get("overload").is_some() {
        match (
            metric(report, "overload", "open_p99_secs"),
            metric(report, "overload", "shed_p99_secs"),
        ) {
            (Some(open), Some(shed)) if shed > 0.0 => {
                let ratio = open / shed;
                if ratio < crate::overload::P99_RATIO_FLOOR {
                    failures.push(format!(
                        "overload: shed p99 {shed:.2} s is only {ratio:.1}x under the \
                         open queue's {open:.2} s (the gate must bound admitted-request \
                         latency at least {:.0}x below open admission)",
                        crate::overload::P99_RATIO_FLOOR
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed overload.open_p99_secs / overload.shed_p99_secs"
                    .to_string(),
            ),
        }
        match (
            metric(report, "overload", "saturation_throughput"),
            metric(report, "overload", "shed_goodput_throughput"),
        ) {
            (Some(saturation), Some(goodput)) if saturation > 0.0 => {
                let fraction = goodput / saturation;
                if fraction < crate::overload::GOODPUT_FLOOR {
                    failures.push(format!(
                        "overload: shed goodput {goodput:.2}/s is only {:.0} % of the \
                         saturation throughput {saturation:.2}/s (must hold >= {:.0} %)",
                        fraction * 100.0,
                        crate::overload::GOODPUT_FLOOR * 100.0
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed overload.saturation_throughput / \
                 overload.shed_goodput_throughput"
                    .to_string(),
            ),
        }
        match metric(report, "overload", "block_lost") {
            Some(lost) => {
                if lost != 0.0 {
                    failures.push(format!(
                        "overload: Block admission lost {lost:.0} request(s) — closed-loop \
                         backpressure must complete every offer"
                    ));
                }
            }
            None => failures.push("report is missing overload.block_lost".to_string()),
        }
    }
    failures
}

/// The (section, key) pairs [`compare`] diffs; for each, larger is
/// worse.
pub const COMPARED_METRICS: &[(&str, &str)] = &[
    ("record_path", "sharded_single_ns"),
    ("record_path", "sharded_contended_ns"),
    ("snapshot", "snapshot_micros"),
    ("reconfigure", "mean_pause_ms"),
    ("partial_reconfig_pause", "full_pause_ms"),
    ("overload", "shed_p99_secs"),
    ("fig11", "wall_secs"),
];

/// Configuration keys per section: a section is only comparable when
/// every one of these matches between the two reports (a 200-request
/// sweep is not slower than a 500-request one just because it ran
/// longer).
const SECTION_CONFIG: &[(&str, &[&str])] = &[
    ("record_path", &["iters_per_thread", "threads"]),
    ("snapshot", &["paths", "records_per_path"]),
    ("reconfigure", &["videos"]),
    (
        "partial_reconfig_pause",
        &["paths", "fine_items", "coarse_items"],
    ),
    (
        "overload",
        &["requests", "load_factor", "high_water", "capacity"],
    ),
    ("fig11", &["loads", "requests", "apps"]),
];

fn config_matches(current: &Value, baseline: &Value, section: &str) -> bool {
    let keys = SECTION_CONFIG
        .iter()
        .find(|(s, _)| *s == section)
        .map_or(&[][..], |(_, keys)| keys);
    keys.iter().all(|key| {
        metric(current, section, key).map(f64::to_bits)
            == metric(baseline, section, key).map(f64::to_bits)
    })
}

/// Diffs `current` against `baseline`: any [`COMPARED_METRICS`] entry
/// that grew by more than `threshold` (fractional, e.g. 0.75 = +75 %)
/// is a regression. Metrics absent or zero on either side are skipped —
/// a missing probe is a schema problem, not a perf regression — as are
/// sections whose run configuration (iteration counts, request counts)
/// differs between the two reports. Returns regression messages (empty
/// = pass).
#[must_use]
pub fn compare(current: &Value, baseline: &Value, threshold: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for &(section, key) in COMPARED_METRICS {
        if !config_matches(current, baseline, section) {
            continue;
        }
        let (Some(cur), Some(base)) = (
            metric(current, section, key),
            metric(baseline, section, key),
        ) else {
            continue;
        };
        if base <= 0.0 || cur <= 0.0 {
            continue;
        }
        let growth = cur / base - 1.0;
        if growth > threshold {
            regressions.push(format!(
                "{section}.{key}: {cur:.1} vs baseline {base:.1} \
                 (+{:.0} %, threshold +{:.0} %)",
                growth * 100.0,
                threshold * 100.0
            ));
        }
    }
    regressions
}

/// Checks one row of the per-PR ledger (`results/perf-history.jsonl`)
/// and returns its `pr` number: `pr` must be a number, `parent` a commit
/// id of 7-40 hex digits, and so must `commit` when the row has one — a
/// row is written before its own commit exists, so the next PR
/// backfills it, and a placeholder can never stand in.
///
/// # Errors
///
/// Says which field is missing or malformed.
pub fn history_row_pr(row: &Value) -> Result<f64, String> {
    let pr = row
        .get("pr")
        .and_then(Value::as_f64)
        .ok_or("no numeric `pr` field")?;
    let is_commit_id = |id: &Value| {
        id.as_str().is_some_and(|id| {
            (7..=40).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_hexdigit())
        })
    };
    for (key, required) in [("parent", true), ("commit", false)] {
        match row.get(key) {
            Some(id) if is_commit_id(id) => {}
            None if !required => {}
            Some(_) => return Err(format!("`{key}` is not a commit id of 7-40 hex digits")),
            None => return Err(format!("no `{key}` commit id")),
        }
    }
    Ok(pr)
}

/// Renders the report as a short human-readable summary.
#[must_use]
pub fn summary(report: &Value) -> String {
    let mut out = String::from("== perf gate ==\n");
    for &(section, key) in &[
        ("record_path", "sharded_single_ns"),
        ("record_path", "sharded_contended_ns"),
        ("snapshot", "snapshot_micros"),
        ("reconfigure", "mean_pause_ms"),
        ("reconfigure", "mean_relaunch_ms"),
        ("partial_reconfig_pause", "partial_pause_ms"),
        ("partial_reconfig_pause", "full_pause_ms"),
        ("partial_reconfig_pause", "pause_ratio"),
        ("overload", "saturation_throughput"),
        ("overload", "open_p99_secs"),
        ("overload", "shed_p99_secs"),
        ("overload", "shed_goodput_throughput"),
        ("overload", "shed_fraction"),
        ("handoff", "enqueue_ns"),
        ("handoff", "offer_ns"),
        ("handoff", "take_ns"),
        ("handoff", "notify_no_waiter_ns"),
        ("handoff", "wake_us"),
        ("control", "tick_hold_ns"),
        ("control", "tick_accept_ns"),
        ("control", "allocs_per_consult"),
        ("control", "bytes_per_consult"),
        ("monitor", "invoke_timed_ns"),
        ("monitor", "invoke_untimed_ns"),
        ("monitor", "timed_share_saturated"),
        ("monitor", "timed_share_paced"),
        ("monitor", "offer_stamped_ns"),
        ("monitor", "offer_unstamped_ns"),
        ("fig11", "wall_secs"),
    ] {
        if let Some(v) = metric(report, section, key) {
            out.push_str(&format!("{section:>12}.{key:<22} {v:>12.2}\n"));
        }
    }
    out
}

/// Round-trips the report through the strict JSON codec, panicking on
/// any asymmetry — run before every write so a malformed report can
/// never become the checked-in baseline.
#[must_use]
pub fn to_validated_json(report: &Value) -> String {
    let text = report.to_json();
    let reparsed = parse(&text).expect("perf report must round-trip the strict codec");
    assert_eq!(&reparsed, report, "perf report JSON round-trip drifted");
    text + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(sharded: f64, snap: f64) -> Value {
        obj(vec![
            ("schema", Value::String(SCHEMA.to_string())),
            (
                "record_path",
                obj(vec![
                    ("sharded_single_ns", Value::from_f64(sharded)),
                    ("sharded_contended_ns", Value::from_f64(sharded * 1.1)),
                ]),
            ),
            (
                "snapshot",
                obj(vec![("snapshot_micros", Value::from_f64(snap))]),
            ),
        ])
    }

    #[test]
    fn compare_flags_only_gross_growth() {
        let base = tiny_report(10.0, 100.0);
        let same = tiny_report(11.0, 110.0);
        assert!(compare(&same, &base, 0.5).is_empty());
        let slow = tiny_report(40.0, 400.0);
        let regressions = compare(&slow, &base, 0.5);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        // Missing sections in the baseline are skipped, not errors.
        let sparse = obj(vec![("schema", Value::String(SCHEMA.to_string()))]);
        assert!(compare(&slow, &sparse, 0.5).is_empty());
    }

    #[test]
    fn gate_enforces_the_partial_pause_ratio() {
        let with_ratio = |partial: f64, full: f64| {
            obj(vec![
                ("schema", Value::String(SCHEMA.to_string())),
                (
                    "record_path",
                    obj(vec![
                        ("sharded_single_ns", Value::from_f64(12.0)),
                        ("sharded_contended_ns", Value::from_f64(14.0)),
                    ]),
                ),
                (
                    "partial_reconfig_pause",
                    obj(vec![
                        ("partial_pause_ms", Value::from_f64(partial)),
                        ("full_pause_ms", Value::from_f64(full)),
                    ]),
                ),
            ])
        };
        assert!(gate_failures(&with_ratio(2.0, 20.0)).is_empty());
        let weak = gate_failures(&with_ratio(8.0, 20.0));
        assert_eq!(weak.len(), 1, "{weak:?}");
        // A probe that never saw a reconfiguration is a failure, not a pass.
        let empty = gate_failures(&with_ratio(0.0, 20.0));
        assert_eq!(empty.len(), 1, "{empty:?}");
        // Reports without the section (pre-probe baselines) are not judged.
        assert!(gate_failures(&tiny_report(12.0, 80.0)).is_empty());
    }

    #[test]
    fn gate_enforces_the_overload_frontier() {
        let with_overload = |shed_p99: f64, goodput: f64, lost: f64| {
            obj(vec![
                ("schema", Value::String(SCHEMA.to_string())),
                (
                    "record_path",
                    obj(vec![
                        ("sharded_single_ns", Value::from_f64(12.0)),
                        ("sharded_contended_ns", Value::from_f64(14.0)),
                    ]),
                ),
                (
                    "overload",
                    obj(vec![
                        ("open_p99_secs", Value::from_f64(40.0)),
                        ("shed_p99_secs", Value::from_f64(shed_p99)),
                        ("saturation_throughput", Value::from_f64(10.0)),
                        ("shed_goodput_throughput", Value::from_f64(goodput)),
                        ("block_lost", Value::from_f64(lost)),
                    ]),
                ),
            ])
        };
        // Bounded p99, healthy goodput, lossless block: pass.
        assert!(gate_failures(&with_overload(2.0, 9.5, 0.0)).is_empty());
        // p99 only 2x under open: the latency bound fails.
        assert_eq!(gate_failures(&with_overload(20.0, 9.5, 0.0)).len(), 1);
        // Goodput collapsed to 50 % of saturation: the goodput floor fails.
        assert_eq!(gate_failures(&with_overload(2.0, 5.0, 0.0)).len(), 1);
        // Block lost requests: closed-loop backpressure is broken.
        assert_eq!(gate_failures(&with_overload(2.0, 9.5, 3.0)).len(), 1);
    }

    #[test]
    fn compare_skips_sections_with_mismatched_config() {
        let snap = |records: u64, micros: f64| {
            obj(vec![(
                "snapshot",
                obj(vec![
                    ("paths", Value::Number(8)),
                    ("records_per_path", Value::Number(records)),
                    ("snapshot_micros", Value::from_f64(micros)),
                ]),
            )])
        };
        // 10x slower but over 10x the records: not comparable, skipped.
        assert!(compare(&snap(200_000, 150.0), &snap(20_000, 15.0), 0.5).is_empty());
        // Same config, 10x slower: flagged.
        assert_eq!(
            compare(&snap(20_000, 150.0), &snap(20_000, 15.0), 0.5).len(),
            1
        );
    }

    #[test]
    fn ledger_rows_need_a_pr_and_real_commit_ids() {
        let row = |text: &str| history_row_pr(&parse(text).expect("test rows are valid JSON"));
        assert_eq!(
            row(r#"{"pr": 19, "commit": "4326c66", "parent": "b69d92f"}"#),
            Ok(19.0)
        );
        // A row cannot know its own commit yet; its parent it must know.
        assert_eq!(row(r#"{"pr": 20, "parent": "4326c66"}"#), Ok(20.0));
        assert!(row(r#"{"pr": 20, "commit": "4326c66"}"#).is_err());
        for placeholder in ["this commit", "4326c6", "4326c6g", ""] {
            let text = format!(r#"{{"pr": 19, "commit": "{placeholder}", "parent": "b69d92f"}}"#);
            assert!(
                row(&text).unwrap_err().contains("`commit`"),
                "{placeholder:?}"
            );
        }
        assert!(row(r#"{"pr": 19, "commit": "4326c66", "parent": 7}"#).is_err());
        assert!(row(r#"{"commit": "4326c66", "parent": "b69d92f"}"#).is_err());
    }

    #[test]
    fn report_round_trips_the_strict_codec() {
        let report = tiny_report(10.0, 100.0);
        let text = to_validated_json(&report);
        assert_eq!(parse(text.trim()).expect("parse"), report);
        assert!(summary(&report).contains("sharded_single_ns"));
    }
}
