//! Isolated per-layer probes: public calls timed on their own, mostly
//! single-threaded, min of k (interference only ever adds time).
//!
//! These are the straight-line costs the closure check adds up; what a
//! live run pays on top of their sum is contention.

use crate::plan::{CONTROL_PERIOD_MS, POLL_MS};
use crate::{stats, work};
use dope_apps::pipeline_live::{LivePipeline, PipeItem, StageDef};
use dope_apps::service::ServiceStats;
use dope_core::{
    body_fn, AdmissionPolicy, Config, Goal, Mechanism, ProgramShape, Resources, ShapeNode,
    TaskBody, TaskConfig, TaskKind, TaskSpec, TaskStatus, WorkerSlot,
};
use dope_mechanisms::{Fdp, Oracle, Proportional, Seda, Tbf, Tpc, WqLinear, WqLinearH, WqtH};
use dope_metrics::{Histogram, MetricsRegistry};
use dope_runtime::{Dope, WorkerPool};
use dope_trace::{Recorder, TraceEvent};
use dope_workload::{AdmissionQueue, ArrivalSchedule, ResponseStats, WorkQueue};
use std::hint::black_box;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of each probe; the minimum is reported.
const K: usize = 5;

/// Runs `body` (which performs `ops` operations) `K` times and returns the
/// fastest run's nanoseconds per operation.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..K)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::min(&runs)
}

/// `(name, value)` pairs, names as in `BENCHMARK.json`.
pub type Readings = Vec<(&'static str, f64)>;

/// Every isolated probe. `rounds` is the workload's stage-1 round count
/// (for `apps.work_ns`); `seed` feeds generated inputs only.
pub fn run_all(rounds: u32, seed: u64) -> Readings {
    let mut out = Readings::new();
    workload(&mut out, seed);
    runtime(&mut out);
    control(&mut out);
    trace_and_metrics(&mut out, seed);
    apps(&mut out, rounds);
    out
}

fn workload(out: &mut Readings, seed: u64) {
    const N: u64 = 100_000;
    let mut enq = Vec::new();
    let mut deq = Vec::new();
    for _ in 0..K {
        let queue: WorkQueue<u64> = WorkQueue::new();
        let t0 = Instant::now();
        for i in 0..N {
            let _ = queue.enqueue(i);
        }
        enq.push(t0.elapsed().as_nanos() as f64 / N as f64);
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(queue.dequeue_timeout(Duration::from_millis(POLL_MS)));
        }
        deq.push(t0.elapsed().as_nanos() as f64 / N as f64);
    }
    out.push(("workload.queue_enq_ns", stats::min(&enq)));
    out.push(("workload.queue_deq_ns", stats::min(&deq)));

    let mut offer = Vec::new();
    let mut take = Vec::new();
    for _ in 0..K {
        let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Open);
        let t0 = Instant::now();
        for i in 0..N {
            black_box(gate.offer(i));
        }
        offer.push(t0.elapsed().as_nanos() as f64 / N as f64);
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(gate.take(Duration::from_millis(POLL_MS)));
        }
        take.push(t0.elapsed().as_nanos() as f64 / N as f64);
    }
    out.push(("workload.offer_open_ns", stats::min(&offer)));
    out.push(("workload.take_ns", stats::min(&take)));

    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 1 });
    black_box(gate.offer(0));
    out.push((
        "workload.offer_shed_ns",
        ns_per_op(N, || {
            for i in 0..N {
                black_box(gate.offer(i));
            }
        }),
    ));

    out.push((
        "workload.resp_record_ns",
        ns_per_op(N, || {
            let mut response = ResponseStats::new();
            for i in 0..N {
                response.record(1e-4 + i as f64 * 1e-9);
            }
            black_box(response.count());
        }),
    ));

    out.push((
        "workload.arrivals_ns_per_event",
        ns_per_op(N, || {
            black_box(ArrivalSchedule::poisson(500.0, N as usize, seed).len());
        }),
    ));

    out.push(("workload.queue_wake_us", queue_wake_us()));
}

/// Enqueue -> a consumer parked in `dequeue_timeout` runs, median of 200.
fn queue_wake_us() -> f64 {
    const SAMPLES: usize = 200;
    let queue: WorkQueue<Instant> = WorkQueue::new();
    let consumer = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let mut wakes = Vec::with_capacity(SAMPLES);
            while let Some(sent) = queue.dequeue() {
                wakes.push(sent.elapsed().as_nanos() as f64 / 1e3);
            }
            wakes
        })
    };
    for _ in 0..SAMPLES {
        // Long enough for the consumer to have parked again.
        std::thread::sleep(Duration::from_micros(300));
        let _ = queue.enqueue(Instant::now());
    }
    queue.close();
    stats::median(&consumer.join().expect("the wake consumer does not panic"))
}

fn leaf<F>(name: &str, make: F) -> TaskSpec
where
    F: Fn() -> Box<dyn TaskBody> + Send + Sync + 'static,
{
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| make())
}

fn runtime(out: &mut Readings) {
    out.push(("runtime.invoke_ns", invoke_ns()));

    let threads = crate::sys::nproc();
    let record = dope_runtime::perf::bench_record_path(200_000, threads);
    out.push(("runtime.record_path_ns", record.sharded_single_ns));
    out.push((
        "runtime.record_path_contended_ns",
        record.sharded_contended_ns,
    ));
    let snapshot = dope_runtime::perf::bench_snapshot(8, 20_000, 50);
    out.push(("runtime.snapshot_us", snapshot.snapshot_micros));

    const SUBMITS: u64 = 20_000;
    let submits: Vec<f64> = (0..K)
        .map(|_| {
            let pool = WorkerPool::new(1);
            let t0 = Instant::now();
            for _ in 0..SUBMITS {
                pool.submit(|| {});
            }
            let ns = t0.elapsed().as_nanos() as f64 / SUBMITS as f64;
            pool.shutdown();
            ns
        })
        .collect();
    out.push(("runtime.pool_submit_ns", stats::min(&submits)));
    let pool = WorkerPool::new(1);
    let (tx, rx) = mpsc::channel();
    let trips: Vec<f64> = (0..500)
        .map(|_| {
            let tx = tx.clone();
            let t0 = Instant::now();
            pool.submit(move || {
                let _ = tx.send(());
            });
            rx.recv().expect("the pool runs the job");
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    pool.shutdown();
    out.push(("runtime.pool_roundtrip_us", stats::median(&trips)));

    let launches: Vec<f64> = (0..20)
        .map(|_| {
            let specs = vec![
                leaf("s1", || Box::new(body_fn(|_| TaskStatus::Finished))),
                leaf("s2", || Box::new(body_fn(|_| TaskStatus::Finished))),
            ];
            let t0 = Instant::now();
            let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
                .launch(specs)
                .expect("two finished leaves launch");
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            dope.wait().expect("two finished leaves finish");
            us
        })
        .collect();
    out.push(("runtime.launch_us", stats::min(&launches)));
}

/// One empty-body leaf under a live executive: `begin`/`end`, the
/// directive check and the record, per invocation, including the
/// executor's re-invoke. Timed inside the body, first call to last.
fn invoke_ns() -> f64 {
    const INVOCATIONS: u64 = 500_000;
    let runs: Vec<f64> = (0..K)
        .map(|_| {
            let spent_ns = Arc::new(Mutex::new(0.0));
            let spec = {
                let spent_ns = Arc::clone(&spent_ns);
                leaf("empty", move || {
                    let spent_ns = Arc::clone(&spent_ns);
                    let mut left = INVOCATIONS;
                    let mut started = None;
                    Box::new(body_fn(move |cx| {
                        let t0 = *started.get_or_insert_with(Instant::now);
                        if cx.directive().wants_suspend() {
                            return TaskStatus::Suspended;
                        }
                        cx.begin();
                        cx.end();
                        left -= 1;
                        if left > 0 {
                            return TaskStatus::Executing;
                        }
                        *spent_ns.lock().expect("single worker") = t0.elapsed().as_nanos() as f64;
                        TaskStatus::Finished
                    }))
                })
            };
            Dope::builder(Goal::MaxThroughput { threads: 1 })
                .control_period(Duration::from_millis(CONTROL_PERIOD_MS))
                .launch(vec![spec])
                .and_then(Dope::wait)
                .expect("the empty leaf runs to completion");
            let ns = *spent_ns.lock().expect("the worker has ended");
            ns / INVOCATIONS as f64
        })
        .collect();
    stats::min(&runs)
}

/// An `n`-stage pipeline nest: `n` leaf paths under one outer task.
fn pipeline_shape(stages: usize) -> (ProgramShape, Config) {
    let names: Vec<String> = (0..stages).map(|s| format!("st{s}")).collect();
    let shape = ProgramShape::new(vec![ShapeNode {
        name: "pipe".into(),
        kind: TaskKind::Par,
        max_extent: Some(1),
        alternatives: vec![names
            .iter()
            .map(|n| ShapeNode::leaf(n.clone(), TaskKind::Par))
            .collect()],
    }]);
    let config = Config::new(vec![TaskConfig::nest(
        "pipe",
        1,
        0,
        names
            .iter()
            .map(|n| TaskConfig::leaf(n.clone(), 2))
            .collect(),
    )]);
    (shape, config)
}

fn control(out: &mut Readings) {
    const PATHS: usize = 8;
    const STEPS: usize = 16;
    const ROUNDS: u64 = 200;
    let (pipe_shape, pipe_config) = pipeline_shape(PATHS);
    let pipe_snaps = dope_verify::snapshot_grid(&pipe_shape, STEPS);
    let model = dope_apps::transcode::sim_model();
    let nest_shape = model.shape().clone();
    let nest_config = model.config_for_width(24, 4);
    let nest_snaps = dope_verify::snapshot_grid(&nest_shape, STEPS);
    let res = Resources::threads(24).with_power_budget(630.0);

    let pipeline: Vec<Box<dyn Mechanism>> = vec![
        Box::new(Fdp::default()),
        Box::new(Tbf::new()),
        Box::new(Tpc::default()),
        Box::new(Proportional::new()),
        Box::new(Seda::default()),
    ];
    let two_level: Vec<Box<dyn Mechanism>> = vec![
        Box::new(WqtH::default()),
        Box::new(WqLinear::default()),
        Box::new(WqLinearH::default()),
        Box::new(Oracle::from_table(vec![(2.0, 8), (8.0, 2)], 1)),
    ];
    let mut worst: f64 = 0.0;
    let suites = [
        (pipeline, &pipe_shape, &pipe_config, &pipe_snaps),
        (two_level, &nest_shape, &nest_config, &nest_snaps),
    ];
    for (mechanisms, shape, config, snaps) in suites {
        for mut mechanism in mechanisms {
            let ns = ns_per_op(ROUNDS * STEPS as u64, || {
                for _ in 0..ROUNDS {
                    for snap in snaps {
                        black_box(mechanism.reconfigure(snap, config, shape, &res));
                    }
                }
            });
            worst = worst.max(ns);
        }
    }
    out.push(("mechanisms.consult_max_ns", worst));

    const CHECKS: u64 = 20_000;
    out.push((
        "verify.analyze_ns",
        ns_per_op(CHECKS, || {
            for _ in 0..CHECKS {
                black_box(dope_verify::analyze(&pipe_shape, &pipe_config, &res).is_clean());
            }
        }),
    ));
    out.push((
        "core.validate_ns",
        ns_per_op(CHECKS, || {
            for _ in 0..CHECKS {
                black_box(pipe_config.validate(&pipe_shape, 24).is_ok());
            }
        }),
    ));
}

fn trace_and_metrics(out: &mut Readings, seed: u64) {
    const N: u64 = 50_000;
    let event = || TraceEvent::FeatureRead {
        feature: "SystemPower".to_string(),
        value: 450.0,
    };
    out.push((
        "trace.record_ns",
        ns_per_op(N, || {
            let recorder = Recorder::bounded(1 << 12);
            for _ in 0..N {
                recorder.record_with(event);
            }
            black_box(recorder.len());
        }),
    ));
    let disabled = Recorder::disabled();
    out.push((
        "trace.record_disabled_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                black_box(&disabled).record_with(event);
            }
        }),
    ));

    // The strict JSON parser alone, on the lines of a small recording.
    let recording = crate::simreplay::sample_jsonl(seed);
    let mb = recording.len() as f64 / 1e6;
    let ns = ns_per_op(1, || {
        for line in recording.lines() {
            black_box(dope_core::json::parse(line).is_ok());
        }
    });
    out.push(("core.json_parse_mb_s", mb / (ns / 1e9)));

    let histogram = Histogram::new();
    out.push((
        "metrics.hist_record_ns",
        ns_per_op(N, || {
            for i in 0..N {
                histogram.record_nanos(1_000 + i);
            }
        }),
    ));
    let registry = MetricsRegistry::new();
    for i in 0..8 {
        let stage = format!("s{i}");
        registry
            .counter_with_labels("bench_jobs_total", "jobs", &[("stage", &stage)])
            .add(i);
        registry
            .histogram_with_labels("bench_exec_seconds", "exec", &[("stage", &stage)])
            .record_nanos(1_000 * (i + 1));
    }
    out.push((
        "metrics.render_us",
        ns_per_op(100, || {
            for _ in 0..100 {
                black_box(registry.render().len());
            }
        }) / 1e3,
    ));
}

fn apps(out: &mut Readings, rounds: u32) {
    const CALLS: u64 = 20_000;
    out.push((
        "apps.work_ns",
        ns_per_op(CALLS, || {
            let mut x = 1;
            for _ in 0..CALLS {
                x = work::mix(black_box(x), rounds);
            }
            black_box(x);
        }),
    ));

    const RECORDS: u64 = 50_000;
    out.push((
        "apps.sink_record_ns",
        ns_per_op(RECORDS, || {
            let sink = ServiceStats::new();
            let submitted = Instant::now();
            for _ in 0..RECORDS {
                sink.record_completion(submitted);
            }
            black_box(sink.completed());
        }),
    ));

    out.push(("apps.pipeline_live_cpu_us_per_job", pipeline_live(rounds)));
}

/// CPU per item through `dope_apps::LivePipeline` — the path ferret and
/// dedup take — with the workload's kernel in both stages.
fn pipeline_live(rounds: u32) -> f64 {
    const ITEMS: u64 = 20_000;
    let stage = move |name: &str| {
        StageDef::par(name, move |mut item: PipeItem| {
            let x = item.payload.downcast_mut::<u64>().expect("u64 payloads");
            *x = work::mix(*x, rounds);
            item
        })
    };
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let pipeline = LivePipeline::new();
            let specs = pipeline.descriptor("pipe", vec![vec![stage("a"), stage("b")]]);
            let config = Config::new(vec![TaskConfig::nest(
                "pipe",
                1,
                0,
                vec![TaskConfig::leaf("a", 1), TaskConfig::leaf("b", 1)],
            )]);
            let cpu0 = crate::sys::process_cpu_ns();
            let dope = Dope::builder(Goal::MaxThroughput { threads: 2 })
                .mechanism(Box::new(dope_core::StaticMechanism::new(config)))
                .control_period(Duration::from_millis(CONTROL_PERIOD_MS))
                .launch(specs)
                .expect("the two-stage pipeline launches");
            for id in 0..ITEMS {
                let _ = pipeline.source.enqueue(PipeItem::new(id, Box::new(id)));
            }
            pipeline.source.close();
            dope.wait().expect("the two-stage pipeline drains");
            assert_eq!(pipeline.stats.completed(), ITEMS);
            (crate::sys::process_cpu_ns() - cpu0) as f64 / 1e3 / ITEMS as f64
        })
        .collect();
    stats::min(&runs)
}
