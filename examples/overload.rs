//! Overload control, live: a shedding front door under a 10x storm.
//!
//! A two-stage service — `admit` drains an `AdmissionQueue` gated by
//! `Shed { high_water }` into an internal work queue, `serve` burns CPU
//! per request — while a producer offers far more work than the service
//! can absorb. The gate drops the excess with a counted verdict —
//! without ever taking the queue lock — so the requests that *are*
//! admitted see bounded queueing. The run records a flight-recorder
//! trace whose snapshots carry the gate's counters (`dope-trace stats`
//! reads them as per-period `AdmissionDecision` rows), and the mechanism is
//! wrapped in `ShedAware`, which vetoes shrink proposals while the gate
//! is dropping (shedding makes the queue *look* short; see
//! `docs/overload.md`).
//!
//! Run with: `cargo run --release --example overload -- [TRACE_PATH]`
//! then inspect the capture:
//!
//! ```text
//! dope-trace stats   overload-trace.jsonl
//! dope-trace explain overload-trace.jsonl
//! ```

use dope_core::{
    body_fn, AdmissionPolicy, Goal, QueueStats, TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus,
    WorkerSlot,
};
use dope_mechanisms::{Proportional, ShedAware};
use dope_runtime::Dope;
use dope_trace::Recorder;
use dope_workload::{AdmissionQueue, Waited, WorkQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spin(micros: u64) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_micros(micros) {
        std::hint::black_box(0u64);
    }
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "overload-trace.jsonl".to_string());

    // The bounded front door: occupancy at or above the watermark sheds.
    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 64 });
    println!("admission: {}", gate.policy());

    // The internal queue between the admit and serve stages.
    let mid: WorkQueue<u64> = WorkQueue::new();
    let served = Arc::new(AtomicU64::new(0));

    // The service is a nest so the mechanism sees a pipeline: `admit`
    // (sequential front door) feeding `serve` (parallel workers).
    let service = {
        let gate_outer = gate.clone();
        let mid_outer = mid.clone();
        let served_outer = Arc::clone(&served);
        TaskSpec::nest("service", TaskKind::Par, move |_replica: u32| {
            let admit = {
                let gate_factory = gate_outer.clone();
                let mid = mid_outer.clone();
                TaskSpec::leaf("admit", TaskKind::Seq, move |_slot: WorkerSlot| {
                    let gate = gate_factory.clone();
                    let mid = mid.clone();
                    struct Admit {
                        gate: AdmissionQueue<u64>,
                        mid: WorkQueue<u64>,
                    }
                    impl TaskBody for Admit {
                        // Only the hand-off sits between `begin` and `end`.
                        fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
                            match self.gate.take_for(cx) {
                                Waited::Item(i) => {
                                    cx.begin();
                                    let _ = self.mid.enqueue(i);
                                    cx.end();
                                    TaskStatus::Executing
                                }
                                Waited::Suspended => TaskStatus::Suspended,
                                Waited::Closed => TaskStatus::Finished,
                            }
                        }
                        fn fini(&mut self, status: TaskStatus) {
                            if status == TaskStatus::Finished {
                                self.mid.close();
                            }
                        }
                    }
                    Box::new(Admit { gate, mid }) as Box<dyn TaskBody>
                })
            };
            let serve = {
                let mid_factory = mid_outer.clone();
                let mid_load = mid_outer.clone();
                let served = Arc::clone(&served_outer);
                TaskSpec::leaf("serve", TaskKind::Par, move |_slot: WorkerSlot| {
                    let mid = mid_factory.clone();
                    let served = Arc::clone(&served);
                    Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                        match mid.dequeue_for(cx) {
                            Waited::Item(_) => {
                                cx.begin();
                                spin(200); // ~5k requests/s per replica, tops
                                served.fetch_add(1, Ordering::Relaxed);
                                cx.end();
                                TaskStatus::Executing
                            }
                            Waited::Suspended => TaskStatus::Suspended,
                            Waited::Closed => TaskStatus::Finished,
                        }
                    })) as Box<dyn TaskBody>
                })
                .with_load(move || mid_load.occupancy())
            };
            vec![admit, serve]
        })
        .with_max_extent(1)
    };

    let recorder = Recorder::bounded(65_536);
    let queue_gate = gate.clone();
    let queue_mid = mid.clone();
    let queue_served = Arc::clone(&served);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 4 })
        // ShedAware: while the gate drops, a short queue is evidence of
        // shedding, not idle capacity — shrink proposals are vetoed.
        .mechanism(Box::new(ShedAware::new(Proportional::new())))
        .control_period(Duration::from_millis(10))
        .queue_probe(move || QueueStats {
            occupancy: queue_mid.occupancy(),
            arrival_rate: 0.0,
            enqueued: queue_gate.stats().admitted,
            completed: queue_served.load(Ordering::Relaxed),
        })
        .admission(gate.policy())
        .admission_probe(gate.stats_probe())
        .recorder(recorder.clone())
        .launch(vec![service])
        .expect("launch");

    // The storm: bursts far faster than the service can drain. Shed
    // verdicts return immediately (atomics only), so the producer never
    // slows down — exactly the open-loop overload the gate exists for.
    for burst in 0..20u64 {
        for i in 0..1000 {
            let _ = gate.offer(burst * 1000 + i);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let a few pressured control periods elapse, then drain out.
    std::thread::sleep(Duration::from_millis(20));
    gate.close();
    let report = dope.wait().expect("drain");

    let stats = gate.stats();
    println!(
        "offered {}, admitted {}, shed {} ({:.1}% of offers)",
        stats.offered,
        stats.admitted,
        stats.shed(),
        stats.shed_fraction() * 100.0
    );
    println!(
        "mean queue delay of served requests: {:.3} ms",
        stats.mean_queue_delay_secs * 1e3
    );
    println!(
        "served {}, reconfigurations {}",
        served.load(Ordering::Relaxed),
        report.reconfigurations
    );
    assert_eq!(
        stats.offered,
        stats.admitted + stats.shed_high_water,
        "admission conservation"
    );
    assert!(stats.shed() > 0, "a 10x storm against high_water=64 sheds");
    assert_eq!(
        served.load(Ordering::Relaxed),
        stats.admitted,
        "every admitted request is served"
    );

    std::fs::write(&trace_path, dope_trace::to_jsonl(&recorder.records())).expect("write trace");
    println!("trace: {trace_path}");
    println!("  dope-trace stats   {trace_path}");
    println!("  dope-trace explain {trace_path}");
}
