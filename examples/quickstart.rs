//! Quickstart: declare a pipeline once, let DoPE pick the parallelism.
//!
//! A three-stage pipeline (produce -> transform -> consume) is declared
//! with *no* thread counts. The executive runs it under a "max throughput
//! with 4 threads" goal, using the paper's Figure 10 proportional
//! mechanism to discover that the heavy middle stage deserves the spare
//! workers.
//!
//! Run with: `cargo run --example quickstart`

use dope_core::{body_fn, Goal, TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus, WorkerSlot};
use dope_mechanisms::Proportional;
use dope_runtime::Dope;
use dope_workload::{Waited, WorkQueue};
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
    const ITEMS: u64 = 400;

    // Queues connecting the stages; the inlet is pre-filled (batch mode).
    let inlet: WorkQueue<u64> = WorkQueue::new();
    let mid: WorkQueue<u64> = WorkQueue::new();
    for i in 0..ITEMS {
        inlet.enqueue(i).expect("inlet open");
    }
    inlet.close();
    let consumed = Arc::new(AtomicU64::new(0));

    // Stage 1: produce (sequential). Light work; closes `mid` when done.
    let produce = {
        let inlet_factory = inlet.clone();
        let inlet_load = inlet.clone();
        let mid = mid.clone();
        TaskSpec::leaf("produce", TaskKind::Seq, move |_slot: WorkerSlot| {
            let inlet = inlet_factory.clone();
            let mid = mid.clone();
            struct Produce {
                inlet: WorkQueue<u64>,
                mid: WorkQueue<u64>,
            }
            impl TaskBody for Produce {
                // Only an item's work and hand-off sit between `begin` and
                // `end`: waiting for one is not an invocation.
                fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
                    match self.inlet.dequeue_for(cx) {
                        Waited::Item(i) => {
                            cx.begin();
                            spin(30);
                            let _ = self.mid.enqueue(i);
                            cx.end();
                            TaskStatus::Executing
                        }
                        Waited::Suspended => TaskStatus::Suspended,
                        Waited::Closed => TaskStatus::Finished,
                    }
                }
                // A suspended producer is relaunched and keeps feeding
                // `mid`: only the finished one closes it.
                fn fini(&mut self, status: TaskStatus) {
                    if status == TaskStatus::Finished {
                        self.mid.close();
                    }
                }
            }
            Box::new(Produce { inlet, mid }) as Box<dyn TaskBody>
        })
        .with_load(move || inlet_load.occupancy())
    };

    // Stage 2: transform (parallel) — 10x the work of the endpoints.
    let transform = {
        let mid_factory = mid.clone();
        let mid_load = mid.clone();
        let consumed = Arc::clone(&consumed);
        TaskSpec::leaf("transform", TaskKind::Par, move |_slot: WorkerSlot| {
            let mid = mid_factory.clone();
            let consumed = Arc::clone(&consumed);
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                match mid.dequeue_for(cx) {
                    Waited::Item(_) => {
                        cx.begin();
                        spin(300);
                        consumed.fetch_add(1, Ordering::Relaxed);
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

    // Declare the parallelism once; extents come from the mechanism.
    let goal = Goal::MaxThroughput { threads: 4 };
    println!("goal: {goal}");
    let dope = Dope::builder(goal)
        .mechanism(Box::new(Proportional::new()))
        .control_period(Duration::from_millis(25))
        .launch(vec![produce, transform])
        .expect("launch");
    let report = dope.wait().expect("run to completion");

    println!(
        "processed {} items in {:?}",
        consumed.load(Ordering::Relaxed),
        report.elapsed
    );
    println!("reconfigurations: {}", report.reconfigurations);
    println!("final configuration: {}", report.final_config);
    assert_eq!(consumed.load(Ordering::Relaxed), ITEMS);
}
