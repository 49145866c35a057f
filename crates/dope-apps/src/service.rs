//! Generic live two-level transaction service.
//!
//! The paper's response-time applications share one structure: an outer
//! loop dequeues user transactions from a work queue; each transaction's
//! body can run sequentially or be parallelized across an inner task set.
//! This module builds that structure as a DoPE descriptor once, for any
//! kernel:
//!
//! * **parallel alternative** — a per-replica mini-pipeline: a sequential
//!   `read` task dequeues a transaction and scatters its work chunks into
//!   a replica-local queue; a parallel `work` task (the inner DoP knob)
//!   executes chunks; the worker finishing a transaction's last chunk
//!   records its response time;
//! * **sequential alternative** — the paper's `(1, SEQ)`: one task runs
//!   whole transactions inline.

use dope_core::{
    body_fn, QueueStats, TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus, WorkerSlot,
};
use dope_workload::{DequeueOutcome, ResponseStats, WorkQueue};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of a transaction's work.
pub type ChunkFn = Box<dyn FnOnce() + Send>;

/// A user transaction: an id, a submission timestamp, and the work it
/// decomposes into.
pub struct Transaction {
    /// Request id.
    pub id: u64,
    /// Submission time (response time is measured from here).
    pub submitted: Instant,
    /// The transaction's work, pre-split into independent chunks.
    pub chunks: Vec<ChunkFn>,
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("chunks", &self.chunks.len())
            .finish_non_exhaustive()
    }
}

impl Transaction {
    /// A transaction whose work is `chunks`.
    #[must_use]
    pub fn new(id: u64, chunks: Vec<ChunkFn>) -> Self {
        Transaction {
            id,
            submitted: Instant::now(),
            chunks,
        }
    }
}

/// Shared measurement sink of a live service.
#[derive(Debug)]
pub struct ServiceStats {
    start: Instant,
    response: Mutex<ResponseStats>,
    completed: AtomicU64,
}

impl ServiceStats {
    /// A fresh sink; the clock starts now.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(ServiceStats {
            start: Instant::now(),
            response: Mutex::new(ResponseStats::new()),
            completed: AtomicU64::new(0),
        })
    }

    /// Records the completion of a transaction submitted at `submitted`.
    pub fn record_completion(&self, submitted: Instant) {
        self.response
            .lock()
            .record(submitted.elapsed().as_secs_f64());
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// Transactions completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// A copy of the response-time statistics.
    #[must_use]
    pub fn response(&self) -> ResponseStats {
        self.response.lock().clone()
    }

    /// Seconds since the sink was created.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A live two-level transaction service: work queue plus statistics.
#[derive(Debug)]
pub struct TwoLevelService {
    /// The global work queue transactions arrive on.
    pub queue: WorkQueue<Transaction>,
    /// Completion statistics.
    pub stats: Arc<ServiceStats>,
}

impl Default for TwoLevelService {
    fn default() -> Self {
        TwoLevelService::new()
    }
}

impl TwoLevelService {
    /// A fresh service.
    #[must_use]
    pub fn new() -> Self {
        TwoLevelService {
            queue: WorkQueue::new(),
            stats: ServiceStats::new(),
        }
    }

    /// The DoPE descriptor of the service: a nest named `outer_name`
    /// offering the parallel (read + work) and sequential (whole)
    /// alternatives. `work_cap` caps the inner `work` task's extent (the
    /// paper's `Mmax`).
    #[must_use]
    pub fn descriptor(&self, outer_name: &str, work_cap: Option<u32>) -> Vec<TaskSpec> {
        let queue = self.queue.clone();
        let stats = Arc::clone(&self.stats);
        let queue_seq = self.queue.clone();
        let stats_seq = Arc::clone(&self.stats);
        let source_occupancy = self.queue.clone();

        let parallel: Arc<dyn dope_core::NestFactory> = Arc::new(move |_replica: u32| {
            parallel_nest(queue.clone(), Arc::clone(&stats), work_cap)
        });
        let sequential: Arc<dyn dope_core::NestFactory> = Arc::new(move |_replica: u32| {
            vec![whole_task(queue_seq.clone(), Arc::clone(&stats_seq))]
        });
        vec![
            TaskSpec::nest_choice(outer_name, TaskKind::Par, vec![parallel, sequential])
                .with_load(move || source_occupancy.occupancy()),
        ]
    }

    /// A probe for `DopeBuilder::queue_probe` reporting this service's
    /// work queue.
    pub fn queue_probe(&self) -> impl Fn() -> QueueStats + Send + Sync + 'static {
        let queue = self.queue.clone();
        let stats = Arc::clone(&self.stats);
        move || QueueStats {
            occupancy: queue.occupancy(),
            arrival_rate: {
                let elapsed = stats.elapsed_secs().max(1e-9);
                queue.total_enqueued() as f64 / elapsed
            },
            enqueued: queue.total_enqueued(),
            completed: stats.completed(),
        }
    }
}

/// Transaction metadata shared by its chunks.
struct TxnMeta {
    submitted: Instant,
    remaining: AtomicU32,
}

type ChunkItem = (Arc<TxnMeta>, ChunkFn);

fn parallel_nest(
    source: WorkQueue<Transaction>,
    stats: Arc<ServiceStats>,
    work_cap: Option<u32>,
) -> Vec<TaskSpec> {
    let chunk_q: WorkQueue<ChunkItem> = WorkQueue::new();

    // `read`: dequeue transactions, scatter chunks.
    let read_q = chunk_q.clone();
    let read_stats = Arc::clone(&stats);
    let read = TaskSpec::leaf("read", TaskKind::Seq, move |_slot: WorkerSlot| {
        let source = source.clone();
        let chunk_q = read_q.clone();
        let stats = Arc::clone(&read_stats);
        Box::new(ReadBody {
            source,
            chunk_q,
            stats,
        }) as Box<dyn TaskBody>
    });

    // `work`: execute chunks; the last chunk completes the transaction.
    let work_in = chunk_q.clone();
    let work_stats = Arc::clone(&stats);
    let mut work = TaskSpec::leaf("work", TaskKind::Par, move |_slot: WorkerSlot| {
        let queue = work_in.clone();
        let stats = Arc::clone(&work_stats);
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            stage_step(cx, false, &queue, |(meta, chunk): ChunkItem| {
                chunk();
                if meta.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    stats.record_completion(meta.submitted);
                }
            })
        })) as Box<dyn TaskBody>
    })
    .with_load(move || chunk_q.occupancy());
    if let Some(cap) = work_cap {
        work = work.with_max_extent(cap);
    }
    vec![read, work]
}

/// The `read` stage body: owns the drain protocol (paper's `FiniCB`).
struct ReadBody {
    source: WorkQueue<Transaction>,
    chunk_q: WorkQueue<ChunkItem>,
    stats: Arc<ServiceStats>,
}

impl TaskBody for ReadBody {
    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        // Backpressure: keep pending transactions in the *global* work
        // queue (where LoadCB and the mechanisms can see them) instead of
        // hoarding them in the replica-local chunk queue.
        if self.chunk_q.len() >= 2 && !cx.directive().wants_suspend() {
            std::thread::sleep(Duration::from_micros(200));
            return TaskStatus::Executing;
        }
        stage_step(cx, true, &self.source, |txn| {
            let chunk_count = txn.chunks.len() as u32;
            if chunk_count == 0 {
                self.stats.record_completion(txn.submitted);
                return;
            }
            let meta = Arc::new(TxnMeta {
                submitted: txn.submitted,
                remaining: AtomicU32::new(chunk_count),
            });
            for chunk in txn.chunks {
                // A closed chunk queue only happens during drain; the
                // transaction is then re-counted as lost, which the
                // suspend-before-dequeue protocol prevents.
                let _ = self.chunk_q.enqueue((Arc::clone(&meta), chunk));
            }
        })
    }

    fn fini(&mut self, _status: TaskStatus) {
        // Steer the nest into a consistent state: downstream drains fully.
        self.chunk_q.close();
    }
}

fn whole_task(source: WorkQueue<Transaction>, stats: Arc<ServiceStats>) -> TaskSpec {
    TaskSpec::leaf("whole", TaskKind::Seq, move |_slot: WorkerSlot| {
        let source = source.clone();
        let stats = Arc::clone(&stats);
        Box::new(body_fn(move |cx: &mut dyn TaskCx| {
            stage_step(cx, true, &source, |txn: Transaction| {
                for chunk in txn.chunks {
                    chunk();
                }
                stats.record_completion(txn.submitted);
            })
        })) as Box<dyn TaskBody>
    })
}

/// One invocation of a stage body: a stage that `obeys_suspend` returns
/// `Suspended` when told to; otherwise it waits up to 2 ms for an item
/// (re-reading its directive on the next invocation) and brackets only
/// the item's `work` and hand-off in `begin`/`end`. An idle poll is no
/// invocation, so a path's counts, times and utilization measure items.
pub(crate) fn stage_step<T>(
    cx: &mut dyn TaskCx,
    obeys_suspend: bool,
    input: &WorkQueue<T>,
    work: impl FnOnce(T),
) -> TaskStatus {
    if obeys_suspend && cx.directive().wants_suspend() {
        return TaskStatus::Suspended;
    }
    match input.dequeue_timeout(Duration::from_millis(2)) {
        DequeueOutcome::Item(item) => {
            cx.begin();
            work(item);
            cx.end();
            TaskStatus::Executing
        }
        DequeueOutcome::TimedOut => TaskStatus::Executing,
        DequeueOutcome::Drained => TaskStatus::Finished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::nest;
    use dope_core::ProgramShape;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(us) {
            std::hint::black_box(0u64);
        }
    }

    fn make_txn(id: u64, chunks: usize) -> Transaction {
        Transaction::new(
            id,
            (0..chunks)
                .map(|_| Box::new(|| spin(50)) as ChunkFn)
                .collect(),
        )
    }

    #[test]
    fn descriptor_shape_is_two_level_with_seq_alternative() {
        let service = TwoLevelService::new();
        let specs = service.descriptor("transcode", Some(8));
        let shape = ProgramShape::of_specs(&specs);
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest.parallel_alt, 0);
        assert_eq!(nest.sequential_alt, Some(1));
        assert_eq!(nest::seq_leaves(&shape, &nest), 1);
        // Parallel alternative: read + work.
        let outer = &shape.tasks[0];
        assert_eq!(outer.alternatives[0].len(), 2);
        assert_eq!(outer.alternatives[0][1].max_extent, Some(8));
    }

    #[test]
    fn queue_probe_reports_counts() {
        let service = TwoLevelService::new();
        service.queue.enqueue(make_txn(0, 1)).unwrap();
        let probe = service.queue_probe();
        let stats = probe();
        assert_eq!(stats.occupancy, 1.0);
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn queue_probe_estimates_arrival_rate() {
        let service = TwoLevelService::new();
        let probe = service.queue_probe();
        // Nothing enqueued: the estimate is exactly zero, not NaN, even
        // though almost no time has elapsed.
        assert_eq!(probe().arrival_rate, 0.0);

        for id in 0..8 {
            service.queue.enqueue(make_txn(id, 1)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let first = probe();
        assert_eq!(first.enqueued, 8);
        // rate = enqueued / elapsed; elapsed is at least the 20 ms sleep,
        // so the estimate is positive and bounded by 8 / 0.020.
        assert!(first.arrival_rate > 0.0);
        assert!(
            first.arrival_rate <= 8.0 / 0.020,
            "rate {} exceeds enqueued/elapsed bound",
            first.arrival_rate
        );

        // With no further arrivals the cumulative estimate strictly
        // decays as time passes.
        std::thread::sleep(Duration::from_millis(20));
        let second = probe();
        assert_eq!(second.enqueued, 8);
        assert!(second.arrival_rate < first.arrival_rate);
    }

    #[test]
    fn stats_record_completions() {
        let stats = ServiceStats::new();
        let t = Instant::now();
        stats.record_completion(t);
        stats.record_completion(t);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.response().count(), 2);
    }

    #[test]
    fn whole_task_processes_and_finishes() {
        let service = TwoLevelService::new();
        service.queue.enqueue(make_txn(1, 3)).unwrap();
        service.queue.close();
        let spec = whole_task(service.queue.clone(), Arc::clone(&service.stats));
        let factory = match spec.work() {
            dope_core::Work::Leaf(f) => Arc::clone(f),
            dope_core::Work::Nest(_) => unreachable!(),
        };
        let mut body = factory.make_body(WorkerSlot {
            replica: 0,
            worker: 0,
            extent: 1,
        });
        let mut cx = dope_core::task::NullCx::default();
        assert_eq!(body.invoke(&mut cx), TaskStatus::Executing);
        assert_eq!(body.invoke(&mut cx), TaskStatus::Finished);
        assert_eq!(service.stats.completed(), 1);
    }
}
