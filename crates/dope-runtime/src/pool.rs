//! A fixed-size worker pool.
//!
//! DoPE "maintains a Thread Pool with as many threads as constrained by
//! the performance goals" (paper §5). Workers pull long-running jobs (task
//! executor loops) from a shared [`WorkQueue`], the queue every stage
//! hands its items over on; between epochs they sit parked in its untimed
//! `dequeue`, woken only by a submit or by `shutdown`'s `close`.
//!
//! Workers are **supervised**: each job runs under
//! [`std::panic::catch_unwind`], so a panicking job can
//! never tear down its worker thread — the pool keeps its full capacity
//! for the rest of the run, and [`WorkerPool::panics_caught`] counts
//! every contained panic. Jobs that must *report* their panic (the
//! executive's task loops) catch the unwind themselves first; the pool's
//! net is the last line of defence.
//!
//! Worker threads are long-lived: a pool spawns its threads once and
//! they survive until `shutdown`, running many jobs each. The monitor's
//! sharded recorders (`docs/performance.md`) lean on this — shards are
//! keyed by `ThreadId`, so stable worker threads keep the per-path
//! shard count bounded by the pool size instead of growing with the
//! job count.

use dope_core::Error;
use dope_metrics::{names, Counter, MetricsRegistry};
use dope_workload::WorkQueue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of OS threads executing submitted jobs.
///
/// # Example
///
/// ```
/// use dope_runtime::WorkerPool;
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(4);
/// let hits = Arc::new(AtomicU32::new(0));
/// for _ in 0..8 {
///     let hits = Arc::clone(&hits);
///     pool.submit(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// pool.shutdown();
/// assert_eq!(hits.load(Ordering::SeqCst), 8);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    jobs: WorkQueue<Job>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs a worker actually started executing.
    dispatched: Arc<Counter>,
    /// Times a worker finished a job and went back to waiting on the
    /// queue (between-epoch idleness, the paper's "threads sit idle").
    parks: Arc<Counter>,
    /// Job panics the supervision wrapper caught. Each one left its
    /// worker thread alive.
    panics_caught: Arc<Counter>,
}

impl WorkerPool {
    /// A pool with `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: u32) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        #[expect(
            clippy::disallowed_methods,
            reason = "depth is bounded by the jobs the executive submits per relaunch; submission is throttled by the drain rendezvous, not by this queue"
        )]
        let jobs: WorkQueue<Job> = WorkQueue::new();
        let dispatched = Arc::new(Counter::new());
        let parks = Arc::new(Counter::new());
        let panics_caught = Arc::new(Counter::new());
        #[expect(
            clippy::expect_used,
            reason = "spawn failure during pool construction is unrecoverable and is the constructor's documented panic contract"
        )]
        let handles = (0..threads)
            .map(|i| {
                let jobs = jobs.clone();
                let dispatched = Arc::clone(&dispatched);
                let parks = Arc::clone(&parks);
                let panics_caught = Arc::clone(&panics_caught);
                std::thread::Builder::new()
                    .name(format!("dope-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.dequeue() {
                            dispatched.inc();
                            // Supervision: a panicking job must not kill
                            // this thread, or the pool silently loses
                            // capacity for the rest of the run. Jobs are
                            // FnOnce and dropped either way, so unwind
                            // safety reduces to "the panic is contained".
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panics_caught.inc();
                            }
                            parks.inc();
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            jobs,
            handles,
            dispatched,
            parks,
            panics_caught,
        }
    }

    /// Exposes the pool's counters and size on `registry`:
    /// `dope_pool_jobs_dispatched_total`, `dope_pool_worker_parks_total`,
    /// and the `dope_pool_threads` gauge.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            names::POOL_JOBS_DISPATCHED_TOTAL,
            "Jobs dispatched to pool workers",
            &[],
            Arc::clone(&self.dispatched),
        );
        registry.register_counter(
            names::POOL_WORKER_PARKS_TOTAL,
            "Times a pool worker finished a job and went back to waiting",
            &[],
            Arc::clone(&self.parks),
        );
        registry.register_counter(
            names::POOL_PANICS_CAUGHT_TOTAL,
            "Job panics contained by the pool's supervision layer",
            &[],
            Arc::clone(&self.panics_caught),
        );
        registry
            .gauge(names::POOL_THREADS, "Worker-pool thread count")
            .set(self.threads() as f64);
    }

    /// Jobs workers actually started executing so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched.get()
    }

    /// Times a worker finished a job (panicked or not) and went back to
    /// waiting on the queue. Equal to [`dispatched`](Self::dispatched)
    /// whenever no job is currently running — panics do not break the
    /// balance, proving no worker thread died.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.parks.get()
    }

    /// Job panics the supervision wrapper caught so far. Each one left
    /// its worker thread alive and parked.
    #[must_use]
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.get()
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Total jobs submitted over the pool's lifetime — across epochs,
    /// this counts every worker job the executive ever launched (the
    /// flight recorder's per-epoch `jobs` field sums to it).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.jobs.total_enqueued()
    }

    /// Submits a job, failing gracefully if the pool was shut down.
    /// Jobs beyond the thread count queue until a worker frees up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] if the pool has been shut down. The job
    /// is dropped unexecuted.
    pub fn try_submit<F>(&self, job: F) -> dope_core::Result<()>
    where
        F: FnOnce() + Send + 'static,
    {
        self.jobs
            .enqueue(Box::new(job))
            .map_err(|_| Error::Usage("job submitted to a shut-down worker pool".to_string()))
    }

    /// Submits a job, panicking if the pool cannot accept it. This is
    /// the convenience wrapper over [`try_submit`](Self::try_submit)
    /// for contexts (examples, tests) where a dead pool is a bug.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down; use
    /// [`try_submit`](Self::try_submit) to handle that case.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if let Err(err) = self.try_submit(job) {
            panic!("{err}");
        }
    }

    /// Shuts the pool down, waiting for queued jobs to finish.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.jobs.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn runs_all_jobs() {
        let pool = WorkerPool::new(3);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn excess_jobs_queue_until_workers_free() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..5 {
            let order = Arc::clone(&order);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                order.lock().push(i);
            });
        }
        pool.shutdown();
        assert_eq!(&*order.lock(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn threads_reports_size() {
        let pool = WorkerPool::new(7);
        assert_eq!(pool.threads(), 7);
    }

    #[test]
    fn submitted_counts_jobs_across_lifetime() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.submitted(), 0);
        for _ in 0..6 {
            pool.submit(|| {});
        }
        assert_eq!(pool.submitted(), 6);
        pool.shutdown();
    }

    #[test]
    fn registered_counters_track_dispatch_and_parks() {
        let pool = WorkerPool::new(2);
        let registry = MetricsRegistry::new();
        pool.register_metrics(&registry);
        for _ in 0..5 {
            pool.submit(|| {});
        }
        pool.shutdown();
        let text = registry.render();
        assert!(text.contains("dope_pool_jobs_dispatched_total 5"), "{text}");
        assert!(text.contains("dope_pool_worker_parks_total 5"), "{text}");
        assert!(text.contains("dope_pool_threads 2"), "{text}");
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        // The single worker takes the panicking job first; if the unwind
        // tore the thread down, the follow-up jobs would never run.
        pool.submit(|| panic!("injected job panic"));
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..4 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn dispatch_and_park_counters_balance_across_a_panic() {
        let pool = WorkerPool::new(2);
        pool.submit(|| panic!("boom"));
        for _ in 0..6 {
            pool.submit(|| {});
        }
        // Drain: all submitted jobs must dispatch and park, panic or not.
        while pool.parks() < 7 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.dispatched(), 7);
        assert_eq!(pool.parks(), 7);
        assert_eq!(pool.panics_caught(), 1);
        pool.shutdown();
    }

    #[test]
    fn try_submit_reports_a_shut_down_pool() {
        let mut pool = WorkerPool::new(1);
        assert!(pool.try_submit(|| {}).is_ok());
        pool.shutdown_inner();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert!(err.to_string().contains("shut-down"), "{err}");
        // submitted only counts accepted jobs.
        assert_eq!(pool.submitted(), 1);
    }

    #[test]
    #[should_panic(expected = "shut-down worker pool")]
    fn submit_panics_on_a_shut_down_pool() {
        let mut pool = WorkerPool::new(1);
        pool.shutdown_inner();
        pool.submit(|| {});
    }

    #[test]
    fn panics_caught_counter_is_registered() {
        let pool = WorkerPool::new(1);
        let registry = MetricsRegistry::new();
        pool.register_metrics(&registry);
        pool.submit(|| panic!("counted"));
        pool.shutdown();
        let text = registry.render();
        assert!(text.contains("dope_pool_panics_caught_total 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "pool needs at least one thread")]
    fn zero_threads_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn drop_joins_workers() {
        let hits = Arc::new(AtomicU32::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..4 {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }
}
