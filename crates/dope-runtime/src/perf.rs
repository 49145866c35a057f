//! Microbenchmark probes of crate-private machinery: the per-worker
//! `RecorderShard` hot path, the monitor's shard aggregation and the
//! live task context's sampled timing.
//!
//! The repo benchmark under `benchmark/` (the yardstick) drives
//! [`bench_record_path`] and [`bench_snapshot`] and reports them as
//! `runtime.record_path_ns`, `runtime.record_path_contended_ns` and
//! `runtime.snapshot_us`; the `dope-bench` `perf` binary (see
//! `docs/performance.md`) drives [`bench_invoke`] for its `monitor`
//! section. None of this is statistical benchmarking infrastructure:
//! these are cheap wall-clock probes.

use crate::instance::LiveCx;
use crate::monitor::{Monitor, PathStats, RunningTask};
use dope_core::{TaskCx, TaskPath};
use dope_platform::FeatureRegistry;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Record-path cost of the sharded design.
#[derive(Debug, Clone, Copy)]
pub struct RecordPathReport {
    /// Record calls each thread performed per variant.
    pub iters_per_thread: u64,
    /// Writer threads in the contended variants.
    pub threads: u32,
    /// Sharded record, one writer (ns per op).
    pub sharded_single_ns: f64,
    /// Sharded record, `threads` concurrent writers (mean ns per op as
    /// experienced by each writer).
    pub sharded_contended_ns: f64,
}

/// Monitor snapshot latency over a populated path set.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReport {
    /// Task paths the monitor aggregated.
    pub paths: u32,
    /// Records each path held when snapshotting started.
    pub records_per_path: u64,
    /// Mean wall-clock per `Monitor::snapshot` call (microseconds).
    pub snapshot_micros: f64,
}

/// Cost of one `begin`..`end` pair on the live task context, which
/// counts every invocation and times one in k (see `LiveCx`).
#[derive(Debug, Clone, Copy)]
pub struct InvokeReport {
    /// Invocations per saturated / all-timed loop.
    pub iters: u64,
    /// A timed invocation: two clock reads, the record, the stride
    /// decision and the overhead meter (ns).
    pub timed_ns: f64,
    /// An untimed invocation (ns): the back-to-back loop's mean with
    /// its timed share taken out at `timed_ns`.
    pub untimed_ns: f64,
    /// Fraction of back-to-back invocations that were timed.
    pub saturated_timed_share: f64,
    /// Fraction of invocations 2 ms apart that were timed (1 expected).
    pub paced_timed_share: f64,
}

/// Times `op` over `iters` calls, returning nanoseconds per op.
fn time_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let iters = iters.max(1);
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// A bare monitor with a one-worker leaf row at each of `0..leaves`,
/// installed as a launch installs them, and the rows' cells.
fn installed(leaves: u16) -> (Monitor, Vec<Arc<PathStats>>) {
    let monitor = Monitor::new(FeatureRegistry::new());
    let paths: Vec<TaskPath> = (0..leaves).map(TaskPath::root_child).collect();
    let leaf = |path: &TaskPath| (path.clone(), RunningTask::new("leaf".into(), 1));
    monitor.install(&paths, paths.iter().map(leaf).collect());
    let cells = paths.iter().filter_map(|path| monitor.stats_for(path));
    let cells = cells.collect();
    (monitor, cells)
}

/// Measures the task-completion record path — one private
/// `RecorderShard` per writer, zero locks — single-threaded and with
/// `threads` concurrent writers on one task path.
#[must_use]
pub fn bench_record_path(iters: u64, threads: u32) -> RecordPathReport {
    let exec = Duration::from_micros(5);
    let threads = threads.max(1);

    // Sharded, one writer.
    let (_monitor, cells) = installed(1);
    let shard = cells[0].shard();
    let sharded_single_ns = time_per_op(iters, |_| shard.record(exec));

    // Sharded, contended: every writer has its own shard of the same
    // path — the contention the design is supposed to have eliminated.
    let (_monitor, cells) = installed(1);
    let barrier = Barrier::new(threads as usize);
    let writers_ns: Vec<f64> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let shard = cells[0].shard();
                    barrier.wait();
                    time_per_op(iters, |_| shard.record(exec))
                })
            })
            .collect();
        // A writer that panicked is left out of the mean.
        writers.into_iter().filter_map(|w| w.join().ok()).collect()
    });
    let sharded_contended_ns = writers_ns.iter().sum::<f64>() / writers_ns.len().max(1) as f64;

    RecordPathReport {
        iters_per_thread: iters.max(1),
        threads,
        sharded_single_ns,
        sharded_contended_ns,
    }
}

/// Measures the live context's `begin`..`end` pair: back to back (the
/// sampled mix a saturated stage pays), with every invocation forced
/// timed, and `paced` invocations 2 ms apart (all of which the sampling
/// rule must time).
#[must_use]
pub fn bench_invoke(iters: u64, paced: u32) -> InvokeReport {
    let (_monitor, cells) = installed(1);
    let stats = &cells[0];
    let iters = iters.max(1);
    // One fresh context per phase, as a relaunched replica would have.
    let timed_share = |n: u64, each: &dyn Fn(&mut LiveCx)| {
        let mut cx = LiveCx::new(stats, Arc::default());
        let before = stats.total_timings();
        let ns = time_per_op(n, |_| each(&mut cx));
        (ns, (stats.total_timings() - before) as f64 / n as f64)
    };
    let (saturated_ns, saturated_timed_share) = timed_share(iters, &|cx| {
        cx.begin();
        cx.end();
    });
    let (timed_ns, _) = timed_share(iters, &|cx| {
        // The first note clears the last `end`, the second reads as an
        // idle invoke — which makes the next invocation a timed one.
        cx.invoke_returned();
        cx.invoke_returned();
        cx.begin();
        cx.end();
    });
    let (_, paced_timed_share) = timed_share(u64::from(paced.max(1)), &|cx| {
        std::thread::sleep(Duration::from_millis(2));
        cx.begin();
        cx.end();
    });
    InvokeReport {
        iters,
        timed_ns,
        untimed_ns: (saturated_ns - saturated_timed_share * timed_ns)
            / (1.0 - saturated_timed_share).max(1e-9),
        saturated_timed_share,
        paced_timed_share,
    }
}

/// Measures `Monitor::snapshot` latency with `paths` task paths, each
/// holding `records_per_path` recorded completions, averaged over
/// `samples` snapshots.
#[must_use]
pub fn bench_snapshot(paths: u32, records_per_path: u64, samples: u32) -> SnapshotReport {
    let (monitor, cells) = installed(paths as u16);
    for stats in &cells {
        let shard = stats.shard();
        for i in 0..records_per_path {
            shard.record(Duration::from_nanos(1_000 + i % 1_000));
        }
    }

    let samples = samples.max(1);
    let t0 = Instant::now();
    for _ in 0..samples {
        let _ = monitor.snapshot();
    }
    let snapshot_micros = t0.elapsed().as_micros() as f64 / f64::from(samples);
    SnapshotReport {
        paths,
        records_per_path,
        snapshot_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_path_probe_reports_positive_costs() {
        let report = bench_record_path(200, 2);
        assert!(report.sharded_single_ns > 0.0);
        assert!(report.sharded_contended_ns > 0.0);
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn invoke_probe_sees_sampling_when_saturated_and_none_when_paced() {
        let report = bench_invoke(20_000, 5);
        assert!(report.timed_ns > report.untimed_ns && report.untimed_ns >= 0.0);
        assert!(report.saturated_timed_share < 0.25);
        assert_eq!(report.paced_timed_share, 1.0);
    }

    #[test]
    fn snapshot_probe_reports_positive_latency() {
        let report = bench_snapshot(3, 50, 2);
        assert!(report.snapshot_micros > 0.0);
        assert_eq!(report.paths, 3);
    }
}
