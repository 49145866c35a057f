//! Microbenchmark probes for the perf gate.
//!
//! The `dope-bench` `perf` binary (see `docs/performance.md`) drives
//! these probes and emits `BENCH_perf.json`; CI runs them in a reduced
//! configuration and diffs against a checked-in baseline. They live in
//! the runtime crate because they exercise crate-private machinery: the
//! per-worker `RecorderShard` hot path and the monitor's shard
//! aggregation.
//!
//! None of this is statistical benchmarking infrastructure (criterion
//! covers that in `crates/bench/benches/`); these are cheap wall-clock
//! probes whose job is to catch gross regressions, machine to machine,
//! run to run.

use crate::monitor::Monitor;
use dope_core::TaskPath;
use dope_platform::FeatureRegistry;
use std::collections::HashMap;
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

/// Times `op` over `iters` calls, returning nanoseconds per op.
fn time_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let iters = iters.max(1);
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Joins per-thread ns/op results into their mean (panicked threads are
/// skipped; an empty join set reports 0).
fn mean_join(handles: Vec<std::thread::JoinHandle<f64>>) -> f64 {
    let mut total = 0.0;
    let mut joined = 0u32;
    for handle in handles {
        if let Ok(ns) = handle.join() {
            total += ns;
            joined += 1;
        }
    }
    if joined == 0 {
        0.0
    } else {
        total / f64::from(joined)
    }
}

/// Measures the task-completion record path — one private
/// `RecorderShard` per writer, zero locks — single-threaded and with
/// `threads` concurrent writers on one task path.
#[must_use]
pub fn bench_record_path(iters: u64, threads: u32) -> RecordPathReport {
    let window = Duration::from_secs(10);
    let exec = Duration::from_micros(5);
    let threads = threads.max(1);

    // Sharded, one writer.
    let monitor = Monitor::new(window, 0.25, FeatureRegistry::new());
    let shard = monitor.stats_for(&TaskPath::root().child(0)).shard();
    let now = Instant::now();
    let sharded_single_ns = time_per_op(iters, |_| shard.record(exec, now, window));

    // Sharded, contended: every writer has its own shard of the same
    // path — the contention the design is supposed to have eliminated.
    let monitor = Monitor::new(window, 0.25, FeatureRegistry::new());
    let barrier = Arc::new(Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let monitor = monitor.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let shard = monitor.stats_for(&TaskPath::root().child(0)).shard();
            let now = Instant::now();
            barrier.wait();
            time_per_op(iters, |_| shard.record(exec, now, window))
        }));
    }
    let sharded_contended_ns = mean_join(handles);

    RecordPathReport {
        iters_per_thread: iters.max(1),
        threads,
        sharded_single_ns,
        sharded_contended_ns,
    }
}

/// Measures `Monitor::snapshot` latency with `paths` task paths, each
/// holding `records_per_path` recorded completions, averaged over
/// `samples` snapshots.
#[must_use]
pub fn bench_snapshot(paths: u32, records_per_path: u64, samples: u32) -> SnapshotReport {
    let window = Duration::from_secs(10);
    let monitor = Monitor::new(window, 0.25, FeatureRegistry::new());
    let now = Instant::now();
    let mut extents = HashMap::new();
    for p in 0..paths {
        let path = TaskPath::root().child(p as u16);
        let shard = monitor.stats_for(&path).shard();
        for i in 0..records_per_path {
            shard.record(Duration::from_nanos(1_000 + i % 1_000), now, window);
        }
        extents.insert(path, 1);
    }
    monitor.install_epoch(Vec::new(), extents);

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
    fn snapshot_probe_reports_positive_latency() {
        let report = bench_snapshot(3, 50, 2);
        assert!(report.snapshot_micros > 0.0);
        assert_eq!(report.paths, 3);
    }
}
