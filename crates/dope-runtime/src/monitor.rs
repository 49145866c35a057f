//! The live application/platform monitor.
//!
//! The paper's runtime "monitors both the application (A) and platform
//! (B)": per-task execution times through `Task::begin`/`Task::end`
//! (per-thread timers), per-task load through `LoadCB`, and platform
//! features through registered callbacks (Figure 9). The
//! [`Monitor`] aggregates those measurements per task path and freezes
//! them into [`MonitorSnapshot`]s for mechanisms.
//!
//! # Sharded recording
//!
//! Task completion is the monitor's hot path, and it is contention-free
//! by construction: every worker thread records into a private
//! `RecorderShard` (per `(path, thread)` pair) using plain relaxed
//! atomic arithmetic — **zero lock acquisitions**, enforced by the
//! `record_path_acquires_no_locks` test via
//! `lockrank::acquisitions_on_this_thread`. Locks appear only on cold
//! paths: a relaunch installing its rows (`Monitor::install`, the one
//! place rows are made), a new context's shard lookup in its row's cell,
//! and shard aggregation when [`Monitor::snapshot`] or a metrics scrape
//! merges per-worker state into one per-path view. See
//! `docs/performance.md` for the design and the memory-ordering
//! argument.
//!
//! The monitor's overhead is a handful of atomic operations per task
//! invocation (the paper reports less than 1%) — and, unlike the paper,
//! this monitor *proves* it: the record path charges a sampled estimate
//! of its own cost, [`Monitor::snapshot`] self-times exactly, and
//! [`Monitor::monitoring_overhead_ratio`] reports the total as a
//! fraction of application work.
//!
//! Beyond the paper's mean execution times, every invocation latency is
//! recorded into a per-shard log-linear histogram (`dope-metrics`), so
//! snapshots carry `p50/p95/p99_exec_secs` per task and an attached
//! [`MetricsRegistry`] exposes full `dope_task_exec_seconds` histograms
//! to a Prometheus scrape, merged from the shards at render time.

use crate::lockrank::{rank, RankedMutex};
use crate::shard::RecorderShard;
use dope_core::{AdmissionStats, Label, MonitorSnapshot, QueueStats, TaskPath, TaskStats};
use dope_metrics::{names, Counter, LocalHistogram, MetricsRegistry};
use dope_platform::FeatureRegistry;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Per-path measurement cell shared by every worker of a task.
///
/// The cell itself holds no measurements — only the list of per-worker
/// [`RecorderShard`]s that do. Workers obtain their shard once (at
/// context creation, the only locking step) and record into it without
/// synchronization; readers merge all shards on demand.
#[derive(Debug)]
pub(crate) struct PathStats {
    /// Shared monitoring-overhead accumulator (nanoseconds).
    overhead_nanos: Arc<AtomicU64>,
    /// One recorder shard per worker thread that ever executed this
    /// path. Locked only on cold paths (shard lookup, aggregation); the
    /// record hot path holds an `Arc<RecorderShard>` and takes no locks.
    shards: RankedMutex<Vec<(ThreadId, Arc<RecorderShard>)>>,
}

/// One path's shards merged into a single view.
struct PathAggregate {
    invocations: u64,
    busy_nanos: u64,
    /// Invocation-weighted mean of the per-shard execution EWMAs.
    mean_exec_secs: f64,
    shards_merged: u64,
}

/// A path's totals when a control period began: at a control tick, or
/// at the row's installation if that came later. A snapshot's rates are
/// what the totals gained since.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    invocations: u64,
    busy_nanos: u64,
}

impl PathStats {
    fn new(overhead_nanos: Arc<AtomicU64>) -> Self {
        PathStats {
            overhead_nanos,
            shards: RankedMutex::new(rank::SHARDS, Vec::new()),
        }
    }

    /// The calling thread's private recorder shard, created on first
    /// use. This is the one locking step of the record pipeline; task
    /// contexts call it once at creation and keep the `Arc`.
    pub(crate) fn shard(&self) -> Arc<RecorderShard> {
        let id = std::thread::current().id();
        let mut shards = self.shards.lock();
        if let Some((_, shard)) = shards.iter().find(|(tid, _)| *tid == id) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(RecorderShard::new(Arc::clone(&self.overhead_nanos)));
        shards.push((id, Arc::clone(&shard)));
        shard
    }

    /// Merges every worker's shard into one per-path view as of `now`;
    /// `hist` is cleared and left holding the merged latency histogram.
    fn aggregate(&self, hist: &mut LocalHistogram, now: Instant) -> PathAggregate {
        let mut invocations = 0u64;
        let mut busy_nanos = 0u64;
        let mut ewma_weighted = 0.0f64;
        let mut ewma_weight = 0u64;
        let mut shards_merged = 0u64;
        hist.clear();
        {
            let shards = self.shards.lock();
            for (_, shard) in shards.iter() {
                let inv = shard.invocations();
                invocations += inv;
                busy_nanos += shard.busy_nanos_at(now);
                if let Some(mean) = shard.ewma_secs() {
                    ewma_weighted += mean * inv as f64;
                    ewma_weight += inv;
                }
                shard.merge_hist_into(hist);
                shards_merged += 1;
            }
        }
        let mean_exec_secs = if ewma_weight > 0 {
            ewma_weighted / ewma_weight as f64
        } else {
            0.0
        };
        PathAggregate {
            invocations,
            busy_nanos,
            mean_exec_secs,
            shards_merged,
        }
    }

    /// Completed invocations summed across all shards.
    pub(crate) fn total_invocations(&self) -> u64 {
        self.shards
            .lock()
            .iter()
            .map(|(_, s)| s.invocations())
            .sum()
    }

    /// `begin`..`end` work nanoseconds across all shards, as of now.
    fn total_busy_nanos(&self) -> u64 {
        let busy = |shard: &RecorderShard| shard.busy_nanos_at(Instant::now());
        self.shards.lock().iter().map(|(_, s)| busy(s)).sum()
    }

    /// Timing records taken across all shards: the invocations that
    /// were timed, of [`PathStats::total_invocations`] counted.
    pub(crate) fn total_timings(&self) -> u64 {
        self.shards.lock().iter().map(|(_, s)| s.timings()).sum()
    }

    /// All shards' latency histograms merged, plus how many were merged
    /// (feeds `dope_monitor_shard_merges_total`).
    pub(crate) fn merged_hist(&self) -> (LocalHistogram, u64) {
        let mut hist = LocalHistogram::new();
        let mut merged = 0u64;
        let shards = self.shards.lock();
        for (_, shard) in shards.iter() {
            shard.merge_hist_into(&mut hist);
            merged += 1;
        }
        (hist, merged)
    }
}

/// Aggregated live measurements for the whole task nest.
///
/// Cloning shares the underlying state; the executive hands clones to the
/// task contexts it creates.
#[derive(Clone)]
pub struct Monitor {
    shared: Arc<MonitorShared>,
}

/// A registered per-task load probe (queue occupancy, pending work, ...).
type LoadCallback = Arc<dyn Fn() -> f64 + Send + Sync>;

/// The work-queue probe behind `snapshot().queue`.
pub(crate) type QueueProbe = Arc<dyn Fn() -> QueueStats + Send + Sync>;

/// The admission-gate probe behind `snapshot().admission`.
pub(crate) type AdmissionProbe = Arc<dyn Fn() -> AdmissionStats + Send + Sync>;

/// Registers one task path's scrape series on the run's registry, if any.
///
/// Both series are render-time *sources*: each scrape merges the path's
/// live shards on demand (and counts the merges into `shard_merges`),
/// so the record path stays free of shared scrape state.
fn register_path_series(shared: &MonitorShared, path: &TaskPath, stats: &Arc<PathStats>) {
    let Some(registry) = &shared.registry else {
        return;
    };
    let label = path.to_string();
    let hist_stats = Arc::clone(stats);
    let merges = Arc::clone(&shared.shard_merges);
    registry.register_histogram_source(
        names::TASK_EXEC_SECONDS,
        "Per-invocation task execution latency",
        &[("path", &label)],
        Arc::new(move || {
            let (hist, merged) = hist_stats.merged_hist();
            merges.add(merged);
            hist
        }),
    );
    let count_stats = Arc::clone(stats);
    registry.register_counter_source(
        names::TASK_INVOCATIONS_TOTAL,
        "Completed task invocations",
        &[("path", &label)],
        Arc::new(move || count_stats.total_invocations()),
    );
}

/// What a relaunch instantiated at one running leaf.
pub(crate) struct RunningTask {
    /// The task's name: a relaunch that gives the path another task
    /// starts the path's row afresh.
    pub name: Label,
    /// Workers at the leaf, summed over the replicas of the enclosing
    /// nest.
    pub extent: u32,
    /// One load probe per replica that registered one; a snapshot sums
    /// them.
    pub load_cbs: Vec<LoadCallback>,
}

impl RunningTask {
    /// `extent` workers of the task `name`, with no load probe yet.
    pub(crate) fn new(name: Label, extent: u32) -> Self {
        let load_cbs = Vec::new();
        RunningTask {
            name,
            extent,
            load_cbs,
        }
    }
}

/// One running leaf: what its relaunch installed, its dead replicas,
/// its measurement cell and its last two period marks.
struct Row {
    task: RunningTask,
    /// Replicas that failed (panicked or vanished) since the leaf was
    /// last relaunched. Snapshots exclude them from per-task statistics
    /// so mechanisms don't steer toward ghosts.
    failed: u32,
    stats: Arc<PathStats>,
    /// The marks of the period before the current one and of the current
    /// one: the control tick measures from the second, an outside read
    /// from the first, so it covers at least one whole period.
    marks: [Mark; 2],
}

/// The rows, with the one histogram every snapshot merges each path's
/// shards through in turn: a 2-3 KB buffer kept across ticks instead of
/// built per path per tick.
#[derive(Default)]
struct PathRows {
    rows: HashMap<TaskPath, Row>,
    /// Busy time of the rows relaunches dropped: application work the
    /// overhead ratio still counts.
    retired_busy_nanos: u64,
    merge_scratch: LocalHistogram,
}

struct MonitorShared {
    start: Instant,
    paths: RankedMutex<PathRows>,
    queue_probe: Option<QueueProbe>,
    admission_probe: Option<AdmissionProbe>,
    features: FeatureRegistry,
    /// Work-queue dispatches at the last applied reconfiguration.
    dispatched_at_reconfig: AtomicU64,
    /// Nanoseconds spent inside monitoring code, summed across threads.
    overhead_nanos: Arc<AtomicU64>,
    /// Shards merged by snapshots and scrapes (`dope_monitor_shard_
    /// merges_total`); monitor-owned so it counts even with no registry
    /// attached.
    shard_merges: Arc<Counter>,
    /// Where each task path's scrape sources register as its row is
    /// made. Everything else a run exports is written by the control
    /// thread, from the snapshots this monitor returns.
    registry: Option<MetricsRegistry>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("paths", &self.shared.paths.lock().rows.len())
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// A monitor without probes, a metrics registry or rows: only
    /// [`Monitor::install`] makes a row, as a launch does.
    pub(crate) fn new(features: FeatureRegistry) -> Self {
        Monitor::with_sources(features, None, None, None)
    }

    /// The monitor of a launched run, built once from what the builder
    /// knows: the probes behind `snapshot().queue` / `.admission`, and
    /// the registry each task path's `dope_task_exec_seconds{path=...}`
    /// histogram and invocation counter register on as its row is made
    /// (plus the shard-merge counter, now).
    pub(crate) fn with_sources(
        features: FeatureRegistry,
        queue_probe: Option<QueueProbe>,
        admission_probe: Option<AdmissionProbe>,
        registry: Option<MetricsRegistry>,
    ) -> Self {
        let shard_merges = Arc::new(Counter::new());
        if let Some(registry) = &registry {
            registry.register_counter(
                names::MONITOR_SHARD_MERGES_TOTAL,
                "Recorder shards merged while aggregating snapshots and scrapes",
                &[],
                Arc::clone(&shard_merges),
            );
        }
        Monitor {
            shared: Arc::new(MonitorShared {
                start: Instant::now(),
                paths: RankedMutex::new(rank::PATHS, PathRows::default()),
                queue_probe,
                admission_probe,
                features,
                dispatched_at_reconfig: AtomicU64::new(0),
                overhead_nanos: Arc::new(AtomicU64::new(0)),
                shard_merges,
                registry,
            }),
        }
    }

    /// Requests completed so far per the installed queue probe (0 when no
    /// probe is installed).
    pub(crate) fn queue_completed(&self) -> u64 {
        self.shared
            .queue_probe
            .as_ref()
            .map_or(0, |probe| probe().completed)
    }

    /// The measurement cell of the running leaf at `path`, if a
    /// relaunch installed one.
    pub(crate) fn stats_for(&self, path: &TaskPath) -> Option<Arc<PathStats>> {
        let paths = self.shared.paths.lock();
        paths.rows.get(path).map(|row| Arc::clone(&row.stats))
    }

    /// Installs what a relaunch of the top-level paths `relaunched`
    /// instantiated: one row per running leaf under them, in place of
    /// every row that ran there, with the relaunch's extent and load
    /// probes and no failure marks. A row keeps its cell and period marks
    /// only if its leaf still runs the same task: an extent-only relaunch
    /// keeps its statistics, a leaf the new configuration lacks leaves
    /// the snapshot, and one whose task changed starts afresh. Rows are
    /// made here and nowhere else.
    pub(crate) fn install(&self, relaunched: &[TaskPath], tasks: HashMap<TaskPath, RunningTask>) {
        let under = |path: &TaskPath| relaunched.iter().any(|top| top.is_prefix_of(path));
        let mut paths = self.shared.paths.lock();
        let PathRows {
            rows,
            retired_busy_nanos,
            ..
        } = &mut *paths;
        rows.retain(|path, row| {
            let same_task = |new: &RunningTask| new.name == row.task.name;
            let keep = !under(path) || tasks.get(path).is_some_and(same_task);
            if !keep {
                *retired_busy_nanos += row.stats.total_busy_nanos();
            }
            keep
        });
        let mark = Mark {
            at: Instant::now(),
            invocations: 0,
            busy_nanos: 0,
        };
        for (path, task) in tasks {
            match rows.entry(path) {
                Entry::Occupied(mut kept) => {
                    let row = kept.get_mut();
                    (row.task, row.failed) = (task, 0);
                }
                Entry::Vacant(new) => {
                    let stats = Arc::new(PathStats::new(Arc::clone(&self.shared.overhead_nanos)));
                    register_path_series(&self.shared, new.key(), &stats);
                    new.insert(Row {
                        task,
                        failed: 0,
                        stats,
                        marks: [mark; 2],
                    });
                }
            }
        }
    }

    /// Marks one replica of `path` as dead until the path is relaunched.
    ///
    /// Snapshots taken afterwards exclude the dead replica: the path's
    /// utilization denominator shrinks to its surviving extent, and a
    /// path with no survivors vanishes from `snapshot().tasks` entirely
    /// so mechanisms don't steer threads toward ghosts.
    pub(crate) fn mark_failed(&self, path: &TaskPath) {
        if let Some(row) = self.shared.paths.lock().rows.get_mut(path) {
            row.failed += 1;
        }
    }

    /// Replicas currently marked dead.
    #[must_use]
    pub fn failed_replicas(&self) -> u32 {
        let paths = self.shared.paths.lock();
        paths.rows.values().map(|row| row.failed).sum()
    }

    /// Marks a reconfiguration: resets the dispatches-since-reconfig
    /// counter.
    pub(crate) fn mark_reconfig(&self) {
        let queue = self.shared.queue_probe.as_ref().map(|probe| probe());
        self.shared
            .dispatched_at_reconfig
            .store(queue.as_ref().map_or(0, dispatched), Ordering::Relaxed);
    }

    /// Seconds since the monitor was created.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64()
    }

    /// Seconds spent inside monitoring code so far (self-measured across
    /// all worker threads: a sampled estimate of every shard record plus
    /// every [`snapshot`](Monitor::snapshot), timed exactly).
    #[must_use]
    pub fn monitoring_overhead_secs(&self) -> f64 {
        self.shared.overhead_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Monitoring overhead as a fraction of application work.
    ///
    /// The denominator is `max(total busy seconds, wall-clock seconds)`:
    /// in steady state that is the accumulated `begin`..`end` work time
    /// across all workers (the quantity the paper's "< 1 %" claim is
    /// stated against); before any work has completed, wall-clock time
    /// keeps the ratio meaningful instead of dividing by zero.
    #[must_use]
    pub fn monitoring_overhead_ratio(&self) -> f64 {
        let overhead = self.monitoring_overhead_secs();
        let paths = self.shared.paths.lock();
        let live: u64 = paths
            .rows
            .values()
            .map(|row| row.stats.total_busy_nanos())
            .sum();
        let busy_secs = (paths.retired_busy_nanos + live) as f64 / 1e9;
        overhead / busy_secs.max(self.elapsed_secs()).max(1e-9)
    }

    /// Freezes the current measurements into a snapshot.
    ///
    /// Aggregation happens here, on the caller's thread: every path's
    /// worker shards are merged into one view (counted by
    /// `dope_monitor_shard_merges_total`), so workers never pay for the
    /// snapshot. The cost of taking the snapshot itself is charged to
    /// the monitoring-overhead meter.
    ///
    /// A row's `throughput` and `utilization` are rates over the last
    /// whole control period and the part of the current one that has
    /// passed, even a moment after a tick: what the path's totals gained
    /// since the tick before the last (or since its row was installed, if
    /// later) over the time since. Busy time counts the timed
    /// invocations still under way.
    ///
    /// A pure read apart from those two meters: nothing is recorded, no
    /// exported series moves and no period mark moves, so anyone may
    /// call it at any time. The control loop's sink records the snapshot
    /// it hands the mechanism, once, as `SnapshotTaken`, and writes the
    /// `dope_*` series from it.
    #[must_use]
    pub fn snapshot(&self) -> MonitorSnapshot {
        self.read(Instant::now(), false)
    }

    /// The control tick's snapshot: rates over exactly the period since
    /// the previous tick (or the row's installation), and in the same pass
    /// over the shards every path's period mark moves to now, so the
    /// next tick's rates cover exactly the period between them.
    pub(crate) fn close_period(&self) -> MonitorSnapshot {
        self.read(Instant::now(), true)
    }

    /// The snapshot as of `now`; a `close_period` read measures from the
    /// current period's marks and moves them to `now`.
    fn read(&self, now: Instant, close_period: bool) -> MonitorSnapshot {
        let t0 = Instant::now();
        let shared = &self.shared;
        let mut snap =
            MonitorSnapshot::at(now.saturating_duration_since(shared.start).as_secs_f64());

        let mut merged = 0u64;
        {
            // Each row is read in place: its load callbacks (summed
            // across replicas) run under the `paths` lock and must not
            // call back into the monitor.
            let mut paths = shared.paths.lock();
            let PathRows {
                rows,
                merge_scratch,
                ..
            } = &mut *paths;
            for (path, row) in rows.iter_mut() {
                let agg = row.stats.aggregate(merge_scratch, now);
                merged += agg.shards_merged;
                let since = row.marks[usize::from(close_period)];
                if close_period {
                    let mark = Mark {
                        at: now,
                        invocations: agg.invocations,
                        busy_nanos: agg.busy_nanos,
                    };
                    row.marks = [row.marks[1], mark];
                }
                // Dead replicas leave the statistics: a fully failed path
                // is a ghost no mechanism should feed threads to, and a
                // partly failed path only counts its survivors in the
                // utilization denominator.
                let alive = row.task.extent.max(1).saturating_sub(row.failed);
                if row.failed > 0 && alive == 0 {
                    continue;
                }
                let period_secs = now.saturating_duration_since(since.at).as_secs_f64();
                let per_sec = |total: u64, then: u64| {
                    total.saturating_sub(then) as f64 / period_secs.max(1e-9)
                };
                let busy = per_sec(agg.busy_nanos, since.busy_nanos) / 1e9;
                let [p50, p95, p99] = merge_scratch
                    .quantiles_secs([0.50, 0.95, 0.99])
                    .unwrap_or_default();
                snap.tasks.insert(
                    path.clone(),
                    TaskStats {
                        invocations: agg.invocations,
                        mean_exec_secs: agg.mean_exec_secs,
                        throughput: per_sec(agg.invocations, since.invocations),
                        load: row.task.load_cbs.iter().map(|cb| cb()).sum(),
                        utilization: (busy / f64::from(alive)).min(1.0),
                        p50_exec_secs: p50,
                        p95_exec_secs: p95,
                        p99_exec_secs: p99,
                    },
                );
            }
        }
        shared.shard_merges.add(merged);

        if let Some(probe) = &shared.queue_probe {
            snap.queue = probe();
        }
        snap.dispatches_since_reconfig = dispatched(&snap.queue)
            .saturating_sub(shared.dispatched_at_reconfig.load(Ordering::Relaxed));
        snap.power_watts = shared.features.value("SystemPower");
        if let Some(probe) = &shared.admission_probe {
            snap.admission = probe();
        }
        shared
            .overhead_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        snap
    }
}

/// Items taken off the work queue so far: what was enqueued less what
/// still waits, as the simulators count dispatches.
fn dispatched(queue: &QueueStats) -> u64 {
    queue.enqueued.saturating_sub(queue.occupancy as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_metrics::Histogram;
    use std::time::Duration;

    impl PathStats {
        /// Records one completed `begin`..`end` interval through the
        /// calling thread's shard, paying the shard lookup every call.
        pub(crate) fn record(&self, exec: Duration) {
            self.shard().record(exec);
        }
    }

    fn monitor() -> Monitor {
        Monitor::new(FeatureRegistry::new())
    }

    fn path(text: &str) -> TaskPath {
        text.parse().unwrap()
    }

    /// What a relaunch instantiates for a path: `extent` workers of the
    /// task `name`, each replica registering one of `loads`.
    fn task(name: &str, extent: u32, loads: &[f64]) -> RunningTask {
        let mut task = RunningTask::new(name.into(), extent);
        let probe = |&load: &f64| Arc::new(move || load) as LoadCallback;
        task.load_cbs = loads.iter().map(probe).collect();
        task
    }

    /// Relaunches the top-level paths of the leaves `tasks` names, with
    /// those leaves.
    fn relaunch(m: &Monitor, tasks: Vec<(&str, RunningTask)>) {
        let mut relaunched: Vec<TaskPath> = tasks
            .iter()
            .map(|(text, _)| TaskPath::root_child(path(text).top_index() as u16))
            .collect();
        relaunched.dedup();
        let tasks = tasks.into_iter().map(|(text, task)| (path(text), task));
        m.install(&relaunched, tasks.collect());
    }

    /// A bare monitor with a one-worker row of task `leaf` at each of
    /// `leaves`, as their launch installs them.
    fn installed(leaves: &[&str]) -> Monitor {
        let m = monitor();
        relaunch(
            &m,
            leaves.iter().map(|&l| (l, task("leaf", 1, &[]))).collect(),
        );
        m
    }

    /// A monitor built the way `Dope::launch` builds it.
    fn monitor_with(
        queue: Option<QueueStats>,
        admission: Option<AdmissionStats>,
        registry: Option<MetricsRegistry>,
    ) -> Monitor {
        Monitor::with_sources(
            FeatureRegistry::new(),
            queue.map(|stats| Arc::new(move || stats) as QueueProbe),
            admission.map(|stats| Arc::new(move || stats) as AdmissionProbe),
            registry,
        )
    }

    #[test]
    fn records_invocations_and_exec_time() {
        let m = installed(&["0.1"]);
        let path: TaskPath = "0.1".parse().unwrap();
        let stats = m.stats_for(&path).unwrap();
        stats.record(Duration::from_millis(10));
        stats.record(Duration::from_millis(30));
        let snap = m.snapshot();
        let ts = snap.task(&path).unwrap();
        assert_eq!(ts.invocations, 2);
        assert!(ts.mean_exec_secs > 0.009 && ts.mean_exec_secs < 0.031);
        assert!(ts.throughput > 0.0);
    }

    #[test]
    fn snapshot_carries_exec_percentiles() {
        let m = installed(&["0"]);
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path).unwrap();
        // 99 fast invocations and one slow outlier: the mean hides the
        // tail, the percentiles must expose it.
        for _ in 0..99 {
            stats.record(Duration::from_millis(1));
        }
        stats.record(Duration::from_millis(500));
        let snap = m.snapshot();
        let ts = snap.task(&path).unwrap();
        assert!(
            (ts.p50_exec_secs - 0.001).abs() / 0.001 < 0.05,
            "p50 = {}",
            ts.p50_exec_secs
        );
        assert!(
            (ts.p99_exec_secs - 0.5).abs() / 0.5 < 0.05,
            "p99 = {}",
            ts.p99_exec_secs
        );
        assert!(ts.p50_exec_secs <= ts.p95_exec_secs);
        assert!(ts.p95_exec_secs <= ts.p99_exec_secs);
    }

    /// Where `path`'s current period began.
    fn mark_of(m: &Monitor, path: &TaskPath) -> Instant {
        m.shared.paths.lock().rows[path].marks[1].at
    }

    /// A row younger than the last tick divides by its own age: 50
    /// completions in its first second read 50/s, where dividing by the
    /// time since the tick would under-report them.
    #[test]
    fn a_fresh_cell_divides_by_its_age() {
        let m = installed(&["0"]);
        let _ = m.close_period();
        relaunch(&m, vec![("1", task("b", 1, &[]))]);
        let stats = m.stats_for(&path("1")).unwrap();
        for _ in 0..50 {
            stats.record(Duration::from_micros(10));
        }
        let one_second_old = mark_of(&m, &path("1")) + Duration::from_secs(1);
        let snap = m.read(one_second_old, false);
        assert_eq!(snap.task(&path("1")).unwrap().throughput, 50.0);
    }

    /// A tick's rates count what happened since the previous tick and
    /// nothing before it, and reads in between move no mark.
    #[test]
    fn a_period_counts_only_its_own_completions() {
        let m = monitor();
        let p = path("0");
        relaunch(&m, vec![("0", task("a", 2, &[]))]);
        let stats = m.stats_for(&p).unwrap();
        for _ in 0..40 {
            stats.record(Duration::from_millis(5));
        }
        let tick = mark_of(&m, &p) + Duration::from_secs(1);
        let merges = m.shared.shard_merges.get();
        let first = m.read(tick, true);
        assert_eq!(first.task(&p).unwrap().throughput, 40.0);
        assert_eq!(m.shared.shard_merges.get(), merges + 1, "one merge a shard");

        for _ in 0..30 {
            stats.record(Duration::from_millis(10));
        }
        // Outside reads between two ticks leave the next tick's window
        // as it was.
        let _ = m.snapshot();
        let _ = m.read(tick + Duration::from_millis(500), false);
        let next = m.read(tick + Duration::from_secs(2), true);
        let row = next.task(&p).unwrap();
        assert_eq!(row.invocations, 70);
        assert_eq!(row.throughput, 30.0 / 2.0, "post-mark count / period");
        let utilization = 0.3 / (2.0 * 2.0);
        assert!(
            (row.utilization - utilization).abs() < 1e-12,
            "post-mark busy / (period x alive): {} vs {utilization}",
            row.utilization
        );
    }

    /// A read a moment after a tick still covers the whole period the
    /// tick closed, not the sliver since: a saturated path does not read
    /// idle because it was looked at early.
    #[test]
    fn an_outside_read_covers_the_last_whole_period() {
        let m = monitor();
        let p = path("0");
        relaunch(&m, vec![("0", task("a", 1, &[]))]);
        let stats = m.stats_for(&p).unwrap();
        let first = mark_of(&m, &p) + Duration::from_secs(1);
        let _ = m.read(first, true);
        for _ in 0..100 {
            stats.record(Duration::from_millis(10));
        }
        let second = first + Duration::from_secs(1);
        let tick = m.read(second, true).task(&p).copied().unwrap();
        assert_eq!((tick.throughput, tick.utilization), (100.0, 1.0));

        let row = m.read(second + Duration::from_micros(50), false);
        let row = row.task(&p).unwrap();
        assert!(row.throughput > 99.0, "throughput {}", row.throughput);
        assert!(row.utilization > 0.99, "utilization {}", row.utilization);
    }

    /// An invocation longer than a control period keeps its worker busy
    /// in every period it spans: each tick reads the time it ran so far,
    /// and its record, when it lands, adds only the rest.
    #[test]
    fn an_invocation_longer_than_a_period_is_busy_in_every_period_it_spans() {
        let m = monitor();
        let p = path("0");
        relaunch(&m, vec![("0", task("a", 1, &[]))]);
        let shard = m.stats_for(&p).unwrap().shard();
        let began = Instant::now();
        let _ = m.read(began, true);
        shard.set_in_flight(Some(began));
        let period = Duration::from_millis(100);
        for n in 1..=3 {
            let row = m.read(began + period * n, true).task(&p).copied().unwrap();
            assert_eq!(row.utilization, 1.0, "period {n}");
        }
        shard.count();
        shard.record_timing(Duration::from_millis(350), 1);
        let last = m.read(began + period * 4, true).task(&p).copied().unwrap();
        assert!(
            (last.utilization - 0.5).abs() < 1e-9,
            "the 50 ms left: {}",
            last.utilization
        );
        assert_eq!(last.throughput, 10.0);
    }

    /// A path grown 1 -> 4 by an extent-only relaunch keeps its cell, and
    /// one period after the grow reads its four saturated workers, not
    /// ten seconds of one worker averaged over four (~0.26).
    #[test]
    fn a_grown_path_reads_its_new_extent_after_one_period() {
        let m = monitor();
        let p = path("0");
        relaunch(&m, vec![("0", task("a", 1, &[]))]);
        let stats = m.stats_for(&p).unwrap();
        stats.record(Duration::from_secs(10));
        let grown = mark_of(&m, &p) + Duration::from_secs(10);
        let _ = m.read(grown, true);

        relaunch(&m, vec![("0", task("a", 4, &[]))]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| stats.shard().record(Duration::from_millis(100)));
            }
        });
        let snap = m.read(grown + Duration::from_millis(100), true);
        let row = snap.task(&p).unwrap();
        assert_eq!(row.invocations, 5, "the kept cell");
        assert!(row.utilization >= 0.9, "utilization {}", row.utilization);
    }

    /// A live context times one invocation in k and leaves a tail
    /// unrecorded until it goes idle, but counts every one: a period's
    /// throughput is every completion in it.
    #[test]
    fn a_sampled_period_counts_every_invocation() {
        use crate::instance::LiveCx;
        use dope_core::TaskCx;
        let m = installed(&["0"]);
        let p = path("0");
        let stats = m.stats_for(&p).unwrap();
        let mut cx = LiveCx::new(&stats, Arc::default());
        let mut invoke = |n: u32| {
            for _ in 0..n {
                cx.begin();
                cx.end();
            }
        };
        invoke(1_000);
        let tick = mark_of(&m, &p) + Duration::from_secs(1);
        let _ = m.read(tick, true);
        invoke(1_000);
        assert!(stats.total_timings() < 500, "sampled");
        assert!(stats.merged_hist().0.count() < 2_000, "a tail unrecorded");
        let period = Duration::from_secs(2);
        let row = m.read(tick + period, true).task(&p).copied().unwrap();
        assert_eq!(row.throughput * period.as_secs_f64(), 1_000.0);
    }

    #[test]
    fn load_callbacks_sum_across_replicas() {
        let m = monitor();
        relaunch(&m, vec![("0", task("a", 2, &[2.0, 3.0]))]);
        m.stats_for(&path("0"))
            .unwrap()
            .record(Duration::from_millis(1));
        let snap = m.snapshot();
        assert_eq!(snap.task(&path("0")).unwrap().load, 5.0);
    }

    /// A relaunched leaf's row stands from its relaunch, before any
    /// replica records: its load is read, its count is zero. A path no
    /// relaunch installed has no row, and looking it up makes none.
    #[test]
    fn an_installed_leaf_reads_its_load_before_its_first_record() {
        let m = monitor();
        relaunch(&m, vec![("0", task("a", 2, &[2.0, 3.0]))]);
        let snap = m.snapshot();
        let row = snap.task(&path("0")).unwrap();
        assert_eq!((row.load, row.invocations), (5.0, 0));
        assert!(m.stats_for(&path("1")).is_none());
        assert_eq!(m.snapshot().tasks.len(), 1);
    }

    /// Dispatches are what left the queue (enqueued less occupancy), as in
    /// the simulators, not what completed: 6 of 10 left, 3 finished.
    #[test]
    fn queue_probe_feeds_snapshot() {
        let queue = QueueStats {
            occupancy: 4.0,
            arrival_rate: 2.0,
            enqueued: 10,
            completed: 3,
        };
        let m = monitor_with(Some(queue), None, None);
        let snap = m.snapshot();
        assert_eq!(snap.queue.occupancy, 4.0);
        assert_eq!(snap.dispatches_since_reconfig, 6);
        m.mark_reconfig();
        assert_eq!(m.snapshot().dispatches_since_reconfig, 0);
    }

    #[test]
    fn admission_probe_feeds_snapshot() {
        let gate = AdmissionStats {
            offered: 100,
            admitted: 80,
            shed_high_water: 20,
            shed_deadline: 0,
            mean_queue_delay_secs: 0.015,
        };
        let snap = monitor_with(None, Some(gate), None).snapshot();
        assert_eq!(snap.admission, gate);
        assert_eq!(monitor().snapshot().admission, AdmissionStats::default());
    }

    #[test]
    fn power_feature_appears_in_snapshot() {
        let features = FeatureRegistry::new();
        features.register("SystemPower", || 612.5);
        let m = Monitor::new(features);
        assert_eq!(m.snapshot().power_watts, Some(612.5));
    }

    /// A snapshot is a read: it takes the two monitor locks in rank
    /// order and nothing else, and moves no exported series but the
    /// shard-merge counter it feeds.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the lock-rank guard is compiled out in release builds"
    )]
    fn snapshot_acquires_only_paths_and_shards() {
        use crate::lockrank::chains_on_this_thread;
        let queue = QueueStats {
            occupancy: 7.0,
            ..QueueStats::default()
        };
        let gate = AdmissionStats {
            offered: 4,
            admitted: 4,
            ..AdmissionStats::default()
        };
        let registry = MetricsRegistry::new();
        let m = monitor_with(Some(queue), Some(gate), Some(registry.clone()));
        relaunch(&m, vec![("0", task("a", 1, &[]))]);
        let stats = m.stats_for(&path("0")).unwrap();
        stats.record(Duration::from_millis(5));
        let families = registry.family_names();
        let before = chains_on_this_thread();
        let snap = m.snapshot();
        assert_eq!((snap.tasks.len(), snap.queue.occupancy), (1, 7.0));
        let acquired: Vec<Vec<u32>> = chains_on_this_thread()
            .into_iter()
            .filter(|(chain, count)| before.get(chain) != Some(count))
            .map(|(chain, _)| chain)
            .collect();
        let (paths, shards) = (rank::PATHS.0, rank::SHARDS.0);
        assert_eq!(acquired, [vec![paths], vec![paths, shards]]);
        assert_eq!(registry.family_names(), families);
        assert!(registry
            .render()
            .contains("dope_monitor_shard_merges_total 1"));
    }

    #[test]
    fn failed_replicas_leave_the_snapshot() {
        let m = monitor();
        let alive: TaskPath = "0".parse().unwrap();
        let doomed: TaskPath = "1".parse().unwrap();
        relaunch(&m, vec![("0", task("a", 2, &[])), ("1", task("b", 1, &[]))]);
        for path in [&alive, &doomed] {
            m.stats_for(path).unwrap().record(Duration::from_millis(2));
        }
        assert_eq!(m.failed_replicas(), 0);
        // One of `alive`'s two replicas dies: the path stays, but its
        // utilization denominator shrinks to the single survivor.
        let full = m.snapshot().task(&alive).unwrap().utilization;
        m.mark_failed(&alive);
        assert_eq!(m.failed_replicas(), 1);
        let snap = m.snapshot();
        let degraded = snap.task(&alive).unwrap().utilization;
        assert!(
            degraded >= full,
            "survivor utilization {degraded} must not shrink below {full}"
        );
        // `doomed` loses its only replica: the whole path vanishes.
        m.mark_failed(&doomed);
        assert_eq!(m.failed_replicas(), 2);
        let snap = m.snapshot();
        assert!(snap.task(&doomed).is_none(), "ghost path must be excluded");
        assert!(snap.task(&alive).is_some());
        // Relaunching both resurrects everything.
        relaunch(&m, vec![("0", task("a", 2, &[])), ("1", task("b", 1, &[]))]);
        assert_eq!(m.failed_replicas(), 0);
        assert!(m.snapshot().task(&doomed).is_some());
    }

    #[test]
    fn install_replaces_only_the_relaunched_paths() {
        let m = monitor();
        let (kept, drained) = (path("0"), path("1"));
        relaunch(
            &m,
            vec![("0", task("k", 2, &[1.0])), ("1", task("d", 1, &[2.0]))],
        );
        // One failure on each path before the partial boundary.
        m.mark_failed(&kept);
        m.mark_failed(&drained);
        assert_eq!(m.failed_replicas(), 2);

        // The partial relaunch widens `drained` to 3 workers with a new
        // load callback; `kept` must keep its registrations and its
        // failure mark.
        relaunch(&m, vec![("1", task("d", 3, &[5.0]))]);
        assert_eq!(
            m.failed_replicas(),
            1,
            "drained path's marks cleared, kept path's retained"
        );
        let snap = m.snapshot();
        assert!((snap.task(&kept).unwrap().load - 1.0).abs() < 1e-9);
        assert!((snap.task(&drained).unwrap().load - 5.0).abs() < 1e-9);
    }

    /// A relaunch keeps a row's cell only while its path runs the same
    /// task: a nest switching from `[a, b]` to `[fused]` drops `b`'s row
    /// and starts `0.0` afresh, and an extent-only relaunch keeps its
    /// stats.
    #[test]
    fn install_drops_the_cells_a_relaunch_no_longer_runs() {
        let m = monitor();
        let record = |text: &str| {
            let stats = m.stats_for(&path(text)).unwrap();
            stats.record(Duration::from_millis(1));
        };
        relaunch(
            &m,
            vec![
                ("0.0", task("a", 1, &[])),
                ("0.1", task("b", 1, &[])),
                ("1", task("sink", 1, &[])),
            ],
        );
        for text in ["0.0", "0.1", "1"] {
            record(text);
        }
        assert_eq!(m.snapshot().tasks.len(), 3);

        relaunch(&m, vec![("0.0", task("fused", 1, &[]))]);
        let snap = m.snapshot();
        assert!(snap.task(&path("0.1")).is_none(), "b left with its nest");
        let fused = snap.task(&path("0.0")).unwrap();
        assert_eq!(fused.invocations, 0, "fused starts afresh");
        assert_eq!(snap.task(&path("1")).unwrap().invocations, 1, "untouched");
        record("0.0");
        assert_eq!(m.snapshot().task(&path("0.0")).unwrap().invocations, 1);

        // An extent-only relaunch of the same task keeps the cell.
        relaunch(&m, vec![("1", task("sink", 2, &[]))]);
        assert_eq!(m.snapshot().task(&path("1")).unwrap().invocations, 1);
        // The dropped cells' work still counts as application work.
        let busy = m.shared.paths.lock().retired_busy_nanos;
        assert_eq!(busy, 2_000_000, "a's and b's millisecond each");
    }

    #[test]
    fn same_path_shares_cell() {
        let m = installed(&["1"]);
        let p: TaskPath = "1".parse().unwrap();
        let a = m.stats_for(&p).unwrap();
        let b = m.stats_for(&p).unwrap();
        a.record(Duration::from_millis(1));
        assert_eq!(b.total_invocations(), 1);
        // `Debug` takes `paths` on its own: the one lock site no run hits.
        assert!(format!("{m:?}").contains("paths: 1"), "{m:?}");
    }

    /// Every path's scrape sources register as its row is made.
    #[test]
    fn attached_registry_sees_per_path_series() {
        let registry = MetricsRegistry::new();
        let m = monitor_with(None, None, Some(registry.clone()));
        relaunch(&m, vec![("0", task("a", 1, &[])), ("1", task("b", 1, &[]))]);
        for (name, millis) in [("0", 2), ("1", 4)] {
            let exec = Duration::from_millis(millis);
            m.stats_for(&path(name)).unwrap().record(exec);
        }
        let _ = m.snapshot();
        let text = registry.render();
        assert!(
            text.contains("dope_task_exec_seconds_count{path=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dope_task_exec_seconds_count{path=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dope_task_invocations_total{path=\"0\"} 1"),
            "{text}"
        );
        // The snapshot above merged one shard per path.
        assert!(text.contains("dope_monitor_shard_merges_total 2"), "{text}");
    }

    #[test]
    fn overhead_meter_accumulates_and_stays_small() {
        let m = installed(&["0"]);
        let stats = m.stats_for(&path("0")).unwrap();
        assert_eq!(m.monitoring_overhead_secs(), 0.0);
        for _ in 0..100 {
            // 1 ms of (claimed) work per 1 record call.
            stats.record(Duration::from_millis(1));
        }
        let _ = m.snapshot();
        let overhead = m.monitoring_overhead_secs();
        assert!(overhead > 0.0, "overhead meter never advanced");
        let ratio = m.monitoring_overhead_ratio();
        assert!(ratio >= 0.0 && ratio.is_finite());
    }

    #[test]
    fn record_path_acquires_no_locks() {
        let m = installed(&["0"]);
        let shard = m.stats_for(&path("0")).unwrap().shard();
        let before = crate::lockrank::acquisitions_on_this_thread();
        for _ in 0..1000 {
            shard.record(Duration::from_micros(5));
        }
        assert_eq!(
            crate::lockrank::acquisitions_on_this_thread(),
            before,
            "the record hot path must not acquire any ranked lock"
        );
    }

    #[test]
    fn concurrent_records_are_neither_lost_nor_double_counted() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        // Deterministic per-thread durations so an exact serial
        // reference can be rebuilt after the fact.
        fn exec_nanos(thread: u64, i: u64) -> u64 {
            1_000 + (thread * 31 + i) % 997
        }

        let m = installed(&["0"]);
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path).unwrap();

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let m = m.clone();
            let path = path.clone();
            handles.push(std::thread::spawn(move || {
                let shard = m.stats_for(&path).unwrap().shard();
                for i in 0..PER_THREAD {
                    shard.record(Duration::from_nanos(exec_nanos(t, i)));
                }
            }));
        }
        // Snapshot concurrently with the writers: aggregation must never
        // tear, and every intermediate count must stay plausible.
        let deadline = Instant::now() + Duration::from_millis(50);
        while Instant::now() < deadline {
            let snap = m.snapshot();
            if let Some(ts) = snap.task(&path) {
                assert!(ts.invocations <= THREADS * PER_THREAD);
            }
        }
        for handle in handles {
            handle.join().expect("writer thread panicked");
        }

        // The scratch arrives dirty, as another path's merge leaves it.
        let mut hist = LocalHistogram::new();
        hist.record_nanos(7);
        let agg = stats.aggregate(&mut hist, Instant::now());
        assert_eq!(agg.shards_merged, THREADS, "one shard per writer thread");
        assert_eq!(agg.invocations, THREADS * PER_THREAD, "no lost records");

        // The merged histogram and busy time must equal a serial
        // reference of the very same durations: nothing lost, nothing
        // double-counted, bucket by bucket.
        let reference = Histogram::new();
        let mut busy = 0u64;
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let nanos = exec_nanos(t, i);
                reference.record_nanos(nanos);
                busy += nanos;
            }
        }
        assert_eq!(agg.busy_nanos, busy);
        assert_eq!(hist, reference.snapshot());
    }
}
