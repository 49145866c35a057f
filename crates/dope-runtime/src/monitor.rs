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
//! paths: shard lookup when a context is created at epoch launch, and
//! shard aggregation when [`Monitor::snapshot`] or a metrics scrape
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
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Per-path measurement cell shared by every worker of a task.
///
/// The cell itself holds no measurements — only the list of per-worker
/// [`RecorderShard`]s that do. Workers obtain their shard once (at
/// context creation, the only locking step) and record into it without
/// synchronization; readers merge all shards on demand.
#[derive(Debug)]
pub(crate) struct PathStats {
    /// When this cell was created — bounds the throughput window right
    /// after launch (see [`PathStats::aggregate`]) and anchors every
    /// shard's completion-ring ticks to one shared epoch.
    created: Instant,
    /// Shared monitoring-overhead accumulator (nanoseconds).
    overhead_nanos: Arc<AtomicU64>,
    /// One recorder shard per worker thread that ever executed this
    /// path. Locked only on cold paths (shard lookup, aggregation); the
    /// record hot path holds an `Arc<RecorderShard>` and takes no locks.
    shards: RankedMutex<Vec<(ThreadId, Arc<RecorderShard>)>>,
}

/// One path's shards merged into a single view, as of some instant.
struct PathAggregate {
    invocations: u64,
    busy_nanos: u64,
    /// Invocation-weighted mean of the per-shard execution EWMAs.
    mean_exec_secs: f64,
    /// Ring-counted completions in the window over the effective
    /// (elapsed-bounded) window length.
    throughput: f64,
    /// Seconds since the cell was created: the span `busy_nanos` counts.
    age_secs: f64,
    shards_merged: u64,
}

impl PathStats {
    fn new(overhead_nanos: Arc<AtomicU64>) -> Self {
        PathStats {
            created: Instant::now(),
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
        let shard = Arc::new(RecorderShard::new(
            self.created,
            Arc::clone(&self.overhead_nanos),
        ));
        shards.push((id, Arc::clone(&shard)));
        shard
    }

    /// Records one completed `begin`..`end` interval through the calling
    /// thread's shard.
    ///
    /// Convenience for tests without a cached shard handle; it pays the
    /// shard lookup every call. Hot paths hold the
    /// [`shard`](PathStats::shard) handle and record directly.
    #[cfg(test)]
    pub fn record(&self, exec: Duration, now: Instant, window: Duration) {
        self.shard().record(exec, now, window);
    }

    /// Merges every worker's shard into one per-path view; `hist` is
    /// cleared and left holding the merged latency histogram.
    ///
    /// The throughput denominator is `min(window, elapsed-since-cell-
    /// creation)`: right after launch (or after a reconfiguration
    /// creates a fresh path) the monitor has observed less than a full
    /// window, and dividing by the whole window would underreport
    /// throughput until the window fills.
    fn aggregate(
        &self,
        now: Instant,
        window: Duration,
        hist: &mut LocalHistogram,
    ) -> PathAggregate {
        let mut invocations = 0u64;
        let mut busy_nanos = 0u64;
        let mut recent = 0u64;
        let mut ewma_weighted = 0.0f64;
        let mut ewma_weight = 0u64;
        let mut shards_merged = 0u64;
        hist.clear();
        {
            let shards = self.shards.lock();
            for (_, shard) in shards.iter() {
                let inv = shard.invocations();
                invocations += inv;
                busy_nanos += shard.busy_nanos();
                recent += shard.recent_completions(now, window);
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
        let elapsed = now.saturating_duration_since(self.created);
        let effective = window.min(elapsed);
        let throughput = recent as f64 / effective.as_secs_f64().max(1e-9);
        PathAggregate {
            invocations,
            busy_nanos,
            mean_exec_secs,
            throughput,
            age_secs: elapsed.as_secs_f64().max(1e-9),
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

    /// Accumulated `begin`..`end` work nanoseconds across all shards.
    fn total_busy_nanos(&self) -> u64 {
        self.shards.lock().iter().map(|(_, s)| s.busy_nanos()).sum()
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

    /// Mean execution time and recent throughput (test probe).
    #[cfg(test)]
    fn sample(&self, now: Instant, window: Duration) -> (f64, f64) {
        let agg = self.aggregate(now, window, &mut LocalHistogram::new());
        (agg.mean_exec_secs, agg.throughput)
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

/// Registers one task path's scrape series on `registry`.
///
/// Both series are render-time *sources*: each scrape merges the path's
/// live shards on demand (and counts the merges into `shard_merges`),
/// so the record path stays free of shared scrape state.
fn register_path_series(
    registry: &MetricsRegistry,
    shard_merges: &Arc<Counter>,
    path: &TaskPath,
    stats: &Arc<PathStats>,
) {
    let label = path.to_string();
    let hist_stats = Arc::clone(stats);
    let merges = Arc::clone(shard_merges);
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

/// What the monitor knows of one running task path beside its cell.
pub(crate) struct RunningTask {
    /// The task's name: a relaunch that gives the path another task
    /// starts the path's cell afresh.
    pub name: Label,
    /// Workers (or nest replicas) at the path, summed over the replicas
    /// of the enclosing nest.
    pub extent: u32,
    /// One load probe per replica that registered one; a snapshot sums
    /// them.
    pub load_cbs: Vec<LoadCallback>,
    /// Replicas that failed (panicked or vanished) since the path was
    /// last relaunched. Snapshots exclude them from per-task statistics
    /// so mechanisms don't steer toward ghosts.
    pub failed: u32,
}

/// The measurement cells, with the one histogram every snapshot merges
/// each path's shards through in turn: a 2-3 KB buffer kept across
/// ticks instead of built per path per tick.
#[derive(Default)]
struct PathCells {
    cells: HashMap<TaskPath, Arc<PathStats>>,
    /// Busy time of the cells relaunches dropped: application work the
    /// overhead ratio still counts.
    retired_busy_nanos: u64,
    merge_scratch: LocalHistogram,
}

struct MonitorShared {
    start: Instant,
    window: Duration,
    paths: RankedMutex<PathCells>,
    /// Every running task path, installed and read as one unit.
    epoch: RankedMutex<HashMap<TaskPath, RunningTask>>,
    queue_probe: Option<QueueProbe>,
    admission_probe: Option<AdmissionProbe>,
    features: FeatureRegistry,
    completed_at_reconfig: AtomicU64,
    /// Nanoseconds spent inside monitoring code, summed across threads.
    overhead_nanos: Arc<AtomicU64>,
    /// Shards merged by snapshots and scrapes (`dope_monitor_shard_
    /// merges_total`); monitor-owned so it counts even with no registry
    /// attached.
    shard_merges: Arc<Counter>,
    /// Where each task path's scrape sources register as its cell is
    /// created. Everything else a run exports is written by the control
    /// thread, from the snapshots this monitor returns.
    registry: Option<MetricsRegistry>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("paths", &self.shared.paths.lock().cells.len())
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// A monitor with a throughput window of `window`, without probes or
    /// a metrics registry. Execution times smooth with [`Ewma::ALPHA`].
    ///
    /// [`Ewma::ALPHA`]: dope_core::Ewma::ALPHA
    #[must_use]
    pub fn new(window: Duration, features: FeatureRegistry) -> Self {
        Monitor::with_sources(window, features, None, None, None)
    }

    /// The monitor of a launched run, built once from what the builder
    /// knows: the probes behind `snapshot().queue` / `.admission`, and
    /// the registry each task path's `dope_task_exec_seconds{path=...}`
    /// histogram and invocation counter register on as its cell is
    /// created (plus the shard-merge counter, now).
    pub(crate) fn with_sources(
        window: Duration,
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
                window,
                paths: RankedMutex::new(rank::PATHS, PathCells::default()),
                epoch: RankedMutex::new(rank::EPOCH, HashMap::new()),
                queue_probe,
                admission_probe,
                features,
                completed_at_reconfig: AtomicU64::new(0),
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

    /// The measurement cell for `path`, created on first use.
    pub(crate) fn stats_for(&self, path: &TaskPath) -> Arc<PathStats> {
        let mut paths = self.shared.paths.lock();
        if let Some(stats) = paths.cells.get(path) {
            return Arc::clone(stats);
        }
        let stats = Arc::new(PathStats::new(Arc::clone(&self.shared.overhead_nanos)));
        if let Some(registry) = &self.shared.registry {
            register_path_series(registry, &self.shared.shard_merges, path, &stats);
        }
        paths.cells.insert(path.clone(), Arc::clone(&stats));
        stats
    }

    /// Installs what a relaunch of the top-level paths `relaunched`
    /// instantiated, replacing everything that ran under them: the
    /// paths' load probes, extents and failure marks. A cell under them
    /// stays only if the path still runs the same task — an extent-only
    /// relaunch keeps its statistics, a path the new configuration lacks
    /// leaves the snapshot, and one whose task changed starts afresh.
    pub(crate) fn install(&self, relaunched: &[TaskPath], tasks: HashMap<TaskPath, RunningTask>) {
        let under = |path: &TaskPath| relaunched.iter().any(|top| top.is_prefix_of(path));
        let mut paths = self.shared.paths.lock();
        let mut epoch = self.shared.epoch.lock();
        let PathCells {
            cells,
            retired_busy_nanos,
            ..
        } = &mut *paths;
        cells.retain(|path, stats| {
            let same_task =
                |new: &RunningTask| epoch.get(path).is_none_or(|old| old.name == new.name);
            let keep = !under(path) || tasks.get(path).is_some_and(same_task);
            if !keep {
                *retired_busy_nanos += stats.total_busy_nanos();
            }
            keep
        });
        epoch.retain(|path, _| !under(path));
        epoch.extend(tasks);
    }

    /// Marks one replica of `path` as dead until the path is relaunched.
    ///
    /// Snapshots taken afterwards exclude the dead replica: the path's
    /// utilization denominator shrinks to its surviving extent, and a
    /// path with no survivors vanishes from `snapshot().tasks` entirely
    /// so mechanisms don't steer threads toward ghosts.
    pub(crate) fn mark_failed(&self, path: &TaskPath) {
        if let Some(task) = self.shared.epoch.lock().get_mut(path) {
            task.failed += 1;
        }
    }

    /// Replicas currently marked dead.
    #[must_use]
    pub fn failed_replicas(&self) -> u32 {
        self.shared
            .epoch
            .lock()
            .values()
            .map(|task| task.failed)
            .sum()
    }

    /// The platform feature registry (paper Figure 9).
    #[must_use]
    pub fn features(&self) -> &FeatureRegistry {
        &self.shared.features
    }

    /// Marks a reconfiguration: resets the dispatches-since-reconfig
    /// counter.
    pub(crate) fn mark_reconfig(&self) {
        self.shared
            .completed_at_reconfig
            .store(self.queue_completed(), Ordering::Relaxed);
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
        let live: u64 = paths.cells.values().map(|s| s.total_busy_nanos()).sum();
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
    /// A pure read apart from those two meters: nothing is recorded and
    /// no exported series moves, so anyone may call it at any time. The
    /// control loop's sink records the snapshot it hands the mechanism,
    /// once, as `SnapshotTaken`, and writes the `dope_*` series from it.
    #[must_use]
    pub fn snapshot(&self) -> MonitorSnapshot {
        let t0 = Instant::now();
        let now = t0;
        let shared = &self.shared;
        let mut snap = MonitorSnapshot::at(self.elapsed_secs());

        let mut merged = 0u64;
        {
            // Per-task loads (summed across replicas), extents, and
            // failure marks are installed together and read together,
            // in place: load callbacks run under both locks and must not
            // call back into the monitor.
            let mut paths = shared.paths.lock();
            let PathCells {
                cells,
                merge_scratch,
                ..
            } = &mut *paths;
            let epoch = shared.epoch.lock();
            for (path, stats) in cells.iter() {
                let agg = stats.aggregate(now, shared.window, merge_scratch);
                merged += agg.shards_merged;
                let task = epoch.get(path);
                let extent = task.map_or(1, |task| task.extent).max(1);
                // Dead replicas leave the statistics: a fully failed path
                // is a ghost no mechanism should feed threads to, and a
                // partly failed path only counts its survivors in the
                // utilization denominator.
                let dead = task.map_or(0, |task| task.failed);
                let alive = extent.saturating_sub(dead);
                if dead > 0 && alive == 0 {
                    continue;
                }
                let load_cbs = task.map_or(&[][..], |task| &task.load_cbs);
                let busy_secs = agg.busy_nanos as f64 / 1e9;
                let [p50, p95, p99] = merge_scratch
                    .quantiles_secs([0.50, 0.95, 0.99])
                    .unwrap_or_default();
                snap.tasks.insert(
                    path.clone(),
                    TaskStats {
                        invocations: agg.invocations,
                        mean_exec_secs: agg.mean_exec_secs,
                        throughput: agg.throughput,
                        load: load_cbs.iter().map(|cb| cb()).sum(),
                        utilization: (busy_secs / (agg.age_secs * f64::from(alive.max(1))))
                            .min(1.0),
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
        snap.dispatches_since_reconfig = snap
            .queue
            .completed
            .saturating_sub(shared.completed_at_reconfig.load(Ordering::Relaxed));
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

#[cfg(test)]
mod tests {
    use super::*;
    use dope_metrics::Histogram;

    fn monitor() -> Monitor {
        Monitor::new(Duration::from_secs(10), FeatureRegistry::new())
    }

    fn path(text: &str) -> TaskPath {
        text.parse().unwrap()
    }

    /// What a relaunch instantiates for a path: `extent` workers of the
    /// task `name`, each replica registering one of `loads`.
    fn task(name: &str, extent: u32, loads: &[f64]) -> RunningTask {
        let load_cbs = loads
            .iter()
            .map(|&load| Arc::new(move || load) as LoadCallback)
            .collect();
        RunningTask {
            name: name.into(),
            extent,
            load_cbs,
            failed: 0,
        }
    }

    /// Relaunches the top-level paths of `tasks` with what they name.
    fn relaunch(m: &Monitor, tasks: Vec<(&str, RunningTask)>) {
        let relaunched: Vec<TaskPath> = tasks
            .iter()
            .filter(|(text, _)| !text.contains('.'))
            .map(|(text, _)| path(text))
            .collect();
        let tasks = tasks.into_iter().map(|(text, task)| (path(text), task));
        m.install(&relaunched, tasks.collect());
    }

    /// A monitor built the way `Dope::launch` builds it.
    fn monitor_with(
        queue: Option<QueueStats>,
        admission: Option<AdmissionStats>,
        registry: Option<MetricsRegistry>,
    ) -> Monitor {
        Monitor::with_sources(
            Duration::from_secs(10),
            FeatureRegistry::new(),
            queue.map(|stats| Arc::new(move || stats) as QueueProbe),
            admission.map(|stats| Arc::new(move || stats) as AdmissionProbe),
            registry,
        )
    }

    #[test]
    fn records_invocations_and_exec_time() {
        let m = monitor();
        let path: TaskPath = "0.1".parse().unwrap();
        let stats = m.stats_for(&path);
        let now = Instant::now();
        stats.record(Duration::from_millis(10), now, Duration::from_secs(10));
        stats.record(Duration::from_millis(30), now, Duration::from_secs(10));
        let snap = m.snapshot();
        let ts = snap.task(&path).unwrap();
        assert_eq!(ts.invocations, 2);
        assert!(ts.mean_exec_secs > 0.009 && ts.mean_exec_secs < 0.031);
        assert!(ts.throughput > 0.0);
    }

    #[test]
    fn snapshot_carries_exec_percentiles() {
        let m = monitor();
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path);
        let now = Instant::now();
        // 99 fast invocations and one slow outlier: the mean hides the
        // tail, the percentiles must expose it.
        for _ in 0..99 {
            stats.record(Duration::from_millis(1), now, Duration::from_secs(10));
        }
        stats.record(Duration::from_millis(500), now, Duration::from_secs(10));
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

    #[test]
    fn early_window_throughput_uses_elapsed_not_window() {
        let m = monitor();
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path);
        // 50 completions within ~1 s of cell creation, sampled with a
        // 10 s window: dividing by the full 10 s would report ~5/s; the
        // elapsed-bounded divisor (~1 s) reports ~50/s.
        let now = stats.created + Duration::from_secs(1);
        for _ in 0..50 {
            stats.record(Duration::from_micros(10), now, Duration::from_secs(10));
        }
        let (_, throughput) = stats.sample(now, Duration::from_secs(10));
        assert!(
            (throughput - 50.0).abs() < 1.0,
            "early-window throughput {throughput}, want ~50/s"
        );
        // Once the window has filled, the window itself is the divisor.
        let later = stats.created + Duration::from_secs(20);
        let (_, settled) = stats.sample(later, Duration::from_secs(10));
        assert!(settled <= 0.1, "all completions aged out: {settled}");
    }

    #[test]
    fn load_callbacks_sum_across_replicas() {
        let m = monitor();
        let _ = m.stats_for(&path("0"));
        relaunch(&m, vec![("0", task("a", 2, &[2.0, 3.0]))]);
        let snap = m.snapshot();
        assert_eq!(snap.task(&path("0")).unwrap().load, 5.0);
    }

    #[test]
    fn queue_probe_feeds_snapshot() {
        let queue = QueueStats {
            occupancy: 7.0,
            arrival_rate: 2.0,
            enqueued: 10,
            completed: 3,
        };
        let m = monitor_with(Some(queue), None, None);
        let snap = m.snapshot();
        assert_eq!(snap.queue.occupancy, 7.0);
        assert_eq!(snap.dispatches_since_reconfig, 3);
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
        let m = Monitor::new(Duration::from_secs(5), features);
        assert_eq!(m.snapshot().power_watts, Some(612.5));
    }

    /// A snapshot is a read: it takes the three monitor locks in rank
    /// order and nothing else, and moves no exported series but the
    /// shard-merge counter it feeds.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the lock-rank guard is compiled out in release builds"
    )]
    fn snapshot_acquires_only_paths_epoch_and_shards() {
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
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path);
        stats.record(
            Duration::from_millis(5),
            Instant::now(),
            Duration::from_secs(10),
        );
        let families = registry.family_names();
        let before = chains_on_this_thread();
        let snap = m.snapshot();
        assert_eq!((snap.tasks.len(), snap.queue.occupancy), (1, 7.0));
        let acquired: Vec<Vec<u32>> = chains_on_this_thread()
            .into_iter()
            .filter(|(chain, count)| before.get(chain) != Some(count))
            .map(|(chain, _)| chain)
            .collect();
        let (paths, epoch, shards) = (rank::PATHS.0, rank::EPOCH.0, rank::SHARDS.0);
        assert_eq!(
            acquired,
            [vec![paths], vec![paths, epoch], vec![paths, epoch, shards]]
        );
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
        let now = Instant::now();
        for path in [&alive, &doomed] {
            m.stats_for(path)
                .record(Duration::from_millis(2), now, Duration::from_secs(10));
        }
        relaunch(&m, vec![("0", task("a", 2, &[])), ("1", task("b", 1, &[]))]);
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
        let _ = m.stats_for(&kept);
        let _ = m.stats_for(&drained);
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

    /// A relaunch keeps a cell only while its path runs the same task: a
    /// nest switching from `[a, b]` to `[fused]` drops `b`'s row and
    /// starts `0.0` afresh, and an extent-only relaunch keeps its stats.
    #[test]
    fn install_drops_the_cells_a_relaunch_no_longer_runs() {
        let m = monitor();
        let now = Instant::now();
        let record = |text: &str| {
            m.stats_for(&path(text))
                .record(Duration::from_millis(1), now, Duration::from_secs(10));
        };
        relaunch(
            &m,
            vec![
                ("0", task("outer", 1, &[])),
                ("0.0", task("a", 1, &[])),
                ("0.1", task("b", 1, &[])),
                ("1", task("sink", 1, &[])),
            ],
        );
        for text in ["0.0", "0.1", "1"] {
            record(text);
        }
        assert_eq!(m.snapshot().tasks.len(), 3);

        relaunch(
            &m,
            vec![("0", task("outer", 1, &[])), ("0.0", task("fused", 1, &[]))],
        );
        let snap = m.snapshot();
        assert!(snap.task(&path("0.1")).is_none(), "b left with its nest");
        assert!(snap.task(&path("0.0")).is_none(), "fused has not run yet");
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
        let m = monitor();
        let p: TaskPath = "1".parse().unwrap();
        let a = m.stats_for(&p);
        let b = m.stats_for(&p);
        a.record(
            Duration::from_millis(1),
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(b.total_invocations(), 1);
        // `Debug` takes `paths` on its own: the one lock site no run hits.
        assert!(format!("{m:?}").contains("paths: 1"), "{m:?}");
    }

    /// Every path's scrape sources register as its cell is created.
    #[test]
    fn attached_registry_sees_per_path_series() {
        let registry = MetricsRegistry::new();
        let m = monitor_with(None, None, Some(registry.clone()));
        let now = Instant::now();
        for (name, millis) in [("0", 2), ("1", 4)] {
            let path: TaskPath = name.parse().unwrap();
            let exec = Duration::from_millis(millis);
            m.stats_for(&path)
                .record(exec, now, Duration::from_secs(10));
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
        let m = monitor();
        let path: TaskPath = "0".parse().unwrap();
        let stats = m.stats_for(&path);
        assert_eq!(m.monitoring_overhead_secs(), 0.0);
        let now = Instant::now();
        for _ in 0..100 {
            // 1 ms of (claimed) work per 1 record call.
            stats.record(Duration::from_millis(1), now, Duration::from_secs(10));
        }
        let _ = m.snapshot();
        let overhead = m.monitoring_overhead_secs();
        assert!(overhead > 0.0, "overhead meter never advanced");
        let ratio = m.monitoring_overhead_ratio();
        assert!(ratio >= 0.0 && ratio.is_finite());
    }

    #[test]
    fn record_path_acquires_no_locks() {
        let m = monitor();
        let path: TaskPath = "0".parse().unwrap();
        let shard = m.stats_for(&path).shard();
        let now = Instant::now();
        let before = crate::lockrank::acquisitions_on_this_thread();
        for _ in 0..1000 {
            shard.record(Duration::from_micros(5), now, Duration::from_secs(10));
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

        let m = monitor();
        let path: TaskPath = "0".parse().unwrap();
        let window = Duration::from_secs(600); // nothing ages out mid-test
        let stats = m.stats_for(&path);

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let m = m.clone();
            let path = path.clone();
            handles.push(std::thread::spawn(move || {
                let shard = m.stats_for(&path).shard();
                let now = Instant::now();
                for i in 0..PER_THREAD {
                    shard.record(Duration::from_nanos(exec_nanos(t, i)), now, window);
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
        let agg = stats.aggregate(Instant::now(), window, &mut hist);
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
