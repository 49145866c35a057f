//! Monitoring data: what mechanisms see.
//!
//! The executive continuously monitors application features (task execution
//! times via `begin`/`end`, per-task load via `LoadCB`) and platform
//! features (power, hardware contexts). A [`MonitorSnapshot`] is a frozen
//! view of that state; mechanisms receive one on every reconfiguration
//! opportunity. The same type is produced by the live monitor in
//! `dope-runtime` and the simulated monitor in `dope-sim`.

use crate::admission::AdmissionStats;
use crate::path::TaskPath;
use serde::{Deserialize, Serialize};

/// Per-task monitoring statistics, aggregated across replicas and workers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TaskStats {
    /// Completed invocations of the task's body since launch.
    pub invocations: u64,
    /// Moving average of per-invocation execution time, in seconds.
    pub mean_exec_secs: f64,
    /// Completed invocations per second over the last control period,
    /// summed across all workers of the task: every completion since the
    /// previous control tick (or since the task's measurement cell was
    /// created, if later) over the time since. A live read between two
    /// ticks measures from the tick before the last instead, so it covers
    /// at least one whole period. The pipeline simulator counts the same
    /// period; the system simulator, which consults on every arrival,
    /// counts the completions of the trailing 60 s instead.
    pub throughput: f64,
    /// Most recent `LoadCB` sample (typically input-queue occupancy).
    pub load: f64,
    /// Fraction of the task's capacity that was busy since the previous
    /// consult, in `[0, 1]`: busy capacity-seconds over (the time since ×
    /// capacity), capped at 1, in every producer. Live, the busy time is
    /// spent inside `begin`/`end` over the last control period (as for
    /// `throughput`) and the capacity is the workers live at the reading;
    /// a timed invocation under way counts from its begin, so one longer
    /// than the period is busy in every period it spans. The pipeline
    /// simulator averages a stage's busy workers over the period against
    /// its extent, the system simulator its busy contexts since the
    /// previous arrival against its budget.
    pub utilization: f64,
    /// Median per-invocation execution time, in seconds.
    ///
    /// Additive over the original schema: producers that do not measure
    /// percentiles (old traces, the simulator's analytic monitor) leave
    /// this and the other `p*_exec_secs` fields at `0.0`, which readers
    /// must treat as "not measured".
    pub p50_exec_secs: f64,
    /// 95th-percentile per-invocation execution time, in seconds
    /// (`0.0` when not measured; see [`TaskStats::p50_exec_secs`]).
    pub p95_exec_secs: f64,
    /// 99th-percentile per-invocation execution time, in seconds
    /// (`0.0` when not measured; see [`TaskStats::p50_exec_secs`]).
    pub p99_exec_secs: f64,
}

/// Statistics of the application's work queue (the open-workload inlet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct QueueStats {
    /// Current number of outstanding requests, `q(t)` in the paper's
    /// Equation 1.
    pub occupancy: f64,
    /// Estimated arrival rate, in requests per second.
    pub arrival_rate: f64,
    /// Requests enqueued since launch.
    pub enqueued: u64,
    /// Requests fully processed since launch.
    pub completed: u64,
}

/// The per-task rows of a snapshot: a flat table sorted by path, one row
/// per path.
///
/// It iterates in path order and replaces on a repeated `insert`, like
/// the map it stands in for, but is one `Vec`: building, cloning and
/// recording a snapshot allocates its rows and nothing else.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskTable(Vec<(TaskPath, TaskStats)>);

impl TaskTable {
    /// Sets the row for `path`, returning the statistics it replaces.
    pub fn insert(&mut self, path: TaskPath, stats: TaskStats) -> Option<TaskStats> {
        match self.0.binary_search_by(|(at, _)| at.cmp(&path)) {
            Ok(row) => Some(std::mem::replace(&mut self.0[row].1, stats)),
            Err(row) => {
                self.0.insert(row, (path, stats));
                None
            }
        }
    }

    /// The statistics for `path`, if it has a row.
    #[must_use]
    pub fn get(&self, path: &TaskPath) -> Option<&TaskStats> {
        let row = self.0.binary_search_by(|(at, _)| at.cmp(path)).ok()?;
        Some(&self.0[row].1)
    }

    /// The rows, in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&TaskPath, &TaskStats)> {
        self.0.iter().map(|(path, stats)| (path, stats))
    }

    /// The statistics of every row, in path order.
    pub fn values(&self) -> impl Iterator<Item = &TaskStats> {
        self.0.iter().map(|(_, stats)| stats)
    }

    /// The statistics of every row, mutably, in path order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut TaskStats> {
        self.0.iter_mut().map(|(_, stats)| stats)
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no task has a row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Rows in any order; of rows sharing a path the last one stays.
impl FromIterator<(TaskPath, TaskStats)> for TaskTable {
    fn from_iter<I: IntoIterator<Item = (TaskPath, TaskStats)>>(rows: I) -> Self {
        let mut table = TaskTable::default();
        for (path, stats) in rows {
            table.insert(path, stats);
        }
        table
    }
}

/// A frozen view of everything the executive monitors.
///
/// # Example
///
/// ```
/// use dope_core::{MonitorSnapshot, TaskStats};
///
/// let mut snap = MonitorSnapshot::at(1.5);
/// snap.tasks.insert(
///     "0.1".parse().unwrap(),
///     TaskStats {
///         invocations: 100,
///         mean_exec_secs: 0.02,
///         throughput: 48.0,
///         load: 3.0,
///         utilization: 0.96,
///         ..TaskStats::default()
///     },
/// );
/// let stats = snap.task(&"0.1".parse().unwrap()).unwrap();
/// assert_eq!(stats.throughput, 48.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MonitorSnapshot {
    /// Seconds since the executive launched the application.
    pub time_secs: f64,
    /// Per-task statistics keyed by configured-tree path.
    pub tasks: TaskTable,
    /// Work-queue statistics.
    pub queue: QueueStats,
    /// Latest platform power sample, if a power feature is registered.
    pub power_watts: Option<f64>,
    /// Work items dispatched since the last reconfiguration (drives the
    /// paper's hysteresis counts `N_on`/`N_off`).
    pub dispatches_since_reconfig: u64,
    /// Admission-gate counters. All-zero (the default) when no gate is
    /// installed — the additive-schema value pre-admission producers
    /// imply by omission.
    pub admission: AdmissionStats,
}

impl MonitorSnapshot {
    /// An empty snapshot at `time_secs`.
    #[must_use]
    pub fn at(time_secs: f64) -> Self {
        MonitorSnapshot {
            time_secs,
            ..MonitorSnapshot::default()
        }
    }

    /// Statistics for the task at `path`, if sampled.
    #[must_use]
    pub fn task(&self, path: &TaskPath) -> Option<&TaskStats> {
        self.tasks.get(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The flat table against the `BTreeMap` it replaced, over
        /// insert sequences drawn from few enough paths (depth 0-3,
        /// indices 0-2) that most sequences repeat some: every `insert`
        /// returns what the map's returns, and afterwards `iter` order,
        /// `values`, `get` of present and absent paths and `len` agree.
        #[test]
        fn the_task_table_is_a_path_ordered_map(
            paths in prop::collection::vec(prop::collection::vec(0u16..3, 0..4), 0..48),
            counts in prop::collection::vec(any::<u64>(), 48),
        ) {
            let mut table = TaskTable::default();
            let mut map = BTreeMap::new();
            for (indices, &invocations) in paths.iter().zip(&counts) {
                let path = TaskPath::from_indices(indices.iter().copied());
                let stats = TaskStats { invocations, ..TaskStats::default() };
                prop_assert_eq!(table.insert(path.clone(), stats), map.insert(path, stats));
            }
            prop_assert_eq!(table.len(), map.len());
            prop_assert_eq!(table.is_empty(), map.is_empty());
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), map.iter().collect::<Vec<_>>());
            prop_assert_eq!(table.values().collect::<Vec<_>>(), map.values().collect::<Vec<_>>());
            for indices in &paths {
                let present = TaskPath::from_indices(indices.iter().copied());
                let absent = present.child(9);
                prop_assert_eq!(table.get(&present), map.get(&present));
                prop_assert_eq!(table.get(&absent), None);
            }
            for stats in table.values_mut() {
                stats.load = 1.0;
            }
            prop_assert!(table.values().all(|stats| stats.load == 1.0));
            let rebuilt: TaskTable = paths
                .iter()
                .zip(&counts)
                .map(|(indices, &invocations)| (
                    TaskPath::from_indices(indices.iter().copied()),
                    TaskStats { invocations, load: 1.0, ..TaskStats::default() },
                ))
                .collect();
            prop_assert_eq!(rebuilt, table);
        }
    }

    fn sample(mean: f64, thr: f64, inv: u64) -> TaskStats {
        TaskStats {
            invocations: inv,
            mean_exec_secs: mean,
            throughput: thr,
            load: 0.0,
            utilization: 0.5,
            ..TaskStats::default()
        }
    }

    #[test]
    fn percentile_fields_default_to_unmeasured_zero() {
        // Additive-schema contract: a producer that does not measure
        // percentiles yields exactly 0.0 in every `p*_exec_secs` field.
        let stats = TaskStats::default();
        assert_eq!(stats.p50_exec_secs, 0.0);
        assert_eq!(stats.p95_exec_secs, 0.0);
        assert_eq!(stats.p99_exec_secs, 0.0);
        let partial = sample(0.5, 2.0, 1);
        assert_eq!(partial.p99_exec_secs, 0.0);
    }

    #[test]
    fn snapshot_lookup_by_path() {
        let mut snap = MonitorSnapshot::at(3.0);
        snap.power_watts = Some(450.0);
        snap.tasks.insert("0".parse().unwrap(), sample(0.1, 9.0, 3));
        let stats = snap.task(&"0".parse().unwrap()).unwrap();
        assert_eq!(stats.invocations, 3);
        assert!(snap.task(&"1".parse().unwrap()).is_none());
    }
}
