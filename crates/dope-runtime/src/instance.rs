//! Instantiation of a task nest under a concrete configuration, and the
//! live task context workers run with.

use crate::monitor::{PathStats, RunningTask};
use crate::shard::RecorderShard;
use dope_core::{
    BodyFactory, Config, DiagCode, Directive, Error, Finding, ParkedQueue, Result, TaskBody,
    TaskConfig, TaskCx, TaskPath, TaskSpec, Work, WorkerSlot,
};
use dope_workload::SuspendFlag;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One worker's assignment: a body and the task path it runs for.
pub(crate) struct WorkerJob {
    pub path: TaskPath,
    pub body: Box<dyn TaskBody>,
}

/// Everything one relaunch instantiated: the worker jobs, and per leaf
/// path what the monitor's row for it holds beside its cell.
#[derive(Default)]
pub(crate) struct Launch {
    pub jobs: Vec<WorkerJob>,
    pub tasks: HashMap<TaskPath, RunningTask>,
}

/// Builds the worker jobs of the top-level tasks named by `paths`,
/// leaves or nests, under `config` — the relaunch half of every drain,
/// and the launch itself (every top-level path).
///
/// Each replica of a nested task instantiates a *fresh* inner descriptor
/// (fresh queues, fresh accumulators); the descriptor's names and kinds
/// must match the shape derived from replica zero.
pub(crate) fn instantiate_paths(
    specs: &[TaskSpec],
    config: &Config,
    paths: &[TaskPath],
) -> Result<Launch> {
    let mut launch = Launch::default();
    for path in paths {
        let mut indices = path.indices();
        let (Some(index), None) = (indices.next(), indices.next()) else {
            return Err(Error::Invalid {
                path: path.clone(),
                code: DiagCode::StructureMismatch,
                detail: "a relaunch names top-level tasks only".to_string(),
            });
        };
        let (Some(spec), Some(cfg)) = (specs.get(index as usize), config.tasks.get(index as usize))
        else {
            return Err(Error::UnknownPath { path: path.clone() });
        };
        instantiate_task(spec, cfg, path, &mut launch)?;
    }
    Ok(launch)
}

/// The task `spec` configured as `cfg` at `path`. A descriptor that
/// does not match its configuration is refused with the [`Finding`] the
/// validator would report for it.
fn instantiate_task(
    spec: &TaskSpec,
    cfg: &TaskConfig,
    path: &TaskPath,
    launch: &mut Launch,
) -> Result<()> {
    let task = cfg.name.as_str();
    if spec.name() != task {
        let expected = spec.name();
        return Err(Finding::Name {
            expected,
            found: task,
        }
        .to_error(path));
    }
    match (spec.work(), &cfg.nested) {
        (Work::Leaf(factory), None) => {
            let fresh = || RunningTask::new(cfg.name.clone(), 0);
            let running = launch.tasks.entry(path.clone()).or_insert_with(fresh);
            running.extent += cfg.extent;
            running.load_cbs.extend(spec.load_cb().cloned());
            push_workers(launch, path, factory.as_ref(), cfg.extent);
        }
        (Work::Nest(alts), Some(nest)) => {
            let Some(factory) = alts.get(nest.alternative) else {
                let (requested, available) = (nest.alternative, alts.len());
                let finding = Finding::UnknownAlternative {
                    task,
                    requested,
                    available,
                };
                return Err(finding.to_error(path));
            };
            for replica in 0..cfg.extent {
                let inner = factory.make_nest(replica);
                if inner.len() != nest.tasks.len() {
                    let (expected, found) = (inner.len(), nest.tasks.len());
                    return Err(Finding::Arity { expected, found }.to_error(path));
                }
                for (i, (spec, cfg)) in inner.iter().zip(&nest.tasks).enumerate() {
                    instantiate_task(spec, cfg, &path.child(i as u16), launch)?;
                }
            }
        }
        (_, nested) => {
            let nested = nested.is_some();
            return Err(Finding::Structure { task, nested }.to_error(path));
        }
    }
    Ok(())
}

/// One job per worker of the leaf at `path`.
fn push_workers(launch: &mut Launch, path: &TaskPath, factory: &dyn BodyFactory, extent: u32) {
    for worker in 0..extent {
        launch.jobs.push(WorkerJob {
            path: path.clone(),
            body: factory.make_body(WorkerSlot { worker }),
        });
    }
}

/// The gap between timed invocations a busy context aims for. The
/// executive reads what the timings feed (EWMA, histogram, busy time)
/// once per control period — 100 ms by default, 5 to 10 ms in the
/// tests and benchmarks that drive it hardest — so a millisecond keeps
/// several fresh samples per worker inside every period while making
/// the clock reads a function of time, not of items.
const TIMING_TARGET_NANOS: u64 = 1_000_000;

/// The most invocations one timed sample may stand for, however fast
/// they come. At 64 the two clock reads and the record (~165 ns) dilute
/// to under 3 ns per invocation — below the counter bump they leave
/// behind — while a timed sample still weighs at most 95 (jitter
/// included) in a histogram that holds thousands.
const MAX_STRIDE: u64 = 64;

/// How many invocations until the next timed one, that one included,
/// given that the sample just taken stood for `weight` invocations and
/// came `gap_nanos` after the previous sample (`u64::MAX` when there was
/// none): the stride that spaces samples [`TIMING_TARGET_NANOS`] apart
/// at the rate just seen, within `1..=MAX_STRIDE` — so a path slower
/// than one invocation per target gap is timed every time — then
/// jittered uniformly over the integers of `[k/2, 3k/2)` whose mean is
/// `k`, so that a periodic workload cannot alias with the sampling.
fn next_stride(gap_nanos: u64, weight: u64, rng: &mut u64) -> u32 {
    let k = (TIMING_TARGET_NANOS.saturating_mul(weight) / gap_nanos.max(1)).clamp(1, MAX_STRIDE);
    // xorshift64: three shifts, never zero from a non-zero seed.
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let lowest = k / 2 + 1;
    let choices = 2 * (k - lowest) + 1;
    (lowest + *rng % choices) as u32
}

/// What `begin` left for `end`.
enum Began {
    No,
    Untimed,
    Timed(Instant),
}

/// The live [`TaskCx`]: timers into the monitor plus the suspend flag of
/// the job's top-level path, which every drain — a reconfiguration, a
/// failure, a stop — flips for exactly the paths it suspends.
///
/// Construction resolves the calling worker thread's private
/// [`RecorderShard`] in the leaf's cell once (the only locking step);
/// every `begin`..`end` interval afterwards goes straight into the shard
/// with zero lock acquisitions.
///
/// Every invocation is *counted*; one in `stride` is *timed* (see
/// [`next_stride`]) and recorded with the weight of the untimed
/// completions since the last timed one. An untimed invocation costs a
/// counter bump and a plain store. The first invocation of a context and
/// the first after an idle `invoke` are always timed, and what is still
/// unrecorded when the context goes idle or is dropped is flushed at the
/// last measured execution time.
pub(crate) struct LiveCx {
    suspend: Arc<SuspendFlag>,
    shard: Arc<RecorderShard>,
    began: Began,
    /// Untimed invocations still to go before the next timed one.
    countdown: u32,
    /// Completions counted but not yet covered by a timing record.
    untimed: u64,
    /// When the last timed invocation ended, and how long it ran.
    last_timed: Option<(Instant, Duration)>,
    /// An `end` has run since the executor last looked.
    ended: bool,
    rng: u64,
    /// What one `Instant::now()` costs here, for the overhead meter.
    clock_read_nanos: u64,
}

impl LiveCx {
    /// Must be called on the worker thread that will run the task body:
    /// the resolved shard is keyed by the calling thread's id, and its
    /// single-writer contract assumes that thread does the recording.
    pub fn new(stats: &PathStats, suspend: Arc<SuspendFlag>) -> Self {
        let shard = stats.shard();
        // Back-to-back reads: the gap between two is what one costs (the
        // smaller of two gaps, in case something came between).
        let reads = [Instant::now(), Instant::now(), Instant::now()];
        let clock_read = (reads[1] - reads[0]).min(reads[2] - reads[1]);
        // Distinct per shard and per context on it; odd, hence never zero.
        let seed = shard.invocations().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        LiveCx {
            suspend,
            rng: (Arc::as_ptr(&shard) as u64 ^ seed) | 1,
            shard,
            began: Began::No,
            countdown: 0,
            untimed: 0,
            last_timed: None,
            ended: false,
            clock_read_nanos: u64::try_from(clock_read.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    fn current_directive(&self) -> Directive {
        if self.suspend.is_set() {
            Directive::Suspend
        } else {
            Directive::Continue
        }
    }

    /// The executor's note that one `invoke` returned. One that ended no
    /// interval found no work (a polling body's dequeue timed out): the
    /// path has gone idle.
    pub fn invoke_returned(&mut self) {
        if !std::mem::take(&mut self.ended) {
            self.went_idle();
        }
    }

    /// The idle rule: the pending tail is recorded now rather than
    /// whenever work resumes, and the next invocation — first after a
    /// gap, the one a sparse path's statistics are made of — is timed.
    fn went_idle(&mut self) {
        self.flush();
        self.countdown = 0;
    }

    /// Records the counted-but-untimed tail at the last measured
    /// execution time.
    fn flush(&mut self) {
        let tail = std::mem::take(&mut self.untimed);
        if let (true, Some((_, exec))) = (tail > 0, self.last_timed) {
            let now = Instant::now();
            self.shard.record_timing(exec, tail);
            self.shard.charge_since(now, self.clock_read_nanos);
        }
    }
}

impl Drop for LiveCx {
    fn drop(&mut self) {
        self.flush();
        self.shard.set_in_flight(None);
    }
}

impl TaskCx for LiveCx {
    fn begin(&mut self) -> Directive {
        self.began = if self.countdown == 0 {
            let t0 = Instant::now();
            self.shard.set_in_flight(Some(t0));
            Began::Timed(t0)
        } else {
            Began::Untimed
        };
        self.current_directive()
    }

    fn end(&mut self) -> Directive {
        match std::mem::replace(&mut self.began, Began::No) {
            Began::No => {}
            Began::Untimed => {
                self.ended = true;
                self.shard.count();
                self.untimed += 1;
                self.countdown = self.countdown.saturating_sub(1);
            }
            Began::Timed(t0) => {
                self.ended = true;
                self.shard.count();
                let now = Instant::now();
                let exec = now - t0;
                let weight = 1 + std::mem::take(&mut self.untimed);
                self.shard.record_timing(exec, weight);
                let gap = self.last_timed.map_or(u64::MAX, |(then, _)| {
                    u64::try_from((now - then).as_nanos()).unwrap_or(u64::MAX)
                });
                self.last_timed = Some((now, exec));
                self.countdown = next_stride(gap, weight, &mut self.rng) - 1;
                // Every timed end is metered, record to here plus the
                // clock reads that interval does not span: timed ends are
                // at most a couple per millisecond, so the meter's own
                // read is noise and it needs no sampling multiplier.
                self.shard.charge_since(now, 2 * self.clock_read_nanos);
            }
        }
        self.current_directive()
    }

    fn directive(&self) -> Directive {
        self.current_directive()
    }

    /// The idle rule at a park a timing target or more after the last
    /// timed sample. A sooner park leaves less than a target's worth of
    /// completions in the tail, what the sampling lags by anyway, and a
    /// fine-grained stage that catches up with its producer parks every
    /// few items: the rule at each of those parks read
    /// `monitoring_a_fine_grained_pipeline_costs_about_a_percent` at
    /// 2.3-8.5 % instead of 1.3-1.8 % (debug, 2 vCPUs).
    fn parking(&mut self, queue: &Arc<dyn ParkedQueue>) {
        let target = Duration::from_nanos(TIMING_TARGET_NANOS);
        if self
            .last_timed
            .is_none_or(|(then, _)| then.elapsed() >= target)
        {
            self.went_idle();
        }
        self.suspend.watch(queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use dope_core::control::Scope;
    use dope_core::{body_fn, Config, TaskKind, TaskStatus};
    use dope_platform::FeatureRegistry;
    use std::sync::atomic::Ordering;

    fn leaf(name: &str, kind: TaskKind) -> TaskSpec {
        TaskSpec::leaf(name, kind, |_slot: WorkerSlot| {
            Box::new(body_fn(|_| TaskStatus::Finished)) as Box<dyn TaskBody>
        })
    }

    /// What the launch instantiates: every top-level path.
    fn instantiate(specs: &[TaskSpec], config: &Config) -> Result<Launch> {
        instantiate_paths(specs, config, &Scope::Full.paths(config))
    }

    /// A bare monitor with the row of a one-worker leaf at `0`, installed
    /// as its launch installs it, and the row's cell.
    fn installed_leaf() -> (Monitor, Arc<PathStats>) {
        let config = Config::new(vec![TaskConfig::leaf("leaf", 1)]);
        let launch = instantiate(&[leaf("leaf", TaskKind::Par)], &config).unwrap();
        let monitor = Monitor::new(FeatureRegistry::new());
        monitor.install(&Scope::Full.paths(&config), launch.tasks);
        let stats = monitor.stats_for(&TaskPath::root_child(0)).unwrap();
        (monitor, stats)
    }

    fn extent(launch: &Launch, path: &str) -> Option<u32> {
        launch
            .tasks
            .get(&path.parse().unwrap())
            .map(|task| task.extent)
    }

    #[test]
    fn leaf_instantiation_creates_extent_jobs() {
        let given = Arc::new(std::sync::Mutex::new(Vec::new()));
        let recorded = Arc::clone(&given);
        let a = TaskSpec::leaf("a", TaskKind::Par, move |slot: WorkerSlot| {
            recorded.lock().unwrap().push(slot.worker);
            Box::new(body_fn(|_| TaskStatus::Finished)) as Box<dyn TaskBody>
        });
        let specs = vec![a, leaf("b", TaskKind::Seq)];
        let config = Config::new(vec![TaskConfig::leaf("a", 3), TaskConfig::leaf("b", 1)]);
        let epoch = instantiate(&specs, &config).unwrap();
        assert_eq!(epoch.jobs.len(), 4);
        let a_jobs = epoch.jobs.iter().filter(|j| j.path.to_string() == "0");
        assert_eq!(a_jobs.count(), 3);
        assert_eq!(*given.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn nest_instantiation_creates_fresh_replicas() {
        use std::sync::atomic::AtomicU32;
        let made = Arc::new(AtomicU32::new(0));
        let made2 = Arc::clone(&made);
        let spec = TaskSpec::nest("outer", TaskKind::Par, move |_replica: u32| {
            made2.fetch_add(1, Ordering::SeqCst);
            vec![leaf("inner", TaskKind::Par)]
        });
        let config = Config::new(vec![TaskConfig::nest(
            "outer",
            3,
            0,
            vec![TaskConfig::leaf("inner", 2)],
        )]);
        let epoch = instantiate(&[spec], &config).unwrap();
        assert_eq!(made.load(Ordering::SeqCst), 3, "one nest per replica");
        assert_eq!(epoch.jobs.len(), 6, "3 replicas x 2 workers");
        assert_eq!(extent(&epoch, "0.0"), Some(6));
        assert_eq!(extent(&epoch, "0"), None, "rows are booked for leaves only");
    }

    #[test]
    fn name_mismatch_is_rejected() {
        let specs = vec![leaf("a", TaskKind::Par)];
        let config = Config::new(vec![TaskConfig::leaf("z", 1)]);
        let err = instantiate(&specs, &config).err().unwrap();
        assert_eq!(err.code(), DiagCode::NameMismatch);
        assert!(
            err.to_string().ends_with("expected task `a`, found `z`"),
            "{err}"
        );
    }

    /// A descriptor that disagrees with its configuration is refused with
    /// the code and message the validator gives the same finding.
    #[test]
    fn arity_and_structure_mismatches_carry_the_findings_message() {
        let nest = TaskSpec::nest("o", TaskKind::Par, |_r: u32| vec![leaf("i", TaskKind::Seq)]);
        let cases = [
            (
                nest.clone(),
                TaskConfig::nest(
                    "o",
                    1,
                    0,
                    vec![TaskConfig::leaf("i", 1), TaskConfig::leaf("j", 1)],
                ),
                DiagCode::ArityMismatch,
                "descriptor has 1 tasks but configuration has 2",
            ),
            (
                nest,
                TaskConfig::leaf("o", 1),
                DiagCode::StructureMismatch,
                "configuration treats nested task `o` as a leaf",
            ),
            (
                leaf("a", TaskKind::Par),
                TaskConfig::nest("a", 1, 0, vec![TaskConfig::leaf("i", 1)]),
                DiagCode::StructureMismatch,
                "configuration nests leaf task `a`",
            ),
        ];
        for (spec, cfg, code, message) in cases {
            let err = instantiate(&[spec], &Config::new(vec![cfg])).err().unwrap();
            assert_eq!(err.code(), code, "{err}");
            assert!(err.to_string().ends_with(message), "{err}");
        }
    }

    #[test]
    fn missing_alternative_is_rejected() {
        let spec = TaskSpec::nest("o", TaskKind::Par, |_r: u32| vec![leaf("i", TaskKind::Seq)]);
        let config = Config::new(vec![TaskConfig::nest(
            "o",
            1,
            5,
            vec![TaskConfig::leaf("i", 1)],
        )]);
        let err = instantiate(&[spec], &config).err().unwrap();
        assert_eq!(err.code(), DiagCode::AltOutOfRange);
        assert!(
            err.to_string().contains("alternative 5 was requested"),
            "{err}"
        );
    }

    #[test]
    fn live_cx_records_and_suspends() {
        let (monitor, stats) = installed_leaf();
        let suspend = Arc::new(SuspendFlag::default());
        let path: TaskPath = "0".parse().unwrap();
        let mut cx = LiveCx::new(&stats, Arc::clone(&suspend));
        assert_eq!(cx.begin(), Directive::Continue);
        assert_eq!(cx.end(), Directive::Continue);
        suspend.set();
        assert_eq!(cx.directive(), Directive::Suspend);
        assert_eq!(cx.begin(), Directive::Suspend);
        assert_eq!(monitor.snapshot().task(&path).unwrap().invocations, 1);
        // The relaunch clears the flag before its replicas start.
        suspend.clear();
        assert_eq!(cx.directive(), Directive::Continue);
    }

    #[test]
    fn stride_spaces_timed_samples_a_millisecond_apart_within_bounds() {
        let mut rng = 0x2545_f491_4f6c_dd1d;
        // (gap since the last sample, its weight) -> the stride k that
        // the jitter is centred on.
        for (gap_nanos, weight, k) in [
            (u64::MAX, 1, 1),     // first sample of a context
            (2_000_000, 1, 1),    // one invocation per 2 ms
            (128_000_000, 64, 1), // the same rate, seen through weight 64
            (1_000_000, 1, 1),    // exactly the target
            (20_000, 1, 50),      // 20 µs period
            (1_000_000, 50, 50),  // the same, once the stride is 50
            (1_000, 1, 64),       // 1 µs period: capped
            (64_000, 64, 64),
            (0, 1, 64), // a clock that did not advance
        ] {
            let draws = 10_000;
            let mut sum = 0u64;
            for _ in 0..draws {
                let stride = u64::from(next_stride(gap_nanos, weight, &mut rng));
                assert!(
                    2 * stride >= k && 2 * stride < 3 * k,
                    "stride {stride} outside [k/2, 3k/2) for k = {k}"
                );
                sum += stride;
            }
            let mean = sum as f64 / f64::from(draws);
            assert!(
                (mean - k as f64).abs() <= 0.02 * k as f64,
                "mean stride {mean} for k = {k}"
            );
        }
    }

    /// Runs `body` as the single worker of a one-leaf program and returns
    /// the leaf's final statistics, its merged execution histogram and
    /// how many of its invocations were timed.
    fn run_leaf(
        body: impl FnMut(&mut dyn TaskCx) -> TaskStatus + Send + 'static,
    ) -> (dope_core::TaskStats, dope_metrics::LocalHistogram, u64) {
        let body = std::sync::Mutex::new(Some(body));
        let spec = TaskSpec::leaf("leaf", TaskKind::Par, move |_slot: WorkerSlot| {
            let body = body.lock().unwrap().take().expect("one replica");
            Box::new(body_fn(body)) as Box<dyn TaskBody>
        });
        let dope = crate::Dope::builder(dope_core::Goal::MaxThroughput { threads: 1 })
            .control_period(Duration::from_millis(5))
            .launch(vec![spec])
            .unwrap();
        let monitor = dope.monitor();
        dope.wait().unwrap();
        let path: TaskPath = "0".parse().unwrap();
        let stats = monitor.stats_for(&path).unwrap();
        let snap = monitor.snapshot();
        (
            *snap.task(&path).unwrap(),
            stats.merged_hist().0,
            stats.total_timings(),
        )
    }

    #[test]
    fn a_saturated_leaf_is_counted_exactly_and_timed_sparsely() {
        const JOBS: u64 = 100_000;
        let mut left = JOBS;
        let (stats, hist, timings) = run_leaf(move |cx| {
            cx.begin();
            cx.end();
            left -= 1;
            if left == 0 {
                TaskStatus::Finished
            } else {
                TaskStatus::Executing
            }
        });
        assert_eq!(stats.invocations, JOBS);
        assert_eq!(hist.count(), JOBS, "the dropped context flushed its tail");
        assert!(timings <= JOBS / 16, "{timings} timed of {JOBS}");
    }

    #[test]
    fn the_first_item_after_an_idle_gap_is_always_timed() {
        const BURSTS: u64 = 20;
        const BURST: u64 = 1_000;
        let slow = Duration::from_micros(200);
        let mut done = 0;
        let mut rested = false;
        let (stats, hist, timings) = run_leaf(move |cx| {
            let first_of_burst = done % BURST == 0;
            if first_of_burst && !rested {
                // What a dequeue that times out looks like: an `invoke`
                // that found no work and ended no interval.
                std::thread::sleep(Duration::from_millis(5));
                rested = true;
                return TaskStatus::Executing;
            }
            rested = false;
            cx.begin();
            if first_of_burst {
                let t0 = Instant::now();
                while t0.elapsed() < slow {
                    std::hint::spin_loop();
                }
            }
            cx.end();
            done += 1;
            if done == BURSTS * BURST {
                TaskStatus::Finished
            } else {
                TaskStatus::Executing
            }
        });
        assert_eq!(stats.invocations, BURSTS * BURST);
        assert_eq!(hist.count(), BURSTS * BURST);
        assert!(timings < BURSTS * BURST / 4, "{timings} timed");
        // Each burst's slow first item was measured: had one gone untimed
        // it would be missing here. (No upper bound: a fast item that is
        // preempted while timed legitimately lands up here too.)
        let slow_items = hist.count() - hist.cumulative_le_secs(slow.as_secs_f64() / 2.0);
        assert!(slow_items >= BURSTS, "{slow_items} slow items measured");
    }

    #[test]
    fn an_idle_invoke_flushes_the_tail_and_retimes_the_next_invocation() {
        let (_monitor, stats) = installed_leaf();
        let mut cx = LiveCx::new(&stats, Arc::default());
        // Saturated: far more invocations than timings, and part of them
        // not yet covered by one.
        for _ in 0..1_000 {
            cx.begin();
            cx.end();
            cx.invoke_returned();
        }
        assert_eq!(stats.total_invocations(), 1_000);
        let timed = stats.total_timings();
        assert!(timed < 250, "{timed} timed");
        cx.countdown = 7;
        cx.begin();
        cx.end();
        assert_eq!(stats.total_timings(), timed, "inside the stride: untimed");
        assert!(stats.merged_hist().0.count() < 1_001);
        // An invoke that ends no interval: the path went idle.
        for _ in 0..3 {
            cx.invoke_returned();
        }
        assert_eq!(stats.merged_hist().0.count(), 1_001, "tail flushed");
        assert_eq!(stats.total_timings(), timed + 1, "one flush, not two");
        cx.begin();
        cx.end();
        assert_eq!(stats.total_timings(), timed + 2, "first after idle: timed");
        assert_eq!(stats.merged_hist().0.count(), 1_002, "at weight one");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue holds the one item the test enqueues"
    )]
    fn a_context_parked_for_work_has_flushed_its_tail() {
        use dope_workload::{Waited, WorkQueue};
        let (_monitor, stats) = installed_leaf();
        let queue = WorkQueue::new();
        let worker = {
            let (stats, queue) = (Arc::clone(&stats), queue.clone());
            std::thread::spawn(move || {
                let mut cx = LiveCx::new(&stats, Arc::default());
                for _ in 0..1_000 {
                    cx.begin();
                    cx.end();
                }
                // A timing target past the last timed sample: the park
                // that follows is an idle gap.
                std::thread::sleep(Duration::from_millis(2));
                queue.dequeue_for(&mut cx)
            })
        };
        // Every invocation reaches the histogram while the worker is
        // still parked, not when work resumes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.merged_hist().0.count() < 1_000 {
            assert!(
                Instant::now() < deadline,
                "the parked context kept its tail"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!worker.is_finished(), "flushed before the take returned");
        queue.enqueue(7u64).unwrap();
        assert_eq!(worker.join().unwrap(), Waited::Item(7));
        assert_eq!(stats.total_invocations(), 1_000);
    }

    #[test]
    fn instantiate_paths_builds_only_the_named_leaves() {
        let specs = vec![leaf("a", TaskKind::Par), leaf("b", TaskKind::Par)];
        let config = Config::new(vec![TaskConfig::leaf("a", 3), TaskConfig::leaf("b", 2)]);
        let target: TaskPath = "1".parse().unwrap();
        let epoch = instantiate_paths(&specs, &config, std::slice::from_ref(&target)).unwrap();
        assert_eq!(epoch.jobs.len(), 2, "only path 1's workers");
        assert!(epoch.jobs.iter().all(|j| j.path == target));
        assert_eq!(extent(&epoch, "1"), Some(2));
        assert_eq!(extent(&epoch, "0"), None);
    }

    #[test]
    fn instantiate_paths_takes_top_level_tasks_only() {
        let nest = TaskSpec::nest("o", TaskKind::Par, |_r: u32| vec![leaf("i", TaskKind::Seq)]);
        let specs = vec![leaf("a", TaskKind::Par), nest];
        let config = Config::new(vec![
            TaskConfig::leaf("a", 1),
            TaskConfig::nest("o", 2, 0, vec![TaskConfig::leaf("i", 1)]),
        ]);
        // A top-level nest relaunches as a unit: its inner paths with it.
        let nest = instantiate_paths(&specs, &config, &["1".parse().unwrap()]).unwrap();
        assert_eq!(nest.jobs.len(), 2, "2 replicas x 1 worker");
        assert_eq!((extent(&nest, "1"), extent(&nest, "1.0")), (None, Some(2)));
        assert_eq!(extent(&nest, "0"), None);
        // A nested path cannot relaunch apart from its nest.
        let nested = instantiate_paths(&specs, &config, &["1.0".parse().unwrap()]);
        assert_eq!(nested.err().unwrap().code(), DiagCode::StructureMismatch);
        // An out-of-range index is unknown.
        assert!(matches!(
            instantiate_paths(&specs, &config, &["7".parse().unwrap()]),
            Err(Error::UnknownPath { .. })
        ));
    }
}
