//! The live two-stage pipeline every `pipe_*` workload runs.
//!
//! One generator thread (the caller) offers jobs to an `AdmissionQueue`;
//! two top-level `Par` leaves `s1` -> `s2`, connected by a `WorkQueue`,
//! run under a real `Dope` executive; the sink keeps a per-worker
//! checksum and count. Everything is built from the crates' public
//! items, so each layer is measured from outside.
//!
//! Both stages check `cx.directive().wants_suspend()` before each
//! dequeue: flat leaves take the partial-drain path, and a stage that only
//! suspended on a dequeue timeout would never drain while its queue is
//! non-empty.

use crate::mech::{config, Flip, TimedMechanism};
use crate::plan::{Control, LiveParams, Load, CONTROL_PERIOD_MS, POLL_MS};
use crate::spans::{self, Kind, Span};
use crate::stats::Tail;
use crate::{alloc, sys, work};
use dope_core::{
    AdmissionStats, Goal, Mechanism, StaticMechanism, TaskBody, TaskCx, TaskKind, TaskSpec,
    TaskStatus, WorkerSlot,
};
use dope_metrics::{names, MetricsRegistry};
use dope_runtime::Dope;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::{AdmissionQueue, ArrivalSchedule, DequeueOutcome, OfferOutcome, WorkQueue};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the closed-loop generator sleeps while its window is full.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// What flows through the pipeline.
#[derive(Debug, Clone, Copy)]
struct Job {
    id: u32,
    /// When the job's latency clock started, in ns since the run epoch:
    /// the offer in a closed loop, the due time in an open loop.
    t0_ns: u64,
    val: u64,
}

/// What the stage bodies accumulate locally and hand over in `fini`.
#[derive(Debug, Default)]
struct Totals {
    sum: u64,
    count: u64,
    latency_ns: Vec<u64>,
    /// When the last stage-2 worker left, in ns since the run epoch.
    s2_left_ns: u64,
    spans: Vec<Span>,
}

struct Shared {
    epoch: Instant,
    /// Jobs the sink has seen; the closed-loop generator's window.
    completed: AtomicU64,
    totals: Mutex<Totals>,
    s1_active: AtomicU32,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn merge(&self, mut local: Totals) {
        let mut totals = self.totals.lock().expect("no stage panics while merging");
        totals.sum = totals.sum.wrapping_add(local.sum);
        totals.count += local.count;
        totals.latency_ns.append(&mut local.latency_ns);
        totals.s2_left_ns = totals.s2_left_ns.max(local.s2_left_ns);
        totals.spans.append(&mut local.spans);
    }
}

/// Timestamp in the traced pass, nothing in the timed passes.
#[inline(always)]
fn stamp<const TRACED: bool>(shared: &Shared) -> u64 {
    if TRACED {
        shared.now_ns()
    } else {
        0
    }
}

struct Stage1<const TRACED: bool> {
    input: AdmissionQueue<Job>,
    mid: WorkQueue<Job>,
    rounds: u32,
    shared: Arc<Shared>,
    local: Totals,
}

impl<const TRACED: bool> TaskBody for Stage1<TRACED> {
    fn init(&mut self) {
        self.shared.s1_active.fetch_add(1, Ordering::AcqRel);
    }

    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        if cx.directive().wants_suspend() {
            return TaskStatus::Suspended;
        }
        let t0 = stamp::<TRACED>(&self.shared);
        match self.input.take(Duration::from_millis(POLL_MS)) {
            DequeueOutcome::Item(mut job) => {
                let t1 = stamp::<TRACED>(&self.shared);
                cx.begin();
                let t2 = stamp::<TRACED>(&self.shared);
                job.val = work::mix(job.val, self.rounds);
                let t3 = stamp::<TRACED>(&self.shared);
                cx.end();
                let t4 = stamp::<TRACED>(&self.shared);
                // The inter-stage queue is only closed by the last stage-1
                // worker on its way out, so this cannot fail.
                let _ = self.mid.enqueue(job);
                if TRACED {
                    let t5 = self.shared.now_ns();
                    let edges = [t0, t1, t2, t3, t4, t5];
                    let kinds = [Kind::Take, Kind::Begin1, Kind::Work1, Kind::End1, Kind::Enq];
                    push_spans(&mut self.local.spans, job.id, &kinds, &edges);
                }
                TaskStatus::Executing
            }
            DequeueOutcome::TimedOut => TaskStatus::Executing,
            DequeueOutcome::Drained => TaskStatus::Finished,
        }
    }

    fn fini(&mut self, status: TaskStatus) {
        self.shared.merge(std::mem::take(&mut self.local));
        // The paper's sentinel cascade, for a drained inlet only: a
        // suspended stage 1 will be relaunched and keep feeding stage 2.
        let last_out = self.shared.s1_active.fetch_sub(1, Ordering::AcqRel) == 1;
        if last_out && status == TaskStatus::Finished {
            self.mid.close();
        }
    }
}

struct Stage2<const TRACED: bool> {
    mid: WorkQueue<Job>,
    rounds: u32,
    latency_mask: u32,
    shared: Arc<Shared>,
    local: Totals,
}

impl<const TRACED: bool> TaskBody for Stage2<TRACED> {
    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        if cx.directive().wants_suspend() {
            return TaskStatus::Suspended;
        }
        let t0 = stamp::<TRACED>(&self.shared);
        match self.mid.dequeue_timeout(Duration::from_millis(POLL_MS)) {
            DequeueOutcome::Item(job) => {
                let t1 = stamp::<TRACED>(&self.shared);
                cx.begin();
                let t2 = stamp::<TRACED>(&self.shared);
                let out = work::stage2(job.val, self.rounds);
                let t3 = stamp::<TRACED>(&self.shared);
                cx.end();
                let t4 = stamp::<TRACED>(&self.shared);
                self.local.sum = self.local.sum.wrapping_add(out);
                self.local.count += 1;
                if job.id & self.latency_mask == 0 {
                    let now = self.shared.now_ns();
                    self.local.latency_ns.push(now.saturating_sub(job.t0_ns));
                }
                self.shared.completed.fetch_add(1, Ordering::Release);
                if TRACED {
                    let t5 = self.shared.now_ns();
                    let edges = [t0, t1, t2, t3, t4, t5];
                    let kinds = [Kind::Deq, Kind::Begin2, Kind::Work2, Kind::End2, Kind::Sink];
                    push_spans(&mut self.local.spans, job.id, &kinds, &edges);
                }
                TaskStatus::Executing
            }
            DequeueOutcome::TimedOut => TaskStatus::Executing,
            DequeueOutcome::Drained => TaskStatus::Finished,
        }
    }

    fn fini(&mut self, _status: TaskStatus) {
        self.local.s2_left_ns = self.shared.now_ns();
        self.shared.merge(std::mem::take(&mut self.local));
    }
}

fn push_spans(out: &mut Vec<Span>, job: u32, kinds: &[Kind; 5], edges: &[u64; 6]) {
    for (i, &kind) in kinds.iter().enumerate() {
        out.push(Span {
            job,
            kind,
            start: edges[i],
            end: edges[i + 1],
        });
    }
}

fn descriptor<const TRACED: bool>(
    params: &LiveParams,
    input: &AdmissionQueue<Job>,
    shared: &Arc<Shared>,
) -> Vec<TaskSpec> {
    let mid: WorkQueue<Job> = WorkQueue::new();
    let (rounds1, rounds2) = params.rounds;
    let latency_mask = params.latency_mask;
    let s1 = {
        let (input, mid, shared) = (input.clone(), mid.clone(), Arc::clone(shared));
        TaskSpec::leaf("s1", TaskKind::Par, move |_slot: WorkerSlot| {
            Box::new(Stage1::<TRACED> {
                input: input.clone(),
                mid: mid.clone(),
                rounds: rounds1,
                shared: Arc::clone(&shared),
                local: Totals::default(),
            }) as Box<dyn TaskBody>
        })
    };
    let s2 = {
        let shared = Arc::clone(shared);
        TaskSpec::leaf("s2", TaskKind::Par, move |_slot: WorkerSlot| {
            Box::new(Stage2::<TRACED> {
                mid: mid.clone(),
                rounds: rounds2,
                latency_mask,
                shared: Arc::clone(&shared),
                local: Totals::default(),
            }) as Box<dyn TaskBody>
        })
    };
    vec![s1, s2]
}

/// What the traced pass adds to a repetition.
#[derive(Debug, Clone, Default)]
pub struct LiveTrace {
    pub spans: spans::Summary,
    pub consult_ns: Vec<f64>,
    pub probe_ns: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    /// `pause_secs` / `relaunch_secs` of every `ReconfigureEpoch` event
    /// the attached recorder kept, in microseconds.
    pub pause_us: Vec<f64>,
    pub relaunch_us: Vec<f64>,
    pub dropped_events: u64,
    pub pool_dispatched: f64,
    pub pool_parks: f64,
}

/// One repetition of a live workload.
#[derive(Debug, Clone, Default)]
pub struct LiveRep {
    pub jobs: u64,
    /// Process CPU seconds of set-up: payloads, schedule, reference
    /// checksum, `launch()`.
    pub setup_s: f64,
    pub setup_wall_s: f64,
    /// The reference loop alone: the same jobs inline on one thread.
    pub inline_cpu_us_per_job: f64,
    /// Process CPU (generator + workers + control thread) per completed
    /// job, `launch()` returned -> `wait()` returned.
    pub cpu_us_per_job: f64,
    pub wall_s: f64,
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub completed: u64,
    /// Offers that were shed, lost, never completed, or (on a checksum or
    /// conservation mismatch) every job of the repetition.
    pub failed: u64,
    /// Human-readable reasons for every violated output check.
    pub violations: Vec<String>,
    pub lost_jobs: u64,
    pub task_failures: u64,
    pub reconfigurations: u64,
    pub rejected_configs: u64,
    /// Offer (closed loop) or due time (open loop) -> sink, over the
    /// sampled jobs.
    pub latency_us: Tail,
    /// How late the generator ran: behind each job's due time in an open
    /// loop, sleep overshoot in a closed loop.
    pub gen_late_us: Tail,
    pub allocs_per_job: f64,
    pub alloc_bytes_per_job: f64,
    /// Last stage-2 worker left -> `wait()` returned.
    pub wait_tail_us: f64,
    pub monitoring_overhead_ratio: f64,
    pub trace: Option<LiveTrace>,
}

/// Options beyond the frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub rep: u64,
    /// Record spans, attach a `Recorder` and a metrics registry.
    pub traced: bool,
    /// `false` forces the drain-the-world protocol (full-pause probe).
    pub delta_reconfig: bool,
}

pub fn run(params: &LiveParams, opts: RunOpts) -> LiveRep {
    if opts.traced {
        run_inner::<true>(params, opts)
    } else {
        run_inner::<false>(params, opts)
    }
}

fn run_inner<const TRACED: bool>(params: &LiveParams, opts: RunOpts) -> LiveRep {
    let jobs = if TRACED {
        params.traced_jobs
    } else {
        params.jobs
    };
    let (rounds1, rounds2) = params.rounds;

    // ---- set-up: inputs from the seed, reference output, launch ----
    let setup_wall = Instant::now();
    let setup_cpu = sys::process_cpu_ns();
    let payloads = work::payloads(opts.seed, opts.rep, jobs);
    let schedule = match params.load {
        Load::Open { rate } => Some(ArrivalSchedule::poisson(rate, jobs, opts.seed ^ opts.rep)),
        Load::Closed { .. } => None,
    };
    let reference_cpu = sys::process_cpu_ns();
    let mut expected = work::reference_checksum(&payloads, rounds1, rounds2);
    let inline_cpu_us_per_job = (sys::process_cpu_ns() - reference_cpu) as f64 / 1e3 / jobs as f64;

    let shared = Arc::new(Shared {
        epoch: Instant::now(),
        completed: AtomicU64::new(0),
        totals: Mutex::new(Totals::default()),
        s1_active: AtomicU32::new(0),
    });
    let input: AdmissionQueue<Job> = AdmissionQueue::new(params.admission);
    let specs = descriptor::<TRACED>(params, &input, &shared);

    let mut mechanism: Box<dyn Mechanism> = match params.control {
        Control::Static => Box::new(StaticMechanism::new(config(1))),
        Control::Flip => Box::new(Flip),
    };
    let consult_ns = Arc::new(Mutex::new(Vec::new()));
    let probe_ns = Arc::new(Mutex::new(Vec::new()));
    let recorder = if TRACED {
        Recorder::bounded(1 << 16)
    } else {
        Recorder::disabled()
    };
    let registry = MetricsRegistry::new();
    let stats_probe = input.stats_probe();
    let mut builder = Dope::builder(Goal::MaxThroughput {
        threads: params.pool_threads,
    })
    .pool_threads(params.pool_threads)
    .control_period(Duration::from_millis(CONTROL_PERIOD_MS))
    .admission(params.admission)
    .delta_reconfig(opts.delta_reconfig);
    if TRACED {
        mechanism = Box::new(TimedMechanism {
            inner: mechanism,
            consult_ns: Arc::clone(&consult_ns),
        });
        let probe_ns = Arc::clone(&probe_ns);
        builder = builder
            .recorder(recorder.clone())
            .metrics(registry.clone())
            .admission_probe(move || -> AdmissionStats {
                let t0 = Instant::now();
                let stats = stats_probe();
                let ns = t0.elapsed().as_nanos() as f64;
                probe_ns
                    .lock()
                    .expect("only the control thread polls the probe")
                    .push(ns);
                stats
            });
    } else {
        builder = builder.admission_probe(stats_probe);
    }
    let dope = builder
        .mechanism(mechanism)
        .launch(specs)
        .expect("the frozen configuration validates");
    let setup_s = (sys::process_cpu_ns() - setup_cpu) as f64 / 1e9;
    let setup_wall_s = setup_wall.elapsed().as_secs_f64();

    // ---- the measured region: generate, drain, wait ----
    let monitor = dope.monitor();
    let allocs0 = alloc::counters();
    let cpu0 = sys::process_cpu_ns();
    let wall0 = Instant::now();

    let mut gen_spans: Vec<Span> = Vec::new();
    let mut gen_late_us: Vec<f64> = Vec::new();
    let mut snapshot_us: Vec<f64> = Vec::new();
    let mut shed: u64 = 0;
    let mut offer = |id: usize, t0_ns: u64| {
        let job = Job {
            id: id as u32,
            t0_ns,
            val: payloads[id],
        };
        let start = stamp::<TRACED>(&shared);
        let outcome = input.offer(job);
        if TRACED {
            gen_spans.push(Span {
                job: job.id,
                kind: Kind::Offer,
                start,
                end: shared.now_ns(),
            });
        }
        if let OfferOutcome::Shed(job) | OfferOutcome::Closed(job) = outcome {
            shed += 1;
            expected = expected.wrapping_sub(work::job_result(job.val, rounds1, rounds2));
        }
    };
    let timed_snapshot = || {
        let t0 = Instant::now();
        let _ = monitor.snapshot();
        t0.elapsed().as_nanos() as f64 / 1e3
    };
    match params.load {
        Load::Closed { window } => {
            let mut next = 0usize;
            while next < jobs {
                let done = shared.completed.load(Ordering::Acquire);
                if (next as u64 - done) < window / 2 {
                    while next < jobs && (next as u64 - done) < window {
                        offer(next, shared.now_ns());
                        next += 1;
                    }
                } else {
                    // A closed loop has no due times; how late the
                    // generator runs is how far its sleep overshoots.
                    let asleep = Instant::now();
                    std::thread::sleep(IDLE_SLEEP);
                    let overshoot = asleep.elapsed().saturating_sub(IDLE_SLEEP);
                    gen_late_us.push(overshoot.as_nanos() as f64 / 1e3);
                    if TRACED {
                        snapshot_us.push(timed_snapshot());
                    }
                }
            }
        }
        Load::Open { .. } => {
            let times = schedule
                .as_ref()
                .expect("open loops have a schedule")
                .times();
            for (id, &due_secs) in times.iter().enumerate() {
                let due_ns = (due_secs * 1e9) as u64;
                let now = shared.now_ns();
                if due_ns > now {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                gen_late_us.push(shared.now_ns().saturating_sub(due_ns) as f64 / 1e3);
                // Latency runs from the due time, so a late generator
                // counts against the jobs it delayed.
                offer(id, due_ns);
                if TRACED && id % 64 == 63 {
                    snapshot_us.push(timed_snapshot());
                }
            }
        }
    }
    input.close();
    let report = dope.wait();
    let end_ns = shared.now_ns();
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let allocs1 = alloc::counters();

    // ---- output checks ----
    let totals = std::mem::take(&mut *shared.totals.lock().expect("all stages have ended"));
    let stats = input.stats();
    let mut latency_us: Vec<f64> = totals
        .latency_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let mut rep = LiveRep {
        jobs: jobs as u64,
        setup_s,
        setup_wall_s,
        inline_cpu_us_per_job,
        wall_s,
        offered: stats.offered,
        admitted: stats.admitted,
        shed,
        completed: totals.count,
        gen_late_us: Tail::of(&mut gen_late_us),
        wait_tail_us: end_ns.saturating_sub(totals.s2_left_ns) as f64 / 1e3,
        monitoring_overhead_ratio: monitor.monitoring_overhead_ratio(),
        latency_us: Tail::of(&mut latency_us),
        ..LiveRep::default()
    };
    let done = totals.count.max(1) as f64;
    rep.cpu_us_per_job = cpu_ns as f64 / 1e3 / done;
    rep.allocs_per_job = (allocs1.0 - allocs0.0) as f64 / done;
    rep.alloc_bytes_per_job = (allocs1.1 - allocs0.1) as f64 / done;

    let mut violations = Vec::new();
    match &report {
        Ok(report) => {
            rep.lost_jobs = report.lost_jobs;
            rep.task_failures = report.task_failures;
            rep.reconfigurations = report.reconfigurations;
            rep.rejected_configs = report.rejected_configs;
            if report.lost_jobs != 0 {
                violations.push(format!("RunReport.lost_jobs = {}", report.lost_jobs));
            }
        }
        Err(err) => violations.push(format!("executive failed: {err}")),
    }
    if stats.offered != jobs as u64 || stats.offered != stats.admitted + stats.shed_high_water {
        violations.push(format!(
            "offered {} != admitted {} + shed {} (of {jobs} jobs)",
            stats.offered, stats.admitted, stats.shed_high_water
        ));
    }
    if shed != stats.shed_high_water {
        violations.push(format!(
            "generator saw {shed} shed offers, the gate counted {}",
            stats.shed_high_water
        ));
    }
    if totals.count != stats.admitted {
        violations.push(format!(
            "completed {} != admitted {}",
            totals.count, stats.admitted
        ));
    }
    if totals.sum != expected {
        violations.push(format!(
            "sink checksum {:#x} != single-threaded reference {expected:#x}",
            totals.sum
        ));
    }
    if params.control == Control::Flip {
        let per_s = rep.reconfigurations as f64 / wall_s;
        if per_s < 20.0 {
            violations.push(format!("only {per_s:.1} reconfigurations/s (need >= 20)"));
        }
    }
    rep.failed = if violations.is_empty() {
        shed
    } else {
        jobs as u64
    };
    rep.violations = violations;

    if TRACED {
        let mut all_spans = totals.spans;
        all_spans.append(&mut gen_spans);
        let assembled = spans::assemble(&all_spans, jobs);
        let mut trace = LiveTrace {
            spans: spans::summarize(&assembled),
            consult_ns: std::mem::take(&mut *consult_ns.lock().expect("control thread ended")),
            probe_ns: std::mem::take(&mut *probe_ns.lock().expect("control thread ended")),
            snapshot_us,
            dropped_events: recorder.dropped(),
            ..LiveTrace::default()
        };
        for record in recorder.records() {
            if let TraceEvent::ReconfigureEpoch {
                pause_secs,
                relaunch_secs,
                ..
            } = record.event
            {
                trace.pause_us.push(pause_secs * 1e6);
                trace.relaunch_us.push(relaunch_secs * 1e6);
            }
        }
        let counter = |name| registry.counter(name, "").get() as f64;
        trace.pool_dispatched = counter(names::POOL_JOBS_DISPATCHED_TOTAL);
        trace.pool_parks = counter(names::POOL_WORKER_PARKS_TOTAL);
        rep.trace = Some(trace);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PLANS;

    fn smoke(params: &LiveParams, traced: bool) -> LiveRep {
        run(
            &params.shrunk(100),
            RunOpts {
                seed: 3,
                rep: 0,
                traced,
                delta_reconfig: true,
            },
        )
    }

    #[test]
    fn every_live_workload_passes_its_checks_at_one_hundredth_size() {
        for plan in PLANS.iter().filter(|p| p.main == crate::plan::Main::Live) {
            let rep = smoke(&plan.live, false);
            // A 1/100-size churn run is over before 20 reconfigurations/s
            // means anything; every other check must hold.
            let real: Vec<_> = rep
                .violations
                .iter()
                .filter(|v| !v.contains("reconfigurations/s"))
                .collect();
            assert!(real.is_empty(), "{}: {real:?}", plan.name);
            assert_eq!(rep.completed + rep.shed, rep.jobs, "{}", plan.name);
            assert!(rep.cpu_us_per_job > 0.0 && rep.setup_s > 0.0);
        }
    }

    #[test]
    fn traced_pass_covers_every_job_and_children_fit_their_root() {
        let rep = smoke(&PLANS[0].live, true);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        let trace = rep.trace.expect("traced run returns a trace");
        assert_eq!(trace.spans.jobs as u64, rep.completed);
        assert_eq!(trace.spans.overfull_jobs, 0);
        let children: f64 = trace.spans.child_ns.iter().sum();
        assert!(children > 0.0 && trace.spans.total_ns > 0.0);
        assert!(!trace.consult_ns.is_empty() || rep.wall_s < 0.02);
    }
}
