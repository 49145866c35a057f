//! What the integration tests share: the run's trace rules, stated once
//! and checked on every recording the tests make ([`check`]), the one
//! scripted mechanism ([`Scripted`]) and an adapter that launches a real
//! one under the even split ([`EvenStart`]), the one leaf that drains a queue
//! ([`Leaf`]) and the readers ([`Counts`], [`counter_value`]).
//!
//! Each test binary includes it as `mod support;`. The lock-rank test in
//! `dope-runtime`'s `executive.rs` compiles it into that crate too, through
//! `#[path]`: so it names only `dope-core`, `dope-trace` and
//! `dope-workload`, never `dope_runtime` (which names itself `crate`
//! there) or a crate `dope-runtime` does not depend on. A name from
//! outside that set breaks `cargo test --workspace`, which `ci.sh` runs;
//! the root package's `cargo test` alone does not see it.

#![allow(dead_code, reason = "each test binary uses a part of the harness")]

use dope_core::{
    body_fn, Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
    TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus, Verdict, WorkerSlot,
};
use dope_trace::{TraceEvent, TraceRecord};
use dope_workload::{AdmissionQueue, Waited, WorkQueue};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One rule every recording keeps, live or simulated. Each names a
/// one-line mutation that turns tests red through [`check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `Launched` comes first; `Finished` comes last, once, exactly when
    /// the run ended cleanly. Turned red by deleting
    /// `self.finished_at(self.last_time_secs, ..)` in
    /// `RecordingObserver::finished`.
    Ends,
    /// Each control period reads `DecisionTraced? SnapshotTaken
    /// ProposalEvaluated? ReconfigureEpoch?`; the run's last decision may
    /// follow the last period. A failure, a `Superseded` target and a
    /// `Degrade` epoch may fall anywhere; no consult falls inside a drain.
    /// Turned red by moving `self.sink.snapshot_taken(snap);` above the
    /// held decision's emission in `ControlCore::tick`.
    Period,
    /// Each `DecisionTraced` carries the time of a distinct earlier
    /// snapshot, and those times increase. Turned red by
    /// `.decision_scored(now, ..)` for `.decision_scored(at, ..)` in
    /// `ControlCore::finish`.
    DecisionTime,
    /// Every `Accepted` is closed by exactly one `ReconfigureEpoch` of its
    /// configuration or one `Superseded` of it, before the next
    /// `Accepted`; no target is left open at the end. Turned red by
    /// deleting `self.judged(now, &target, Verdict::Superseded);` in
    /// `ControlCore::retire_target`.
    Target,
    /// A `ReconfigureEpoch` with no proposal behind it appears only under
    /// `Degrade`: after a `TaskFailed` of that policy. Turned red by
    /// `_ => self.switch_to(Arc::clone(&self.config), Scope::Full, false),`
    /// for `_ => Action::Relaunch(Scope::Full),` in `ControlCore::boundary`.
    Unproposed,
}

/// Checks every [`Rule`] on `records`, the recording of a run that ended
/// cleanly (`Ok`) or not, and returns its counts. Panics with the rule
/// broken and the record kinds.
pub fn check(records: &[TraceRecord], clean: bool) -> Counts {
    if let Some((rule, what)) = broken(records, clean) {
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        panic!("{rule:?}: {what}\nin {kinds:?}");
    }
    Counts::of(records)
}

/// The first [`Rule`] `records` breaks, with where and how.
pub fn broken(records: &[TraceRecord], clean: bool) -> Option<(Rule, String)> {
    let Some(last) = records.len().checked_sub(1) else {
        return Some((Rule::Ends, "an empty recording".into()));
    };
    let mut in_flight: Option<&Arc<Config>> = None;
    let mut degrading = false;
    let mut snapshots = Vec::new();
    let mut decided = f64::NEG_INFINITY;
    // The rank (D S P R = 0 1 2 3) of the period's last record, and
    // whether the period has its snapshot.
    let mut period: Option<(u8, bool)> = None;
    for (at, record) in records.iter().enumerate() {
        let fail = |rule, what: String| Some((rule, format!("record {at}: {what}")));
        let time = record.time_secs;
        let rank = match &record.event {
            TraceEvent::Launched { .. } if at == 0 => continue,
            TraceEvent::Finished { .. } if clean && at == last => continue,
            TraceEvent::Launched { .. } | TraceEvent::Finished { .. } => {
                return fail(Rule::Ends, format!("a misplaced {}", record.event.kind()));
            }
            _ if at == 0 => return fail(Rule::Ends, "the run does not open with Launched".into()),
            TraceEvent::TaskFailed { policy, .. } => {
                degrading |= policy == "degrade";
                continue;
            }
            TraceEvent::ProposalEvaluated {
                proposal, verdict, ..
            } => match verdict {
                Verdict::Superseded => match in_flight.take() {
                    Some(target) if target == proposal => continue,
                    _ => {
                        return fail(
                            Rule::Target,
                            format!("{proposal} superseded, not in flight"),
                        )
                    }
                },
                Verdict::Accepted if in_flight.is_some() => {
                    return fail(Rule::Target, format!("{proposal} accepted mid-flight"));
                }
                Verdict::Accepted => {
                    in_flight = Some(proposal);
                    2
                }
                _ => 2,
            },
            TraceEvent::ReconfigureEpoch { config, .. } => match in_flight.take() {
                Some(target) if target == config => 3,
                Some(target) => {
                    return fail(
                        Rule::Target,
                        format!("{config} applied, {target} in flight"),
                    );
                }
                None if std::mem::take(&mut degrading) => continue,
                None => return fail(Rule::Unproposed, format!("{config} applied unproposed")),
            },
            TraceEvent::SnapshotTaken { .. } | TraceEvent::DecisionTraced { .. }
                if in_flight.is_some() =>
            {
                return fail(Rule::Period, "a consult inside a drain".into());
            }
            TraceEvent::SnapshotTaken { .. } => {
                snapshots.push(time);
                1
            }
            TraceEvent::DecisionTraced { .. } => {
                if time <= decided || !snapshots.contains(&time) {
                    return fail(Rule::DecisionTime, format!("a decision stamped {time}"));
                }
                decided = time;
                0
            }
            other => return fail(Rule::Period, format!("a {} in a period", other.kind())),
        };
        period = match period {
            Some((prev, snapped)) if rank > prev => Some((rank, snapped || rank == 1)),
            Some((_, false)) => return fail(Rule::Period, "a period without its snapshot".into()),
            _ if rank > 1 => return fail(Rule::Period, "a proposal before its snapshot".into()),
            _ => Some((rank, rank == 1)),
        };
    }
    if clean && records[last].event.kind() != "Finished" {
        return Some((Rule::Ends, "a clean run without its Finished".into()));
    }
    if let Some(target) = in_flight {
        return Some((Rule::Target, format!("{target} left in flight")));
    }
    None
}

/// What a recording holds: a count per record kind, and the verdict of
/// every `ProposalEvaluated`, in order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub kinds: BTreeMap<&'static str, usize>,
    pub verdicts: Vec<Verdict>,
}

impl Counts {
    /// Counts `records` without checking them (a run still going).
    pub fn of(records: &[TraceRecord]) -> Counts {
        let mut counts = Counts::default();
        for record in records {
            *counts.kinds.entry(record.event.kind()).or_default() += 1;
            if let TraceEvent::ProposalEvaluated { verdict, .. } = &record.event {
                counts.verdicts.push(*verdict);
            }
        }
        counts
    }

    /// Records of `kind`.
    pub fn kind(&self, kind: &str) -> usize {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Proposals judged `verdict`.
    pub fn verdict(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|v| **v == verdict).count()
    }

    /// Proposals rejected, whatever the code.
    pub fn rejected(&self) -> usize {
        (self.verdicts.iter())
            .filter(|v| matches!(v, Verdict::Rejected { .. }))
            .count()
    }
}

/// The value of the first sample of `metric` in a Prometheus scrape.
pub fn counter_value(render: &str, metric: &str) -> Option<f64> {
    render
        .lines()
        .find(|l| l.starts_with(metric) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}

/// A script: what to propose at a consult (counted from 0) under the
/// configuration in force.
type Script = dyn FnMut(usize, &Config) -> Option<Config> + Send;

/// The one scripted mechanism: `next(consult, current)` answers each
/// consult, counted from 0.
pub struct Scripted {
    next: Box<Script>,
    consults: usize,
    initial: Option<Config>,
    explanation: Option<DecisionTrace>,
}

impl Scripted {
    pub fn new(next: impl FnMut(usize, &Config) -> Option<Config> + Send + 'static) -> Self {
        Scripted {
            next: Box::new(next),
            consults: 0,
            initial: None,
            explanation: None,
        }
    }

    /// Proposes `target` at consult `at` and holds at every other.
    pub fn once(at: usize, target: Config) -> Self {
        Scripted::new(move |consult, _| (consult == at).then(|| target.clone()))
    }

    /// Launches under `initial` instead of the executive's even split.
    pub fn starting(mut self, initial: Config) -> Self {
        self.initial = Some(initial);
        self
    }

    /// Explains every consult as a hold.
    pub fn explained(mut self) -> Self {
        self.explanation = Some(DecisionTrace::new(Rationale::Hold, "hold"));
        self
    }
}

impl Mechanism for Scripted {
    fn name(&self) -> &'static str {
        "Scripted"
    }

    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        self.initial.clone()
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        self.consults += 1;
        (self.next)(self.consults - 1, current)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.explanation.clone()
    }
}

/// `inner` at every consult, launched under the executive's even split
/// instead of `inner`'s own initial choice.
pub struct EvenStart<M>(pub M);

impl<M: Mechanism> Mechanism for EvenStart<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        self.0.reconfigure(snap, current, shape, res)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.0.explain()
    }
}

/// `0..items`, enqueued and closed.
pub fn closed_queue(items: u64) -> WorkQueue<u64> {
    let queue = WorkQueue::new();
    for item in 0..items {
        queue.enqueue(item).expect("an open queue");
    }
    queue.close();
    queue
}

/// A queue a [`Leaf`] drains: a work queue or an admission gate.
pub trait Drained: Clone + Send + Sync + 'static {
    /// The next item, waiting for it on behalf of `cx`.
    fn wait_for(&self, cx: &mut dyn TaskCx) -> Waited<u64>;
    /// The next item without waiting, once a fault hook has ignored a
    /// suspend; only a work-queue leaf has a hook ([`Leaf::fault`]).
    fn take_now(&self) -> Option<u64> {
        unreachable!("only a work-queue leaf ignores a suspend")
    }
}

impl Drained for WorkQueue<u64> {
    fn wait_for(&self, cx: &mut dyn TaskCx) -> Waited<u64> {
        self.dequeue_for(cx)
    }

    fn take_now(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl Drained for AdmissionQueue<u64> {
    fn wait_for(&self, cx: &mut dyn TaskCx) -> Waited<u64> {
        self.take_for(cx)
    }
}

/// The replica a [`Leaf`]'s fault hook runs in.
#[derive(Debug, Clone, Copy)]
pub struct Replica {
    pub worker: u32,
    /// The leaf's factory calls before this replica's.
    pub instance: u64,
    /// Suspend requests this replica has seen, this one included.
    pub asked: u32,
}

/// Where in an invocation a [`Leaf`]'s fault hook runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Before the wait.
    Invoked,
    /// The wait came back asking to suspend: `false` ignores the request
    /// and takes without waiting, finishing once the queue is empty.
    Asked,
    /// An item was taken, before its work.
    Took(u64),
    /// The item's work ended; `asked` if a suspend was requested by then.
    Ended { asked: bool },
}

type Fault = dyn Fn(&Replica, Point) -> bool + Send + Sync;

/// The one leaf that drains a queue: it waits for an item, counts it into
/// `hits` and works `work` on it between `begin` and `end`, suspends when
/// asked and finishes once the queue is closed and empty.
pub struct Leaf<Q> {
    name: String,
    queue: Q,
    work: Duration,
    hits: Arc<AtomicU64>,
    made: Arc<AtomicU64>,
    fault: Option<Arc<Fault>>,
}

impl<Q: Drained> Leaf<Q> {
    pub fn new(name: &str, queue: Q) -> Self {
        Leaf {
            name: name.to_string(),
            queue,
            work: Duration::ZERO,
            hits: Arc::default(),
            made: Arc::default(),
            fault: None,
        }
    }

    /// Sleeps `per_item` on each item.
    pub fn work(mut self, per_item: Duration) -> Self {
        self.work = per_item;
        self
    }

    /// Counts each item taken into `hits`.
    pub fn hits(mut self, hits: &Arc<AtomicU64>) -> Self {
        self.hits = Arc::clone(hits);
        self
    }

    /// Counts each factory call (one per replica launched) into `made`.
    pub fn made(mut self, made: &Arc<AtomicU64>) -> Self {
        self.made = Arc::clone(made);
        self
    }

    pub fn spec(self) -> TaskSpec {
        let Leaf {
            name,
            queue,
            work,
            hits,
            made,
            fault,
        } = self;
        TaskSpec::leaf(name, TaskKind::Par, move |slot: WorkerSlot| {
            let mut replica = Replica {
                worker: slot.worker,
                instance: made.fetch_add(1, Ordering::SeqCst),
                asked: 0,
            };
            let (queue, hits, fault) = (queue.clone(), Arc::clone(&hits), fault.clone());
            let hook =
                move |replica: &Replica, point| fault.as_ref().is_none_or(|f| f(replica, point));
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                hook(&replica, Point::Invoked);
                let item = match queue.wait_for(cx) {
                    Waited::Item(item) => item,
                    Waited::Closed => return TaskStatus::Finished,
                    Waited::Suspended => {
                        replica.asked += 1;
                        if hook(&replica, Point::Asked) {
                            return TaskStatus::Suspended;
                        }
                        match queue.take_now() {
                            Some(item) => item,
                            None => return TaskStatus::Finished,
                        }
                    }
                };
                hook(&replica, Point::Took(item));
                cx.begin();
                hits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(work);
                let asked = cx.end().wants_suspend();
                hook(&replica, Point::Ended { asked });
                TaskStatus::Executing
            })) as Box<dyn TaskBody>
        })
    }
}

impl Leaf<WorkQueue<u64>> {
    /// Runs `hook` at each [`Point`]; it may panic. Only its answer at
    /// [`Point::Asked`] is read.
    pub fn fault(mut self, hook: impl Fn(&Replica, Point) -> bool + Send + Sync + 'static) -> Self {
        self.fault = Some(Arc::new(hook));
        self
    }
}
