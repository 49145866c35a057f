//! In-memory spans for the traced pass.
//!
//! Every job gets one root span (offer start → sink end) and one child
//! span per layer call it crosses; all spans of a job share the job id.
//! Threads append to their own vectors and hand them over when their task
//! body ends, so the hot path never takes a lock for tracing. Spans are
//! recorded from the benchmark's own stage bodies, around the calls into
//! each layer — nothing inside the crates is instrumented.

use crate::stats;

/// The layer calls a job crosses, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `AdmissionQueue::offer` on the generator thread.
    Offer,
    /// `AdmissionQueue::take` on a stage-1 worker.
    Take,
    /// `TaskCx::begin` in stage 1.
    Begin1,
    /// The stage-1 kernel.
    Work1,
    /// `TaskCx::end` in stage 1.
    End1,
    /// `WorkQueue::enqueue` into the inter-stage queue.
    Enq,
    /// `WorkQueue::dequeue_timeout` on a stage-2 worker.
    Deq,
    /// `TaskCx::begin` in stage 2.
    Begin2,
    /// The stage-2 kernel.
    Work2,
    /// `TaskCx::end` in stage 2.
    End2,
    /// Checksum, count and latency sample in the sink.
    Sink,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 11;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub job: u32,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
}

/// `(start, end)` of each child of one job, indexed by `Kind as usize`.
pub type JobSpans = [(u64, u64); KINDS];

/// Groups spans by job id; jobs missing any child (shed offers) are
/// dropped, so every returned job crossed the whole pipeline.
pub fn assemble(spans: &[Span], jobs: usize) -> Vec<JobSpans> {
    let mut table = vec![[(0u64, 0u64); KINDS]; jobs];
    let mut seen = vec![0u16; jobs];
    for span in spans {
        let job = span.job as usize;
        if job < jobs {
            table[job][span.kind as usize] = (span.start, span.end);
            seen[job] |= 1 << span.kind as u16;
        }
    }
    let complete = (1u16 << KINDS) - 1;
    table
        .into_iter()
        .zip(seen)
        .filter_map(|(spans, mask)| (mask == complete).then_some(spans))
        .collect()
}

/// Lays a job's children out on the job's own timeline, disjoint and in
/// causal order, by clipping two kinds of time that belong to a thread
/// rather than to the job:
///
/// * a dequeue call may have started long before the job it eventually
///   returned existed, so each child starts no earlier than its
///   predecessor ended;
/// * a hand-over (`offer` -> `take`, `enqueue` -> `dequeue`) is two calls
///   that overlap, and the woken consumer often finishes the whole job
///   before the producer's call has returned from its wake-up syscall, so
///   each child ends no later than its successor's call returned.
pub fn chain(children: &JobSpans) -> JobSpans {
    let mut out = *children;
    let mut cursor = children[0].0;
    for i in 0..KINDS {
        let successor_end = children.get(i + 1).map_or(u64::MAX, |next| next.1);
        let start = children[i].0.max(cursor);
        let end = children[i].1.min(successor_end).max(start);
        out[i] = (start, end);
        cursor = end;
    }
    out
}

/// A span's self time: its duration minus the part of it that child
/// spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(parent.0, parent.1), e.clamp(parent.0, parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// Medians over the traced jobs.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Complete jobs the medians are taken over.
    pub jobs: usize,
    /// Median child duration per [`Kind`], nanoseconds.
    pub child_ns: [f64; KINDS],
    /// Median root span (offer start → sink end), nanoseconds.
    pub total_ns: f64,
    /// Mean root self time — the time a job sat in queues. A mean, not a
    /// median: when consumers are parked most jobs never wait at all, and
    /// the few that do are the ones worth seeing.
    pub wait_ns: f64,
    /// Jobs whose children sum to more than their root span. Zero by
    /// construction of [`chain`]; reported so a broken clock shows.
    pub overfull_jobs: usize,
}

pub fn summarize(jobs: &[JobSpans]) -> Summary {
    if jobs.is_empty() {
        return Summary::default();
    }
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS];
    let mut totals = Vec::with_capacity(jobs.len());
    let mut waits = Vec::with_capacity(jobs.len());
    let mut overfull_jobs = 0;
    for raw in jobs {
        let chained = chain(raw);
        let root = (chained[0].0, chained[KINDS - 1].1);
        let mut child_sum = 0;
        for (kind, &(s, e)) in chained.iter().enumerate() {
            per_kind[kind].push((e - s) as f64);
            child_sum += e - s;
        }
        if child_sum > root.1 - root.0 {
            overfull_jobs += 1;
        }
        totals.push((root.1 - root.0) as f64);
        waits.push(self_time(root, &chained) as f64);
    }
    let mut child_ns = [0.0; KINDS];
    for (kind, values) in per_kind.iter().enumerate() {
        child_ns[kind] = stats::median(values);
    }
    Summary {
        jobs: jobs.len(),
        child_ns,
        total_ns: stats::median(&totals),
        wait_ns: waits.iter().sum::<f64>() / waits.len() as f64,
        overfull_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        // (10,40) and (30,60) overlap on 30..40; (90,150) sticks out.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40), (90, 150)]), 40);
        // A child entirely outside the parent covers nothing.
        assert_eq!(self_time((100, 200), &[(0, 50)]), 100);
        // A parent fully covered has no self time.
        assert_eq!(self_time((5, 9), &[(0, 20)]), 0);
    }

    /// Children back to back from t = 100: 10 ns each, 5 ns apart.
    fn evenly_spaced() -> JobSpans {
        let mut raw = [(0, 0); KINDS];
        let mut t = 100;
        for slot in &mut raw {
            *slot = (t, t + 10);
            t += 15;
        }
        raw
    }

    #[test]
    fn chain_clips_a_dequeue_that_started_before_the_job_existed() {
        let mut raw = evenly_spaced();
        // The worker had been blocked in `take` since t = 20.
        raw[Kind::Take as usize] = (20, 125);
        assert_eq!(chain(&raw)[Kind::Take as usize], (110, 125));
    }

    #[test]
    fn chain_cuts_a_producer_call_the_consumer_outran() {
        let mut raw = evenly_spaced();
        // Wake-up preemption: stage 2 dequeued at 180 and finished the job
        // while stage 1 was still inside `enqueue` (175..400).
        raw[Kind::Enq as usize] = (175, 400);
        raw[Kind::Deq as usize] = (60, 180);
        let chained = chain(&raw);
        assert_eq!(chained[Kind::Enq as usize], (175, 180));
        assert_eq!(chained[Kind::Deq as usize], (180, 180));
        assert_eq!(chained[Kind::Begin2 as usize], raw[Kind::Begin2 as usize]);
        let children: u64 = chained.iter().map(|(s, e)| e - s).sum();
        assert!(children <= chained[KINDS - 1].1 - chained[0].0);
    }

    #[test]
    fn summary_total_is_children_plus_wait() {
        let summary = summarize(&[evenly_spaced()]);
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.overfull_jobs, 0);
        let children: f64 = summary.child_ns.iter().sum();
        assert_eq!(children, 110.0);
        assert_eq!(summary.total_ns, 160.0);
        assert_eq!(summary.wait_ns, 50.0);
    }

    #[test]
    fn assemble_drops_jobs_with_missing_children() {
        let all = [
            Kind::Offer,
            Kind::Take,
            Kind::Begin1,
            Kind::Work1,
            Kind::End1,
            Kind::Enq,
            Kind::Deq,
            Kind::Begin2,
            Kind::Work2,
            Kind::End2,
            Kind::Sink,
        ];
        let mut spans: Vec<Span> = all
            .iter()
            .enumerate()
            .map(|(i, &kind)| Span {
                job: 0,
                kind,
                start: i as u64 * 10,
                end: i as u64 * 10 + 5,
            })
            .collect();
        // Job 1 was shed: it only ever has an offer span.
        spans.push(Span {
            job: 1,
            kind: Kind::Offer,
            start: 0,
            end: 5,
        });
        let jobs = assemble(&spans, 2);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0][Kind::Sink as usize], (100, 105));
    }
}
