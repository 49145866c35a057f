//! One workload, one process: the timed pass (`--trace 0`) and the traced
//! per-layer pass (`--trace 1`).

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::live::{self, LiveRep, RunOpts};
use crate::plan::{Main, Plan, RECONFIG_PROBE};
use crate::simreplay::{self, SimRep};
use crate::spans::Kind;
use crate::stats::Tail;
use crate::{probes, stats, sys};
use dope_core::json::Value;
use std::time::Instant;

/// Fewest repetitions a reported value is taken over.
const MIN_REPS: usize = 3;

/// Share of `--seconds` `sim_replay` spends on the simulator part; its live
/// companion gets the rest.
const MAIN_SHARE: f64 = 0.75;

/// What a run hands to `main` for printing.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-repetition values of the end-to-end metrics that have them.
    pub reps: Vec<(&'static str, Vec<f64>)>,
    /// Human-readable report lines (tables, violations).
    pub notes: Vec<String>,
}

/// Repeats `rep` at least [`MIN_REPS`] times, then for as long as one more
/// repetition of the size seen so far still fits before `deadline_s`.
fn repeat<T>(started: Instant, deadline_s: f64, mut rep: impl FnMut(u64) -> T) -> Vec<T> {
    let mut out = Vec::new();
    let mut longest = 0.0_f64;
    loop {
        let t0 = started.elapsed().as_secs_f64();
        out.push(rep(out.len() as u64));
        let now = started.elapsed().as_secs_f64();
        longest = longest.max(now - t0);
        if out.len() >= MIN_REPS && now + longest > deadline_s {
            return out;
        }
    }
}

fn live_reps(plan: &Plan, seed: u64, started: Instant, deadline_s: f64) -> Vec<LiveRep> {
    repeat(started, deadline_s, |rep| {
        live::run(
            &plan.live,
            RunOpts {
                seed,
                rep,
                traced: false,
                delta_reconfig: true,
            },
        )
    })
}

fn sim_reps(plan: &Plan, seed: u64, started: Instant, deadline_s: f64) -> Vec<SimRep> {
    repeat(started, deadline_s, |_| {
        simreplay::run(&plan.sim, seed, false)
    })
}

fn column<T>(reps: &[T], field: impl Fn(&T) -> f64) -> Vec<f64> {
    reps.iter().map(field).collect()
}

/// Folds the output checks of both parts into the result header.
fn verdict(
    plan: &Plan,
    live: &[LiveRep],
    sim: &[SimRep],
    notes: &mut Vec<String>,
) -> (bool, u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    for (i, rep) in live.iter().enumerate() {
        attempted += rep.offered.max(rep.jobs);
        failed += rep.failed;
        for violation in &rep.violations {
            correct = false;
            notes.push(format!("{} live rep {i}: {violation}", plan.name));
        }
    }
    for (i, rep) in sim.iter().enumerate() {
        attempted += rep.requests;
        failed += rep.failed;
        for violation in &rep.violations {
            correct = false;
            notes.push(format!("{} sim rep {i}: {violation}", plan.name));
        }
        if rep.response_digest != sim[0].response_digest {
            correct = false;
            failed += rep.requests;
            notes.push(format!(
                "{} sim rep {i}: simulated response statistics differ from rep 0 of the same seed",
                plan.name
            ));
        }
    }
    (correct, attempted, failed)
}

/// The timed pass: end-to-end metrics only, nothing traced.
///
/// A live workload spends all of `--seconds` on repetitions of its
/// pipeline. `sim_replay` spends [`MAIN_SHARE`] of it on the simulator and
/// trace round trip — whose output checks and memory footprint are what
/// the workload is for — and the rest on its live companion, which is
/// where its `cpu_us_per_job` comes from.
pub fn timed(plan: &Plan, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut notes = Vec::new();
    let sim = match plan.main {
        Main::Live => Vec::new(),
        Main::Sim => sim_reps(plan, seed, started, seconds * MAIN_SHARE),
    };
    let live = live_reps(plan, seed, started, seconds);
    let (correct, attempted, failed) = verdict(plan, &live, &sim, &mut notes);

    let live_setup = column(&live, |r| r.setup_s);
    let sim_setup = column(&sim, |r| r.setup_s);
    let cpu_job = column(&live, |r| r.cpu_us_per_job);
    let quartile_or_zero = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            stats::lower_quartile(v)
        }
    };
    let values = [
        stats::lower_quartile(&live_setup) + quartile_or_zero(&sim_setup),
        stats::lower_quartile(&cpu_job),
        sys::peak_rss_mb(),
    ];
    notes.push(format!(
        "{}: {} live reps x {} jobs, {} sim reps x {} requests, {:.1} s",
        plan.name,
        live.len(),
        plan.live.jobs,
        sim.len(),
        sim.first().map_or(0, |rep| rep.requests),
        started.elapsed().as_secs_f64()
    ));
    Outcome {
        correct,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| m.0).zip(values).collect(),
        reps: vec![
            ("setup_s", live_setup),
            ("cpu_us_per_job", cpu_job),
            // Not end-to-end metrics on this host (README, "How the
            // bounds were derived"), but kept in set files for reference.
            (
                "cpu_us_per_sim_request",
                column(&sim, |r| r.cpu_us_per_sim_request),
            ),
            (
                "cpu_us_per_trace_event",
                column(&sim, |r| r.cpu_us_per_trace_event),
            ),
        ],
        notes,
    }
}

/// The per-layer readings of one traced run, in catalogue order.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|p| (p.0, 0.0)).collect())
    }

    fn put(&mut self, rows: &[(&str, f64)]) {
        for &(name, value) in rows {
            let slot = self.0.iter_mut().find(|(n, _)| *n == name);
            slot.unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalogue"))
                .1 = value;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |r| r.1)
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn live_opts(seed: u64, rep: u64, traced: bool, delta_reconfig: bool) -> RunOpts {
    RunOpts {
        seed,
        rep,
        traced,
        delta_reconfig,
    }
}

/// The live part of the traced pass: untraced reference repetitions, the
/// traced repetition, and the per-hop closure table.
fn live_layers(plan: &Plan, seed: u64, m: &mut Layers, notes: &mut Vec<String>) -> Vec<LiveRep> {
    let mut reference_params = plan.live;
    reference_params.jobs = plan.live.traced_jobs;
    let mut reps: Vec<LiveRep> = (0..MIN_REPS as u64)
        .map(|rep| live::run(&reference_params, live_opts(seed, rep, false, true)))
        .collect();
    let cpu = column(&reps, |r| r.cpu_us_per_job);
    let untraced_cpu = stats::median(&cpu);
    if plan.main == Main::Live {
        m.put(&[("bench.rep_spread", stats::rel_range(&cpu))]);
    }
    let reference = &reps[MIN_REPS / 2];
    m.put(&[
        (
            "wall.jobs_per_s",
            reference.completed as f64 / reference.wall_s,
        ),
        ("wall.setup_ms", reference.setup_wall_s * 1e3),
        ("wall.resp_p50_us", reference.latency_us.p50),
        ("wall.resp_p99_us", reference.latency_us.p99),
        ("wall.resp_samples", reference.latency_us.samples as f64),
        (
            "apps.inline_cpu_us_per_job",
            reference.inline_cpu_us_per_job,
        ),
        ("bench.allocs_per_job", reference.allocs_per_job),
        ("bench.alloc_bytes_per_job", reference.alloc_bytes_per_job),
        (
            "runtime.monitoring_overhead_ratio",
            reference.monitoring_overhead_ratio,
        ),
        ("runtime.wait_tail_us", reference.wait_tail_us),
    ]);

    let traced = live::run(&plan.live, live_opts(seed, MIN_REPS as u64, true, true));
    let trace = traced.trace.clone().unwrap_or_default();
    let overhead = traced.cpu_us_per_job / untraced_cpu;
    let span = |kind: Kind| trace.spans.child_ns[kind as usize];
    // Per stage invocation: one `begin` plus one `end`; one kernel call.
    let begin_end =
        (span(Kind::Begin1) + span(Kind::End1) + span(Kind::Begin2) + span(Kind::End2)) / 2.0;
    let work = (span(Kind::Work1) + span(Kind::Work2)) / 2.0;
    m.put(&[
        ("bench.gen_late_p50_us", traced.gen_late_us.p50),
        ("bench.gen_late_p99_us", traced.gen_late_us.p99),
        ("bench.trace_overhead_ratio", overhead),
        ("workload.offered", traced.offered as f64),
        ("workload.admitted", traced.admitted as f64),
        ("workload.shed", traced.shed as f64),
        (
            "runtime.reconfigs_per_s",
            traced.reconfigurations as f64 / traced.wall_s,
        ),
        ("runtime.rejected_configs", traced.rejected_configs as f64),
        ("runtime.lost_jobs", traced.lost_jobs as f64),
        ("runtime.task_failures", traced.task_failures as f64),
        ("runtime.pool_dispatched", trace.pool_dispatched),
        ("runtime.pool_parks", trace.pool_parks),
        ("trace.dropped_events", trace.dropped_events as f64),
        ("span.workload.offer_ns", span(Kind::Offer)),
        ("span.workload.take_ns", span(Kind::Take)),
        ("span.runtime.begin_end_ns", begin_end),
        ("span.apps.work_ns", work),
        ("span.workload.enq_ns", span(Kind::Enq)),
        ("span.workload.deq_ns", span(Kind::Deq)),
        ("span.workload.sink_ns", span(Kind::Sink)),
        ("span.job.total_us", trace.spans.total_ns / 1e3),
        ("span.job.wait_us", trace.spans.wait_ns / 1e3),
        ("span.job.overfull", trace.spans.overfull_jobs as f64),
        (
            "span.mechanisms.consult_ns",
            median_or_zero(&trace.consult_ns),
        ),
        ("span.runtime.probe_ns", median_or_zero(&trace.probe_ns)),
        (
            "span.runtime.snapshot_us",
            median_or_zero(&trace.snapshot_us),
        ),
    ]);

    // Closure: do the straight-line hop costs add up to what a job costs?
    // `(hop, isolated probe ns, in-situ span ns, times per job)`.
    let hops = [
        (
            "offer",
            m.get("workload.offer_open_ns"),
            span(Kind::Offer),
            1.0,
        ),
        ("take", m.get("workload.take_ns"), span(Kind::Take), 1.0),
        ("begin+end (x2)", m.get("runtime.invoke_ns"), begin_end, 2.0),
        ("stage work (x2)", m.get("apps.work_ns"), work, 2.0),
        (
            "enqueue",
            m.get("workload.queue_enq_ns"),
            span(Kind::Enq),
            1.0,
        ),
        (
            "dequeue",
            m.get("workload.queue_deq_ns"),
            span(Kind::Deq),
            1.0,
        ),
        ("sink", 0.0, span(Kind::Sink), 1.0),
    ];
    let probe_sum_us: f64 = hops.iter().map(|h| h.1 * h.3).sum::<f64>() / 1e3;
    let closure = probe_sum_us / untraced_cpu;
    m.put(&[("bench.closure_ratio", closure)]);
    notes.push(format!(
        "per-hop table ({}, live part; cpu_us_per_job = {untraced_cpu:.3} us untraced, {} traced jobs)",
        plan.name, trace.spans.jobs
    ));
    notes.push(format!(
        "  {:<16} {:>12} {:>14} {:>10}",
        "hop", "probe ns", "span median ns", "share"
    ));
    for (hop, probe_ns, span_ns, times) in hops {
        notes.push(format!(
            "  {hop:<16} {:>12.1} {:>14.1} {:>9.1}%",
            probe_ns * times,
            span_ns * times,
            100.0 * probe_ns * times / 1e3 / untraced_cpu
        ));
    }
    notes.push(format!(
        "  sum of probes {probe_sum_us:.3} us = {closure:.2} of cpu_us_per_job (closure_ratio; the rest is contention, wake-ups and the control thread)"
    ));
    notes.push(format!(
        "  trace_overhead_ratio {overhead:.2}; span.job.total {:.1} us (median), waiting {:.1} us (mean); jobs whose children exceed their root: {}",
        trace.spans.total_ns / 1e3,
        trace.spans.wait_ns / 1e3,
        trace.spans.overfull_jobs
    ));
    reps.push(traced);
    reps
}

/// The fixed reconfiguration probe: a partial drain, then a forced full one.
fn reconfig_layers(seed: u64, m: &mut Layers) -> Vec<LiveRep> {
    let partial = live::run(&RECONFIG_PROBE, live_opts(seed, 0, true, true));
    let full = live::run(&RECONFIG_PROBE, live_opts(seed, 0, true, false));
    let trace_of = |rep: &LiveRep| rep.trace.clone().unwrap_or_default();
    let partial_pause = Tail::of(&mut trace_of(&partial).pause_us);
    let full_pause = Tail::of(&mut trace_of(&full).pause_us);
    m.put(&[
        ("runtime.pause_p50_us", partial_pause.p50),
        ("runtime.pause_p99_us", partial_pause.p99),
        ("runtime.full_pause_p50_us", full_pause.p50),
        (
            "runtime.relaunch_p50_us",
            median_or_zero(&trace_of(&partial).relaunch_us),
        ),
    ]);
    vec![partial, full]
}

/// The simulator part of the traced pass: untraced reference repetitions,
/// then one with every round-trip step and every consult timed.
fn sim_layers(plan: &Plan, seed: u64, m: &mut Layers) -> Vec<SimRep> {
    let mut reps: Vec<SimRep> = (0..MIN_REPS)
        .map(|_| simreplay::run(&plan.sim, seed, false))
        .collect();
    let cpu_request = column(&reps, |r| r.cpu_us_per_sim_request);
    if plan.main == Main::Sim {
        m.put(&[("bench.rep_spread", stats::rel_range(&cpu_request))]);
    }
    let reference = &reps[MIN_REPS / 2];
    let stepped = simreplay::run(&plan.sim, seed, true);
    let events = stepped.trace_events.max(1) as f64;
    m.put(&[
        ("cpu_us_per_sim_request", stats::median(&cpu_request)),
        (
            "cpu_us_per_trace_event",
            stats::median(&column(&reps, |r| r.cpu_us_per_trace_event)),
        ),
        (
            "wall.sim_requests_per_s",
            reference.requests as f64 / reference.phase_a_wall_s,
        ),
        (
            "wall.trace_events_per_s",
            reference.trace_events as f64 / reference.phase_b_wall_s,
        ),
        ("trace.encode_ns_per_event", stepped.steps.encode / events),
        ("trace.decode_ns_per_event", stepped.steps.decode / events),
        (
            "trace.summarize_ns_per_event",
            stepped.steps.summarize / events,
        ),
        ("trace.explain_ns_per_event", stepped.steps.explain / events),
        ("trace.replay_ns_per_event", stepped.steps.replay / events),
        ("trace.bytes_per_event", stepped.jsonl_bytes as f64 / events),
        ("sim.consults", stepped.consult_ns.len() as f64),
        ("sim.events_per_request", stepped.events_per_request),
        ("mechanisms.consult_ns", median_or_zero(&stepped.consult_ns)),
    ]);
    reps.push(stepped);
    reps
}

/// The traced pass: isolated probes, the live part, the fixed
/// reconfiguration probe and the simulator part. Sizes are frozen;
/// `--seconds` does not apply.
pub fn traced(plan: &Plan, seed: u64) -> Outcome {
    let started = Instant::now();
    let jiffies = sys::cpu_jiffies();
    let mut notes = Vec::new();
    let mut m = Layers::new();
    m.put(&probes::run_all(plan.live.rounds.0, seed));
    let mut live = live_layers(plan, seed, &mut m, &mut notes);
    live.extend(reconfig_layers(seed, &mut m));
    let sim = sim_layers(plan, seed, &mut m);
    m.put(&[
        ("bench.nproc", f64::from(sys::nproc())),
        (
            "bench.steal_share",
            sys::steal_share(jiffies, sys::cpu_jiffies()),
        ),
    ]);

    let (correct, attempted, failed) = verdict(plan, &live, &sim, &mut notes);
    notes.push(format!(
        "{}: traced pass took {:.1} s",
        plan.name,
        started.elapsed().as_secs_f64()
    ));
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m.0,
        reps: Vec::new(),
        notes,
    }
}

/// The result line the benchmark contract asks for.
pub fn result_json(outcome: &Outcome) -> String {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, unit)| unit)
    };
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value)| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::from_f64(value)),
                ("unit".to_string(), Value::String(unit_of(name).to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.correct)),
        (
            "attempted".to_string(),
            Value::Number(outcome.attempted.max(1)),
        ),
        ("failed".to_string(), Value::Number(outcome.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
    .to_json()
}

/// The per-repetition line the all-workloads mode reads back (printed before the result).
pub fn reps_json(outcome: &Outcome) -> String {
    Value::Object(
        outcome
            .reps
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|&v| Value::from_f64(v)).collect();
                ((*name).to_string(), Value::Array(values))
            })
            .collect(),
    )
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_runs_at_least_min_reps_and_stops_at_the_deadline() {
        let started = Instant::now();
        assert_eq!(repeat(started, 0.0, |rep| rep), vec![0, 1, 2]);
        let slow = repeat(started, 0.03, |rep| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            rep
        });
        assert!(slow.len() >= MIN_REPS && slow.len() <= 8, "{}", slow.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: vec![("setup_s", 0.5), ("bench.nproc", 2.0)],
            reps: vec![("setup_s", vec![0.5, 0.25])],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "bench.nproc": {"value": 2, "unit": "count"}}}"#
        );
        assert_eq!(reps_json(&outcome), r#"{"setup_s": [0.5, 0.25]}"#);
    }
}
