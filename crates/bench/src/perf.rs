//! The in-tree perf ledger: what the frozen benchmark cannot measure,
//! written to `BENCH_perf.json`.
//!
//! The repo benchmark (`benchmark/`, `BENCHMARK.json`) prints a per-layer
//! metric for the record path, the snapshot, the reconfiguration pauses,
//! the queue hand-offs and the simulator sweep on every change, so none
//! of those is probed again here. Four probes stay (see
//! `docs/performance.md`):
//!
//! 1. **overload** — admission policies under 10x offered load
//!    ([`crate::overload`]), the one gated probe: with `Shed`, the p99
//!    of admitted requests must stay bounded (at least 4x under the open
//!    queue's p99) while goodput holds at >= 90 % of saturation
//!    throughput, and `Block` must complete every offered request
//!    ([`gate_failures`]);
//! 2. **control** — one `ControlCore` tick on an 8-path snapshot against
//!    a no-op sink: the consult/judge hop of a control period, holding
//!    and accepting; and what one recorded simulator consult allocates
//!    and leaves ([`record_sim_point`], budgeted by `tests/alloc_budget.rs`);
//! 3. **monitor** — what "time one in k" costs and buys: a timed and an
//!    untimed `begin`..`end` on the live task context, the share of
//!    invocations timed back to back and 2 ms apart
//!    ([`dope_runtime::perf::bench_invoke`]), and a gate offer that
//!    stamps every item next to one that stamps a sample;
//! 4. **paced** — what a parked consumer pays per item, in `dequeue_for`
//!    as every task body waits and untimed in `dequeue()` (`bench_paced`);
//!    skipped where `/proc/thread-self/schedstat` is absent.
//!
//! The report states `nproc`, the core count it was taken on, and is
//! strict-codec JSON (`dope_core::json`). Its history is
//! `results/perf-history.jsonl`, one row per PR ([`history_row_pr`]).

use dope_apps::transcode;
use dope_core::control::{ControlCore, NullSink, Rules};
use dope_core::json::{parse, Value};
use dope_core::task::NullCx;
use dope_core::{
    AdmissionPolicy, Config, FailurePolicy, Mechanism, MonitorSnapshot, ProgramShape, Resources,
    ShapeNode, TaskConfig, TaskKind, TaskPath, TaskStats,
};
use dope_mechanisms::WqLinear;
use dope_sim::system::{run_system_observed, SystemParams};
use dope_trace::{Recorder, RecordingObserver, TraceEvent, TraceRecord};
use dope_workload::{AdmissionQueue, ArrivalSchedule, Waited, WorkQueue};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Schema tag carried by every report.
pub const SCHEMA: &str = "dope-bench-perf/v1";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs every probe and assembles the `BENCH_perf.json` report.
///
/// `quick` shrinks iteration counts to CI-smoke size (about a second of
/// wall time); the full configuration pins each probe long enough for
/// stable numbers.
#[must_use]
pub fn run(quick: bool) -> Value {
    println!("perf: overload (admission policies at 10x offered load)");
    let overload = crate::overload::run(quick);

    println!("perf: control (one core tick on an 8-path snapshot)");
    let control = bench_control(quick);

    println!("perf: monitor (timed vs untimed invocation, stamped vs sampled offer)");
    let monitor = bench_monitor(quick);

    println!("perf: paced (one consumer parked between Poisson arrivals, two ways)");
    let paced = bench_paced(quick);

    let mut sections = vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("quick", Value::Bool(quick)),
        (
            "nproc",
            Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("overload", overload),
        ("control", control),
        ("monitor", monitor),
    ];
    sections.extend(paced.map(|paced| ("paced", paced)));
    obj(sections)
}

/// Offers each stamping probe times per run.
const OFFERS: u64 = 100_000;

/// Times `OFFERS` live offers into a fresh gate with nobody parked on it
/// (ns per offer).
fn time_offers(policy: AdmissionPolicy) -> f64 {
    let gate = AdmissionQueue::new(policy);
    let t0 = Instant::now();
    for i in 0..OFFERS {
        black_box(gate.offer(i));
    }
    t0.elapsed().as_nanos() as f64 / OFFERS as f64
}

/// Records `requests` transcode requests at load 1.0 (seed 7, 24
/// contexts) under `mechanism`, the way the repo benchmark's `sim_replay`
/// records a grid point — bounded recorder, [`RecordingObserver`],
/// `finished`, `drain` — and returns the recording with the allocations
/// and bytes that took on the calling thread (see
/// [`crate::alloc::measure`]). The arrival schedule is built outside the
/// count.
#[must_use]
pub fn record_sim_point(
    mechanism: &mut dyn Mechanism,
    requests: usize,
) -> (Vec<TraceRecord>, u64, u64) {
    const CONTEXTS: u32 = 24;
    let model = transcode::sim_model();
    let schedule =
        ArrivalSchedule::for_load_factor(1.0, model.max_throughput(CONTEXTS, 1), requests, 7);
    crate::alloc::measure(|| {
        let recorder = Recorder::bounded(schedule.len() * 8 + 64);
        let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MinResponseTime");
        let outcome = run_system_observed(
            &model,
            &schedule,
            mechanism,
            Resources::threads(CONTEXTS),
            &SystemParams::default(),
            &mut observer,
        );
        observer.finished(outcome.completed, outcome.config_changes);
        recorder.drain()
    })
}

/// The control-tick hop of the ledger: one [`ControlCore::tick`] on an
/// 8-path snapshot against [`NullSink`]. `tick_hold_ns` is a consult
/// that proposes nothing; `tick_accept_ns` one whose proposal (a
/// single-leaf extent flip) is accepted, with the partial drain and the
/// relaunch answered at once — judge, delta classification, the
/// proposal's interning and the history push included.
/// `allocs_per_consult` / `bytes_per_consult` / `records_per_consult`
/// are [`record_sim_point`]'s counts under WQ-Linear over its consults.
fn bench_control(quick: bool) -> Value {
    const PATHS: u16 = 8;
    /// Flips the first leaf between extents 1 and 2, or holds.
    struct Flip(bool);
    impl Mechanism for Flip {
        fn name(&self) -> &'static str {
            "Flip"
        }
        fn reconfigure(
            &mut self,
            _snap: &MonitorSnapshot,
            current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            self.0.then(|| {
                let mut next = current.clone();
                next.tasks[0].extent = 3 - next.tasks[0].extent;
                next
            })
        }
    }
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let reps = if quick { 5 } else { 20 };
    let name = |i: u16| format!("s{i}");
    let shape = ProgramShape::new(
        (0..PATHS)
            .map(|i| ShapeNode::leaf(name(i), TaskKind::Par))
            .collect(),
    );
    let initial = Config::new((0..PATHS).map(|i| TaskConfig::leaf(name(i), 1)).collect());
    let mut snap = MonitorSnapshot::at(1.0);
    for i in 0..PATHS {
        let stats = TaskStats {
            invocations: 1_000,
            throughput: 100.0,
            ..TaskStats::default()
        };
        snap.tasks.insert(TaskPath::root_child(i), stats);
    }
    let rules = Rules {
        budget: u32::from(PATHS) + 1,
        delta: true,
        policy: FailurePolicy::Abort,
    };
    // The fastest of `reps` runs is reported: interference only adds time.
    let ns_per_tick = |accept: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let (mut mechanism, mut sink) = (Flip(accept), NullSink);
            let res = Resources::threads(rules.budget);
            let mut core = ControlCore::new(
                &mut mechanism,
                &mut sink,
                &shape,
                res,
                rules,
                initial.clone().into(),
            );
            let t0 = Instant::now();
            for i in 0..iters {
                black_box(core.tick_instant(i as f64, black_box(&snap)));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
            black_box(core.finish(iters as f64, None));
        }
        best
    };
    let (records, allocs, bytes) = record_sim_point(
        &mut WqLinear::new(1, 8, 12.0),
        if quick { 500 } else { 2_000 },
    );
    let (consults, records_per_consult) = consults_and_records(&records);
    obj(vec![
        ("paths", Value::Number(u64::from(PATHS))),
        ("iters", Value::Number(iters)),
        ("tick_hold_ns", Value::from_f64(ns_per_tick(false))),
        ("tick_accept_ns", Value::from_f64(ns_per_tick(true))),
        (
            "allocs_per_consult",
            Value::from_f64(allocs as f64 / consults),
        ),
        (
            "bytes_per_consult",
            Value::from_f64(bytes as f64 / consults),
        ),
        ("records_per_consult", Value::from_f64(records_per_consult)),
    ])
}

/// The consults of a recording (one `SnapshotTaken` each, at least 1)
/// and the records each left, the run's `Launched` / `Finished` aside.
#[must_use]
pub fn consults_and_records(records: &[TraceRecord]) -> (f64, f64) {
    let consults = records
        .iter()
        .filter(|record| matches!(record.event, TraceEvent::SnapshotTaken { .. }))
        .count()
        .max(1) as f64;
    (consults, records.len().saturating_sub(2) as f64 / consults)
}

/// The sampled-timing hop of the ledger (see `docs/performance.md`,
/// "Time one in k"). `invoke_*` come from
/// [`dope_runtime::perf::bench_invoke`]. `offer_stamped_ns` is a live
/// `offer` under `Deadline`, which stamps every item; `offer_unstamped_ns`
/// one under `Open` with no consumer parked, which stamps one in 16.
fn bench_monitor(quick: bool) -> Value {
    let invoke = dope_runtime::perf::bench_invoke(
        if quick { 200_000 } else { 2_000_000 },
        if quick { 25 } else { 100 },
    );
    // The fastest of `reps` runs is reported: interference only adds time.
    let offer_ns = |policy| {
        (0..if quick { 5 } else { 20 })
            .map(|_| time_offers(policy))
            .fold(f64::INFINITY, f64::min)
    };
    obj(vec![
        ("iters", Value::Number(invoke.iters)),
        ("invoke_timed_ns", Value::from_f64(invoke.timed_ns)),
        ("invoke_untimed_ns", Value::from_f64(invoke.untimed_ns)),
        (
            "timed_share_saturated",
            Value::from_f64(invoke.saturated_timed_share),
        ),
        (
            "timed_share_paced",
            Value::from_f64(invoke.paced_timed_share),
        ),
        (
            "offer_stamped_ns",
            Value::from_f64(offer_ns(AdmissionPolicy::Deadline {
                budget_secs: 3_600.0,
            })),
        ),
        (
            "offer_unstamped_ns",
            Value::from_f64(offer_ns(AdmissionPolicy::Open)),
        ),
    ])
}

/// The calling thread's CPU time so far (ns): the first field of
/// `/proc/thread-self/schedstat`, `None` where the file is absent.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// `pipe_paced`'s idle side in miniature: a Poisson producer at
/// `rate`/s hands `items` items through a [`WorkQueue`] to one consumer
/// that works ~4 µs on each and waits for the next in `dequeue_for`
/// under a [`NullCx`] (as a task body waits) or, if `untimed`, in
/// `dequeue()`. Returns the consumer's and the producer's CPU µs per
/// item.
fn paced_run(rate: f64, items: usize, untimed: bool) -> Option<[f64; 2]> {
    thread_cpu_ns()?;
    let queue = WorkQueue::new();
    let consumer = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let cpu0 = thread_cpu_ns()?;
            loop {
                let got = if untimed {
                    queue.dequeue().is_some()
                } else {
                    matches!(queue.dequeue_for(&mut NullCx), Waited::Item(_))
                };
                if !got {
                    break;
                }
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_micros(4) {
                    std::hint::spin_loop();
                }
            }
            thread_cpu_ns().map(|cpu| cpu - cpu0)
        })
    };
    let schedule = ArrivalSchedule::poisson(rate, items, 7);
    let cpu0 = thread_cpu_ns()?;
    let start = Instant::now();
    for (i, &due) in schedule.times().iter().enumerate() {
        std::thread::sleep(Duration::from_secs_f64(due).saturating_sub(start.elapsed()));
        let _ = queue.enqueue(i);
    }
    let producer = thread_cpu_ns()? - cpu0;
    queue.close();
    let consumer = consumer.join().ok()??;
    let us_per_item = |ns: u64| ns as f64 / items as f64 / 1e3;
    Some([us_per_item(consumer), us_per_item(producer)])
}

/// The paced hop of the ledger: [`paced_run`] at 500 items/s with the
/// consumer in `dequeue_for` (what every in-tree body does) and untimed
/// in `dequeue()`, the bare park it must cost no more than. `None` where
/// thread CPU cannot be read.
fn bench_paced(quick: bool) -> Option<Value> {
    const RATE: f64 = 500.0;
    let items = if quick { 500 } else { 5_000 };
    let mut fields = vec![("items".to_string(), Value::Number(items as u64))];
    for (name, untimed) in [("untimed", true), ("dequeue_for", false)] {
        let [consumer, producer] = paced_run(RATE, items, untimed)?;
        fields.extend([
            (format!("{name}_consumer_us"), Value::from_f64(consumer)),
            (format!("{name}_producer_us"), Value::from_f64(producer)),
        ]);
    }
    Some(Value::Object(fields))
}

fn metric(report: &Value, section: &str, key: &str) -> Option<f64> {
    report.get(section)?.get(key)?.as_f64()
}

/// The in-run invariants of the overload frontier, each measured in the
/// same process on the same machine: bounded shed p99, goodput floor,
/// lossless `Block`. Returns violation messages (empty = pass).
#[must_use]
pub fn gate_failures(report: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    match (
        metric(report, "overload", "open_p99_secs"),
        metric(report, "overload", "shed_p99_secs"),
    ) {
        (Some(open), Some(shed)) if shed > 0.0 => {
            let ratio = open / shed;
            if ratio < crate::overload::P99_RATIO_FLOOR {
                failures.push(format!(
                    "overload: shed p99 {shed:.2} s is only {ratio:.1}x under the \
                     open queue's {open:.2} s (the gate must bound admitted-request \
                     latency at least {:.0}x below open admission)",
                    crate::overload::P99_RATIO_FLOOR
                ));
            }
        }
        _ => failures.push(
            "report is missing or zeroed overload.open_p99_secs / overload.shed_p99_secs"
                .to_string(),
        ),
    }
    match (
        metric(report, "overload", "saturation_throughput"),
        metric(report, "overload", "shed_goodput_throughput"),
    ) {
        (Some(saturation), Some(goodput)) if saturation > 0.0 => {
            let fraction = goodput / saturation;
            if fraction < crate::overload::GOODPUT_FLOOR {
                failures.push(format!(
                    "overload: shed goodput {goodput:.2}/s is only {:.0} % of the \
                     saturation throughput {saturation:.2}/s (must hold >= {:.0} %)",
                    fraction * 100.0,
                    crate::overload::GOODPUT_FLOOR * 100.0
                ));
            }
        }
        _ => failures.push(
            "report is missing or zeroed overload.saturation_throughput / \
             overload.shed_goodput_throughput"
                .to_string(),
        ),
    }
    match metric(report, "overload", "block_lost") {
        Some(lost) => {
            if lost != 0.0 {
                failures.push(format!(
                    "overload: Block admission lost {lost:.0} request(s) — closed-loop \
                     backpressure must complete every offer"
                ));
            }
        }
        None => failures.push("report is missing overload.block_lost".to_string()),
    }
    failures
}

/// Checks one row of the per-PR ledger (`results/perf-history.jsonl`)
/// and returns its `pr` number: `pr` must be a number, `parent` a commit
/// id of 7-40 hex digits, and so must `commit` when the row has one — a
/// row is written before its own commit exists, so the next PR
/// backfills it, and a placeholder can never stand in.
///
/// # Errors
///
/// Says which field is missing or malformed.
pub fn history_row_pr(row: &Value) -> Result<f64, String> {
    let pr = row
        .get("pr")
        .and_then(Value::as_f64)
        .ok_or("no numeric `pr` field")?;
    let is_commit_id = |id: &Value| {
        id.as_str().is_some_and(|id| {
            (7..=40).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_hexdigit())
        })
    };
    for (key, required) in [("parent", true), ("commit", false)] {
        match row.get(key) {
            Some(id) if is_commit_id(id) => {}
            None if !required => {}
            Some(_) => return Err(format!("`{key}` is not a commit id of 7-40 hex digits")),
            None => return Err(format!("no `{key}` commit id")),
        }
    }
    Ok(pr)
}

/// Renders the report as a short human-readable summary.
#[must_use]
pub fn summary(report: &Value) -> String {
    let mut out = String::from("== perf ledger ==\n");
    for &(section, key) in &[
        ("overload", "saturation_throughput"),
        ("overload", "open_p99_secs"),
        ("overload", "shed_p99_secs"),
        ("overload", "shed_goodput_throughput"),
        ("overload", "shed_fraction"),
        ("control", "tick_hold_ns"),
        ("control", "tick_accept_ns"),
        ("control", "allocs_per_consult"),
        ("control", "bytes_per_consult"),
        ("control", "records_per_consult"),
        ("monitor", "invoke_timed_ns"),
        ("monitor", "invoke_untimed_ns"),
        ("monitor", "timed_share_saturated"),
        ("monitor", "timed_share_paced"),
        ("monitor", "offer_stamped_ns"),
        ("monitor", "offer_unstamped_ns"),
        ("paced", "untimed_consumer_us"),
        ("paced", "untimed_producer_us"),
        ("paced", "dequeue_for_consumer_us"),
        ("paced", "dequeue_for_producer_us"),
    ] {
        if let Some(v) = metric(report, section, key) {
            out.push_str(&format!("{section:>12}.{key:<25} {v:>12.2}\n"));
        }
    }
    out
}

/// Round-trips the report through the strict JSON codec, panicking on
/// any asymmetry — run before every write so a malformed report can
/// never become the checked-in ledger.
#[must_use]
pub fn to_validated_json(report: &Value) -> String {
    let text = report.to_json();
    let reparsed = parse(&text).expect("perf report must round-trip the strict codec");
    assert_eq!(&reparsed, report, "perf report JSON round-trip drifted");
    text + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_overload(shed_p99: f64, goodput: f64, lost: f64) -> Value {
        obj(vec![
            ("schema", Value::String(SCHEMA.to_string())),
            (
                "overload",
                obj(vec![
                    ("open_p99_secs", Value::from_f64(40.0)),
                    ("shed_p99_secs", Value::from_f64(shed_p99)),
                    ("saturation_throughput", Value::from_f64(10.0)),
                    ("shed_goodput_throughput", Value::from_f64(goodput)),
                    ("block_lost", Value::from_f64(lost)),
                ]),
            ),
        ])
    }

    #[test]
    fn gate_enforces_the_overload_frontier() {
        // Bounded p99, healthy goodput, lossless block: pass.
        assert!(gate_failures(&with_overload(2.0, 9.5, 0.0)).is_empty());
        // p99 only 2x under open: the latency bound fails.
        assert_eq!(gate_failures(&with_overload(20.0, 9.5, 0.0)).len(), 1);
        // Goodput collapsed to 50 % of saturation: the goodput floor fails.
        assert_eq!(gate_failures(&with_overload(2.0, 5.0, 0.0)).len(), 1);
        // Block lost requests: closed-loop backpressure is broken.
        assert_eq!(gate_failures(&with_overload(2.0, 9.5, 3.0)).len(), 1);
        // A report without the probe is three failures, not a pass.
        let sparse = obj(vec![("schema", Value::String(SCHEMA.to_string()))]);
        assert_eq!(gate_failures(&sparse).len(), 3);
    }

    #[test]
    fn ledger_rows_need_a_pr_and_real_commit_ids() {
        let row = |text: &str| history_row_pr(&parse(text).expect("test rows are valid JSON"));
        assert_eq!(
            row(r#"{"pr": 19, "commit": "4326c66", "parent": "b69d92f"}"#),
            Ok(19.0)
        );
        // A row cannot know its own commit yet; its parent it must know.
        assert_eq!(row(r#"{"pr": 20, "parent": "4326c66"}"#), Ok(20.0));
        assert!(row(r#"{"pr": 20, "commit": "4326c66"}"#).is_err());
        for placeholder in ["this commit", "4326c6", "4326c6g", ""] {
            let text = format!(r#"{{"pr": 19, "commit": "{placeholder}", "parent": "b69d92f"}}"#);
            assert!(
                row(&text).unwrap_err().contains("`commit`"),
                "{placeholder:?}"
            );
        }
        assert!(row(r#"{"pr": 19, "commit": "4326c66", "parent": 7}"#).is_err());
        assert!(row(r#"{"commit": "4326c66", "parent": "b69d92f"}"#).is_err());
    }

    #[test]
    fn report_round_trips_the_strict_codec() {
        let report = with_overload(2.0, 9.5, 0.0);
        let text = to_validated_json(&report);
        assert_eq!(parse(text.trim()).expect("parse"), report);
        assert!(summary(&report).contains("shed_p99_secs"));
    }
}
