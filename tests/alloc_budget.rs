//! Allocation budgets of a control period's records.
//!
//! A counting global allocator (this is its own test binary for that
//! reason) pins what building, cloning and handing over the records of
//! one consult may allocate; `docs/performance.md`, "What a control
//! period allocates", has the before/after table. Counts are per thread,
//! so the tests may run side by side.
//!
//! One-line mutations that turn the tests red (each tried; readings in
//! brackets):
//!
//! * `label.rs`: `INLINE_LEN` 22 -> 4 — every `"width=N"` spills
//!   [46.26 allocations per request; decision clone 15; consult 29,
//!   `explain()` 14];
//! * `label.rs`: `From<String>` keeping the `String`'s heap buffer
//!   (`Label(Repr::Heap(text.into_boxed_str()))`) [36.34 per request;
//!   decision clone 11; consult 23, `explain()` 11];
//! * `path.rs`: `INLINE_DEPTH` 11 -> 0 — every path allocates [35.23 per
//!   request; snapshot clone 2 allocations; consult 21];
//! * `recorder.rs`: `Vec::from(std::mem::take(..))` back to
//!   `.drain(..).collect()` [one allocation of N x 168 B per drain];
//! * `config.rs`: `check_level` rendering a path it does not report
//!   (`let _ = path().to_string();` per task) [4 allocations per
//!   `validate` of the transcode nest];
//! * `observer.rs`: `snapshot_taken` recording the queue beside the
//!   snapshot again (`self.recorder.record_at(snapshot.time_secs,
//!   TraceEvent::QueueSample { queue: snapshot.queue });`) [3.00 records
//!   per Static consult, 3.61 per WQ-Linear consult];
//! * `observer.rs`: `proposal_evaluated` cloning the tree into the event
//!   (`proposal: Arc::new(Config::clone(proposal))`) [669 allocations for
//!   7 distinct configurations; 18.52 allocations, 3 377 B per request].

use dope_bench::alloc::{measure, Counting};
use dope_bench::perf::{consults_and_records, record_sim_point};
use dope_core::{Config, Mechanism, MonitorSnapshot, Resources, StaticMechanism};
use dope_mechanisms::WqLinear;
use dope_sim::system::{run_system_observed, SystemParams};
use dope_trace::{
    parse_jsonl, replay_into_sim, to_jsonl, Recorder, RecordingObserver, TraceEvent, TraceRecord,
};
use dope_workload::ArrivalSchedule;
use std::collections::HashSet;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The benchmark's `sim_replay` grid point this file budgets: transcode
/// under WQ-Linear at load 1.0, 2 000 requests, seed 7.
const REQUESTS: usize = 2_000;

/// The point's recording under WQ-Linear, with its allocation counts.
fn wq_linear_point(requests: usize) -> (Vec<TraceRecord>, u64, u64) {
    record_sim_point(&mut WqLinear::new(1, 8, 12.0), requests)
}

fn first(records: &[TraceRecord], kind: &str) -> TraceRecord {
    records
        .iter()
        .find(|record| record.event.kind() == kind)
        .unwrap_or_else(|| panic!("the recording has no {kind}"))
        .clone()
}

#[test]
fn a_recorded_sim_request_stays_under_eighteen_allocations() {
    let (_, allocs, bytes) = wq_linear_point(REQUESTS);
    let per_request = allocs as f64 / REQUESTS as f64;
    let bytes_per_request = bytes as f64 / REQUESTS as f64;
    eprintln!(
        "recorded sim point: {per_request:.2} allocations, {bytes_per_request:.0} B per request"
    );
    // 50.50 per request before the records went lean, 19.28 (3 520 B)
    // while each applied configuration was copied three times; 17.52
    // (3 294 B) once it is stored once. A proposal copied back into its
    // event costs 1.00 allocation and 83 B per request.
    assert!(
        per_request <= 18.0,
        "{per_request:.2} allocations per request"
    );
    assert!(
        bytes_per_request <= 3_350.0,
        "{bytes_per_request:.0} B per request"
    );
}

/// Each configuration is stored once: every configuration the point's
/// recording carries, and every entry of its history, is one of as many
/// allocations as the run has distinct configurations. The wire does not
/// see it: the decoded recording, each configuration its own allocation,
/// equals the recorded one and replays to the same sequence.
#[test]
fn a_distinct_configuration_is_one_allocation() {
    let model = dope_apps::transcode::sim_model();
    let schedule = ArrivalSchedule::for_load_factor(1.0, model.max_throughput(24, 1), REQUESTS, 7);
    let recorder = Recorder::bounded(schedule.len() * 8 + 64);
    let mut observer = RecordingObserver::new(recorder.clone());
    let outcome = run_system_observed(
        &model,
        &schedule,
        &mut WqLinear::new(1, 8, 12.0),
        Resources::threads(24),
        &SystemParams::default(),
        &mut observer,
    );
    let records = recorder.drain();
    let recorded = records.iter().filter_map(|record| match &record.event {
        TraceEvent::Launched { config, .. } | TraceEvent::ReconfigureEpoch { config, .. } => {
            Some(config)
        }
        TraceEvent::ProposalEvaluated { proposal, .. } => Some(proposal),
        _ => None,
    });
    let mut held = 0;
    let mut allocations: Vec<&Arc<Config>> = Vec::new();
    for config in recorded.chain(outcome.config_history.iter().map(|(_, config)| config)) {
        held += 1;
        if !allocations.iter().any(|known| Arc::ptr_eq(known, config)) {
            allocations.push(config);
        }
    }
    let distinct: HashSet<&Config> = allocations.iter().map(|config| &***config).collect();
    eprintln!(
        "{held} configurations held, {} allocations, {} distinct",
        allocations.len(),
        distinct.len()
    );
    assert!(
        outcome.config_changes > 100,
        "the point must revisit configurations"
    );
    assert_eq!(allocations.len(), distinct.len(), "a configuration copied");

    let decoded = parse_jsonl(&to_jsonl(&records)).expect("the recording decodes");
    assert_eq!(decoded, records);
    assert!(replay_into_sim(&decoded).expect("replays").matches());
}

/// A control period is recorded once: its `SnapshotTaken`, the verdict
/// on the proposal, and — from a mechanism that explains itself — the
/// scored decision and now and then an applied epoch. A copy of the
/// snapshot's rows beside it shows here as one more record per consult.
#[test]
fn a_recorded_consult_leaves_at_most_four_records() {
    let model = dope_apps::transcode::sim_model();
    let mut fixed = StaticMechanism::new(model.config_for_width(24, 8));
    let (_, per_static) = consults_and_records(&record_sim_point(&mut fixed, REQUESTS).0);
    let (_, per_wq_linear) = consults_and_records(&wq_linear_point(REQUESTS).0);
    eprintln!("records per consult: Static {per_static:.2}, WQ-Linear {per_wq_linear:.2}");
    assert_eq!(per_static, 2.0, "SnapshotTaken + ProposalEvaluated");
    assert!(
        per_wq_linear <= 4.0,
        "{per_wq_linear:.2} records per WQ-Linear consult"
    );
}

#[test]
fn cloning_a_one_task_snapshot_costs_its_row() {
    let record = first(&wq_linear_point(200).0, "SnapshotTaken");
    let TraceEvent::SnapshotTaken { snapshot } = &record.event else {
        unreachable!("selected by kind");
    };
    assert_eq!(snapshot.tasks.len(), 1);
    let (copy, allocs, bytes) = measure(|| record.clone());
    assert_eq!(copy, record);
    eprintln!("SnapshotTaken clone: {allocs} allocation(s), {bytes} B");
    // One 88-byte row (24-byte path, 64 bytes of statistics); the map
    // node it replaces was 986 B in two allocations.
    assert_eq!(allocs, 1);
    assert!(bytes <= 200, "{bytes} B of heap for a one-row snapshot");
}

#[test]
fn cloning_an_eight_candidate_decision_costs_its_two_vectors() {
    let record = first(&wq_linear_point(200).0, "DecisionTraced");
    let TraceEvent::DecisionTraced {
        observed,
        candidates,
        ..
    } = &record.event
    else {
        unreachable!("selected by kind");
    };
    assert_eq!((observed.len(), candidates.len()), (3, 8));
    let (copy, allocs, bytes) = measure(|| record.clone());
    assert_eq!(copy, record);
    eprintln!("DecisionTraced clone: {allocs} allocation(s), {bytes} B");
    // `observed` and `candidates`; every name, action and tag is in
    // place. 15 allocations when they were `String`s.
    assert!(
        allocs <= 4,
        "{allocs} allocations for an 8-candidate decision"
    );
}

/// A drained recording holds only what it recorded. The ring's buffer is
/// handed over and trimmed in place (one shrinking `realloc`, which
/// requests no bytes), never copied into a fresh one.
#[test]
fn drain_hands_over_exactly_what_it_holds() {
    for n in [100_u64, 10_000] {
        let recorder = Recorder::bounded(1 << 14);
        for completed in 0..n {
            recorder.record_at(
                0.0,
                TraceEvent::Finished {
                    completed,
                    reconfigurations: 0,
                    dropped_events: 0,
                },
            );
        }
        let (records, allocs, bytes) = measure(|| recorder.drain());
        assert_eq!(records.len() as u64, n);
        assert_eq!(records.capacity(), records.len(), "draining {n} records");
        assert!(records.iter().map(|r| r.seq).eq(0..n), "out of seq order");
        assert!(recorder.is_empty());
        assert_eq!(bytes, 0, "draining {n} records requested bytes");
        assert!(allocs <= 1, "{allocs} allocator calls draining {n} records");
    }
}

/// Decoding sizes its output once: the records of a recorded point come
/// back in a `Vec` exactly as large as its contents.
#[test]
fn a_decoded_recording_is_sized_once() {
    let (records, _, _) = wq_linear_point(200);
    let decoded = parse_jsonl(&to_jsonl(&records)).expect("the recording decodes");
    assert_eq!(decoded, records);
    assert_eq!(decoded.capacity(), decoded.len());

    // Junk text fails at its first line having reserved a few times its
    // length, not 168 B for every two bytes of it.
    let junk = "x\n".repeat(10_000);
    let (parsed, _, bytes) = measure(|| parse_jsonl(&junk));
    assert!(parsed.is_err());
    assert!(
        bytes <= 8 * junk.len() as u64,
        "{bytes} B reserved for {} B of junk",
        junk.len()
    );
}

/// The verify hop of a control period: the rule walk renders no text and
/// builds its paths in place, so judging a valid proposal is free of the
/// allocator.
#[test]
fn validating_a_valid_config_allocates_nothing() {
    let model = dope_apps::transcode::sim_model();
    let config = model.config_for_width(24, 8);
    let (verdict, allocs, bytes) = measure(|| config.validate(model.shape(), 24));
    assert_eq!(verdict, Ok(()));
    assert_eq!((allocs, bytes), (0, 0), "validating {config}");
}

#[test]
fn a_wq_linear_consult_and_its_explanation_are_pinned() {
    let model = dope_apps::transcode::sim_model();
    let shape = model.shape();
    let res = Resources::threads(24);
    let mut mechanism = WqLinear::new(1, 8, 12.0);
    let current = mechanism
        .initial(shape, &res)
        .expect("transcode is a two-level nest");
    let mut snap = MonitorSnapshot::at(1.0);
    snap.queue.occupancy = 3.0;
    // The first consult finds the nest; the pinned one is steady state.
    let _ = mechanism.reconfigure(&snap, &current, shape, &res);
    let (proposal, consult, _) = measure(|| mechanism.reconfigure(&snap, &current, shape, &res));
    assert!(proposal.is_some(), "occupancy 3 narrows the width");
    let (trace, explanation, _) = measure(|| mechanism.explain());
    assert_eq!(trace.map(|trace| trace.candidates.len()), Some(8));
    eprintln!("WQ-Linear: consult {consult} allocation(s), explain() {explanation}");
    // Consult: nine `format!` actions built on the heap before they move
    // in place, the two vectors growing (1 + 2), and the proposed
    // configuration's two `Vec`s. Explanation: the two vectors. 25 and
    // 14 when labels were `String`s.
    assert!(consult <= 14, "{consult} allocations per WQ-Linear consult");
    assert!(explanation <= 2, "{explanation} allocations per explain()");
}
