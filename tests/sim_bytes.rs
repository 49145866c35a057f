//! The simulators' recordings, pinned to the byte.
//!
//! Every figure is drawn by `dope-sim`, and a recording is the finest
//! grain of what a simulation did: every snapshot's statistics and gate
//! counters, every decision with its score, in order. Each test below
//! hashes the JSONL of one recording and compares it with the hash the
//! same run produced before the simulator last changed shape, so an
//! event reordered at a tie, an `f64` summed in another order or an
//! admission counter taken at another moment fails here, by name, instead
//! of drifting a figure. A deliberate change updates the constant and
//! says why.
//!
//! The constants last moved when both simulators began to read a row's
//! `utilization` as the busy capacity time-averaged since the previous
//! consult, and the system simulator to prune its 60 s throughput window
//! at the consult: each recording, decoded, is the one before, record for
//! record and `time_secs` bit for bit, except in the `utilization` of
//! `SnapshotTaken` task rows, the `throughput` of the four system-model
//! recordings' rows, and what `DecisionTraced` derives from that
//! throughput (`realized_throughput`, `prediction_error`, and the
//! predictions that scale it). The open pipeline's response mean did not
//! move.

use dope_apps::{ferret, transcode};
use dope_core::{AdmissionPolicy, Resources};
use dope_mechanisms::{Proportional, ShedAware, Tpc, WqLinear};
use dope_sim::pipeline::{run_pipeline_observed, PipelineParams, PowerSim, Source};
use dope_sim::system::{run_system_observed, SystemOutcome, SystemParams};
use dope_trace::{to_jsonl, Recorder, RecordingObserver, TraceRecord};
use dope_workload::ArrivalSchedule;
use support::check;

mod support;

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks the trace rules on `records`, then pins their bytes.
fn assert_pinned(name: &str, records: &[TraceRecord], expected: u64) {
    check(records, true);
    assert_pinned_text(name, &to_jsonl(records), expected);
}

fn assert_pinned_text(name: &str, text: &str, expected: u64) {
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash,
        expected,
        "{name}: {} lines hash to {hash:#018x}, pinned {expected:#018x}",
        text.lines().count()
    );
}

/// Transcode at 2x offered load through `admission`, under WQ-Linear
/// wrapped to hold while the gate sheds, recorded with the policy
/// declared in `Launched`.
fn overloaded_recording(admission: AdmissionPolicy) -> (Vec<TraceRecord>, SystemOutcome) {
    let model = transcode::sim_model();
    let schedule = ArrivalSchedule::for_load_factor(2.0, model.max_throughput(24, 1), 200, 7);
    let params = SystemParams {
        admission,
        ..SystemParams::default()
    };
    let recorder = Recorder::bounded(1 << 14);
    let mut observer =
        RecordingObserver::new(recorder.clone()).with_admission_policy(admission.kind());
    let outcome = run_system_observed(
        &model,
        &schedule,
        &mut ShedAware::new(WqLinear::new(1, 8, 12.0)),
        Resources::threads(24),
        &params,
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    (recorder.drain(), outcome)
}

#[test]
fn the_benchmark_grid_point_records_the_same_bytes() {
    let (records, _, _) = dope_bench::perf::record_sim_point(&mut WqLinear::new(1, 8, 12.0), 200);
    assert_pinned(
        "transcode, WQ-Linear, 200 requests",
        &records,
        0xdbb5_0717_184a_6030,
    );
}

#[test]
fn shed_recording_is_pinned() {
    let (records, outcome) = overloaded_recording(AdmissionPolicy::Shed { high_water: 8 });
    assert!(
        outcome.admission.shed_high_water > 0,
        "{:?}",
        outcome.admission
    );
    assert_pinned("Shed", &records, 0xd6d3_7088_e180_eb9e);
}

/// A held offer is counted as `offered` when it reaches the gate, not on
/// arrival, so the snapshots taken while `Block` holds offers read
/// `offered == admitted`: the gate's own invariant, and the only byte
/// that moved when the simulator began queueing in the gate.
#[test]
fn block_recording_is_pinned() {
    let (records, outcome) = overloaded_recording(AdmissionPolicy::Block { capacity: 8 });
    assert_eq!(outcome.completed, 200);
    assert_pinned("Block", &records, 0xb327_1a84_d264_0054);
}

#[test]
fn deadline_recording_is_pinned() {
    let budget_secs = transcode::sim_model().exec_time(1) * 2.0;
    let (records, outcome) = overloaded_recording(AdmissionPolicy::Deadline { budget_secs });
    assert!(
        outcome.admission.shed_deadline > 0,
        "{:?}",
        outcome.admission
    );
    assert_pinned("Deadline", &records, 0x2d0b_d145_87de_91c1);
}

#[test]
fn pipeline_recording_is_pinned() {
    let recorder = Recorder::bounded(1 << 14);
    let mut observer = RecordingObserver::new(recorder.clone());
    let outcome = run_pipeline_observed(
        &ferret::sim_model(),
        &Source::Saturated,
        &mut Tpc::default(),
        Resources::threads(24).with_power_budget(500.0),
        &PipelineParams {
            horizon_secs: 60.0,
            power: Some(PowerSim::default()),
            ..PipelineParams::default()
        },
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_history.len() as u64);
    assert_pinned(
        "ferret, TPC, saturated",
        &recorder.drain(),
        0x8210_c908_2281_78cd,
    );
}

/// An online pipeline: its recording, and every response time's bits
/// through the mean — what Figure 12 plots. The mean is exact: it moved
/// by -0.52 µs when items stopped carrying their submission time in
/// whole microseconds through the event agenda.
#[test]
fn open_pipeline_recording_and_responses_are_pinned() {
    let recorder = Recorder::bounded(1 << 14);
    let mut observer = RecordingObserver::new(recorder.clone());
    let outcome = run_pipeline_observed(
        &ferret::sim_model(),
        &Source::Open(ArrivalSchedule::poisson(20.0, 300, 23)),
        &mut Proportional::new(),
        Resources::threads(24),
        &PipelineParams {
            control_period_secs: 0.5,
            horizon_secs: 100.0,
            ..PipelineParams::default()
        },
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_history.len() as u64);
    assert_eq!(outcome.completed, 300);
    let mean = outcome.response.mean().expect("responses recorded");
    let records = recorder.drain();
    check(&records, true);
    let text = format!("{}{:#x}\n", to_jsonl(&records), mean.to_bits());
    assert_pinned_text("ferret, Proportional, open", &text, 0x9f6e_08e1_adf2_f732);
}
