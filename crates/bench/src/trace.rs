//! Flight-recorder captures of representative figure runs.
//!
//! The figure harnesses aggregate hundreds of simulation runs into a few
//! table rows — useful for checking the paper's claims, useless for
//! understanding *one* adaptation trajectory. This module records a
//! single representative run per figure as a `dope-trace` JSONL file:
//!
//! * [`record_fig11`] — the x264 transaction server under WQ-Linear at
//!   0.8 load (one cell of Figure 11);
//! * [`record_fig15`] — the ferret pipeline under TBF with a saturated
//!   source (one cell of Figure 15).
//!
//! Run `cargo run -p dope-bench --release --bin fig11 -- --trace` (or
//! `--trace=PATH`) to write the capture next to the figure output, then
//! inspect it with `dope-trace timeline PATH` or check determinism with
//! `dope-trace replay PATH` (system traces only; pipeline shapes have no
//! two-level nest to rebuild).

use dope_core::Resources;
use dope_mechanisms::{Tbf, WqLinear};
use dope_sim::pipeline::{run_pipeline_observed, PipelineParams, Source};
use dope_sim::system::{run_system_observed, SystemParams};
use dope_trace::{Recorder, RecordingObserver};
use dope_workload::ArrivalSchedule;

/// Records one Figure 11 cell (x264 under WQ-Linear, load factor 0.8)
/// and returns the trace as JSONL.
#[must_use]
pub fn record_fig11(quick: bool) -> String {
    let model = dope_apps::transcode::sim_model();
    let mut mechanism = WqLinear::new(1, 8, 12.0);
    let params = SystemParams::default();
    let res = Resources::threads(24);
    let requests = if quick { 100 } else { crate::REQUESTS };
    let schedule = ArrivalSchedule::for_load_factor(0.8, model.max_throughput(24, 1), requests, 7);

    let recorder = Recorder::bounded(1 << 16);
    let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MinResponseTime");
    let outcome = run_system_observed(
        &model,
        &schedule,
        &mut mechanism,
        res,
        &params,
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    recorder.to_jsonl()
}

/// Records one Figure 15 cell (ferret under TBF, saturated source) and
/// returns the trace as JSONL.
#[must_use]
pub fn record_fig15(quick: bool) -> String {
    let model = dope_apps::ferret::sim_model();
    let mut mechanism = Tbf::new();
    let params = PipelineParams {
        control_period_secs: 1.0,
        horizon_secs: if quick { 90.0 } else { 240.0 },
        ..PipelineParams::default()
    };

    let recorder = Recorder::bounded(1 << 16);
    let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MaxThroughput");
    let outcome = run_pipeline_observed(
        &model,
        &Source::Saturated,
        &mut mechanism,
        Resources::threads(24),
        &params,
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_history.len() as u64);
    recorder.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_trace::{parse_jsonl, replay_into_sim, TraceEvent};

    #[test]
    fn fig11_trace_parses_and_replays() {
        let jsonl = record_fig11(true);
        let records = parse_jsonl(&jsonl).expect("trace parses");
        assert_eq!(records[0].event.kind(), "Launched");
        assert_eq!(records.last().unwrap().event.kind(), "Finished");
        let outcome = replay_into_sim(&records).expect("replay");
        assert!(
            outcome.matches(),
            "fig11 trace must replay to the same accepted-config sequence"
        );
        assert!(
            outcome.recorded.len() > 1,
            "WQ-Linear at 0.8 load must reconfigure at least once"
        );
    }

    #[test]
    fn fig15_trace_parses_and_reconfigures() {
        let jsonl = record_fig15(true);
        let records = parse_jsonl(&jsonl).expect("trace parses");
        assert_eq!(records[0].event.kind(), "Launched");
        let epochs = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ReconfigureEpoch { .. }))
            .count();
        assert!(epochs >= 1, "TBF must reconfigure the ferret pipeline");
    }
}
