//! Figure 13: ferret throughput over time under TBF.
//!
//! "DoPE searches the parallelism configuration space before stabilizing
//! on the one with the maximum throughput under the constraint of 24
//! hardware threads."

use dope_core::Resources;
use dope_mechanisms::Tbf;
use dope_sim::pipeline::{run_pipeline, PipelineOutcome, PipelineParams, Source};

/// Runs ferret under TBF with a saturated (batch) workload.
#[must_use]
pub fn run(quick: bool) -> PipelineOutcome {
    let model = dope_apps::ferret::sim_model();
    let mut mech = Tbf::new();
    run_pipeline(
        &model,
        &Source::Saturated,
        &mut mech,
        Resources::threads(24),
        &PipelineParams {
            control_period_secs: 1.0,
            horizon_secs: if quick { 60.0 } else { 180.0 },
            ..PipelineParams::default()
        },
    )
}

/// Runs and prints the throughput time series.
pub fn report(quick: bool) {
    let out = run(quick);
    crate::print_table(
        "== Figure 13: ferret throughput (queries/s) over time, DoPE-TBF ==",
        &["t (s)", "throughput"],
        (out.throughput_series.points().iter())
            .filter(|&&(t, _)| (t.round() - t).abs() < 1e-9 && (t as u64).is_multiple_of(5))
            .map(|&(t, v)| [format!("{t:.0}"), crate::cell(v)]),
    );
    println!(
        "reconfigurations: {}   stable throughput: {:.1} queries/s",
        out.config_history.len(),
        out.stable_throughput(out.horizon_secs * 0.5)
    );
}

/// Search-then-stabilize: the stable region outperforms the first seconds
/// and the configuration settles.
#[must_use]
pub fn shape_holds(out: &PipelineOutcome) -> bool {
    let early = out
        .throughput_series
        .points()
        .iter()
        .take(5)
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 5.0;
    let stable = out.stable_throughput(out.horizon_secs * 0.5);
    let late_changes = out
        .config_history
        .iter()
        .filter(|&&(t, _)| t > out.horizon_secs * 0.5)
        .count();
    stable > early && late_changes <= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbf_searches_then_stabilizes() {
        let out = run(true);
        assert!(shape_holds(&out), "history: {:?}", out.config_history.len());
        assert!(out.completed > 0);
    }
}
