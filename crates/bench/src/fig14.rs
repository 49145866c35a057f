//! Figure 14: ferret under the Throughput Power Controller.
//!
//! "For a peak power target specified by the administrator, DoPE first
//! ramps up the DoP extent until the power budget is fully used. DoPE
//! then explores different parallelism configurations and stabilizes on
//! the one with the best throughput without exceeding the power budget."
//! The target is 90% of peak total power (= 60% of the dynamic CPU
//! range).

use dope_core::Resources;
use dope_mechanisms::Tpc;
use dope_platform::PowerModel;
use dope_sim::pipeline::{run_pipeline, PipelineOutcome, PipelineParams, PowerSim, Source};

/// The administrator's power target: 90% of peak.
#[must_use]
pub fn power_target() -> f64 {
    0.9 * PowerModel::default().peak_power()
}

/// Runs ferret under TPC with the AP7892-rate power meter.
#[must_use]
pub fn run(quick: bool) -> PipelineOutcome {
    let model = dope_apps::ferret::sim_model();
    let mut mech = Tpc::default();
    run_pipeline(
        &model,
        &Source::Saturated,
        &mut mech,
        Resources::threads(24).with_power_budget(power_target()),
        &PipelineParams {
            control_period_secs: 1.0,
            horizon_secs: if quick { 240.0 } else { 600.0 },
            power: Some(PowerSim::default()),
            ..PipelineParams::default()
        },
    )
}

/// Runs and prints the power/throughput time series.
pub fn report(quick: bool) {
    let out = run(quick);
    let target = power_target();
    let thr: std::collections::BTreeMap<u64, f64> = out
        .throughput_series
        .points()
        .iter()
        .map(|&(t, v)| (t as u64, v))
        .collect();
    crate::print_table(
        &format!("== Figure 14: ferret power & throughput under TPC (target {target:.0} W) =="),
        &["t (s)", "power (W)", "thr (q/s)"],
        (out.power_series.points().iter())
            .map(|&(t, p)| (t as u64, p))
            .filter(|(t, _)| t.is_multiple_of(10))
            .map(|(t, p)| {
                let thr = thr.get(&t).copied().unwrap_or(0.0);
                [t.to_string(), crate::cell(p), crate::cell(thr)]
            }),
    );
    println!(
        "mean power: {:.1} W   stable throughput: {:.1} queries/s",
        out.mean_power_watts.unwrap_or(0.0),
        out.stable_throughput(out.horizon_secs * 0.5)
    );
}

/// Ramp then stabilize under the budget: power approaches the target from
/// below and the stable region stays at or under it (within meter noise).
#[must_use]
pub fn shape_holds(out: &PipelineOutcome) -> bool {
    let target = power_target();
    let first = out
        .power_series
        .points()
        .first()
        .map_or(f64::MAX, |&(_, p)| p);
    let stable: Vec<f64> = out
        .power_series
        .points()
        .iter()
        .filter(|&&(t, _)| t > out.horizon_secs * 0.5)
        .map(|&(_, p)| p)
        .collect();
    if stable.is_empty() {
        return false;
    }
    let stable_mean = stable.iter().sum::<f64>() / stable.len() as f64;
    // Started well below the target, ramped up close to it, stayed under
    // (10 W of slack for meter noise).
    first < target - 30.0 && stable_mean > target - 60.0 && stable_mean < target + 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpc_ramps_to_target_and_holds() {
        let out = run(true);
        assert!(
            shape_holds(&out),
            "power series: {:?}",
            out.power_series.points().len()
        );
    }

    #[test]
    fn throughput_is_positive_under_cap() {
        let out = run(true);
        assert!(out.stable_throughput(out.horizon_secs * 0.5) > 0.0);
    }
}
