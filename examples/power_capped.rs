//! Throughput maximization under a power budget (paper §7.3 / §8.2.3).
//!
//! The administrator specifies "max throughput with 24 threads at 90% of
//! peak power". DoPE's TPC controller ramps the degree of parallelism
//! until the (slow, AP7892-rate) power meter reads the budget, then
//! explores same-size configurations for the best throughput. This
//! example runs on the simulated 24-context machine so the power ramp is
//! reproducible anywhere.
//!
//! At the end the run's stable power is published as a gauge in a
//! [`MetricsRegistry`] and dumped once in Prometheus text format — the
//! one-shot (`curl`-free) counterpart to the live endpoint in
//! `examples/video_service.rs`.
//!
//! Run with: `cargo run --release --example power_capped`

use dope_core::{Goal, Resources};
use dope_mechanisms::Tpc;
use dope_metrics::{names, MetricsRegistry};
use dope_platform::PowerModel;
use dope_sim::pipeline::{run_pipeline, PipelineParams, PowerSim, Source};

fn main() {
    let model = dope_apps::ferret::sim_model();
    let power_model = PowerModel::default();
    let target = 0.9 * power_model.peak_power();
    let goal = Goal::MaxThroughputUnderPower {
        threads: 24,
        watts: target,
    };
    println!(
        "goal: {goal} (idle {:.0} W, peak {:.0} W)",
        power_model.idle_watts(),
        power_model.peak_power()
    );

    let mut tpc = Tpc::default();
    let outcome = run_pipeline(
        &model,
        &Source::Saturated,
        &mut tpc,
        Resources::threads(goal.threads()).with_power_budget(target),
        &PipelineParams {
            control_period_secs: 1.0,
            horizon_secs: 300.0,
            power: Some(PowerSim {
                model: power_model,
                ..PowerSim::default()
            }),
            ..PipelineParams::default()
        },
    );

    println!("\n  t(s)   power(W)   throughput(q/s)");
    let thr: std::collections::BTreeMap<u64, f64> = outcome
        .throughput_series
        .points()
        .iter()
        .map(|&(t, v)| (t as u64, v))
        .collect();
    for &(t, p) in outcome.power_series.points() {
        let ti = t as u64;
        if ti.is_multiple_of(20) {
            println!(
                "{ti:>6} {p:>10.1} {:>14.1}",
                thr.get(&ti).copied().unwrap_or(0.0)
            );
        }
    }
    let stable_power = outcome
        .power_series
        .mean_after(outcome.horizon_secs * 0.5)
        .unwrap_or(0.0);
    let stable_throughput = outcome.stable_throughput(outcome.horizon_secs * 0.5);
    println!(
        "\nstable power {stable_power:.1} W (target {target:.0} W), stable throughput {stable_throughput:.1} queries/s",
    );

    // One-shot metrics dump: publish the run's stable power as a gauge
    // and render the registry as Prometheus text.
    let registry = MetricsRegistry::new();
    registry
        .gauge_with_labels(
            names::POWER_WATTS,
            "Most recent platform power reading in watts.",
            &[("app", "ferret"), ("mechanism", "TPC")],
        )
        .set(stable_power);
    let dump = registry.render();
    println!("\n-- metrics dump --");
    for line in dump.lines().filter(|l| !l.starts_with('#')) {
        println!("  {line}");
    }

    assert!(stable_power < target + 10.0, "controller respects the cap");
    assert!(stable_throughput > 0.0, "the capped pipeline still serves");
    assert!(
        dump.contains(names::POWER_WATTS),
        "dump must carry the power gauge"
    );
}
