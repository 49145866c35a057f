//! Ablations of the design choices DESIGN.md calls out.
//!
//! Four sweeps, each isolating one knob of a mechanism:
//!
//! 1. **WQT-H hysteresis lengths** — the paper: "The hysteresis allows
//!    the system to infer a load pattern and avoid toggling states
//!    frequently", with `N_off >> N_on` as the conservative extreme.
//! 2. **WQ-Linear `Qmax`** — derived from the acceptable response-time
//!    degradation (Equation 3); too small collapses to throughput mode
//!    early, too large holds latency mode into saturation.
//! 3. **TBF imbalance threshold** — when fusion triggers (§7.2's 0.5).
//! 4. **TPC meter rate** — the paper notes the PDU's 13 samples/min
//!    "limited the speed with which the controller responds".

use dope_core::{Mechanism, Resources};
use dope_mechanisms::{Tbf, Tpc, WqLinear, WqLinearH, WqtH};
use dope_platform::PowerModel;
use dope_sim::pipeline::{run_pipeline, PipelineParams, PowerSim, Source};
use dope_sim::system::{run_system, SystemParams};
use dope_workload::ArrivalSchedule;

/// One WQT-H hysteresis point.
#[derive(Debug, Clone, Copy)]
pub struct HysteresisPoint {
    /// PAR -> SEQ hysteresis length (tasks).
    pub n_on: u64,
    /// SEQ -> PAR hysteresis length (tasks).
    pub n_off: u64,
    /// Mean response time at the probed load.
    pub mean_response: f64,
    /// Applied reconfigurations over the run.
    pub reconfigurations: u64,
}

/// Sweeps WQT-H hysteresis lengths on x264 at a mid load factor.
#[must_use]
pub fn wqt_h_hysteresis(load: f64, requests: usize) -> Vec<HysteresisPoint> {
    let model = dope_apps::transcode::sim_model();
    let max_thr = model.max_throughput(24, 1);
    let schedule = ArrivalSchedule::for_load_factor(load, max_thr, requests, 99);
    let res = Resources::threads(24);
    [(1u64, 1u64), (4, 4), (16, 16), (2, 64)]
        .into_iter()
        .map(|(n_on, n_off)| {
            let mut mech = WqtH::new(4.0, 8, n_on, n_off);
            let out = run_system(&model, &schedule, &mut mech, res, &SystemParams::default());
            HysteresisPoint {
                n_on,
                n_off,
                mean_response: out.mean_response(),
                reconfigurations: out.config_changes,
            }
        })
        .collect()
}

/// One WQ-Linear `Qmax` point.
#[derive(Debug, Clone, Copy)]
pub struct QmaxPoint {
    /// The `Qmax` setting.
    pub q_max: f64,
    /// Mean response at light load (0.3).
    pub light: f64,
    /// Mean response at heavy load (1.0).
    pub heavy: f64,
}

/// Sweeps WQ-Linear's `Qmax` on x264.
#[must_use]
pub fn wq_linear_qmax(requests: usize) -> Vec<QmaxPoint> {
    let model = dope_apps::transcode::sim_model();
    let max_thr = model.max_throughput(24, 1);
    let res = Resources::threads(24);
    [4.0, 8.0, 16.0, 32.0, 64.0]
        .into_iter()
        .map(|q_max| {
            let respond = |load: f64| {
                let schedule = ArrivalSchedule::for_load_factor(load, max_thr, requests, 31);
                let mut mech = WqLinear::new(1, 8, q_max);
                run_system(&model, &schedule, &mut mech, res, &SystemParams::default())
                    .mean_response()
            };
            QmaxPoint {
                q_max,
                light: respond(0.3),
                heavy: respond(1.0),
            }
        })
        .collect()
}

/// One TBF-threshold point.
#[derive(Debug, Clone, Copy)]
pub struct FusionPoint {
    /// Imbalance threshold above which TBF fuses.
    pub threshold: f64,
    /// Stable throughput on ferret (queries/s).
    pub throughput: f64,
    /// Whether the final configuration uses the fused descriptor.
    pub fused: bool,
}

/// Sweeps TBF's fusion threshold on ferret.
#[must_use]
pub fn tbf_threshold(horizon: f64) -> Vec<FusionPoint> {
    let model = dope_apps::ferret::sim_model();
    [0.2, 0.5, 0.8, 0.95]
        .into_iter()
        .map(|threshold| {
            let mut mech = Tbf::new().with_imbalance_threshold(threshold);
            let out = run_pipeline(
                &model,
                &Source::Saturated,
                &mut mech,
                Resources::threads(24),
                &PipelineParams {
                    horizon_secs: horizon,
                    ..PipelineParams::default()
                },
            );
            let fused = out.final_config.tasks[0]
                .nested
                .as_ref()
                .is_some_and(|n| n.alternative == 1);
            FusionPoint {
                threshold,
                throughput: out.stable_throughput(horizon * 0.5),
                fused,
            }
        })
        .collect()
}

/// One TPC meter-rate point.
#[derive(Debug, Clone, Copy)]
pub struct MeterPoint {
    /// Meter sampling interval in seconds.
    pub interval_secs: f64,
    /// Stable throughput under the cap.
    pub throughput: f64,
    /// Stable mean power.
    pub stable_power: f64,
    /// Simulated time until power first reached 95% of the target.
    pub ramp_secs: f64,
}

/// Sweeps TPC's power-meter rate on ferret at a 90%-of-peak target.
#[must_use]
pub fn tpc_meter_rate(horizon: f64) -> Vec<MeterPoint> {
    let model = dope_apps::ferret::sim_model();
    let power_model = PowerModel::default();
    let target = 0.9 * power_model.peak_power();
    [1.0, 60.0 / 13.0, 15.0, 45.0]
        .into_iter()
        .map(|interval| {
            let mut mech = Tpc::default();
            let out = run_pipeline(
                &model,
                &Source::Saturated,
                &mut mech,
                Resources::threads(24).with_power_budget(target),
                &PipelineParams {
                    horizon_secs: horizon,
                    power: Some(PowerSim {
                        model: power_model,
                        sample_interval_secs: interval,
                        seed: 17,
                    }),
                    ..PipelineParams::default()
                },
            );
            let ramp_secs = out
                .power_series
                .points()
                .iter()
                .find(|&&(_, p)| p >= 0.95 * target)
                .map_or(horizon, |&(t, _)| t);
            MeterPoint {
                interval_secs: interval,
                throughput: out.stable_throughput(horizon * 0.5),
                stable_power: out.power_series.mean_after(horizon * 0.5).unwrap_or(0.0),
                ramp_secs,
            }
        })
        .collect()
}

/// Compares plain WQ-Linear with the hysteretic variant under a noisy
/// near-saturation Poisson load (where the queue flaps around the
/// Equation 2 break points); returns `(plain, hysteretic)` outcomes as
/// `(mean_response, reconfigurations)`.
#[must_use]
pub fn wq_linear_hysteresis(requests: usize) -> ((f64, u64), (f64, u64)) {
    let model = dope_apps::transcode::sim_model();
    let max_thr = model.max_throughput(24, 1);
    let res = Resources::threads(24);
    let run_with = |mech: &mut dyn Mechanism| {
        let schedule = ArrivalSchedule::poisson(0.9 * max_thr, requests, 5);
        let out = run_system(&model, &schedule, mech, res, &SystemParams::default());
        (out.mean_response(), out.config_changes)
    };
    let plain = run_with(&mut WqLinear::new(1, 8, 16.0));
    let hysteretic = run_with(&mut WqLinearH::new(1, 8, 16.0, 4));
    (plain, hysteretic)
}

/// Runs and prints all ablations.
pub fn report(quick: bool) {
    let requests = crate::REQUESTS;
    let horizon = if quick { 90.0 } else { 240.0 };

    crate::print_table(
        "== Ablation: WQT-H hysteresis lengths (x264, load 0.7) ==",
        &["N_on", "N_off", "resp (s)", "reconfigs"],
        wqt_h_hysteresis(0.7, requests).into_iter().map(|p| {
            [
                p.n_on.to_string(),
                p.n_off.to_string(),
                crate::cell(p.mean_response),
                p.reconfigurations.to_string(),
            ]
        }),
    );
    crate::print_table(
        "\n== Ablation: WQ-Linear Qmax (x264) ==",
        &["Qmax", "resp@0.3", "resp@1.0"],
        wq_linear_qmax(requests).into_iter().map(|p| {
            [
                format!("{:.0}", p.q_max),
                crate::cell(p.light),
                crate::cell(p.heavy),
            ]
        }),
    );
    crate::print_table(
        "\n== Ablation: TBF fusion threshold (ferret) ==",
        &["threshold", "thr (q/s)", "fused"],
        tbf_threshold(horizon).into_iter().map(|p| {
            [
                format!("{:.2}", p.threshold),
                crate::cell(p.throughput),
                p.fused.to_string(),
            ]
        }),
    );
    crate::print_table(
        "\n== Ablation: TPC power-meter interval (ferret, 630 W) ==",
        &["interval(s)", "thr (q/s)", "power (W)", "ramp (s)"],
        tpc_meter_rate(horizon.max(180.0)).into_iter().map(|p| {
            [
                format!("{:.1}", p.interval_secs),
                crate::cell(p.throughput),
                crate::cell(p.stable_power),
                format!("{:.0}", p.ramp_secs),
            ]
        }),
    );

    let ((plain_r, plain_c), (hyst_r, hyst_c)) = wq_linear_hysteresis(requests);
    println!("\n== Ablation: WQ-Linear vs WQ-Linear-H (x264, load 0.9) ==");
    println!(
        "plain:      resp {plain_r:.2} s, {plain_c} reconfigurations\nhysteretic: resp {hyst_r:.2} s, {hyst_c} reconfigurations"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservative_hysteresis_reconfigures_less() {
        let points = wqt_h_hysteresis(0.7, 300);
        let eager = &points[0]; // (1, 1)
        let conservative = &points[3]; // (2, 64)
        assert!(conservative.reconfigurations <= eager.reconfigurations);
    }

    #[test]
    fn small_qmax_hurts_light_load_large_qmax_hurts_heavy() {
        let points = wq_linear_qmax(300);
        let small = points.first().unwrap();
        let large = points.last().unwrap();
        // A tiny Qmax drops out of latency mode on the slightest queue:
        // worse light-load response than a large Qmax.
        assert!(small.light >= large.light * 0.99);
        // A huge Qmax holds wide configurations into saturation: worse
        // heavy-load response than a small Qmax.
        assert!(large.heavy >= small.heavy * 0.99);
    }

    #[test]
    fn lower_thresholds_fuse_ferret() {
        let points = tbf_threshold(60.0);
        assert!(points[0].fused, "threshold 0.2 must fuse");
        assert!(!points[3].fused, "threshold 0.95 must not fuse");
        // Fusion is the better configuration for ferret.
        assert!(points[0].throughput > points[3].throughput);
    }

    #[test]
    fn slower_meters_ramp_slower() {
        let points = tpc_meter_rate(180.0);
        let fast = &points[0];
        let slow = &points[3];
        assert!(fast.ramp_secs <= slow.ramp_secs);
    }

    #[test]
    fn hysteretic_wq_linear_reconfigures_less() {
        let ((_, plain_c), (_, hyst_c)) = wq_linear_hysteresis(300);
        assert!(hyst_c <= plain_c);
    }
}
