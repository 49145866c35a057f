//! Figure 11: response time versus load under Static, WQT-H, and
//! WQ-Linear for the four two-level applications.

use dope_core::{Mechanism, Resources, StaticMechanism};
use dope_mechanisms::{WqLinear, WqtH};
use dope_sim::system::{run_system, SystemParams, TwoLevelModel};
use dope_workload::ArrivalSchedule;

/// Mechanism column labels, in `rows` order.
pub const MECHANISMS: [&str; 4] = ["static-seq", "static-par", "WQT-H", "WQ-Linear"];

/// Mechanism parameters for one application.
#[derive(Debug, Clone, Copy)]
pub struct AppTuning {
    /// The paper's `Mmax` for the application.
    pub m_max: u32,
    /// WQ-Linear's `Mmin`.
    pub m_min: u32,
    /// WQ-Linear's `Qmax` (occupancy at which the extent bottoms out).
    pub q_max: f64,
    /// WQT-H's queue threshold `T`.
    pub threshold: f64,
}

/// One application of the Figure 11 sweep.
#[derive(Debug)]
pub struct AppSweep {
    /// Application name.
    pub name: &'static str,
    /// `(load, static_seq, static_par, wqt_h, wq_linear)` mean response
    /// times in seconds.
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
    /// Same shape as `rows` but reporting the p99 response time
    /// (histogram-backed, see `dope_workload::ResponseStats`).
    pub p99_rows: Vec<(f64, f64, f64, f64, f64)>,
}

/// The four applications with their tunings.
#[must_use]
pub fn apps() -> Vec<(&'static str, TwoLevelModel, AppTuning)> {
    vec![
        (
            "x264 (video transcoding)",
            dope_apps::transcode::sim_model(),
            AppTuning {
                m_max: 8,
                m_min: 1,
                q_max: 12.0,
                threshold: 4.0,
            },
        ),
        (
            "swaptions (option pricing)",
            dope_apps::swaptions::sim_model(),
            AppTuning {
                m_max: 8,
                m_min: 1,
                q_max: 12.0,
                threshold: 4.0,
            },
        ),
        (
            "bzip (data compression)",
            dope_apps::bzip::sim_model(),
            AppTuning {
                // DoP_min = 4: WQ-Linear's intermediate widths 2-3 are
                // unhelpful, the paper's §8.2.1 caveat.
                m_max: 10,
                m_min: 1,
                q_max: 12.0,
                threshold: 4.0,
            },
        ),
        (
            "gimp (image editing)",
            dope_apps::gimp::sim_model(),
            AppTuning {
                m_max: 8,
                m_min: 1,
                q_max: 12.0,
                threshold: 4.0,
            },
        ),
    ]
}

/// Runs the sweep for every application.
#[must_use]
pub fn run(loads: &[f64], requests: usize) -> Vec<AppSweep> {
    let params = SystemParams::default();
    let res = Resources::threads(24);
    apps()
        .into_iter()
        .map(|(name, model, tuning)| {
            let max_thr = model.max_throughput(24, 1);
            let mut rows = Vec::with_capacity(loads.len());
            let mut p99_rows = Vec::with_capacity(loads.len());
            for &load in loads {
                let schedule = ArrivalSchedule::for_load_factor(load, max_thr, requests, 7);
                let run_mech = |mech: &mut dyn Mechanism| {
                    let out = run_system(&model, &schedule, mech, res, &params);
                    let p99 = out.response.percentile(0.99).unwrap_or(0.0);
                    (out.mean_response(), p99)
                };
                let static_seq = run_mech(&mut StaticMechanism::new(model.config_for_width(24, 1)));
                let static_par = run_mech(&mut StaticMechanism::new(
                    model.config_for_width(24, tuning.m_max),
                ));
                let wqt_h = run_mech(&mut WqtH::new(tuning.threshold, tuning.m_max, 4, 4));
                let wq_linear =
                    run_mech(&mut WqLinear::new(tuning.m_min, tuning.m_max, tuning.q_max));
                rows.push((load, static_seq.0, static_par.0, wqt_h.0, wq_linear.0));
                p99_rows.push((load, static_seq.1, static_par.1, wqt_h.1, wq_linear.1));
            }
            AppSweep {
                name,
                rows,
                p99_rows,
            }
        })
        .collect()
}

fn print_panel(title: &str, rows: &[(f64, f64, f64, f64, f64)]) {
    let mut header = vec!["load"];
    header.extend(MECHANISMS);
    crate::print_table(
        title,
        &header,
        rows.iter().map(|&(load, s, p, h, l)| {
            let mut cells = vec![format!("{load:.1}")];
            cells.extend([s, p, h, l].map(crate::cell));
            cells
        }),
    );
    println!();
}

/// Runs and prints all four panels: the paper's mean response times plus
/// a histogram-backed p99 panel per application.
pub fn report(quick: bool) {
    for sweep in &run(&crate::load_factors(quick), crate::REQUESTS) {
        print_panel(
            &format!("== Figure 11: {} — mean response time (s) ==", sweep.name),
            &sweep.rows,
        );
        print_panel(
            &format!(
                "== Figure 11: {} — p99 response time (s, histogram-backed) ==",
                sweep.name
            ),
            &sweep.p99_rows,
        );
    }
}

/// Checks the paper's qualitative claims.
#[must_use]
pub fn shape_holds(sweep: &AppSweep) -> bool {
    let light = sweep.rows.first().expect("rows");
    let heavy = sweep.rows.last().expect("rows");
    // Light load: adaptive mechanisms track the parallel static (fast).
    let light_ok = light.3 <= light.1 * 1.05 && light.4 <= light.1 * 1.05;
    // Heavy load: adaptive mechanisms avoid the parallel static's collapse.
    let heavy_ok = heavy.3 <= heavy.2 * 1.05 && heavy.4 <= heavy.2 * 1.05;
    light_ok && heavy_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_mechanisms_dominate_at_extremes() {
        let sweeps = run(&[0.2, 1.0], 500);
        for sweep in &sweeps {
            assert!(shape_holds(sweep), "{}: {:?}", sweep.name, sweep.rows);
        }
    }

    #[test]
    fn p99_panel_is_populated() {
        let loads = [0.5, 1.0];
        let requests = 200;
        let sweeps = run(&loads, requests);
        for sweep in &sweeps {
            assert_eq!(sweep.p99_rows.len(), sweep.rows.len());
            for (mean_row, p99_row) in sweep.rows.iter().zip(&sweep.p99_rows) {
                assert_eq!(mean_row.0, p99_row.0, "load column must match");
                // Tail latency sits at or above the bulk of the
                // distribution (generous slack for histogram error).
                for (mean, p99) in [
                    (mean_row.1, p99_row.1),
                    (mean_row.2, p99_row.2),
                    (mean_row.3, p99_row.3),
                    (mean_row.4, p99_row.4),
                ] {
                    assert!(p99 > 0.0, "{}: missing p99", sweep.name);
                    assert!(
                        p99 >= mean * 0.5,
                        "{}: p99 {p99} << mean {mean}",
                        sweep.name
                    );
                }
            }
        }
    }
}
