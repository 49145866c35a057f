//! Figure 2: the video-transcoding motivation experiment.
//!
//! (a) per-video execution time and (b) system throughput versus load for
//! the two static configurations `<(24, DOALL), (1, SEQ)>` and
//! `<(3, DOALL), (8, PIPE)>`; (c) end-user response time for both statics
//! plus an oracle that picks the ideal inner DoP at every load factor.

use dope_core::{Resources, StaticMechanism};
use dope_sim::system::{run_system, SystemOutcome, SystemParams};
use dope_workload::ArrivalSchedule;

/// One load point of the Figure 2 sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Load factor (arrival rate / max sequential throughput).
    pub load: f64,
    /// Sequential-transaction outcome (`<24, (1, SEQ)>`).
    pub seq: SystemOutcome,
    /// Parallel-transaction outcome (`<3, (8, PIPE)>`).
    pub par: SystemOutcome,
    /// Oracle outcome and its chosen width.
    pub oracle: SystemOutcome,
    /// The width the oracle chose at this load.
    pub oracle_width: u32,
}

/// Runs the Figure 2 sweep.
#[must_use]
pub fn run(loads: &[f64], requests: usize) -> Vec<LoadPoint> {
    let model = dope_apps::transcode::sim_model();
    let max_thr = model.max_throughput(24, 1);
    let params = SystemParams::default();
    let res = Resources::threads(24);
    let widths: Vec<u32> = vec![1, 3, 4, 5, 6, 8];

    loads
        .iter()
        .map(|&load| {
            let schedule = ArrivalSchedule::for_load_factor(load, max_thr, requests, 42);
            let run_width = |width: u32| {
                let mut mech = StaticMechanism::new(model.config_for_width(24, width));
                run_system(&model, &schedule, &mut mech, res, &params)
            };
            let seq = run_width(1);
            let par = run_width(8);
            // Oracle: the width with the lowest mean response at this load.
            let (oracle_width, oracle) = widths
                .iter()
                .map(|&w| (w, run_width(w)))
                .min_by(|a, b| {
                    a.1.mean_response()
                        .partial_cmp(&b.1.mean_response())
                        .expect("finite response times")
                })
                .expect("non-empty width set");
            LoadPoint {
                load,
                seq,
                par,
                oracle,
                oracle_width,
            }
        })
        .collect()
}

/// Runs and prints the three Figure 2 panels.
pub fn report(quick: bool) {
    let points = run(&crate::load_factors(quick), crate::REQUESTS);
    let header = [
        "load",
        "<24,(1,SEQ)>",
        "<3,(8,PIPE)>",
        "oracle",
        "ideal DoP",
    ];
    // Panels (a) and (b): one metric of the two static configurations.
    let statics = |metric: fn(&SystemOutcome) -> f64| {
        points.iter().map(move |p| {
            let (seq, par) = (crate::cell(metric(&p.seq)), crate::cell(metric(&p.par)));
            [format!("{:.1}", p.load), seq, par]
        })
    };
    crate::print_table(
        "== Figure 2(a): x264 per-video execution time (s) vs load ==",
        &header[..3],
        statics(|o| o.mean_exec_secs),
    );
    crate::print_table(
        "\n== Figure 2(b): x264 throughput (videos/s) vs load ==",
        &header[..3],
        statics(SystemOutcome::system_throughput),
    );
    crate::print_table(
        "\n== Figure 2(c): x264 mean response time (s) vs load ==",
        &header,
        points.iter().map(|p| {
            [
                format!("{:.1}", p.load),
                crate::cell(p.seq.mean_response()),
                crate::cell(p.par.mean_response()),
                crate::cell(p.oracle.mean_response()),
                p.oracle_width.to_string(),
            ]
        }),
    );
}

/// Sanity checks the paper's qualitative claims on a sweep result.
#[must_use]
pub fn shape_holds(points: &[LoadPoint]) -> bool {
    let light = points.first().expect("at least one load point");
    let heavy = points.last().expect("at least one load point");
    // Fig 2(a): intra-video parallelism shortens execution dramatically.
    let exec_gain = light.seq.mean_exec_secs / light.par.mean_exec_secs;
    // Fig 2(b)/(c): at saturation the sequential configuration wins.
    let heavy_crossover = heavy.seq.mean_response() < heavy.par.mean_response();
    // Fig 2(c): the oracle is never worse than either static.
    let oracle_dominates = points.iter().all(|p| {
        p.oracle.mean_response() <= p.seq.mean_response() + 1e-9
            && p.oracle.mean_response() <= p.par.mean_response() + 1e-9
    });
    exec_gain > 4.0 && heavy_crossover && oracle_dominates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_holds_on_quick_sweep() {
        let points = run(&[0.2, 1.0], 500);
        assert!(shape_holds(&points));
        // Oracle picks a wide DoP at light load and narrows it as load
        // grows (Figure 2c's "ideal parallelism configuration for each
        // load factor" annotation).
        assert!(points[0].oracle_width >= 6);
        assert!(points[1].oracle_width <= 4);
        assert!(points[1].oracle_width < points[0].oracle_width);
    }
}
