//! Figure 12: ferret response time versus load.
//!
//! Compares the static even distribution `(<1,6,6,6,6,1>, PIPE)`, the
//! static oversubscribed distribution (24 threads per parallel task), and
//! DoPE's load-aware allocation.

use dope_core::{Mechanism, Resources, StaticMechanism};
use dope_mechanisms::Proportional;
use dope_sim::pipeline::{run_pipeline, PipelineModel, PipelineParams, Source};
use dope_workload::ArrivalSchedule;

/// One row of the Figure 12 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Load factor.
    pub load: f64,
    /// Static even distribution's mean response (s).
    pub even: f64,
    /// Static oversubscribed distribution's mean response (s).
    pub oversubscribed: f64,
    /// DoPE's mean response (s).
    pub dope: f64,
}

fn params(quick: bool) -> PipelineParams {
    PipelineParams {
        control_period_secs: 0.5,
        horizon_secs: if quick { 200.0 } else { 600.0 },
        oversub_penalty_frac: 0.02,
        ..PipelineParams::default()
    }
}

/// Ferret's maximum sustainable throughput (queries/s) under the best
/// static allocation, used to normalize the load axis.
#[must_use]
pub fn max_throughput(model: &PipelineModel, quick: bool) -> f64 {
    let mut mech = Proportional::new();
    let out = run_pipeline(
        model,
        &Source::Saturated,
        &mut mech,
        Resources::threads(24),
        &params(quick),
    );
    out.stable_throughput(out.horizon_secs * 0.5)
}

/// Runs the Figure 12 sweep.
#[must_use]
pub fn run(loads: &[f64], requests: usize, quick: bool) -> Vec<Row> {
    let model = dope_apps::ferret::sim_model();
    let max_thr = max_throughput(&model, quick);
    let res = Resources::threads(24);
    loads
        .iter()
        .map(|&load| {
            let schedule = ArrivalSchedule::for_load_factor(load, max_thr, requests, 23);
            let open = Source::Open(schedule);
            let respond = |mech: &mut dyn Mechanism, oversub: bool| {
                let mut p = params(quick);
                p.allow_oversubscription = oversub;
                let out = run_pipeline(&model, &open, mech, res, &p);
                out.response.mean().unwrap_or(p.horizon_secs)
            };
            let even = respond(&mut StaticMechanism::new(model.config_even(24)), false);
            let oversubscribed = respond(
                &mut StaticMechanism::new(model.config_oversubscribed(24)),
                true,
            );
            let dope = respond(&mut Proportional::new(), false);
            Row {
                load,
                even,
                oversubscribed,
                dope,
            }
        })
        .collect()
}

/// Runs and prints the sweep.
pub fn report(quick: bool) {
    let rows = run(&crate::load_factors(quick), crate::REQUESTS, quick);
    crate::print_table(
        "== Figure 12: ferret mean response time (s) vs load ==",
        &["load", "even", "oversub", "DoPE"],
        rows.iter().map(|r| {
            let mut cells = vec![format!("{:.1}", r.load)];
            cells.extend([r.even, r.oversubscribed, r.dope].map(crate::cell));
            cells
        }),
    );
}

/// The qualitative claims this model reproduces: both oversubscription
/// and DoPE dominate the static even distribution at moderate-to-heavy
/// load (by a widening margin), and DoPE achieves that **without**
/// oversubscribing — 24 threads instead of 98.
///
/// The paper additionally measures DoPE *below* the oversubscribed
/// static; that gap comes from real OS scheduling/memory overheads that
/// this simulator only charges per item (see `EXPERIMENTS.md`), so here
/// DoPE is required to stay within a small factor of it instead.
#[must_use]
pub fn shape_holds(rows: &[Row]) -> bool {
    rows.iter().filter(|r| r.load >= 0.5).all(|r| {
        r.oversubscribed <= r.even * 1.05
            && r.dope <= r.even * 1.05
            && r.dope <= r.oversubscribed * 3.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dope_dominates_statics() {
        let rows = run(&[0.6, 0.9], 150, true);
        assert!(shape_holds(&rows), "{rows:?}");
    }
}
