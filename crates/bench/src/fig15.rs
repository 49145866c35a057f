//! Figure 15: throughput improvement over the static even distribution
//! for ferret and dedup across mechanisms.
//!
//! Paper values: ferret — Pthreads-OS 2.12x; dedup — Pthreads-OS 0.89x;
//! DoPE-TBF best everywhere; geomean improvement of the DoPEd
//! applications 2.36x (+136%).

use dope_core::{Mechanism, Resources, StaticMechanism};
use dope_mechanisms::{Fdp, Seda, Tbf};
use dope_sim::pipeline::{run_pipeline, PipelineModel, PipelineParams, Source};

/// Throughput of one (application, mechanism) cell, normalized later.
#[derive(Debug, Clone)]
pub struct AppResults {
    /// Application name.
    pub name: &'static str,
    /// `(mechanism, queries/s)` in report order.
    pub rows: Vec<(&'static str, f64)>,
}

fn stable_throughput(
    model: &PipelineModel,
    mech: &mut dyn Mechanism,
    oversub: bool,
    oversub_penalty: f64,
    quick: bool,
) -> f64 {
    let params = PipelineParams {
        control_period_secs: 1.0,
        horizon_secs: if quick { 90.0 } else { 240.0 },
        allow_oversubscription: oversub,
        oversub_penalty_frac: oversub_penalty,
        ..PipelineParams::default()
    };
    let out = run_pipeline(
        model,
        &Source::Saturated,
        mech,
        Resources::threads(24),
        &params,
    );
    out.stable_throughput(params.horizon_secs * 0.5)
}

/// Runs all mechanisms for one application model.
#[must_use]
pub fn run_app(
    name: &'static str,
    model: &PipelineModel,
    oversub_penalty: f64,
    quick: bool,
) -> AppResults {
    let rows = vec![
        (
            "Pthreads-Baseline",
            stable_throughput(
                model,
                &mut StaticMechanism::new(model.config_even(24)),
                false,
                oversub_penalty,
                quick,
            ),
        ),
        (
            "Pthreads-OS",
            stable_throughput(
                model,
                &mut StaticMechanism::new(model.config_oversubscribed(24)),
                true,
                oversub_penalty,
                quick,
            ),
        ),
        (
            "DoPE-SEDA",
            // SEDA resizes per-stage pools without global coordination, so
            // it may oversubscribe; it faces the same penalty as the OS
            // baseline.
            stable_throughput(model, &mut Seda::default(), true, oversub_penalty, quick),
        ),
        (
            "DoPE-FDP",
            stable_throughput(model, &mut Fdp::default(), false, oversub_penalty, quick),
        ),
        (
            "DoPE-TB",
            stable_throughput(
                model,
                &mut Tbf::without_fusion(),
                false,
                oversub_penalty,
                quick,
            ),
        ),
        (
            "DoPE-TBF",
            stable_throughput(model, &mut Tbf::new(), false, oversub_penalty, quick),
        ),
    ];
    AppResults { name, rows }
}

/// Runs ferret and dedup.
#[must_use]
pub fn run(quick: bool) -> Vec<AppResults> {
    vec![
        run_app("ferret", &dope_apps::ferret::sim_model(), 0.02, quick),
        run_app(
            "dedup",
            &dope_apps::dedup::sim_model(),
            dope_apps::dedup::OVERSUB_PENALTY,
            quick,
        ),
    ]
}

/// Normalized improvement of `mechanism` over the baseline.
#[must_use]
pub fn normalized(results: &AppResults, mechanism: &str) -> f64 {
    let base = results.rows[0].1;
    results
        .rows
        .iter()
        .find(|(m, _)| *m == mechanism)
        .map_or(0.0, |(_, t)| t / base)
}

/// Runs and prints the normalized table.
pub fn report(quick: bool) {
    let results = run(quick);
    let mut header = vec!["app"];
    header.extend(results[0].rows.iter().map(|(m, _)| *m));
    crate::print_table(
        "== Figure 15: throughput normalized to Pthreads-Baseline ==",
        &header,
        results.iter().map(|app| {
            let mut cells = vec![app.name.to_string()];
            cells.extend(
                app.rows
                    .iter()
                    .map(|(m, _)| format!("{:.2}x", normalized(app, m))),
            );
            cells
        }),
    );
    let geomean =
        (normalized(&results[0], "DoPE-TBF") * normalized(&results[1], "DoPE-TBF")).sqrt();
    println!("\nDoPE-TBF geomean improvement: {geomean:.2}x (paper: 2.36x)");
}

/// The paper's qualitative claims.
#[must_use]
pub fn shape_holds(results: &[AppResults]) -> bool {
    let ferret = &results[0];
    let dedup = &results[1];
    // ferret: OS well above baseline; dedup: OS at or below baseline.
    let os_split =
        normalized(ferret, "Pthreads-OS") > 1.5 && normalized(dedup, "Pthreads-OS") < 1.05;
    // TBF is the best mechanism for both applications.
    let tbf_best = results.iter().all(|app| {
        let tbf = normalized(app, "DoPE-TBF");
        app.rows
            .iter()
            .all(|(m, _)| *m == "DoPE-TBF" || normalized(app, m) <= tbf * 1.02)
    });
    // Fusion helps: TBF >= TB.
    let fusion_helps = results
        .iter()
        .all(|app| normalized(app, "DoPE-TBF") >= normalized(app, "DoPE-TB") * 0.98);
    os_split && tbf_best && fusion_helps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15_shape_holds() {
        let results = run(true);
        assert!(shape_holds(&results), "{results:?}");
    }

    #[test]
    fn tbf_geomean_improvement_is_substantial() {
        let results = run(true);
        let geomean =
            (normalized(&results[0], "DoPE-TBF") * normalized(&results[1], "DoPE-TBF")).sqrt();
        assert!(geomean > 1.5, "geomean {geomean}");
    }
}
