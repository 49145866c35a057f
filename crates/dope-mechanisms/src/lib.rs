//! The DoPE mechanism library.
//!
//! A *mechanism* encodes the logic that adapts an application's
//! parallelism configuration to meet a performance goal (paper §4–§7).
//! This crate implements every mechanism the paper evaluates, plus the
//! pedagogical proportional mechanism of Figure 10 and an oracle:
//!
//! | Goal | Mechanisms |
//! |------|------------|
//! | Min response time, N threads | [`WqtH`], [`WqLinear`], [`Oracle`] |
//! | Max throughput, N threads | [`Tbf`] (and TB), [`Fdp`], [`Seda`], [`Proportional`] |
//! | Max throughput, N threads, P watts | [`Tpc`] |
//!
//! [`for_goal`] returns the paper's default mechanism for each goal — "a
//! human need not select a particular mechanism to use from among many"
//! (§7).
//!
//! # Example
//!
//! ```
//! use dope_core::Goal;
//! use dope_mechanisms::for_goal;
//!
//! let mech = for_goal(Goal::MaxThroughput { threads: 24 });
//! assert_eq!(mech.name(), "TBF");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fdp;
pub mod oracle;
pub mod proportional;
pub mod seda;
pub mod shed_aware;
pub mod tbf;
pub mod tpc;
pub mod wq_linear;
pub mod wq_linear_h;
pub mod wqt_h;

pub use fdp::Fdp;
pub use oracle::Oracle;
pub use proportional::Proportional;
pub use seda::Seda;
pub use shed_aware::ShedAware;
pub use tbf::Tbf;
pub use tpc::Tpc;
pub use wq_linear::WqLinear;
pub use wq_linear_h::WqLinearH;
pub use wqt_h::WqtH;

use dope_core::{Goal, Mechanism};

/// The default mechanism for a performance goal.
///
/// * `MinResponseTime` → WQ-Linear (the paper's best response-time
///   characteristic, §8.2.1);
/// * `MaxThroughput` → TBF (outperforms all other mechanisms, §8.2.2);
/// * `MaxThroughputUnderPower` → TPC (§8.2.3).
#[must_use]
pub fn for_goal(goal: Goal) -> Box<dyn Mechanism> {
    match goal {
        Goal::MinResponseTime { .. } => Box::new(WqLinear::default()),
        Goal::MaxThroughput { .. } => Box::new(Tbf::default()),
        Goal::MaxThroughputUnderPower { .. } => Box::new(Tpc::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mechanisms_match_paper() {
        assert_eq!(
            for_goal(Goal::MinResponseTime { threads: 24 }).name(),
            "WQ-Linear"
        );
        assert_eq!(for_goal(Goal::MaxThroughput { threads: 24 }).name(), "TBF");
        assert_eq!(
            for_goal(Goal::MaxThroughputUnderPower {
                threads: 24,
                watts: 630.0
            })
            .name(),
            "TPC"
        );
    }
}

/// Shared helpers for pipeline-shaped programs (a single nest whose chosen
/// alternative is a list of stages). Useful to mechanism developers
/// writing new pipeline mechanisms.
pub mod pipeline_util {
    use dope_core::{
        Config, Label, MonitorSnapshot, ProgramShape, ShapeNode, TaskConfig, TaskPath,
    };

    /// Per-stage view of a pipeline configuration.
    #[derive(Debug, Clone)]
    pub struct StageView {
        /// Path of the stage task (`0.s`).
        pub path: TaskPath,
        /// Stage name.
        pub name: Label,
        /// `true` for parallel stages.
        pub parallel: bool,
        /// Extent cap, if declared.
        pub max_extent: Option<u32>,
        /// Current extent.
        pub extent: u32,
        /// Moving-average per-item execution time (0 if unobserved).
        pub mean_exec: f64,
        /// Observed throughput (items/s).
        pub throughput: f64,
        /// Input-queue occupancy.
        pub load: f64,
        /// Busy fraction of the stage's workers.
        pub utilization: f64,
    }

    /// Extracts the stage views of the nest at root index 0.
    ///
    /// Returns `None` when the program is not pipeline-shaped.
    pub fn stages(
        snap: &MonitorSnapshot,
        config: &Config,
        shape: &ProgramShape,
    ) -> Option<(usize, Vec<StageView>)> {
        let outer = config.tasks.first()?;
        let nest = outer.nested.as_ref()?;
        let outer_shape = shape.tasks.first()?;
        let alt_nodes: &[ShapeNode] = outer_shape.alternatives.get(nest.alternative)?;
        let mut views = Vec::with_capacity(nest.tasks.len());
        for (s, (task, node)) in nest.tasks.iter().zip(alt_nodes).enumerate() {
            let path = TaskPath::root_child(0).child(s as u16);
            let stats = snap.task(&path).copied().unwrap_or_default();
            views.push(StageView {
                path,
                name: task.name.clone(),
                parallel: node.kind == dope_core::TaskKind::Par,
                max_extent: node.max_extent,
                extent: task.extent,
                mean_exec: stats.mean_exec_secs,
                throughput: stats.throughput,
                load: stats.load,
                utilization: stats.utilization,
            });
        }
        Some((nest.alternative, views))
    }

    /// Builds a pipeline configuration from per-stage extents.
    pub fn config_from_extents(
        config: &Config,
        alternative: usize,
        shape: &ProgramShape,
        extents: &[u32],
    ) -> Option<Config> {
        let outer = config.tasks.first()?;
        let outer_shape = shape.tasks.first()?;
        let nodes = outer_shape.alternatives.get(alternative)?;
        if nodes.len() != extents.len() {
            return None;
        }
        let children = nodes
            .iter()
            .zip(extents)
            .map(|(n, &e)| TaskConfig::leaf(n.name.clone(), e.max(1)))
            .collect();
        Some(Config::new(vec![TaskConfig::nest(
            outer.name.clone(),
            outer.extent,
            alternative,
            children,
        )]))
    }

    /// The bottleneck law's steady-state throughput prediction for
    /// per-stage `extents`: the minimum stage service rate
    /// `extent / mean_exec` over stages with a measured execution time.
    ///
    /// Returns `None` when no stage has been observed yet — there is no
    /// model to predict from. Mechanisms use this to fill
    /// [`DecisionTrace::predicted_throughput`](dope_core::DecisionTrace),
    /// which the executive scores against the realized bottleneck one
    /// epoch later.
    #[must_use]
    pub fn bottleneck_rate(nodes: &[StageView], extents: &[u32]) -> Option<f64> {
        nodes
            .iter()
            .zip(extents)
            .filter(|(v, _)| v.mean_exec > 0.0)
            .map(|(v, &e)| f64::from(e.max(1)) / v.mean_exec)
            .min_by(f64::total_cmp)
    }

    /// Renders per-stage extents as a compact action label
    /// (`"extents=1/3/2/1"`), for [`DecisionTrace`](dope_core::DecisionTrace)
    /// candidate and chosen-action fields.
    #[must_use]
    pub fn extents_label(extents: &[u32]) -> String {
        let parts: Vec<String> = extents.iter().map(u32::to_string).collect();
        format!("extents={}", parts.join("/"))
    }

    /// Distributes `budget` workers over stages proportionally to their
    /// execution times (sequential stages pinned to one worker), always
    /// giving every stage at least one worker and respecting caps.
    pub fn proportional_extents(
        nodes: &[StageView],
        budget: u32,
        exec_of: impl Fn(&StageView) -> f64,
    ) -> Vec<u32> {
        let n = nodes.len() as u32;
        let budget = budget.max(n);
        // Sequential stages and floor-of-one allocations first.
        let mut extents: Vec<u32> = nodes.iter().map(|_| 1u32).collect();
        let mut remaining = budget - n;
        let par_idx: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, v)| v.parallel)
            .map(|(i, _)| i)
            .collect();
        if par_idx.is_empty() || remaining == 0 {
            return extents;
        }
        let total_exec: f64 = par_idx.iter().map(|&i| exec_of(&nodes[i]).max(1e-12)).sum();
        // Largest-remainder apportionment of the extra workers.
        let mut shares: Vec<(usize, f64)> = par_idx
            .iter()
            .map(|&i| {
                (
                    i,
                    f64::from(remaining) * exec_of(&nodes[i]).max(1e-12) / total_exec,
                )
            })
            .collect();
        for &mut (i, ref mut share) in &mut shares {
            let whole = share.floor() as u32;
            let cap_room = nodes[i]
                .max_extent
                .map_or(u32::MAX, |m| m.saturating_sub(extents[i]));
            let grant = whole.min(cap_room).min(remaining);
            extents[i] += grant;
            remaining -= grant;
            *share -= f64::from(grant);
        }
        // Hand out leftovers by largest fractional remainder.
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut k = 0;
        while remaining > 0 && k < shares.len() * 2 {
            let (i, _) = shares[k % shares.len()];
            let cap = nodes[i].max_extent.unwrap_or(u32::MAX);
            if extents[i] < cap {
                extents[i] += 1;
                remaining -= 1;
            }
            k += 1;
        }
        extents
    }
}
