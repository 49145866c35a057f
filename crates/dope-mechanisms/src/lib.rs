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
//!
//! # Writing a mechanism
//!
//! A mechanism developer writes the policy; the decision audit around it
//! is written once, in [`two_level`] (find the nest, read the width,
//! predict, label, keep the trace) and [`pipeline_util`] (stage views,
//! the bottleneck law, bottleneck and donor, the keep/revert trial).
//! WQ-Linear's Equation 2 (`Mmin = 1`, `Mmax = 8`, `Qmax = 16`) on the
//! two-level helper decides what [`WqLinear`] decides:
//!
//! ```
//! use dope_core::{Config, DecisionTrace, Mechanism, MonitorSnapshot as Snap, ProgramShape as Shape};
//! use dope_core::{Rationale, Resources as Res, ShapeNode, TaskKind};
//! use dope_mechanisms::{two_level::TwoLevel, WqLinear};
//!
//! #[derive(Debug, Default)]
//! struct Eq2(TwoLevel);
//!
//! impl Mechanism for Eq2 {
//!     fn name(&self) -> &'static str { "Eq2" }
//!     fn initial(&mut self, shape: &Shape, res: &Res) -> Option<Config> { self.0.initial(shape, res, 8) }
//!     fn reconfigure(&mut self, snap: &Snap, current: &Config, shape: &Shape, res: &Res) -> Option<Config> {
//!         let c = self.0.consult(snap, current, shape)?;
//!         let width = (8.0 - 7.0 / 16.0 * c.occupancy.max(0.0)).round().clamp(1.0, 8.0) as u32;
//!         self.0.decide(&c, c.trace(Rationale::OccupancyLinear, width), width, shape, res)
//!     }
//!     fn explain(&self) -> Option<DecisionTrace> { self.0.explain() }
//! }
//!
//! let work = vec![ShapeNode::leaf("work", TaskKind::Par)];
//! let shape = Shape::new(vec![ShapeNode { alternatives: vec![work], ..ShapeNode::leaf("txn", TaskKind::Par) }]);
//! let (res, mut eq2, mut paper) = (Res::threads(24), Eq2::default(), WqLinear::default());
//! let current = eq2.initial(&shape, &res).unwrap();
//! assert_eq!(paper.initial(&shape, &res).as_ref(), Some(&current));
//! for occupancy in [0.0, 3.0, 8.0, 16.0, 40.0] {
//!     let mut snap = Snap::at(1.0);
//!     snap.queue.occupancy = occupancy;
//!     let proposal = eq2.reconfigure(&snap, &current, &shape, &res);
//!     assert_eq!(proposal, paper.reconfigure(&snap, &current, &shape, &res));
//!     assert_eq!(eq2.explain().unwrap().chosen, paper.explain().unwrap().chosen);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fdp;
pub mod oracle;
pub mod pipeline_util;
pub mod proportional;
pub mod seda;
pub mod shed_aware;
pub mod tbf;
pub mod tpc;
pub mod two_level;
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
