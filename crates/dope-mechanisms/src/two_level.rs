//! The audit scaffold every two-level mechanism shares.
//!
//! A two-level mechanism (WQT-H, WQ-Linear, WQ-Linear-H, the oracle)
//! picks one number per consult: the transaction *width*, the inner DoP
//! extent of a [`TwoLevelNest`]. Everything around that choice is the
//! same for all of them and is written here once: finding and caching the
//! nest, reading the current width, predicting throughput at a width by
//! scaling the realized throughput linearly, labelling the decision
//! `hold` or `width=N`, keeping the trace for
//! [`Mechanism::explain`](dope_core::Mechanism::explain), and returning a
//! configuration only when the width changes. The mechanism keeps its
//! policy: which width, under which rationale, with which signals and
//! candidates.

use dope_core::nest::{self, TwoLevelNest};
use dope_core::{
    realized_throughput, Config, DecisionCandidate, DecisionTrace, Label, MonitorSnapshot,
    ProgramShape, Rationale, Resources,
};

/// The nest and the last decision of a two-level mechanism.
#[derive(Debug, Clone, Default)]
pub struct TwoLevel {
    nest: Option<TwoLevelNest>,
    last_decision: Option<DecisionTrace>,
}

/// What one consult reads before the policy runs.
#[derive(Debug, Clone, Copy)]
pub struct Consult {
    /// Work-queue occupancy.
    pub occupancy: f64,
    /// The transaction width of the current configuration.
    pub width: u32,
    realized: Option<f64>,
}

impl Consult {
    /// The throughput predicted at `width`: the realized throughput
    /// scaled linearly from the current width (`None` before anything
    /// ran).
    fn predict(&self, width: u32) -> Option<f64> {
        self.realized
            .map(|t| t * f64::from(width) / f64::from(self.width))
    }

    /// A candidate `action` scored `score`, predicted at `width`.
    #[must_use]
    pub fn candidate(&self, action: impl Into<Label>, score: f64, width: u32) -> DecisionCandidate {
        DecisionCandidate::new(action, score).predicting(self.predict(width))
    }

    /// The trace of a decision for `width` (`hold` when it is the current
    /// width, else `width=N`), opened with the queue occupancy.
    #[must_use]
    pub fn trace(&self, rationale: Rationale, width: u32) -> DecisionTrace {
        let chosen: Label = if width == self.width {
            "hold".into()
        } else {
            format!("width={width}").into()
        };
        DecisionTrace::new(rationale, chosen).observing("queue_occupancy", self.occupancy)
    }
}

impl TwoLevel {
    /// Finds the nest and returns its configuration at `width`; `None`
    /// when the program has no two-level nest.
    pub fn initial(&mut self, shape: &ProgramShape, res: &Resources, width: u32) -> Option<Config> {
        self.nest = nest::find_two_level(shape);
        let nest = self.nest.as_ref()?;
        Some(nest::config_for_width(shape, nest, res.threads, width))
    }

    /// Opens a consult: the occupancy, the current width and the realized
    /// throughput. `None` when the program has no two-level nest.
    pub fn consult(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
    ) -> Option<Consult> {
        if self.nest.is_none() {
            self.nest = nest::find_two_level(shape);
        }
        let width = nest::width_of(current, self.nest.as_ref()?);
        Some(Consult {
            occupancy: snap.queue.occupancy,
            width,
            realized: realized_throughput(snap),
        })
    }

    /// Closes a consult that chose `width`: keeps `trace` with the
    /// prediction at `width` for [`TwoLevel::explain`], and returns the
    /// configuration only when the width changes.
    pub fn decide(
        &mut self,
        consult: &Consult,
        trace: DecisionTrace,
        width: u32,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        self.last_decision = Some(trace.predicting(consult.predict(width)));
        let nest = self.nest.as_ref()?;
        (width != consult.width).then(|| nest::config_for_width(shape, nest, res.threads, width))
    }

    /// The last decision's trace.
    #[must_use]
    pub fn explain(&self) -> Option<DecisionTrace> {
        self.last_decision.clone()
    }
}
