//! A shed-aware wrapper: break the shrink-under-shedding feedback loop.

use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
};

/// Wraps any inner mechanism and vetoes shrink proposals while the
/// admission gate is actively shedding.
///
/// An admission gate under the `Shed` policy bounds queue occupancy at
/// the high watermark, so an occupancy-driven mechanism looking at
/// `snapshot().queue` sees a short queue *precisely when the front door
/// is dropping traffic* — and concludes there is idle capacity to give
/// back. Shrinking then sheds even more. This wrapper reads the
/// admission counters the monitor surfaces in every snapshot: when the
/// gate shed offers since the previous consult, any inner proposal that
/// would lower the total thread count is vetoed and the hold is
/// explained with [`Rationale::AdmissionShedding`]. Growth and
/// rebalancing proposals pass through untouched — more capacity (or
/// better-placed capacity) is exactly what relieves the gate.
///
/// With no admission gate installed (all-zero
/// [`AdmissionStats`](dope_core::AdmissionStats)) the wrapper is fully
/// transparent.
///
/// # Example
///
/// ```
/// use dope_mechanisms::{ShedAware, Tbf};
///
/// let mech = ShedAware::new(Tbf::default());
/// assert_eq!(dope_core::Mechanism::name(&mech), "TBF");
/// ```
#[derive(Debug, Clone)]
pub struct ShedAware<M> {
    inner: M,
    last_shed: u64,
    veto: Option<DecisionTrace>,
}

impl<M: Mechanism> ShedAware<M> {
    /// Wraps `inner`; the wrapper keeps the inner mechanism's name so
    /// traces stay attributable to the decision logic that ran.
    #[must_use]
    pub fn new(inner: M) -> Self {
        ShedAware {
            inner,
            last_shed: 0,
            veto: None,
        }
    }
}

impl<M: Mechanism> Mechanism for ShedAware<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let shed_now = snap.admission.shed();
        let shed_delta = shed_now.saturating_sub(self.last_shed);
        self.last_shed = shed_now;
        self.veto = None;
        let proposal = self.inner.reconfigure(snap, current, shape, res)?;
        if shed_delta > 0 && proposal.total_threads() < current.total_threads() {
            self.veto = Some(
                DecisionTrace::new(Rationale::AdmissionShedding, "hold")
                    .observing("shed_delta", shed_delta as f64)
                    .observing("shed_fraction", snap.admission.shed_fraction())
                    .observing("vetoed_threads", f64::from(proposal.total_threads()))
                    .observing("current_threads", f64::from(current.total_threads())),
            );
            return None;
        }
        Some(proposal)
    }

    fn applied(&mut self, config: &Config) {
        self.inner.applied(config);
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.inner.initial(shape, res)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        // A veto supersedes the inner explanation: the inner mechanism
        // would narrate the shrink it proposed, but the shrink did not
        // happen — the audit must say why.
        self.veto.clone().or_else(|| self.inner.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{AdmissionStats, ShapeNode, StaticMechanism, TaskConfig, TaskKind};

    fn shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::leaf("work", TaskKind::Par)])
    }

    fn config(extent: u32) -> Config {
        Config::new(vec![TaskConfig::leaf("work", extent)])
    }

    fn snap_with_shed(shed_high_water: u64) -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.0);
        snap.admission = AdmissionStats {
            offered: 100 + shed_high_water,
            admitted: 100,
            shed_high_water,
            shed_deadline: 0,
            mean_queue_delay_secs: 0.01,
        };
        snap
    }

    #[test]
    fn shrink_is_vetoed_while_shedding() {
        // The inner mechanism insists on extent 2; at extent 4 that is a
        // shrink, which must be vetoed while the gate drops offers.
        let mut mech = ShedAware::new(StaticMechanism::new(config(2)));
        let proposal = mech.reconfigure(
            &snap_with_shed(10),
            &config(4),
            &shape(),
            &Resources::threads(8),
        );
        assert_eq!(proposal, None);
        let trace = mech.explain().expect("veto must be explained");
        assert_eq!(trace.rationale, Rationale::AdmissionShedding);
    }

    #[test]
    fn growth_passes_through_while_shedding() {
        let mut mech = ShedAware::new(StaticMechanism::new(config(6)));
        let proposal = mech.reconfigure(
            &snap_with_shed(10),
            &config(4),
            &shape(),
            &Resources::threads(8),
        );
        assert_eq!(proposal, Some(config(6)));
    }

    #[test]
    fn shrink_passes_once_shedding_stops() {
        let mut mech = ShedAware::new(StaticMechanism::new(config(2)));
        // First consult observes cumulative shed=10 (delta 10): veto.
        assert_eq!(
            mech.reconfigure(
                &snap_with_shed(10),
                &config(4),
                &shape(),
                &Resources::threads(8)
            ),
            None
        );
        // Second consult sees the same cumulative total (delta 0): the
        // gate went quiet, so the shrink is allowed through.
        assert_eq!(
            mech.reconfigure(
                &snap_with_shed(10),
                &config(4),
                &shape(),
                &Resources::threads(8)
            ),
            Some(config(2))
        );
        assert!(mech.explain().is_some());
    }

    #[test]
    fn transparent_without_an_admission_gate() {
        let mut mech = ShedAware::new(StaticMechanism::new(config(2)));
        let snap = MonitorSnapshot::at(1.0);
        assert_eq!(
            mech.reconfigure(&snap, &config(4), &shape(), &Resources::threads(8)),
            Some(config(2))
        );
        assert_eq!(mech.name(), "Static");
    }
}
