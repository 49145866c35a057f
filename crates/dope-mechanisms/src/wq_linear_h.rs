//! WQ-Linear with hysteresis — the variant the paper sketches in §7.1:
//! "A variant of WQ-Linear could be a mechanism that incorporates the
//! hysteresis component of WQT-H into WQ-Linear."

use crate::two_level::TwoLevel;
use crate::wq_linear::WqLinear;
use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
};

/// WQ-Linear whose width changes are gated by hysteresis: Equation 2's
/// target must persist for `persistence` consecutive observations before
/// the configuration actually moves, suppressing reconfiguration churn on
/// noisy queues while keeping the continuous DoP range.
///
/// # Example
///
/// ```
/// use dope_mechanisms::WqLinearH;
///
/// let mech = WqLinearH::new(1, 8, 16.0, 3);
/// assert_eq!(dope_core::Mechanism::name(&mech), "WQ-Linear-H");
/// ```
#[derive(Debug, Clone)]
pub struct WqLinearH {
    inner: WqLinear,
    persistence: u64,
    pending: Option<(u32, u64)>,
    two: TwoLevel,
}

impl WqLinearH {
    /// A hysteretic WQ-Linear over `[m_min, m_max]` with slope
    /// `(m_max - m_min) / q_max`, requiring a target width to persist for
    /// `persistence` observations.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid parameters as [`WqLinear::new`].
    #[must_use]
    pub fn new(m_min: u32, m_max: u32, q_max: f64, persistence: u64) -> Self {
        WqLinearH {
            inner: WqLinear::new(m_min, m_max, q_max),
            persistence: persistence.max(1),
            pending: None,
            two: TwoLevel::default(),
        }
    }

    /// The width Equation 2 targets at `occupancy` (before hysteresis).
    #[must_use]
    pub fn width_for_occupancy(&self, occupancy: f64) -> u32 {
        self.inner.width_for_occupancy(occupancy)
    }
}

impl Default for WqLinearH {
    /// WQ-Linear defaults with a persistence of 3 observations.
    fn default() -> Self {
        WqLinearH::new(1, 8, 16.0, 3)
    }
}

impl Mechanism for WqLinearH {
    fn name(&self) -> &'static str {
        "WQ-Linear-H"
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.two
            .initial(shape, res, self.inner.width_for_occupancy(0.0))
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let c = self.two.consult(snap, current, shape)?;
        let target = self.inner.width_for_occupancy(c.occupancy);
        let streak = match self.pending {
            _ if target == c.width => 0,
            Some((w, streak)) if w == target => streak + 1,
            _ => 1,
        };
        let (rationale, width) = if streak == 0 {
            (Rationale::Hold, c.width)
        } else if streak < self.persistence {
            (Rationale::HysteresisPending, c.width)
        } else {
            (Rationale::OccupancyLinear, target)
        };
        self.pending = (rationale == Rationale::HysteresisPending).then_some((target, streak));
        // Two candidates every consult: move to Equation 2's target now
        // (scored by how far the persistence streak has run) vs hold at
        // the current width until the target proves stable.
        let streak_ratio = streak as f64 / self.persistence as f64;
        let trace = c
            .trace(rationale, width)
            .observing("current_width", f64::from(c.width))
            .observing("target_width", f64::from(target))
            .observing("persistence_streak", streak as f64)
            .candidate(c.candidate(format!("width={target}"), streak_ratio, target))
            .candidate(c.candidate("hold", 1.0 - streak_ratio, c.width));
        self.two.decide(&c, trace, width, shape, res)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.two.explain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{nest, ShapeNode, TaskKind};

    fn shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "txn".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![ShapeNode::leaf("work", TaskKind::Par)],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
            ],
        }])
    }

    fn snap(occ: f64) -> MonitorSnapshot {
        let mut s = MonitorSnapshot::at(1.0);
        s.queue.occupancy = occ;
        s
    }

    #[test]
    fn requires_persistent_target_before_moving() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut mech = WqLinearH::new(1, 8, 16.0, 3);
        let current = mech.initial(&shape, &res).unwrap();
        // Occupancy 16 targets width 1; needs 3 consecutive observations.
        assert!(mech
            .reconfigure(&snap(16.0), &current, &shape, &res)
            .is_none());
        assert!(mech
            .reconfigure(&snap(16.0), &current, &shape, &res)
            .is_none());
        let moved = mech
            .reconfigure(&snap(16.0), &current, &shape, &res)
            .expect("third observation fires");
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest::width_of(&moved, &nest), 1);
    }

    #[test]
    fn flapping_occupancy_never_fires() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut mech = WqLinearH::new(1, 8, 16.0, 2);
        let current = mech.initial(&shape, &res).unwrap();
        for i in 0..20 {
            let occ = if i % 2 == 0 { 16.0 } else { 8.0 };
            assert!(
                mech.reconfigure(&snap(occ), &current, &shape, &res)
                    .is_none(),
                "flapped at step {i}"
            );
        }
    }

    #[test]
    fn persistence_one_matches_plain_wq_linear() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut hyst = WqLinearH::new(1, 8, 16.0, 1);
        let mut plain = WqLinear::new(1, 8, 16.0);
        let current = hyst.initial(&shape, &res).unwrap();
        let _ = plain.initial(&shape, &res);
        let a = hyst.reconfigure(&snap(10.0), &current, &shape, &res);
        let b = plain.reconfigure(&snap(10.0), &current, &shape, &res);
        assert_eq!(a, b);
    }

    #[test]
    fn stable_target_resets_pending() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut mech = WqLinearH::new(1, 8, 16.0, 2);
        let current = mech.initial(&shape, &res).unwrap();
        // One observation toward width 1, then back at the current width:
        // the pending streak must reset.
        assert!(mech
            .reconfigure(&snap(16.0), &current, &shape, &res)
            .is_none());
        assert!(mech
            .reconfigure(&snap(0.0), &current, &shape, &res)
            .is_none());
        assert!(mech
            .reconfigure(&snap(16.0), &current, &shape, &res)
            .is_none());
    }
}
