//! Work Queue Linear (paper §7.1, Equation 2).

use crate::two_level::TwoLevel;
use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
};

/// *Work Queue Linear*: varies the inner DoP extent continuously with
/// work-queue occupancy instead of toggling between two values,
///
/// ```text
/// DoP_extent = max(Mmin, Mmax - k x WQo),   k = (Mmax - Mmin) / Qmax
/// ```
///
/// where `WQo` is the instantaneous work-queue occupancy and `Qmax` is
/// derived from the maximum response-time degradation acceptable to the
/// end user (paper Equation 3). This yields the paper's best response-time
/// characteristic across the whole load range (Figure 11).
///
/// # Example
///
/// ```
/// use dope_mechanisms::WqLinear;
///
/// let mech = WqLinear::new(1, 8, 16.0);
/// assert_eq!(mech.width_for_occupancy(0.0), 8);  // empty queue: latency mode
/// assert_eq!(mech.width_for_occupancy(16.0), 1); // saturated: throughput mode
/// assert_eq!(mech.width_for_occupancy(8.0), 5);  // graceful degradation
/// ```
#[derive(Debug, Clone)]
pub struct WqLinear {
    m_min: u32,
    m_max: u32,
    q_max: f64,
    two: TwoLevel,
}

impl WqLinear {
    /// A WQ-Linear mechanism varying the width in `[m_min, m_max]` with
    /// slope `(m_max - m_min) / q_max`.
    ///
    /// # Panics
    ///
    /// Panics if `m_min` is zero, `m_max < m_min`, or `q_max` is not
    /// positive.
    #[must_use]
    pub fn new(m_min: u32, m_max: u32, q_max: f64) -> Self {
        assert!(m_min >= 1, "Mmin must be at least 1");
        assert!(m_max >= m_min, "Mmax must be at least Mmin");
        assert!(q_max > 0.0, "Qmax must be positive");
        WqLinear {
            m_min,
            m_max,
            q_max,
            two: TwoLevel::default(),
        }
    }

    /// The rate of DoP-extent reduction `k` (Equation 3).
    #[must_use]
    pub fn k(&self) -> f64 {
        f64::from(self.m_max - self.m_min) / self.q_max
    }

    /// Equation 2 before rounding and clamping.
    fn raw_width(&self, occupancy: f64) -> f64 {
        f64::from(self.m_max) - self.k() * occupancy.max(0.0)
    }

    /// The width Equation 2 assigns at queue occupancy `occupancy`.
    #[must_use]
    pub fn width_for_occupancy(&self, occupancy: f64) -> u32 {
        let rounded = self.raw_width(occupancy).round();
        (rounded.max(f64::from(self.m_min)) as u32).clamp(self.m_min, self.m_max)
    }
}

impl Default for WqLinear {
    /// `Mmin = 1`, `Mmax = 8`, `Qmax = 16` outstanding requests.
    fn default() -> Self {
        WqLinear::new(1, 8, 16.0)
    }
}

impl Mechanism for WqLinear {
    fn name(&self) -> &'static str {
        "WQ-Linear"
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.two.initial(shape, res, self.m_max)
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let c = self.two.consult(snap, current, shape)?;
        let width = self.width_for_occupancy(c.occupancy);
        // Audit trail: every width on the Eq.-2 segment is a candidate,
        // scored by its (negative) distance to the unclamped target.
        let raw_target = self.raw_width(c.occupancy);
        let mut trace = c
            .trace(Rationale::OccupancyLinear, width)
            .observing("current_width", f64::from(c.width))
            .observing("target_width", f64::from(width));
        for w in self.m_min..=self.m_max {
            let score = -(raw_target - f64::from(w)).abs();
            trace = trace.candidate(c.candidate(format!("width={w}"), score, w));
        }
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
            name: "price".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![ShapeNode::leaf("trials", TaskKind::Par)]],
        }])
    }

    #[test]
    fn width_is_monotone_nonincreasing_in_occupancy() {
        let mech = WqLinear::new(1, 8, 16.0);
        let mut last = u32::MAX;
        for occ in 0..40 {
            let w = mech.width_for_occupancy(f64::from(occ));
            assert!(w <= last, "width increased at occupancy {occ}");
            last = w;
        }
    }

    #[test]
    fn width_saturates_at_bounds() {
        let mech = WqLinear::new(2, 10, 8.0);
        assert_eq!(mech.width_for_occupancy(0.0), 10);
        assert_eq!(mech.width_for_occupancy(1000.0), 2);
        assert_eq!(mech.width_for_occupancy(-5.0), 10);
    }

    #[test]
    fn slope_matches_equation_three() {
        let mech = WqLinear::new(1, 9, 4.0);
        assert!((mech.k() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reconfigures_only_on_width_change() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut mech = WqLinear::new(1, 8, 16.0);
        let current = mech.initial(&shape, &res).unwrap();
        let mut snap = MonitorSnapshot::at(0.0);
        snap.queue.occupancy = 0.0;
        // Occupancy 0 keeps Mmax: no change.
        assert!(mech.reconfigure(&snap, &current, &shape, &res).is_none());
        snap.queue.occupancy = 16.0;
        let new = mech.reconfigure(&snap, &current, &shape, &res).unwrap();
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest::width_of(&new, &nest), 1);
        new.validate(&shape, 24).unwrap();
    }

    #[test]
    fn initial_config_uses_m_max() {
        let shape = shape();
        let mut mech = WqLinear::new(1, 6, 10.0);
        let config = mech.initial(&shape, &Resources::threads(24)).unwrap();
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest::width_of(&config, &nest), 6);
        assert_eq!(nest::outer_extent_of(&config, &nest), 4);
    }

    #[test]
    #[should_panic(expected = "Qmax must be positive")]
    fn zero_qmax_panics() {
        let _ = WqLinear::new(1, 8, 0.0);
    }
}
