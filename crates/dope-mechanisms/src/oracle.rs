//! The oracle of Figure 2(c): continuously picks the ideal DoP for the
//! observed load.

use crate::two_level::TwoLevel;
use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
};

/// An oracle that maps work-queue occupancy directly to the best
/// transaction width, using a table computed offline (e.g. by sweeping
/// static configurations per load factor).
///
/// The paper uses such an oracle to show that "a mere turn inner
/// parallelism on/off approach is suboptimal; an oracle that can predict
/// load and change DoP continuously achieves significantly better response
/// time" (Figure 2c).
///
/// # Example
///
/// ```
/// use dope_mechanisms::Oracle;
///
/// // Empty queue: width 8; up to 4 outstanding: width 4; beyond: serial.
/// let oracle = Oracle::from_table(vec![(0.5, 8), (4.0, 4)], 1);
/// assert_eq!(oracle.width_for_occupancy(0.0), 8);
/// assert_eq!(oracle.width_for_occupancy(2.0), 4);
/// assert_eq!(oracle.width_for_occupancy(100.0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `(occupancy_upper_bound, width)` entries, ascending by bound.
    table: Vec<(f64, u32)>,
    fallback: u32,
    two: TwoLevel,
}

impl Oracle {
    /// An oracle from `(occupancy_upper_bound, width)` entries; occupancy
    /// beyond every bound uses `fallback`.
    ///
    /// # Panics
    ///
    /// Panics if bounds are not strictly ascending or a width is zero.
    #[must_use]
    pub fn from_table(table: Vec<(f64, u32)>, fallback: u32) -> Self {
        assert!(fallback >= 1, "fallback width must be at least 1");
        for pair in table.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "occupancy bounds must be strictly ascending"
            );
        }
        assert!(
            table.iter().all(|&(_, w)| w >= 1),
            "widths must be at least 1"
        );
        Oracle {
            table,
            fallback,
            two: TwoLevel::default(),
        }
    }

    /// The width the oracle picks at `occupancy`.
    #[must_use]
    pub fn width_for_occupancy(&self, occupancy: f64) -> u32 {
        for &(bound, width) in &self.table {
            if occupancy <= bound {
                return width;
            }
        }
        self.fallback
    }
}

impl Mechanism for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.two.initial(shape, res, self.width_for_occupancy(0.0))
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
        // Audit trail: one candidate per table row (plus the fallback),
        // scored 1.0 for the matching row and 0.0 otherwise.
        let mut trace = c
            .trace(Rationale::OracleLookup, width)
            .observing("current_width", f64::from(c.width))
            .observing("target_width", f64::from(width));
        let rows = self
            .table
            .iter()
            .map(|&(bound, w)| (format!("occ<={bound}: width={w}"), w));
        let fallback = (format!("fallback: width={}", self.fallback), self.fallback);
        for (action, w) in rows.chain([fallback]) {
            let score = if w == width { 1.0 } else { 0.0 };
            trace = trace.candidate(c.candidate(action, score, w));
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

    #[test]
    fn table_lookup_uses_first_matching_bound() {
        let oracle = Oracle::from_table(vec![(1.0, 8), (5.0, 4), (10.0, 2)], 1);
        assert_eq!(oracle.width_for_occupancy(0.5), 8);
        assert_eq!(oracle.width_for_occupancy(1.0), 8);
        assert_eq!(oracle.width_for_occupancy(3.0), 4);
        assert_eq!(oracle.width_for_occupancy(7.0), 2);
        assert_eq!(oracle.width_for_occupancy(11.0), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_table_panics() {
        let _ = Oracle::from_table(vec![(5.0, 4), (1.0, 8)], 1);
    }

    #[test]
    fn reconfigures_with_occupancy() {
        let shape = ProgramShape::new(vec![ShapeNode {
            name: "t".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![vec![ShapeNode::leaf("c", TaskKind::Par)]],
        }]);
        let res = Resources::threads(24);
        let mut oracle = Oracle::from_table(vec![(2.0, 8)], 1);
        let current = oracle.initial(&shape, &res).unwrap();
        let mut snap = MonitorSnapshot::at(0.0);
        snap.queue.occupancy = 10.0;
        let new = oracle.reconfigure(&snap, &current, &shape, &res).unwrap();
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest::width_of(&new, &nest), 1);
    }
}
