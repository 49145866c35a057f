//! Work Queue Threshold with Hysteresis (paper §7.1).

use crate::two_level::TwoLevel;
use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale, Resources,
};

/// The two states of the WQT-H machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Throughput mode: sequential transactions (`DoP extent 1`).
    Seq,
    /// Latency mode: transactions at `Mmax` (`DoP extent Mmax`).
    Par,
}

/// *Work Queue Threshold with Hysteresis*: a two-state machine that
/// toggles between a latency-mode configuration (inner DoP extent `Mmax`)
/// and a throughput-mode configuration (sequential transactions) based on
/// work-queue occupancy, with hysteresis to avoid toggling on noise.
///
/// From the paper: "Initially, WQT-H is in the SEQ state... When the
/// occupancy of the work queue remains under a threshold T for more than
/// N_off consecutive tasks, WQT-H transitions to the PAR state... WQT-H
/// stays in the PAR state until the work queue \[occupancy\] increases above
/// T and stays like that for more than N_on tasks."
///
/// # Example
///
/// ```
/// use dope_mechanisms::WqtH;
///
/// let mech = WqtH::new(6.0, 8, 4, 4);
/// assert_eq!(dope_core::Mechanism::name(&mech), "WQT-H");
/// ```
#[derive(Debug, Clone)]
pub struct WqtH {
    threshold: f64,
    m_max: u32,
    n_on: u64,
    n_off: u64,
    mode: Mode,
    streak: u64,
    last_dispatches: u64,
    two: TwoLevel,
}

impl WqtH {
    /// A WQT-H machine with queue threshold `threshold`, latency-mode
    /// width `m_max`, and hysteresis lengths `n_on` (PAR→SEQ) and `n_off`
    /// (SEQ→PAR), both in observed tasks; `N_off >> N_on` (the paper's
    /// example) switches to PAR only under the lightest of loads.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or `m_max` is zero.
    #[must_use]
    pub fn new(threshold: f64, m_max: u32, n_on: u64, n_off: u64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        assert!(m_max >= 1, "Mmax must be at least 1");
        WqtH {
            threshold,
            m_max,
            n_on,
            n_off,
            mode: Mode::Seq,
            streak: 0,
            last_dispatches: 0,
            two: TwoLevel::default(),
        }
    }

    fn target_width(&self) -> u32 {
        match self.mode {
            Mode::Seq => 1,
            Mode::Par => self.m_max,
        }
    }
}

impl Default for WqtH {
    /// Threshold 6 outstanding requests, `Mmax = 8`, symmetric hysteresis
    /// of 4 tasks.
    fn default() -> Self {
        WqtH::new(6.0, 8, 4, 4)
    }
}

impl Mechanism for WqtH {
    fn name(&self) -> &'static str {
        "WQT-H"
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.two.initial(shape, res, 1)
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let c = self.two.consult(snap, current, shape)?;
        // Count observed tasks (dispatches) since our last observation.
        let observed = snap
            .dispatches_since_reconfig
            .saturating_sub(self.last_dispatches)
            .max(1);
        self.last_dispatches = snap.dispatches_since_reconfig;

        let occ = c.occupancy;
        let mode_before = self.mode;
        match self.mode {
            Mode::Seq if occ < self.threshold => {
                self.streak += observed;
                if self.streak > self.n_off {
                    self.mode = Mode::Par;
                    self.streak = 0;
                }
            }
            Mode::Par if occ > self.threshold => {
                self.streak += observed;
                if self.streak > self.n_on {
                    self.mode = Mode::Seq;
                    self.streak = 0;
                }
            }
            _ => self.streak = 0,
        }
        let width = self.target_width();

        // Audit trail: the machine only ever weighs its two states.
        let flipped = self.mode != mode_before;
        let rationale = match (flipped, self.streak) {
            (true, _) => Rationale::ThresholdCrossed,
            (false, s) if s > 0 => Rationale::HysteresisPending,
            _ => Rationale::Hold,
        };
        let mut trace = c
            .trace(rationale, width)
            .observing("threshold", self.threshold)
            .observing("streak", self.streak as f64)
            .observing("current_width", f64::from(c.width));
        for w in [1, self.m_max] {
            let on_side = (w == 1) == (occ > self.threshold);
            let score = if on_side { 1.0 } else { 0.0 };
            trace = trace.candidate(c.candidate(format!("width={w}"), score, w));
        }
        self.two.decide(&c, trace, width, shape, res)
    }

    fn applied(&mut self, _config: &Config) {
        self.last_dispatches = 0;
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
            name: "transcode".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
            ],
        }])
    }

    fn snap_with_occupancy(occ: f64, dispatches: u64) -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.0);
        snap.queue.occupancy = occ;
        snap.dispatches_since_reconfig = dispatches;
        snap
    }

    fn drive(mech: &mut WqtH, shape: &ProgramShape, occ: f64, steps: u64) -> Option<Config> {
        let res = Resources::threads(24);
        let mut current = mech.initial(shape, &res).unwrap();
        let mut last = None;
        for i in 1..=steps {
            let snap = snap_with_occupancy(occ, i);
            if let Some(c) = mech.reconfigure(&snap, &current, shape, &res) {
                current = c.clone();
                mech.applied(&current);
                last = Some(current.clone());
            }
        }
        last
    }

    #[test]
    fn starts_sequential() {
        let shape = shape();
        let mut mech = WqtH::default();
        let config = mech.initial(&shape, &Resources::threads(24)).unwrap();
        let nest = nest::find_two_level(&shape).unwrap();
        assert_eq!(nest::width_of(&config, &nest), 1);
        assert_eq!(config.total_threads(), 24);
    }

    #[test]
    fn switches_to_par_under_light_load_after_hysteresis() {
        let shape = shape();
        let mut mech = WqtH::new(6.0, 8, 4, 4);
        let nest = nest::find_two_level(&shape).unwrap();
        // Below threshold: after more than n_off observations, go PAR.
        let config = drive(&mut mech, &shape, 1.0, 6).expect("reconfigures");
        assert_eq!(nest::width_of(&config, &nest), 8);
    }

    #[test]
    fn stays_sequential_under_heavy_load() {
        let shape = shape();
        let mut mech = WqtH::new(6.0, 8, 4, 4);
        assert!(drive(&mut mech, &shape, 50.0, 20).is_none());
    }

    #[test]
    fn returns_to_seq_when_queue_grows() {
        let shape = shape();
        let nest = nest::find_two_level(&shape).unwrap();
        let mut mech = WqtH::new(6.0, 8, 4, 4);
        let par = drive(&mut mech, &shape, 0.0, 6).unwrap();
        assert_eq!(nest::width_of(&par, &nest), 8);
        let seq = drive(&mut mech, &shape, 30.0, 6).unwrap();
        assert_eq!(nest::width_of(&seq, &nest), 1);
    }

    #[test]
    fn hysteresis_resists_flapping() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut mech = WqtH::new(6.0, 8, 4, 4);
        let current = mech.initial(&shape, &res).unwrap();
        // Alternate above/below threshold: the streak resets each time, so
        // no transition ever fires.
        for i in 1..=20u64 {
            let occ = if i % 2 == 0 { 1.0 } else { 50.0 };
            let snap = snap_with_occupancy(occ, i);
            assert!(
                mech.reconfigure(&snap, &current, &shape, &res).is_none(),
                "flapped at step {i}"
            );
        }
    }

    #[test]
    fn asymmetric_hysteresis_biases_transitions() {
        let shape = shape();
        // N_off >> N_on: very reluctant to enter PAR.
        let mut mech = WqtH::new(6.0, 8, 2, 1000);
        assert!(drive(&mut mech, &shape, 0.0, 100).is_none());
        let mut eager = WqtH::new(6.0, 8, 2, 2);
        assert!(drive(&mut eager, &shape, 0.0, 100).is_some());
    }

    #[test]
    fn proposed_configs_validate() {
        let shape = shape();
        let mut mech = WqtH::new(6.0, 8, 1, 1);
        let config = drive(&mut mech, &shape, 0.0, 5).unwrap();
        config.validate(&shape, 24).unwrap();
    }
}
