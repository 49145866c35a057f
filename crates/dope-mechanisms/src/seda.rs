//! The SEDA controller (Welsh et al., SOSP 2001), as a DoPE mechanism.

use crate::pipeline_util;
use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale,
    Resources,
};

/// The *Staged Event-Driven Architecture* controller: each stage resizes
/// its thread pool **locally**, adding a worker when its input queue grows
/// past a watermark and removing one when it idles — "without
/// coordinating resource allocation with other tasks" (paper §8.2.2).
///
/// The lack of global coordination is the point of implementing it: DoPE's
/// own mechanisms (FDP, TBF) redistribute a global budget and beat SEDA in
/// Figure 15.
///
/// # Example
///
/// ```
/// use dope_mechanisms::Seda;
///
/// let seda = Seda::new(4.0, 0.5, 24);
/// assert_eq!(dope_core::Mechanism::name(&seda), "SEDA");
/// ```
#[derive(Debug, Clone)]
pub struct Seda {
    high_watermark: f64,
    low_watermark: f64,
    per_stage_cap: u32,
    last_decision: Option<DecisionTrace>,
}

impl Seda {
    /// A SEDA controller that grows a stage when its queue exceeds
    /// `high_watermark` items and shrinks it below `low_watermark`, up to
    /// `per_stage_cap` workers per stage.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are inverted or the cap is zero.
    #[must_use]
    pub fn new(high_watermark: f64, low_watermark: f64, per_stage_cap: u32) -> Self {
        assert!(
            high_watermark >= low_watermark,
            "high watermark below low watermark"
        );
        assert!(per_stage_cap >= 1, "per-stage cap must be at least 1");
        Seda {
            high_watermark,
            low_watermark,
            per_stage_cap,
            last_decision: None,
        }
    }
}

impl Default for Seda {
    /// Grow above 4 queued items, shrink below 0.5, cap at 24 per stage.
    fn default() -> Self {
        Seda::new(4.0, 0.5, 24)
    }
}

impl Mechanism for Seda {
    fn name(&self) -> &'static str {
        "SEDA"
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        // A consult before every stage is measured holds, and says so.
        self.last_decision = Some(DecisionTrace::new(Rationale::Hold, "hold"));
        let (alt, views) = pipeline_util::stages(snap, current, shape)?;
        if views.iter().all(|v| v.mean_exec <= 0.0) {
            return None;
        }
        let mut extents = pipeline_util::extents(&views);
        let mut changed = false;
        let mut grew = false;
        let mut shrank = false;
        let mut candidates = Vec::new();
        for (i, view) in views.iter().enumerate() {
            if !view.parallel {
                continue;
            }
            let cap = view
                .max_extent
                .unwrap_or(self.per_stage_cap)
                .min(self.per_stage_cap);
            // Local decision: look only at this stage's own queue.
            if view.load > self.high_watermark && extents[i] < cap {
                extents[i] += 1;
                changed = true;
                grew = true;
                candidates.push(DecisionCandidate::new(
                    format!("{}: grow {} -> {}", view.name, view.extent, extents[i]),
                    view.load - self.high_watermark,
                ));
            } else if view.load < self.low_watermark && extents[i] > 1 && view.utilization < 0.5 {
                extents[i] -= 1;
                changed = true;
                shrank = true;
                candidates.push(DecisionCandidate::new(
                    format!("{}: shrink {} -> {}", view.name, view.extent, extents[i]),
                    self.low_watermark - view.load,
                ));
            } else {
                candidates.push(DecisionCandidate::new(format!("{}: hold", view.name), 0.0));
            }
        }

        // Audit trail: the dominant clause is growth (backlog) when any
        // stage grew; otherwise shrink (idleness); otherwise hold.
        let rationale = match (grew, shrank) {
            (true, _) => Rationale::QueueAboveHighWater,
            (false, true) => Rationale::QueueBelowLowWater,
            (false, false) => Rationale::Hold,
        };
        let chosen = if changed {
            pipeline_util::extents_label(&extents)
        } else {
            "hold".to_string()
        };
        let mut trace = DecisionTrace::new(rationale, chosen)
            .observing("high_watermark", self.high_watermark)
            .observing("low_watermark", self.low_watermark);
        for view in &views {
            trace = trace.observing(format!("{}_load", view.name), view.load);
        }
        for candidate in candidates {
            trace = trace.candidate(candidate);
        }
        self.last_decision =
            Some(trace.predicting(pipeline_util::bottleneck_rate(&views, &extents)));

        if !changed {
            return None;
        }
        pipeline_util::config_from_extents(current, alt, shape, &extents)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.last_decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ShapeNode, TaskConfig, TaskKind, TaskPath, TaskStats};

    fn shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "pipe".into(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives: vec![vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("a", TaskKind::Par),
                ShapeNode::leaf("b", TaskKind::Par),
            ]],
        }])
    }

    fn config(extents: &[u32]) -> Config {
        Config::new(vec![TaskConfig::nest(
            "pipe",
            1,
            0,
            vec![
                TaskConfig::leaf("in", extents[0]),
                TaskConfig::leaf("a", extents[1]),
                TaskConfig::leaf("b", extents[2]),
            ],
        )])
    }

    fn snap(loads: &[f64], utils: &[f64]) -> MonitorSnapshot {
        let mut s = MonitorSnapshot::at(1.0);
        for i in 0..loads.len() {
            s.tasks.insert(
                TaskPath::root_child(0).child(i as u16),
                TaskStats {
                    invocations: 10,
                    mean_exec_secs: 0.01,
                    throughput: 100.0,
                    load: loads[i],
                    utilization: utils[i],
                    ..TaskStats::default()
                },
            );
        }
        s
    }

    #[test]
    fn grows_backlogged_stage() {
        let mut seda = Seda::default();
        let new = seda
            .reconfigure(
                &snap(&[0.0, 10.0, 0.0], &[1.0, 1.0, 0.9]),
                &config(&[1, 2, 2]),
                &shape(),
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.extent_of(&"0.1".parse().unwrap()), Some(3));
        assert_eq!(new.extent_of(&"0.2".parse().unwrap()), Some(2));
    }

    #[test]
    fn shrinks_idle_stage() {
        let mut seda = Seda::default();
        let new = seda
            .reconfigure(
                &snap(&[0.0, 0.0, 10.0], &[1.0, 0.1, 1.0]),
                &config(&[1, 4, 2]),
                &shape(),
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.extent_of(&"0.1".parse().unwrap()), Some(3));
        assert_eq!(new.extent_of(&"0.2".parse().unwrap()), Some(3));
    }

    #[test]
    fn never_touches_sequential_stages() {
        let mut seda = Seda::default();
        let new = seda
            .reconfigure(
                &snap(&[50.0, 10.0, 10.0], &[1.0, 1.0, 1.0]),
                &config(&[1, 2, 2]),
                &shape(),
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.extent_of(&"0.0".parse().unwrap()), Some(1));
    }

    #[test]
    fn quiescent_when_watermarks_satisfied() {
        let mut seda = Seda::default();
        assert!(seda
            .reconfigure(
                &snap(&[0.0, 2.0, 2.0], &[1.0, 0.9, 0.9]),
                &config(&[1, 2, 2]),
                &shape(),
                &Resources::threads(24),
            )
            .is_none());
    }

    #[test]
    fn uncoordinated_growth_can_exceed_a_global_budget() {
        // This documents SEDA's defining flaw: both stages grow at once
        // regardless of any global constraint.
        let mut seda = Seda::default();
        let new = seda
            .reconfigure(
                &snap(&[0.0, 10.0, 10.0], &[1.0, 1.0, 1.0]),
                &config(&[1, 12, 11]),
                &shape(),
                &Resources::threads(24),
            )
            .unwrap();
        assert!(new.total_threads() > 24);
    }
}
