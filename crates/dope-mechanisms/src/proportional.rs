//! The throughput-maximizing mechanism of paper Figure 10.

use crate::pipeline_util;
use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale,
    Resources,
};

/// Assigns each task a DoP extent proportional to its execution time —
/// the paper's example mechanism (Figure 10): "tasks that take longer to
/// execute should be assigned more resources".
///
/// Step 1 computes the total execution time over the tasks of the
/// descriptor; step 2 assigns each task `nthreads x exec / total`,
/// pinning sequential tasks to one worker and respecting extent caps.
///
/// # Example
///
/// ```
/// use dope_mechanisms::Proportional;
///
/// let mech = Proportional::new();
/// assert_eq!(dope_core::Mechanism::name(&mech), "Proportional");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Proportional {
    last_decision: Option<DecisionTrace>,
}

impl Proportional {
    /// A proportional mechanism.
    #[must_use]
    pub fn new() -> Self {
        Proportional::default()
    }
}

impl Mechanism for Proportional {
    fn name(&self) -> &'static str {
        "Proportional"
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        // A consult before every stage is measured holds, and says so.
        self.last_decision = Some(DecisionTrace::new(Rationale::Hold, "hold"));
        let (alt, views) = pipeline_util::stages(snap, current, shape)?;
        // Nothing observed yet: keep the current configuration.
        if views.iter().all(|v| v.mean_exec <= 0.0) {
            return None;
        }
        let extents =
            pipeline_util::proportional_extents(&views, res.threads, |v| v.mean_exec.max(1e-9));
        let proposal = pipeline_util::config_from_extents(current, alt, shape, &extents)?;
        let changed = proposal != *current;

        // Audit trail: one candidate per stage, scored by its share of
        // the total service time (the quantity the split follows).
        let total_exec: f64 = views.iter().map(|v| v.mean_exec.max(0.0)).sum();
        let chosen = if changed {
            pipeline_util::extents_label(&extents)
        } else {
            "hold".to_string()
        };
        let mut trace = DecisionTrace::new(Rationale::ThroughputBalance, chosen)
            .observing("total_mean_exec_secs", total_exec);
        for (view, &extent) in views.iter().zip(&extents) {
            trace = trace
                .observing(format!("{}_mean_exec_secs", view.name), view.mean_exec)
                .candidate(DecisionCandidate::new(
                    format!("{}: extent={extent}", view.name),
                    if total_exec > 0.0 {
                        view.mean_exec.max(0.0) / total_exec
                    } else {
                        0.0
                    },
                ));
        }
        self.last_decision =
            Some(trace.predicting(pipeline_util::bottleneck_rate(&views, &extents)));

        changed.then_some(proposal)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.last_decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ShapeNode, TaskConfig, TaskKind, TaskPath, TaskStats};

    fn pipeline_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "pipe".into(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives: vec![vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("fast", TaskKind::Par),
                ShapeNode::leaf("slow", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
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
                TaskConfig::leaf("fast", extents[1]),
                TaskConfig::leaf("slow", extents[2]),
                TaskConfig::leaf("out", extents[3]),
            ],
        )])
    }

    fn snapshot(execs: &[f64]) -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.0);
        for (i, &e) in execs.iter().enumerate() {
            snap.tasks.insert(
                TaskPath::root_child(0).child(i as u16),
                TaskStats {
                    invocations: 10,
                    mean_exec_secs: e,
                    throughput: 1.0 / e,
                    load: 0.0,
                    utilization: 0.5,
                    ..TaskStats::default()
                },
            );
        }
        snap
    }

    #[test]
    fn assigns_more_workers_to_longer_tasks() {
        let shape = pipeline_shape();
        let mut mech = Proportional::new();
        let current = config(&[1, 11, 11, 1]);
        let snap = snapshot(&[0.001, 0.01, 0.03, 0.001]);
        let new = mech
            .reconfigure(&snap, &current, &shape, &Resources::threads(24))
            .unwrap();
        let fast = new.extent_of(&"0.1".parse().unwrap()).unwrap();
        let slow = new.extent_of(&"0.2".parse().unwrap()).unwrap();
        assert!(slow > fast, "slow {slow} fast {fast}");
        // Sequential stages stay at one worker.
        assert_eq!(new.extent_of(&"0.0".parse().unwrap()), Some(1));
        assert_eq!(new.extent_of(&"0.3".parse().unwrap()), Some(1));
        new.validate(&shape, 24).unwrap();
    }

    #[test]
    fn stays_within_budget() {
        let shape = pipeline_shape();
        let mut mech = Proportional::new();
        let current = config(&[1, 2, 2, 1]);
        let snap = snapshot(&[0.5, 1.0, 9.0, 0.5]);
        for threads in [6u32, 10, 24, 48] {
            let new = mech
                .reconfigure(&snap, &current, &shape, &Resources::threads(threads))
                .unwrap();
            assert!(
                new.total_threads() <= threads,
                "threads {} budget {threads}",
                new.total_threads()
            );
        }
    }

    #[test]
    fn silent_without_observations() {
        let shape = pipeline_shape();
        let mut mech = Proportional::new();
        let current = config(&[1, 2, 2, 1]);
        let snap = MonitorSnapshot::at(0.0);
        assert!(mech
            .reconfigure(&snap, &current, &shape, &Resources::threads(24))
            .is_none());
    }

    #[test]
    fn no_proposal_when_already_proportional() {
        let shape = pipeline_shape();
        let mut mech = Proportional::new();
        let snap = snapshot(&[0.001, 0.01, 0.01, 0.001]);
        let current = mech
            .reconfigure(
                &snap,
                &config(&[1, 1, 1, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        assert!(
            mech.reconfigure(&snap, &current, &shape, &Resources::threads(24))
                .is_none(),
            "idempotent on its own output"
        );
    }
}
