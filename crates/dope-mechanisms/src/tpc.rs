//! The Throughput Power Controller (paper §7.3).

use crate::pipeline_util;
use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale,
    Resources,
};

/// Controller phase.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Grow the bottleneck's DoP until the power budget is used.
    Ramp,
    /// At the power boundary: explore same-size configurations for the
    /// best throughput.
    Explore { saved: Vec<u32>, baseline: f64 },
}

/// *Throughput Power Controller*: maximizes throughput while keeping
/// system power at or below an administrator-specified target.
///
/// Per the paper: "The controller initializes each task with a DoP extent
/// equal to 1. It then identifies the task with the least throughput and
/// increments the DoP extent of the task if throughput improves and the
/// power budget is not exceeded. If the power budget is exceeded, the
/// controller tries alternative parallelism configurations with the same
/// DoP extent as the configuration prior to power overshoot," consulting
/// recorded history for the best-throughput configuration under budget.
///
/// The controller's feedback is rate-limited by the power meter (the
/// paper's PDU samples 13x/minute), so it holds its state between stale
/// samples.
///
/// # Example
///
/// ```
/// use dope_mechanisms::Tpc;
///
/// let tpc = Tpc::default();
/// assert_eq!(dope_core::Mechanism::name(&tpc), "TPC");
/// ```
#[derive(Debug, Clone)]
pub struct Tpc {
    margin_watts: f64,
    improvement_eps: f64,
    phase: Phase,
    /// Total extent cap learned from power overshoots.
    extent_cap: Option<u32>,
    /// Best (throughput, extents) seen under the power budget.
    best: Option<(f64, Vec<u32>)>,
    last_power: Option<f64>,
    last_decision: Option<DecisionTrace>,
}

impl Tpc {
    /// A TPC with safety margin `margin_watts` under the budget and
    /// improvement threshold `improvement_eps` for exploration moves.
    #[must_use]
    pub fn new(margin_watts: f64, improvement_eps: f64) -> Self {
        assert!(margin_watts >= 0.0, "margin must be non-negative");
        Tpc {
            margin_watts,
            improvement_eps,
            phase: Phase::Ramp,
            extent_cap: None,
            best: None,
            last_power: None,
            last_decision: None,
        }
    }
}

impl Default for Tpc {
    /// 5 W margin, 2% improvement threshold.
    fn default() -> Self {
        Tpc::new(5.0, 0.02)
    }
}

impl Mechanism for Tpc {
    fn name(&self) -> &'static str {
        "TPC"
    }

    fn initial(&mut self, shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(Config::single_threaded(shape))
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        // Every branch below explains itself; a consult with no power
        // budget, reading or measured stage holds, and says so.
        self.last_decision = Some(DecisionTrace::new(Rationale::Hold, "hold"));
        let budget_watts = res.power_budget_watts?;
        let power = snap.power_watts?;
        // A stale meter reading carries no new information: hold state.
        if self.last_power == Some(power) {
            self.last_decision = Some(
                DecisionTrace::new(Rationale::PowerSignalStale, "hold".to_string())
                    .observing("power_watts", power)
                    .observing("budget_watts", budget_watts),
            );
            return None;
        }
        self.last_power = Some(power);

        let (alt, views, throughput) = pipeline_util::observed_stages(snap, current, shape)?;
        let total: u32 = views.iter().map(|v| v.extent).sum();
        let over = power > budget_watts;
        let headroom = power < budget_watts - self.margin_watts;
        // The total extent cap a power overshoot sets: below the current.
        let cap = total.saturating_sub(1).max(views.len() as u32);

        if !over {
            match &self.best {
                Some((t, _)) if *t >= throughput => {}
                _ => self.best = Some((throughput, pipeline_util::extents(&views))),
            }
        }

        // Audit trail: every branch below records power, budget, and the
        // throughput it was weighing.
        let base_trace = move |rationale, chosen: String| {
            DecisionTrace::new(rationale, chosen)
                .observing("power_watts", power)
                .observing("budget_watts", budget_watts)
                .observing("sink_throughput", throughput)
                .observing("total_extent", f64::from(total))
        };
        let predicted = |extents: &[u32]| pipeline_util::bottleneck_rate(&views, extents);

        match std::mem::replace(&mut self.phase, Phase::Ramp) {
            Phase::Ramp => {
                if over {
                    // Power overshoot: cap the total extent and fall back
                    // to the best recorded configuration under budget.
                    self.extent_cap = Some(cap);
                    let fallback = self
                        .best
                        .as_ref()
                        .map(|(_, e)| e.clone())
                        .unwrap_or_else(|| vec![1; views.len()]);
                    let chosen = format!("fallback: {}", pipeline_util::extents_label(&fallback));
                    self.last_decision = Some(
                        base_trace(Rationale::PowerCapBinding, chosen.clone())
                            .observing("extent_cap", f64::from(cap))
                            .candidate(DecisionCandidate::new("stay over budget", 0.0))
                            .candidate(DecisionCandidate::new(chosen, 1.0))
                            .predicting(predicted(&fallback)),
                    );
                    self.phase = Phase::Explore {
                        saved: fallback.clone(),
                        baseline: 0.0,
                    };
                    return pipeline_util::config_from_extents(current, alt, shape, &fallback);
                }
                let at_cap = self.extent_cap.is_some_and(|cap| total >= cap);
                if headroom && !at_cap && total < res.threads {
                    // Grow the slowest task's DoP.
                    if let Some(i) = pipeline_util::slowest(&views, |_, v| v.has_room()) {
                        let mut extents = pipeline_util::extents(&views);
                        extents[i] += 1;
                        let chosen = pipeline_util::extents_label(&extents);
                        self.last_decision = Some(
                            base_trace(Rationale::PowerHeadroomGrow, chosen.clone())
                                .observing(
                                    "headroom_watts",
                                    budget_watts - self.margin_watts - power,
                                )
                                .candidate(DecisionCandidate::new(chosen, 1.0))
                                .candidate(
                                    DecisionCandidate::new("hold", 0.0).predicting(throughput),
                                )
                                .predicting(predicted(&extents)),
                        );
                        return pipeline_util::config_from_extents(current, alt, shape, &extents);
                    }
                }
                // At the boundary: explore same-size moves, one worker
                // from the most over-provisioned stage to the bottleneck.
                let swap = pipeline_util::bottleneck(&views);
                if let Some(extents) = swap.and_then(|b| pipeline_util::shift_to(&views, b)) {
                    let chosen = format!("swap: {}", pipeline_util::extents_label(&extents));
                    self.last_decision = Some(
                        base_trace(Rationale::HillClimbProbe, chosen.clone())
                            .candidate(DecisionCandidate::new(chosen, 1.0))
                            .candidate(DecisionCandidate::new("hold", 0.0).predicting(throughput))
                            .predicting(predicted(&extents)),
                    );
                    self.phase = Phase::Explore {
                        saved: pipeline_util::extents(&views),
                        baseline: throughput,
                    };
                    return pipeline_util::config_from_extents(current, alt, shape, &extents);
                }
                self.last_decision =
                    Some(base_trace(Rationale::Hold, "hold".to_string()).predicting(throughput));
                None
            }
            Phase::Explore { saved, baseline } => {
                if over {
                    self.extent_cap = Some(cap);
                    let chosen = format!("revert: {}", pipeline_util::extents_label(&saved));
                    self.last_decision = Some(
                        base_trace(Rationale::PowerCapBinding, chosen)
                            .observing("extent_cap", f64::from(cap))
                            .predicting(predicted(&saved)),
                    );
                    return pipeline_util::config_from_extents(current, alt, shape, &saved);
                }
                let (keep, trace) = pipeline_util::judge_trial(
                    throughput,
                    baseline,
                    self.improvement_eps,
                    &saved,
                    base_trace,
                );
                self.last_decision = Some(trace);
                if keep {
                    return None;
                }
                pipeline_util::config_from_extents(current, alt, shape, &saved)
            }
        }
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
            name: "ferret".into(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives: vec![vec![
                ShapeNode::leaf("load", TaskKind::Seq),
                ShapeNode::leaf("seg", TaskKind::Par),
                ShapeNode::leaf("rank", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ]],
        }])
    }

    fn config(extents: &[u32]) -> Config {
        Config::new(vec![TaskConfig::nest(
            "ferret",
            1,
            0,
            extents
                .iter()
                .zip(["load", "seg", "rank", "out"])
                .map(|(&e, n)| TaskConfig::leaf(n, e))
                .collect(),
        )])
    }

    fn snap(power: f64, sink: f64, extents_hint: &[u32]) -> MonitorSnapshot {
        let mut s = MonitorSnapshot::at(1.0);
        s.power_watts = Some(power);
        let execs = [0.001, 0.01, 0.02, 0.001];
        for (i, &exec) in execs.iter().enumerate() {
            s.tasks.insert(
                TaskPath::root_child(0).child(i as u16),
                TaskStats {
                    invocations: 50,
                    mean_exec_secs: exec,
                    throughput: if i == 3 { sink } else { 100.0 },
                    load: 0.0,
                    utilization: 0.8,
                    ..TaskStats::default()
                },
            );
        }
        let _ = extents_hint;
        s
    }

    fn res() -> Resources {
        Resources::threads(24).with_power_budget(630.0)
    }

    #[test]
    fn requires_power_goal_and_sample() {
        let shape = shape();
        let mut tpc = Tpc::default();
        let mut no_power_snap = snap(600.0, 50.0, &[1, 1, 1, 1]);
        no_power_snap.power_watts = None;
        assert!(tpc
            .reconfigure(&no_power_snap, &config(&[1, 1, 1, 1]), &shape, &res())
            .is_none());
        let snap2 = snap(600.0, 50.0, &[1, 1, 1, 1]);
        assert!(tpc
            .reconfigure(
                &snap2,
                &config(&[1, 1, 1, 1]),
                &shape,
                &Resources::threads(24)
            )
            .is_none());
    }

    #[test]
    fn ramps_while_under_budget() {
        let shape = shape();
        let mut tpc = Tpc::default();
        let new = tpc
            .reconfigure(
                &snap(550.0, 50.0, &[1, 1, 1, 1]),
                &config(&[1, 1, 1, 1]),
                &shape,
                &res(),
            )
            .unwrap();
        assert!(new.total_threads() > 4);
        // The slowest stage (rank) got the worker.
        assert_eq!(new.extent_of(&"0.2".parse().unwrap()), Some(2));
    }

    #[test]
    fn backs_off_on_overshoot() {
        let shape = shape();
        let mut tpc = Tpc::default();
        // Record a good configuration under budget first.
        let c = config(&[1, 4, 8, 1]);
        let grown = tpc
            .reconfigure(&snap(600.0, 80.0, &[1, 4, 8, 1]), &c, &shape, &res())
            .unwrap();
        // Now power overshoots: fall back and cap.
        let fallback = tpc
            .reconfigure(&snap(660.0, 85.0, &[1, 4, 9, 1]), &grown, &shape, &res())
            .unwrap();
        assert!(fallback.total_threads() <= grown.total_threads());
        assert!(tpc.extent_cap.is_some());
    }

    #[test]
    fn stale_power_sample_holds_state() {
        let shape = shape();
        let mut tpc = Tpc::default();
        let c = config(&[1, 1, 1, 1]);
        let s = snap(550.0, 50.0, &[1, 1, 1, 1]);
        let _ = tpc.reconfigure(&s, &c, &shape, &res());
        // Same power reading again: the meter has not produced a fresh
        // sample, so the controller holds.
        assert!(tpc.reconfigure(&s, &c, &shape, &res()).is_none());
    }

    #[test]
    fn respects_thread_budget_during_ramp() {
        let shape = shape();
        let mut tpc = Tpc::default();
        let c = config(&[1, 11, 11, 1]);
        // Under power budget but out of threads: only swap moves allowed.
        let proposal = tpc.reconfigure(&snap(550.0, 50.0, &[1, 11, 11, 1]), &c, &shape, &res());
        if let Some(p) = proposal {
            assert!(p.total_threads() <= 24);
        }
    }
}
