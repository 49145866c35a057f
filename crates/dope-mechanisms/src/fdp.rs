//! Feedback-Directed Pipelining (Suleman et al., PACT 2010), as a DoPE
//! mechanism.

use crate::pipeline_util::{self, StageView};
use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale,
    Resources,
};

/// Phase of the hill climber.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Measure a baseline with the current assignment.
    Measure,
    /// A move was just applied; let the pipeline refill for one control
    /// period before judging it.
    Settle { saved: Vec<u32>, baseline: f64 },
    /// A move was applied and settled; compare against the baseline.
    Trial { saved: Vec<u32>, baseline: f64 },
    /// Converged; probe again after a cooldown.
    Converged { ticks_left: u32 },
}

/// *Feedback-Directed Pipelining*: a hill-climbing mechanism that uses
/// task execution times and measured pipeline throughput to search for a
/// better thread assignment — add a worker to the bottleneck stage (or
/// steal one from the most over-provisioned stage), keep the move if
/// throughput improved, revert otherwise.
///
/// Unlike TBF, FDP has "a global view of resource allocation" but no
/// explicit fusion; the paper implements it as one of DoPE's throughput
/// mechanisms (§7.2, \[29\]).
///
/// # Example
///
/// ```
/// use dope_mechanisms::Fdp;
///
/// let fdp = Fdp::default();
/// assert_eq!(dope_core::Mechanism::name(&fdp), "FDP");
/// ```
#[derive(Debug, Clone)]
pub struct Fdp {
    improvement_eps: f64,
    cooldown_ticks: u32,
    failed_moves: u32,
    max_failed_moves: u32,
    phase: Phase,
    last_decision: Option<DecisionTrace>,
}

impl Fdp {
    /// An FDP climber that accepts moves improving throughput by at least
    /// `improvement_eps` (fractional) and, after `max_failed_moves`
    /// consecutive rejected moves, sleeps for `cooldown_ticks` control
    /// periods before probing again.
    #[must_use]
    pub fn new(improvement_eps: f64, max_failed_moves: u32, cooldown_ticks: u32) -> Self {
        assert!(improvement_eps >= 0.0, "epsilon must be non-negative");
        Fdp {
            improvement_eps,
            cooldown_ticks,
            failed_moves: 0,
            max_failed_moves: max_failed_moves.max(1),
            phase: Phase::Measure,
            last_decision: None,
        }
    }

    /// One more worker for the bottleneck: from the budget while it
    /// lasts, else from the most over-provisioned stage.
    fn propose_move(views: &[StageView], budget: u32) -> Option<Vec<u32>> {
        let bottleneck = pipeline_util::bottleneck(views)?;
        let mut extents = pipeline_util::extents(views);
        if extents.iter().sum::<u32>() < budget {
            extents[bottleneck] += 1;
            return Some(extents);
        }
        pipeline_util::shift_to(views, bottleneck)
    }
}

impl Default for Fdp {
    /// Accept 2% improvements, sleep for 10 ticks after 3 failed moves.
    fn default() -> Self {
        Fdp::new(0.02, 3, 10)
    }
}

impl Mechanism for Fdp {
    fn name(&self) -> &'static str {
        "FDP"
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        // Start from the static even split and climb from there.
        Some(Config::even(shape, res.threads))
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
        let (alt, views, throughput) = pipeline_util::observed_stages(snap, current, shape)?;

        // Audit trail: every arm of the state machine records what it saw
        // and why it moved (or held); the executive scores the prediction
        // one epoch later. `failed_moves` is the count going *into* this
        // decision.
        let failed_moves = self.failed_moves;
        let improvement_eps = self.improvement_eps;
        let base_trace = move |rationale, chosen: String| {
            DecisionTrace::new(rationale, chosen)
                .observing("sink_throughput", throughput)
                .observing("failed_moves", f64::from(failed_moves))
                .observing("improvement_eps", improvement_eps)
        };

        match std::mem::replace(&mut self.phase, Phase::Measure) {
            Phase::Measure => {
                let Some(extents) = Self::propose_move(&views, res.threads) else {
                    self.last_decision = Some(
                        base_trace(Rationale::Converged, "hold".to_string())
                            .candidate(DecisionCandidate::new("probe", 0.0))
                            .candidate(DecisionCandidate::new("hold", 1.0)),
                    );
                    self.phase = Phase::Converged {
                        ticks_left: self.cooldown_ticks,
                    };
                    return None;
                };
                let saved = pipeline_util::extents(&views);
                let chosen = pipeline_util::extents_label(&extents);
                let rate = pipeline_util::bottleneck_rate(&views, &extents);
                self.last_decision = Some(
                    base_trace(Rationale::HillClimbProbe, chosen.clone())
                        .candidate(DecisionCandidate::new(chosen, 1.0).predicting(rate))
                        .candidate(
                            DecisionCandidate::new(pipeline_util::extents_label(&saved), 0.0)
                                .predicting(throughput),
                        )
                        .predicting(rate),
                );
                self.phase = Phase::Settle {
                    saved,
                    baseline: throughput,
                };
                pipeline_util::config_from_extents(current, alt, shape, &extents)
            }
            Phase::Settle { saved, baseline } => {
                // The window that just ended straddles the reconfiguration;
                // judge the move on the next full window.
                self.last_decision = Some(
                    base_trace(Rationale::SettleWait, "hold".to_string())
                        .observing("baseline_throughput", baseline),
                );
                self.phase = Phase::Trial { saved, baseline };
                None
            }
            Phase::Trial { saved, baseline } => {
                let (keep, trace) = pipeline_util::judge_trial(
                    throughput,
                    baseline,
                    self.improvement_eps,
                    &saved,
                    base_trace,
                );
                self.last_decision = Some(trace);
                if keep {
                    // Keep the move; continue climbing from here.
                    self.failed_moves = 0;
                    return None;
                }
                self.failed_moves += 1;
                if self.failed_moves >= self.max_failed_moves {
                    self.failed_moves = 0;
                    self.phase = Phase::Converged {
                        ticks_left: self.cooldown_ticks,
                    };
                }
                pipeline_util::config_from_extents(current, alt, shape, &saved)
            }
            Phase::Converged { ticks_left } => {
                self.last_decision = Some(
                    base_trace(Rationale::Converged, "hold".to_string())
                        .observing("cooldown_ticks_left", f64::from(ticks_left)),
                );
                if ticks_left > 0 {
                    self.phase = Phase::Converged {
                        ticks_left: ticks_left - 1,
                    };
                }
                None
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
            name: "pipe".into(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives: vec![vec![
                ShapeNode::leaf("in", TaskKind::Seq),
                ShapeNode::leaf("a", TaskKind::Par),
                ShapeNode::leaf("b", TaskKind::Par),
                ShapeNode::leaf("out", TaskKind::Seq),
            ]],
        }])
    }

    fn config(extents: &[u32]) -> Config {
        Config::new(vec![TaskConfig::nest(
            "pipe",
            1,
            0,
            extents
                .iter()
                .zip(["in", "a", "b", "out"])
                .map(|(&e, n)| TaskConfig::leaf(n, e))
                .collect(),
        )])
    }

    fn snap(execs: &[f64], sink_throughput: f64) -> MonitorSnapshot {
        let mut s = MonitorSnapshot::at(1.0);
        let n = execs.len();
        for (i, &e) in execs.iter().enumerate() {
            s.tasks.insert(
                TaskPath::root_child(0).child(i as u16),
                TaskStats {
                    invocations: 50,
                    mean_exec_secs: e,
                    throughput: if i == n - 1 { sink_throughput } else { 100.0 },
                    load: 0.0,
                    utilization: 0.8,
                    ..TaskStats::default()
                },
            );
        }
        s
    }

    #[test]
    fn starts_from_even_split() {
        let mut fdp = Fdp::default();
        let init = fdp.initial(&shape(), &Resources::threads(24)).unwrap();
        assert_eq!(init.total_threads(), 24);
        init.validate(&shape(), 24).unwrap();
    }

    #[test]
    fn first_move_grows_bottleneck() {
        let shape = shape();
        let mut fdp = Fdp::default();
        // Stage b is slower: bottleneck.
        let new = fdp
            .reconfigure(
                &snap(&[0.001, 0.01, 0.03, 0.001], 50.0),
                &config(&[1, 2, 2, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.extent_of(&"0.2".parse().unwrap()), Some(3));
    }

    #[test]
    fn keeps_improving_move_and_reverts_bad_one() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut fdp = Fdp::new(0.02, 3, 10);
        let c0 = config(&[1, 2, 2, 1]);
        // Move proposed.
        let c1 = fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 50.0), &c0, &shape, &res)
            .unwrap();
        // Settling tick: no proposal.
        assert!(fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 55.0), &c1, &shape, &res)
            .is_none());
        // Throughput improved: keep (no proposal).
        assert!(fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 60.0), &c1, &shape, &res)
            .is_none());
        // Next move proposed, then its settling tick.
        let c2 = fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 60.0), &c1, &shape, &res)
            .unwrap();
        assert!(fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 41.0), &c2, &shape, &res)
            .is_none());
        // Throughput dropped: revert to c1's extents.
        let reverted = fdp
            .reconfigure(&snap(&[0.001, 0.01, 0.03, 0.001], 40.0), &c2, &shape, &res)
            .unwrap();
        assert_eq!(reverted, c1);
    }

    #[test]
    fn steals_from_overprovisioned_stage_at_budget() {
        let shape = shape();
        let mut fdp = Fdp::default();
        // Budget fully used: 1 + 11 + 11 + 1 = 24. Stage b slower.
        let new = fdp
            .reconfigure(
                &snap(&[0.001, 0.005, 0.03, 0.001], 50.0),
                &config(&[1, 11, 11, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.extent_of(&"0.1".parse().unwrap()), Some(10));
        assert_eq!(new.extent_of(&"0.2".parse().unwrap()), Some(12));
        assert_eq!(new.total_threads(), 24);
    }

    #[test]
    fn converges_after_repeated_failures() {
        let shape = shape();
        let res = Resources::threads(24);
        let mut fdp = Fdp::new(0.02, 2, 5);
        let mut current = config(&[1, 2, 2, 1]);
        let flat = |c: f64| snap(&[0.001, 0.01, 0.01, 0.001], c);
        let mut proposals = 0;
        for _ in 0..30 {
            if let Some(c) = fdp.reconfigure(&flat(50.0), &current, &shape, &res) {
                current = c;
                proposals += 1;
            }
        }
        // The climber must not thrash forever on a flat landscape: far
        // fewer proposals than calls.
        assert!(proposals < 15, "proposals = {proposals}");
    }
}
