//! Throughput Balance with Fusion (paper §7.2).

use crate::pipeline_util::{self, StageView};
use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Rationale,
    Resources,
};

/// *Throughput Balance with Fusion*: assigns each task a DoP extent
/// inversely proportional to its moving-average throughput (i.e.
/// proportional to its per-item execution time), and — when the imbalance
/// between task throughputs exceeds a threshold — switches to a
/// developer-registered *fused* descriptor alternative, avoiding the
/// inefficiency of a heavily unbalanced pipeline and the overhead of
/// forwarding data between tasks.
///
/// `Tbf::without_fusion()` is the paper's **DoPE-TB** baseline, which
/// demonstrates the benefit of fusion in Figure 15.
///
/// # Example
///
/// ```
/// use dope_mechanisms::Tbf;
///
/// let tbf = Tbf::default();
/// assert_eq!(dope_core::Mechanism::name(&tbf), "TBF");
/// let tb = Tbf::without_fusion();
/// assert_eq!(dope_core::Mechanism::name(&tb), "TB");
/// ```
#[derive(Debug, Clone)]
pub struct Tbf {
    imbalance_threshold: f64,
    fusion: bool,
    last_decision: Option<DecisionTrace>,
}

impl Tbf {
    /// TBF with the paper's imbalance threshold of 0.5.
    #[must_use]
    pub fn new() -> Self {
        Tbf {
            imbalance_threshold: 0.5,
            fusion: true,
            last_decision: None,
        }
    }

    /// The TB variant: balancing only, fusion disabled.
    #[must_use]
    pub fn without_fusion() -> Self {
        Tbf {
            fusion: false,
            ..Tbf::new()
        }
    }

    /// Overrides the imbalance threshold above which fusion triggers.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1]`.
    #[must_use]
    pub fn with_imbalance_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        self.imbalance_threshold = threshold;
        self
    }

    /// Potential throughput of each stage: `extent / mean_exec`.
    fn imbalance(views: &[StageView], extents: &[u32]) -> f64 {
        let potentials: Vec<f64> = views
            .iter()
            .zip(extents)
            .filter(|(v, _)| v.mean_exec > 0.0)
            .map(|(v, &e)| f64::from(e.max(1)) / v.mean_exec)
            .collect();
        if potentials.len() < 2 {
            return 0.0;
        }
        let max = potentials.iter().copied().fold(f64::MIN, f64::max);
        let min = potentials.iter().copied().fold(f64::MAX, f64::min);
        if max <= 0.0 {
            0.0
        } else {
            1.0 - min / max
        }
    }
}

impl Default for Tbf {
    fn default() -> Self {
        Tbf::new()
    }
}

impl Mechanism for Tbf {
    fn name(&self) -> &'static str {
        if self.fusion {
            "TBF"
        } else {
            "TB"
        }
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
        if views.iter().all(|v| v.mean_exec <= 0.0) {
            return None;
        }

        // Balance: extent inversely proportional to per-item throughput,
        // i.e. proportional to execution time.
        let extents =
            pipeline_util::proportional_extents(&views, res.threads, |v| v.mean_exec.max(1e-9));
        let imbalance = Self::imbalance(&views, &extents);

        // Audit trail: TBF always weighs the same two candidates — keep
        // rebalancing, or switch to the fused descriptor. Fusion wins once
        // the residual imbalance of the *best* balance exceeds the
        // threshold.
        let threshold = self.imbalance_threshold;
        let fusion_enabled = self.fusion;
        let balance_candidate = DecisionCandidate::new(
            format!("balance: {}", pipeline_util::extents_label(&extents)),
            1.0 - imbalance,
        )
        .predicting(pipeline_util::bottleneck_rate(&views, &extents));
        let trace = |rationale, chosen: String, predicted: Option<f64>| {
            DecisionTrace::new(rationale, chosen)
                .observing("imbalance", imbalance)
                .observing("imbalance_threshold", threshold)
                .observing("fusion_enabled", if fusion_enabled { 1.0 } else { 0.0 })
                .candidate(balance_candidate.clone())
                .candidate(DecisionCandidate::new("fuse", imbalance))
                .predicting(predicted)
        };

        // Fusion check: if the best achievable balance is still worse than
        // the threshold and a fused descriptor exists, use it.
        let outer = shape.tasks.first()?;
        let fused_alt = outer.alternatives.len().checked_sub(1).filter(|&a| a > 0);
        if self.fusion && alt == 0 {
            if let Some(fused) = fused_alt {
                if imbalance > self.imbalance_threshold {
                    // Build the fused configuration: re-balance over the
                    // fused descriptor's stages (unobserved fused stages
                    // inherit equal shares).
                    let fused_nodes = &outer.alternatives[fused];
                    let template = pipeline_util::config_from_extents(
                        current,
                        fused,
                        shape,
                        &vec![1; fused_nodes.len()],
                    )?;
                    let (_, fused_views) = pipeline_util::stages(snap, &template, shape)?;
                    let fused_extents =
                        pipeline_util::proportional_extents(&fused_views, res.threads, |v| {
                            if v.parallel {
                                1.0
                            } else {
                                1e-9
                            }
                        });
                    let proposal =
                        pipeline_util::config_from_extents(current, fused, shape, &fused_extents)?;
                    let changed = proposal != *current;
                    let chosen = if changed {
                        format!(
                            "fuse alt={fused} {}",
                            pipeline_util::extents_label(&fused_extents)
                        )
                    } else {
                        "hold".to_string()
                    };
                    self.last_decision = Some(trace(
                        Rationale::ImbalanceFusion,
                        chosen,
                        pipeline_util::bottleneck_rate(&fused_views, &fused_extents),
                    ));
                    return changed.then_some(proposal);
                }
            }
        }

        // Already fused: keep balancing inside the fused descriptor.
        let proposal = pipeline_util::config_from_extents(current, alt, shape, &extents)?;
        let changed = proposal != *current;
        let chosen = if changed {
            pipeline_util::extents_label(&extents)
        } else {
            "hold".to_string()
        };
        let rationale = if changed {
            Rationale::ThroughputBalance
        } else {
            Rationale::Hold
        };
        self.last_decision = Some(trace(
            rationale,
            chosen,
            pipeline_util::bottleneck_rate(&views, &extents),
        ));
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

    fn shape_with_fused() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode {
            name: "dedup".into(),
            kind: TaskKind::Par,
            max_extent: Some(1),
            alternatives: vec![
                vec![
                    ShapeNode::leaf("fragment", TaskKind::Seq),
                    ShapeNode::leaf("refine", TaskKind::Par),
                    ShapeNode::leaf("compress", TaskKind::Par),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![
                    ShapeNode::leaf("fragment", TaskKind::Seq),
                    ShapeNode::leaf("fused", TaskKind::Par),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
            ],
        }])
    }

    fn unfused_config(extents: &[u32]) -> Config {
        Config::new(vec![TaskConfig::nest(
            "dedup",
            1,
            0,
            vec![
                TaskConfig::leaf("fragment", extents[0]),
                TaskConfig::leaf("refine", extents[1]),
                TaskConfig::leaf("compress", extents[2]),
                TaskConfig::leaf("write", extents[3]),
            ],
        )])
    }

    fn snapshot(execs: &[f64]) -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.0);
        for (i, &e) in execs.iter().enumerate() {
            snap.tasks.insert(
                TaskPath::root_child(0).child(i as u16),
                TaskStats {
                    invocations: 100,
                    mean_exec_secs: e,
                    throughput: 1.0 / e,
                    load: 1.0,
                    utilization: 0.9,
                    ..TaskStats::default()
                },
            );
        }
        snap
    }

    #[test]
    fn balances_when_imbalance_is_mild() {
        let shape = shape_with_fused();
        let mut tbf = Tbf::new();
        // Parallel stages close in cost and fast sequential endpoints
        // that stay ahead of them: balancing suffices.
        let snap = snapshot(&[0.0004, 0.004, 0.005, 0.0004]);
        let new = tbf
            .reconfigure(
                &snap,
                &unfused_config(&[1, 11, 11, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        let nest = new.tasks[0].nested.as_ref().unwrap();
        assert_eq!(nest.alternative, 0, "stays unfused");
        let refine = new.extent_of(&"0.1".parse().unwrap()).unwrap();
        let compress = new.extent_of(&"0.2".parse().unwrap()).unwrap();
        assert!(compress >= refine);
        new.validate(&shape, 24).unwrap();
    }

    #[test]
    fn fuses_under_heavy_imbalance() {
        let shape = shape_with_fused();
        let mut tbf = Tbf::new();
        // The sequential fragment stage is the bottleneck: potential
        // throughput 1/0.02 = 50/s versus parallel stages in the
        // thousands. Balance cannot fix that; fusion can.
        let snap = snapshot(&[0.020, 0.001, 0.001, 0.0005]);
        let new = tbf
            .reconfigure(
                &snap,
                &unfused_config(&[1, 11, 11, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        let nest = new.tasks[0].nested.as_ref().unwrap();
        assert_eq!(nest.alternative, 1, "switches to the fused descriptor");
        assert_eq!(nest.tasks.len(), 3);
        new.validate(&shape, 24).unwrap();
        // The fused parallel stage receives the spare budget.
        let fused_extent = new.extent_of(&"0.1".parse().unwrap()).unwrap();
        assert_eq!(fused_extent, 22);
    }

    #[test]
    fn tb_never_fuses() {
        let shape = shape_with_fused();
        let mut tb = Tbf::without_fusion();
        let snap = snapshot(&[0.020, 0.001, 0.001, 0.0005]);
        let new = tb
            .reconfigure(
                &snap,
                &unfused_config(&[1, 5, 17, 1]),
                &shape,
                &Resources::threads(24),
            )
            .unwrap();
        assert_eq!(new.tasks[0].nested.as_ref().unwrap().alternative, 0);
    }

    #[test]
    fn imbalance_metric_bounds() {
        let shape = shape_with_fused();
        let snap = snapshot(&[0.01, 0.01, 0.01, 0.01]);
        let (_, views) =
            pipeline_util::stages(&snap, &unfused_config(&[1, 1, 1, 1]), &shape).unwrap();
        let balanced = Tbf::imbalance(&views, &[1, 1, 1, 1]);
        assert!(balanced.abs() < 1e-9);
        let skewed = Tbf::imbalance(&views, &[1, 10, 1, 1]);
        assert!(skewed > 0.8);
    }

    #[test]
    fn silent_without_observations() {
        let shape = shape_with_fused();
        let mut tbf = Tbf::new();
        assert!(tbf
            .reconfigure(
                &MonitorSnapshot::at(0.0),
                &unfused_config(&[1, 1, 1, 1]),
                &shape,
                &Resources::threads(24)
            )
            .is_none());
    }
}
