//! Shared helpers for pipeline-shaped programs (a single nest whose chosen
//! alternative is a list of stages). Useful to mechanism developers
//! writing new pipeline mechanisms: the stage views, the bottleneck law,
//! the bottleneck/donor ordering and the keep/revert judgement of a trial
//! move are written here once, so a mechanism file holds its policy.

use dope_core::{
    Config, DecisionCandidate, DecisionTrace, Label, MonitorSnapshot, ProgramShape, Rationale,
    ShapeNode, TaskConfig, TaskPath,
};
use std::cmp::Ordering;

/// Per-stage view of a pipeline configuration.
#[derive(Debug, Clone)]
pub struct StageView {
    /// Stage name.
    pub name: Label,
    /// `true` for parallel stages.
    pub parallel: bool,
    /// Extent cap, if declared.
    pub max_extent: Option<u32>,
    /// Current extent.
    pub extent: u32,
    /// Moving-average per-item execution time (0 if unobserved).
    pub mean_exec: f64,
    /// Observed throughput (items/s).
    pub throughput: f64,
    /// Input-queue occupancy.
    pub load: f64,
    /// Busy fraction of the stage's workers.
    pub utilization: f64,
}

impl StageView {
    /// `true` while the stage is below its declared extent cap.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.max_extent.is_none_or(|m| self.extent < m)
    }
}

/// Extracts the stage views of the nest at root index 0.
///
/// Returns `None` when the program is not pipeline-shaped.
pub fn stages(
    snap: &MonitorSnapshot,
    config: &Config,
    shape: &ProgramShape,
) -> Option<(usize, Vec<StageView>)> {
    let outer = config.tasks.first()?;
    let nest = outer.nested.as_ref()?;
    let outer_shape = shape.tasks.first()?;
    let alt_nodes: &[ShapeNode] = outer_shape.alternatives.get(nest.alternative)?;
    let mut views = Vec::with_capacity(nest.tasks.len());
    for (s, (task, node)) in nest.tasks.iter().zip(alt_nodes).enumerate() {
        let path = TaskPath::root_child(0).child(s as u16);
        let stats = snap.task(&path).copied().unwrap_or_default();
        views.push(StageView {
            name: task.name.clone(),
            parallel: node.kind == dope_core::TaskKind::Par,
            max_extent: node.max_extent,
            extent: task.extent,
            mean_exec: stats.mean_exec_secs,
            throughput: stats.throughput,
            load: stats.load,
            utilization: stats.utilization,
        });
    }
    Some((nest.alternative, views))
}

/// [`stages`] once every parallel stage has a measured execution time,
/// with the sink's (last stage's) throughput: what a feedback mechanism
/// needs before it can judge anything. `None` until then.
pub fn observed_stages(
    snap: &MonitorSnapshot,
    config: &Config,
    shape: &ProgramShape,
) -> Option<(usize, Vec<StageView>, f64)> {
    let (alt, views) = stages(snap, config, shape)?;
    if views.iter().any(|v| v.parallel && v.mean_exec <= 0.0) {
        return None;
    }
    let sink_throughput = views.last().map_or(0.0, |v| v.throughput);
    Some((alt, views, sink_throughput))
}

/// The current per-stage extents.
#[must_use]
pub fn extents(views: &[StageView]) -> Vec<u32> {
    views.iter().map(|v| v.extent).collect()
}

/// Service rates (`extent / mean_exec`) of the observed parallel stages
/// that `keep` admits, by index.
fn rates<'a>(
    views: &'a [StageView],
    keep: impl Fn(usize, &StageView) -> bool + 'a,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    views
        .iter()
        .enumerate()
        .filter(move |&(i, v)| v.parallel && v.mean_exec > 0.0 && keep(i, v))
        .map(|(i, v)| (i, f64::from(v.extent) / v.mean_exec))
}

fn by_rate(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal)
}

/// The bottleneck: among the observed parallel stages `keep` admits, the
/// one with the lowest service rate (`extent / mean_exec`); the first on
/// a tie.
pub fn slowest(views: &[StageView], keep: impl Fn(usize, &StageView) -> bool) -> Option<usize> {
    rates(views, keep).min_by(by_rate).map(|(i, _)| i)
}

/// The most over-provisioned of the observed parallel stages `keep`
/// admits: the highest service rate; the last on a tie.
pub fn fastest(views: &[StageView], keep: impl Fn(usize, &StageView) -> bool) -> Option<usize> {
    rates(views, keep).max_by(by_rate).map(|(i, _)| i)
}

/// The bottleneck ([`slowest`] of all), while it is below its cap.
pub fn bottleneck(views: &[StageView]) -> Option<usize> {
    slowest(views, |_, _| true).filter(|&b| views[b].has_room())
}

/// The current extents with one worker moved to stage `to` from the
/// fastest other stage that has one to spare (the total is unchanged).
#[must_use]
pub fn shift_to(views: &[StageView], to: usize) -> Option<Vec<u32>> {
    let donor = fastest(views, |i, v| i != to && v.extent > 1)?;
    let mut extents = extents(views);
    extents[donor] -= 1;
    extents[to] += 1;
    Some(extents)
}

/// Judges a trial move one settled window after it was applied: keep it
/// when the sink `throughput` beats the `baseline` it left by more than
/// the fraction `eps`, else revert to the `saved` extents. Returns the
/// verdict (`true`: keep) and the decision, built on
/// `base(rationale, chosen)` with both candidates and the prediction of
/// the side chosen.
pub fn judge_trial(
    throughput: f64,
    baseline: f64,
    eps: f64,
    saved: &[u32],
    base: impl FnOnce(Rationale, String) -> DecisionTrace,
) -> (bool, DecisionTrace) {
    let bar = baseline * (1.0 + eps);
    let revert = format!("revert: {}", extents_label(saved));
    let keep = throughput > bar;
    let trace = if keep {
        base(Rationale::KeepBetterMove, "keep".to_string())
    } else {
        base(Rationale::RevertWorseMove, revert.clone())
    };
    let trace = trace
        .observing("baseline_throughput", baseline)
        .candidate(DecisionCandidate::new("keep", throughput).predicting(throughput))
        .candidate(DecisionCandidate::new(revert, bar).predicting(baseline))
        .predicting(if keep { throughput } else { baseline });
    (keep, trace)
}

/// Builds a pipeline configuration from per-stage extents.
pub fn config_from_extents(
    config: &Config,
    alternative: usize,
    shape: &ProgramShape,
    extents: &[u32],
) -> Option<Config> {
    let outer = config.tasks.first()?;
    let outer_shape = shape.tasks.first()?;
    let nodes = outer_shape.alternatives.get(alternative)?;
    if nodes.len() != extents.len() {
        return None;
    }
    let children = nodes
        .iter()
        .zip(extents)
        .map(|(n, &e)| TaskConfig::leaf(n.name.clone(), e.max(1)))
        .collect();
    Some(Config::new(vec![TaskConfig::nest(
        outer.name.clone(),
        outer.extent,
        alternative,
        children,
    )]))
}

/// The bottleneck law's steady-state throughput prediction for
/// per-stage `extents`: the minimum stage service rate
/// `extent / mean_exec` over stages with a measured execution time.
///
/// Returns `None` when no stage has been observed yet — there is no
/// model to predict from. Mechanisms use this to fill
/// [`DecisionTrace::predicted_throughput`](dope_core::DecisionTrace),
/// which the executive scores against the realized bottleneck one
/// epoch later.
#[must_use]
pub fn bottleneck_rate(nodes: &[StageView], extents: &[u32]) -> Option<f64> {
    nodes
        .iter()
        .zip(extents)
        .filter(|(v, _)| v.mean_exec > 0.0)
        .map(|(v, &e)| f64::from(e.max(1)) / v.mean_exec)
        .min_by(f64::total_cmp)
}

/// Renders per-stage extents as a compact action label
/// (`"extents=1/3/2/1"`), for [`DecisionTrace`]
/// candidate and chosen-action fields.
#[must_use]
pub fn extents_label(extents: &[u32]) -> String {
    let parts: Vec<String> = extents.iter().map(u32::to_string).collect();
    format!("extents={}", parts.join("/"))
}

/// Distributes `budget` workers over stages proportionally to their
/// execution times (sequential stages pinned to one worker), always
/// giving every stage at least one worker and respecting caps.
pub fn proportional_extents(
    nodes: &[StageView],
    budget: u32,
    exec_of: impl Fn(&StageView) -> f64,
) -> Vec<u32> {
    let n = nodes.len() as u32;
    let budget = budget.max(n);
    // Sequential stages and floor-of-one allocations first.
    let mut extents: Vec<u32> = nodes.iter().map(|_| 1u32).collect();
    let mut remaining = budget - n;
    let par_idx: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, v)| v.parallel)
        .map(|(i, _)| i)
        .collect();
    if par_idx.is_empty() || remaining == 0 {
        return extents;
    }
    let total_exec: f64 = par_idx.iter().map(|&i| exec_of(&nodes[i]).max(1e-12)).sum();
    // Largest-remainder apportionment of the extra workers.
    let mut shares: Vec<(usize, f64)> = par_idx
        .iter()
        .map(|&i| {
            (
                i,
                f64::from(remaining) * exec_of(&nodes[i]).max(1e-12) / total_exec,
            )
        })
        .collect();
    for &mut (i, ref mut share) in &mut shares {
        let whole = share.floor() as u32;
        let cap_room = nodes[i]
            .max_extent
            .map_or(u32::MAX, |m| m.saturating_sub(extents[i]));
        let grant = whole.min(cap_room).min(remaining);
        extents[i] += grant;
        remaining -= grant;
        *share -= f64::from(grant);
    }
    // Hand out leftovers by largest fractional remainder.
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut k = 0;
    while remaining > 0 && k < shares.len() * 2 {
        let (i, _) = shares[k % shares.len()];
        let cap = nodes[i].max_extent.unwrap_or(u32::MAX);
        if extents[i] < cap {
            extents[i] += 1;
            remaining -= 1;
        }
        k += 1;
    }
    extents
}
