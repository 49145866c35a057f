//! The synthetic monitoring data mechanisms are tested on.
//!
//! [`snapshot_grid`] is a deterministic sequence of [`MonitorSnapshot`]s
//! covering the regimes mechanisms branch on. The umbrella crate's
//! `tests/mechanisms.rs` drives every shipped mechanism over it through
//! the control core (`dope_core::ControlCore`), and checks that the
//! analyzer finds no error in anything the core evaluated; the frozen
//! benchmark times mechanism consults on it.

use dope_core::{MonitorSnapshot, ProgramShape, TaskPath, TaskStats};

/// Builds a deterministic grid of synthetic snapshots exercising the
/// regimes mechanisms branch on: idle and saturated queues, balanced and
/// skewed stage execution times, light and heavy load, power present and
/// absent, and a growing dispatch counter.
///
/// One [`TaskStats`] entry is synthesized per leaf path of `shape`
/// (following first alternatives), which matches what the runtime
/// monitor publishes.
#[must_use]
pub fn snapshot_grid(shape: &ProgramShape, steps: usize) -> Vec<MonitorSnapshot> {
    const EXECS: [f64; 4] = [1e-4, 1e-3, 1e-2, 0.1];
    const LOADS: [f64; 4] = [0.0, 0.5, 4.0, 32.0];
    const OCCUPANCIES: [f64; 5] = [0.0, 0.5, 2.0, 9.0, 64.0];
    const POWERS: [Option<f64>; 3] = [None, Some(450.0), Some(700.0)];

    let leaves: Vec<TaskPath> = shape.leaf_paths();
    (0..steps)
        .map(|i| {
            let mut snap = MonitorSnapshot::at(0.25 * (i + 1) as f64);
            for (k, path) in leaves.iter().enumerate() {
                // Skew stage cost with the leaf index so slowest-task
                // driven mechanisms see a moving bottleneck.
                let exec = EXECS[(i + k) % EXECS.len()];
                let load = LOADS[(i + 2 * k) % LOADS.len()];
                snap.tasks.insert(
                    path.clone(),
                    TaskStats {
                        invocations: 50 + 10 * i as u64,
                        mean_exec_secs: exec,
                        throughput: if exec > 0.0 { 1.0 / exec } else { 0.0 },
                        load,
                        utilization: 0.25 + 0.5 * ((i % 3) as f64) / 2.0,
                        ..TaskStats::default()
                    },
                );
            }
            snap.queue.occupancy = OCCUPANCIES[i % OCCUPANCIES.len()];
            snap.queue.arrival_rate = LOADS[i % LOADS.len()];
            snap.queue.enqueued = 100 + i as u64;
            snap.queue.completed = 90 + i as u64;
            snap.power_watts = POWERS[i % POWERS.len()];
            snap.dispatches_since_reconfig = i as u64 + 1;
            snap
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ShapeNode, TaskKind};

    fn shape() -> ProgramShape {
        ProgramShape::new(vec![
            ShapeNode::leaf("in", TaskKind::Seq),
            ShapeNode::leaf("work", TaskKind::Par),
            ShapeNode::leaf("out", TaskKind::Seq),
        ])
    }

    #[test]
    fn grid_is_deterministic_and_covers_leaves() {
        let a = snapshot_grid(&shape(), 12);
        let b = snapshot_grid(&shape(), 12);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tasks.len(), 3);
            assert_eq!(x.tasks, y.tasks);
            assert_eq!(x.queue.occupancy, y.queue.occupancy);
        }
        // The grid must visit both an idle and a saturated queue.
        assert!(a.iter().any(|s| s.queue.occupancy == 0.0));
        assert!(a.iter().any(|s| s.queue.occupancy >= 32.0));
        // And both power regimes.
        assert!(a.iter().any(|s| s.power_watts.is_none()));
        assert!(a.iter().any(|s| s.power_watts.is_some()));
    }
}
