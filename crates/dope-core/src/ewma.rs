//! Exponentially weighted moving average used by the run-time monitor.

use serde::{Deserialize, Serialize};

/// An exponentially weighted moving average.
///
/// DoPE's monitor keeps a moving average of each task's per-invocation
/// execution time and throughput (the paper's TBF mechanism, §7.2, records
/// "a moving average of the throughput ... of each task").
///
/// Every average in the workspace smooths with the one factor
/// [`Ewma::ALPHA`]: the live monitor's shards and both simulators.
///
/// # Example
///
/// ```
/// use dope_core::Ewma;
///
/// let mut avg = Ewma::default();
/// avg.update(10.0);
/// avg.update(20.0);
/// assert_eq!(avg.value(), Some(12.5));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    value: Option<f64>,
}

impl Ewma {
    /// The smoothing factor: each sample moves the average a quarter of
    /// the way towards it.
    pub const ALPHA: f64 = 0.25;

    /// Folds a new sample into the average.
    pub fn update(&mut self, sample: f64) {
        self.value = Some(Ewma::fold(self.value, sample));
    }

    /// One folding step without the struct: the value after observing
    /// `sample` given the previous value (`None` before any sample).
    ///
    /// This is the same arithmetic [`update`](Ewma::update) applies,
    /// exposed for accumulators that cannot hold an `Ewma` directly —
    /// the runtime's per-worker monitoring shards keep the current value
    /// as the bit pattern of an `f64` in an atomic cell and fold samples
    /// in place with this function.
    #[must_use]
    pub fn fold(prev: Option<f64>, sample: f64) -> f64 {
        match prev {
            None => sample,
            Some(v) => v + Ewma::ALPHA * (sample - v),
        }
    }

    /// Current value, or `None` before the first sample.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current value, or `default` before the first sample.
    #[must_use]
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_taken_verbatim() {
        let mut e = Ewma::default();
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(7.0), 7.0);
        e.update(42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn each_sample_moves_the_average_by_alpha() {
        let mut e = Ewma::default();
        e.update(10.0);
        e.update(30.0);
        assert_eq!(e.value(), Some(10.0 + Ewma::ALPHA * 20.0));
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut e = Ewma::default();
        e.update(100.0);
        for _ in 0..200 {
            e.update(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fold_matches_update() {
        let mut e = Ewma::default();
        let mut folded = None;
        for sample in [10.0, 4.0, 7.5, 0.25] {
            e.update(sample);
            folded = Some(Ewma::fold(folded, sample));
        }
        assert_eq!(e.value(), folded);
    }
}
