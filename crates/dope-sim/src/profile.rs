//! Calibrated service-time profiles for parallel transactions.
//!
//! The simulator needs the execution time of one transaction (one video,
//! one pricing request, one file) as a function of the threads devoted to
//! it. [`AmdahlProfile`] models that curve with four parameters: a
//! sequential time, a parallelizable fraction, a fixed cost of going
//! parallel at all (thread creation, block-granularity losses — what makes
//! bzip unprofitable below width 4), and a per-thread coordination cost
//! (communication/synchronization — what caps x264's speedup at 6.3x on 8
//! threads and makes wide configurations waste contexts at heavy load).

use serde::{Deserialize, Serialize};

/// Transaction execution time versus thread width.
///
/// `exec_time(1) = t1`; for `w > 1`,
///
/// ```text
/// exec_time(w) = t1 * ((1 - f) + f / w) + fixed + per_thread * (w - 1)
/// ```
///
/// # Example
///
/// ```
/// use dope_sim::AmdahlProfile;
///
/// let p = AmdahlProfile::new(50.0, 0.97, 0.5, 0.35);
/// assert_eq!(p.exec_time(1), 50.0);
/// assert!(p.exec_time(8) < p.exec_time(1));
/// assert!(p.speedup(8) > 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmdahlProfile {
    t1: f64,
    parallel_frac: f64,
    fixed_overhead: f64,
    per_thread_overhead: f64,
    seq_stages: u32,
}

impl AmdahlProfile {
    /// A profile with sequential time `t1`, parallel fraction
    /// `parallel_frac`, fixed parallelization overhead `fixed_overhead`,
    /// and per-extra-thread overhead `per_thread_overhead` (all seconds
    /// except the fraction).
    ///
    /// # Panics
    ///
    /// Panics if `t1` is not positive, `parallel_frac` is outside
    /// `[0, 1]`, or an overhead is negative.
    #[must_use]
    pub fn new(t1: f64, parallel_frac: f64, fixed_overhead: f64, per_thread_overhead: f64) -> Self {
        assert!(t1 > 0.0, "sequential time must be positive");
        assert!(
            (0.0..=1.0).contains(&parallel_frac),
            "parallel fraction must be in [0, 1]"
        );
        assert!(fixed_overhead >= 0.0, "fixed overhead must be non-negative");
        assert!(
            per_thread_overhead >= 0.0,
            "per-thread overhead must be non-negative"
        );
        AmdahlProfile {
            t1,
            parallel_frac,
            fixed_overhead,
            per_thread_overhead,
            seq_stages: 0,
        }
    }

    /// Declares that `seq_stages` of the transaction's width are occupied
    /// by sequential pipeline endpoints (a reader and a writer, say) that
    /// contribute no speedup: effective parallel workers are
    /// `width - seq_stages`.
    ///
    /// This models applications like bzip whose Table 4 `DoP_min = 4`:
    /// widths 2 and 3 pay the pipeline's overheads without gaining any
    /// parallel workers beyond one.
    #[must_use]
    pub fn with_seq_stages(mut self, seq_stages: u32) -> Self {
        self.seq_stages = seq_stages;
        self
    }

    /// Sequential execution time `t1`.
    #[must_use]
    pub fn t1(&self) -> f64 {
        self.t1
    }

    /// Execution time with `width` threads.
    #[must_use]
    pub fn exec_time(&self, width: u32) -> f64 {
        if width <= 1 {
            return self.t1;
        }
        let w = f64::from(width);
        let effective = f64::from(width.saturating_sub(self.seq_stages).max(1));
        self.t1 * ((1.0 - self.parallel_frac) + self.parallel_frac / effective)
            + self.fixed_overhead
            + self.per_thread_overhead * (w - 1.0)
    }

    /// Speedup over sequential with `width` threads.
    #[must_use]
    pub fn speedup(&self, width: u32) -> f64 {
        self.t1 / self.exec_time(width)
    }

    /// Parallel efficiency `speedup(w) / w`.
    #[must_use]
    pub fn efficiency(&self, width: u32) -> f64 {
        self.speedup(width) / f64::from(width.max(1))
    }

    /// The paper's `Mmax`: the largest width up to `limit` whose
    /// efficiency is at least 0.5 (at least 1).
    #[must_use]
    pub fn m_max(&self, limit: u32) -> u32 {
        (1..=limit.max(1))
            .filter(|&w| self.efficiency(w) >= 0.5)
            .max()
            .unwrap_or(1)
    }

    /// The smallest width that beats sequential execution, or `None` if no
    /// width up to `limit` does (Table 4's "Inner DoP_min extent for
    /// speedup").
    #[must_use]
    pub fn m_min(&self, limit: u32) -> Option<u32> {
        (2..=limit.max(1)).find(|&w| self.exec_time(w) < self.t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x264-like calibration: ~6.3x speedup at width 8.
    fn x264_like() -> AmdahlProfile {
        AmdahlProfile::new(50.4, 0.985, 0.2, 0.12)
    }

    #[test]
    fn sequential_width_is_t1() {
        let p = x264_like();
        assert_eq!(p.exec_time(1), p.t1());
        assert_eq!(p.speedup(1), 1.0);
        assert_eq!(p.efficiency(1), 1.0);
    }

    #[test]
    fn exec_time_decreases_then_flattens() {
        let p = x264_like();
        assert!(p.exec_time(2) < p.exec_time(1));
        assert!(p.exec_time(8) < p.exec_time(4));
        // Very wide configurations pay coordination overheads.
        assert!(p.exec_time(64) > p.exec_time(16));
    }

    #[test]
    fn x264_calibration_hits_paper_speedup() {
        let p = x264_like();
        let s8 = p.speedup(8);
        assert!((5.8..=6.8).contains(&s8), "speedup at 8 = {s8}");
        // The efficiency-0.5 boundary sits at or beyond the paper's
        // declared Mmax = 8 (applications pin Mmax explicitly via
        // `max_extent`; the profile only has to keep width 8 efficient).
        assert!(p.m_max(24) >= 8);
        assert!(p.efficiency(8) >= 0.5);
    }

    #[test]
    fn m_min_detects_startup_cost() {
        // bzip-like: fixed overhead makes widths 2-3 slower than serial.
        let p = AmdahlProfile::new(10.0, 0.9, 6.3, 0.02);
        assert!(p.exec_time(2) > p.t1());
        assert!(p.exec_time(3) > p.t1());
        assert!(p.exec_time(4) < p.t1());
        assert_eq!(p.m_min(24), Some(4));
    }

    #[test]
    fn m_min_none_when_never_profitable() {
        let p = AmdahlProfile::new(1.0, 0.1, 5.0, 1.0);
        assert_eq!(p.m_min(16), None);
    }

    #[test]
    #[should_panic(expected = "parallel fraction must be in [0, 1]")]
    fn bad_fraction_panics() {
        let _ = AmdahlProfile::new(1.0, 1.5, 0.0, 0.0);
    }

    #[test]
    fn seq_stages_push_m_min_up() {
        // bzip-like: a reader and a writer occupy two of the width's
        // threads, so widths 2-3 have one effective worker and only pay
        // overheads; width 4 is the first profitable one (Table 4).
        let p = AmdahlProfile::new(20.0, 0.93, 0.4, 0.05).with_seq_stages(2);
        assert!(p.exec_time(2) > p.t1());
        assert!(p.exec_time(3) > p.t1());
        assert!(p.exec_time(4) < p.t1());
        assert_eq!(p.m_min(24), Some(4));
        // And wider configurations still provide a healthy speedup.
        assert!(p.speedup(10) > 3.0);
    }
}
