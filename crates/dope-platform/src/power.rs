//! Power model and rate-limited power sensing.
//!
//! The paper measures full-system power with an APC AP7892 power
//! distribution unit at its maximum sampling rate of 13 samples per minute,
//! and notes that "90% of peak total power corresponds to 60% of peak
//! power in the dynamic CPU range (all cores idle to all cores active)"
//! (§8.2.3) — i.e. idle power is 75% of peak. The defaults here reproduce
//! those proportions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Linear full-system power model with measurement noise.
///
/// Expected power is `idle + active_per_context * busy_contexts`; samples
/// add zero-mean Gaussian noise to model meter jitter.
///
/// # Example
///
/// ```
/// use dope_platform::PowerModel;
///
/// // The paper's 24-context Xeon X7460.
/// let model = PowerModel::for_contexts(24);
/// let idle = model.expected_power(0);
/// let peak = model.peak_power();
/// // Paper §8.2.3: idle is 75% of peak.
/// assert!((idle / peak - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    idle_watts: f64,
    active_watts_per_context: f64,
    contexts: u32,
    noise_sd_watts: f64,
}

impl PowerModel {
    /// A model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or `contexts` is zero.
    #[must_use]
    pub fn new(
        idle_watts: f64,
        active_watts_per_context: f64,
        contexts: u32,
        noise_sd_watts: f64,
    ) -> Self {
        assert!(idle_watts >= 0.0, "idle power must be non-negative");
        assert!(
            active_watts_per_context >= 0.0,
            "per-context power must be non-negative"
        );
        assert!(noise_sd_watts >= 0.0, "noise must be non-negative");
        assert!(contexts > 0, "contexts must be positive");
        PowerModel {
            idle_watts,
            active_watts_per_context,
            contexts,
            noise_sd_watts,
        }
    }

    /// The default model for a machine of `contexts` hardware contexts,
    /// scaled so that peak power is 700 W on the paper's 24-context machine
    /// with idle at 75% of peak.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    #[must_use]
    pub fn for_contexts(contexts: u32) -> Self {
        let peak = 700.0 * f64::from(contexts) / 24.0;
        let idle = 0.75 * peak;
        let per_context = (peak - idle) / f64::from(contexts);
        PowerModel::new(idle, per_context, contexts, 2.0)
    }

    /// Expected (noise-free) power with `busy` active contexts.
    ///
    /// `busy` above the context count is clamped (oversubscribed software
    /// threads cannot draw more than all-contexts-active power).
    #[must_use]
    pub fn expected_power(&self, busy: u32) -> f64 {
        let busy = busy.min(self.contexts);
        self.idle_watts + self.active_watts_per_context * f64::from(busy)
    }

    /// Power with every context active.
    #[must_use]
    pub fn peak_power(&self) -> f64 {
        self.expected_power(self.contexts)
    }

    /// Idle (all contexts inactive) power.
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Number of hardware contexts the model covers.
    #[must_use]
    pub fn contexts(&self) -> u32 {
        self.contexts
    }

    /// Standard deviation of measurement noise, in watts.
    #[must_use]
    pub fn noise_sd_watts(&self) -> f64 {
        self.noise_sd_watts
    }

    /// A noisy sample of the power with `busy` active contexts.
    #[must_use]
    pub fn sample(&self, busy: u32, rng: &mut impl Rng) -> f64 {
        let noise = gaussian(rng) * self.noise_sd_watts;
        (self.expected_power(busy) + noise).max(0.0)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        // The paper's Xeon X7460: 4 sockets x 6 cores.
        PowerModel::for_contexts(24)
    }
}

/// Standard-normal sample via the Box–Muller transform.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A rate-limited power meter over a [`PowerModel`].
///
/// The sensor refuses to produce a fresh sample more often than its
/// sampling interval allows — between samples it replays the last reading,
/// exactly like polling a slow PDU. The paper notes this limited "the
/// speed with which the controller responds to fluctuations in power
/// consumption"; TPC must cope with it, so reproducing it matters.
///
/// # Example
///
/// ```
/// use dope_platform::{PowerModel, PowerSensor};
///
/// // The AP7892's maximum rate: 13 samples per minute.
/// let mut sensor = PowerSensor::new(PowerModel::default(), 60.0 / 13.0, 7);
/// let first = sensor.read(0.0, 24);
/// // One second later the PDU has no new sample yet:
/// let replay = sensor.read(1.0, 0);
/// assert_eq!(first, replay);
/// // After the sampling interval a new reading appears:
/// let fresh = sensor.read(10.0, 0);
/// assert!(fresh < first);
/// ```
#[derive(Debug, Clone)]
pub struct PowerSensor {
    model: PowerModel,
    interval_secs: f64,
    last_sample_time: Option<f64>,
    last_value: f64,
    rng: SmallRng,
}

impl PowerSensor {
    /// A sensor sampling at most once per `interval_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_secs` is not positive.
    #[must_use]
    pub fn new(model: PowerModel, interval_secs: f64, seed: u64) -> Self {
        assert!(
            interval_secs > 0.0,
            "sampling interval must be positive, got {interval_secs}"
        );
        PowerSensor {
            model,
            interval_secs,
            last_sample_time: None,
            last_value: model.idle_watts(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Reads the meter at time `now_secs` with `busy` active contexts.
    ///
    /// Returns a fresh sample if the sampling interval has elapsed since
    /// the previous fresh sample, otherwise the previous reading.
    pub fn read(&mut self, now_secs: f64, busy: u32) -> f64 {
        let due = match self.last_sample_time {
            None => true,
            Some(t) => now_secs - t >= self.interval_secs,
        };
        if due {
            self.last_value = self.model.sample(busy, &mut self.rng);
            self.last_sample_time = Some(now_secs);
        }
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_model() -> PowerModel {
        PowerModel::new(525.0, 175.0 / 24.0, 24, 0.0)
    }

    #[test]
    fn expected_power_is_linear_in_busy() {
        let m = quiet_model();
        assert!((m.expected_power(0) - 525.0).abs() < 1e-9);
        assert!((m.expected_power(24) - 700.0).abs() < 1e-9);
        let mid = m.expected_power(12);
        assert!((mid - 612.5).abs() < 1e-9);
    }

    #[test]
    fn busy_clamps_to_contexts() {
        let m = quiet_model();
        assert_eq!(m.expected_power(100), m.peak_power());
    }

    #[test]
    fn paper_proportion_90pct_peak_is_60pct_dynamic() {
        let m = PowerModel::default();
        let target = 0.9 * m.peak_power();
        let dynamic_range = m.peak_power() - m.idle_watts();
        let dynamic_fraction = (target - m.idle_watts()) / dynamic_range;
        assert!((dynamic_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn noisy_samples_center_on_expectation() {
        let m = PowerModel::new(500.0, 5.0, 24, 3.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| m.sample(12, &mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean - m.expected_power(12)).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn sensor_rate_limits() {
        let mut s = PowerSensor::new(quiet_model(), 5.0, 1);
        let v0 = s.read(0.0, 24);
        assert_eq!(s.read(4.9, 0), v0, "no fresh sample before the interval");
        let v1 = s.read(5.0, 0);
        assert!((v1 - 525.0).abs() < 1e-9);
    }

    #[test]
    fn sensor_is_deterministic_per_seed() {
        let m = PowerModel::default();
        let mut a = PowerSensor::new(m, 1.0, 42);
        let mut b = PowerSensor::new(m, 1.0, 42);
        for i in 0..10 {
            let t = f64::from(i) * 2.0;
            assert_eq!(a.read(t, i), b.read(t, i));
        }
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_interval_panics() {
        let _ = PowerSensor::new(PowerModel::default(), 0.0, 0);
    }
}
