//! The platform feature registry (paper Figure 9).
//!
//! Mechanism developers register named platform features with callbacks —
//! "the developer could register `SystemPower` with a callback that
//! queries the power distribution unit" — and mechanisms later query the
//! current value by name.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Callback returning the current value of a platform feature.
pub type FeatureCallback = Arc<dyn Fn() -> f64 + Send + Sync>;

/// A thread-safe registry of named platform features.
///
/// # Example
///
/// ```
/// use dope_platform::FeatureRegistry;
///
/// let registry = FeatureRegistry::new();
/// registry.register("SystemPower", || 612.5);
/// assert_eq!(registry.value("SystemPower"), Some(612.5));
/// assert_eq!(registry.value("Temperature"), None);
/// ```
#[derive(Clone, Default)]
pub struct FeatureRegistry {
    features: Arc<RwLock<HashMap<String, FeatureCallback>>>,
}

impl std::fmt::Debug for FeatureRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = self.names();
        f.debug_struct("FeatureRegistry")
            .field("features", &names)
            .finish()
    }
}

impl FeatureRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        FeatureRegistry::default()
    }

    /// Registers (or replaces) the callback for `feature`.
    ///
    /// This is the paper's `DoPE::registerCB(feature, getValueOfFeatureCB)`.
    pub fn register<F>(&self, feature: impl Into<String>, callback: F)
    where
        F: Fn() -> f64 + Send + Sync + 'static,
    {
        self.features
            .write()
            .insert(feature.into(), Arc::new(callback));
    }

    /// The current value of `feature`, or `None` if unregistered.
    ///
    /// This is the paper's `DoPE::getValue(feature)`. The callback runs
    /// outside the registry's lock, so it may itself use the registry.
    #[must_use]
    pub fn value(&self, feature: &str) -> Option<f64> {
        let cb = self.features.read().get(feature).cloned();
        cb.map(|cb| cb())
    }

    /// Names of all registered features, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.features.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn register_and_query() {
        let r = FeatureRegistry::new();
        r.register("SystemPower", || 700.0);
        assert_eq!(r.value("SystemPower"), Some(700.0));
    }

    #[test]
    fn unknown_feature_is_none() {
        let r = FeatureRegistry::new();
        assert_eq!(r.value("nope"), None);
    }

    #[test]
    fn callbacks_see_live_state() {
        let r = FeatureRegistry::new();
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        r.register("Ticks", move || c.load(Ordering::Relaxed) as f64);
        assert_eq!(r.value("Ticks"), Some(0.0));
        counter.store(5, Ordering::Relaxed);
        assert_eq!(r.value("Ticks"), Some(5.0));
    }

    #[test]
    fn reregistering_replaces() {
        let r = FeatureRegistry::new();
        r.register("F", || 1.0);
        r.register("F", || 2.0);
        assert_eq!(r.value("F"), Some(2.0));
    }

    #[test]
    fn names_are_sorted() {
        let r = FeatureRegistry::new();
        r.register("b", || 0.0);
        r.register("a", || 0.0);
        assert_eq!(r.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn registry_is_send_sync_and_clone_shares_state() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FeatureRegistry>();
        let r = FeatureRegistry::new();
        let r2 = r.clone();
        r.register("F", || 3.0);
        assert_eq!(r2.value("F"), Some(3.0));
    }
}
