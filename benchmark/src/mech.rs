//! Benchmark-local mechanisms: the `Flip` reconfiguration driver and a
//! wrapper that times every consult of the mechanism it wraps.

use dope_core::{
    Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Resources, TaskConfig,
    TaskPath,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The live pipeline's configuration with stage 2 at `s2_extent`.
pub fn config(s2_extent: u32) -> Config {
    Config::new(vec![
        TaskConfig::leaf("s1", 1),
        TaskConfig::leaf("s2", s2_extent),
    ])
}

/// Alternates stage 2's extent 1 <-> 2 at every consult.
#[derive(Debug)]
pub struct Flip;

impl Mechanism for Flip {
    fn name(&self) -> &'static str {
        "Flip"
    }

    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        let s2 = current.extent_of(&TaskPath::root_child(1)).unwrap_or(1);
        Some(config(if s2 == 1 { 2 } else { 1 }))
    }

    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(config(1))
    }
}

/// Times every consult of the wrapped mechanism (traced passes only).
pub struct TimedMechanism {
    pub inner: Box<dyn Mechanism>,
    pub consult_ns: Arc<Mutex<Vec<f64>>>,
}

impl Mechanism for TimedMechanism {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let t0 = Instant::now();
        let proposal = self.inner.reconfigure(snap, current, shape, res);
        let ns = t0.elapsed().as_nanos() as f64;
        self.consult_ns
            .lock()
            .expect("only the control thread records consults")
            .push(ns);
        proposal
    }

    fn applied(&mut self, config: &Config) {
        self.inner.applied(config);
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.inner.initial(shape, res)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.inner.explain()
    }
}
