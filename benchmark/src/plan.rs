//! The frozen shape of every workload: job counts, round counts, rates.
//!
//! Nothing here is read from the command line except the seed and the
//! time budget, so two commits always run the same work. A workload has a
//! *main* part, which is what the workload is for, and a small fixed
//! *companion* part of the other kind, because the benchmark contract
//! wants every run to report every metric of its pass (README, "Companion
//! phases").

use dope_core::AdmissionPolicy;

/// How the generator feeds the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: top the in-flight window up to `window` whenever it
    /// falls below half, sleep 1 ms otherwise.
    Closed { window: u64 },
    /// Open loop: a seeded Poisson schedule at `rate` jobs per second.
    Open { rate: f64 },
}

/// Which mechanism drives the executive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// `StaticMechanism` pinned at extents 1 + 1: the loop only ticks.
    Static,
    /// Benchmark-local mechanism alternating stage 2's extent 1 <-> 2 at
    /// every consult, so every control period is a partial reconfiguration.
    Flip,
}

/// One live two-stage pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveParams {
    /// Jobs per repetition of the timed pass.
    pub jobs: usize,
    /// Jobs per repetition of the traced pass (reference and traced).
    pub traced_jobs: usize,
    /// Mix rounds in stage 1 and stage 2.
    pub rounds: (u32, u32),
    /// Worker-pool size; with the generator this is the thread count.
    pub pool_threads: u32,
    pub load: Load,
    pub admission: AdmissionPolicy,
    pub control: Control,
    /// A latency sample is kept for jobs whose id has none of these bits.
    pub latency_mask: u32,
}

/// One simulator + trace-tooling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Requests per (app, load, mechanism) grid point in phase A.
    pub requests: usize,
    /// Requests per recording round-tripped in phase B (one recording per
    /// app x mechanism, at load 0.8).
    pub roundtrip_requests: usize,
}

/// Which part of a workload is the main one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Main {
    Live,
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub name: &'static str,
    pub main: Main,
    pub live: LiveParams,
    pub sim: SimParams,
}

/// Loads of the fig-11 grid the simulator part sweeps.
pub const SIM_LOADS: [f64; 4] = [0.2, 0.5, 0.8, 1.0];

/// Control period of every live run.
pub const CONTROL_PERIOD_MS: u64 = 10;

/// How long an idle stage worker waits on its queue before re-checking
/// the suspend directive.
pub const POLL_MS: u64 = 2;

const FINE: LiveParams = LiveParams {
    jobs: 100_000,
    traced_jobs: 100_000,
    rounds: (350, 350),
    pool_threads: 2,
    // ~16 ms of work in flight. The issue's 65 536 let the unbounded
    // inter-stage queue swing `peak_rss_mb` by 2.5 MB of 11 (IQR 19 %)
    // with how far stage 2 happened to fall behind.
    load: Load::Closed { window: 8_192 },
    admission: AdmissionPolicy::Open,
    control: Control::Static,
    latency_mask: 15,
};

const PACED: LiveParams = LiveParams {
    jobs: 500,
    traced_jobs: 1_000,
    rounds: (1_750, 1_750),
    pool_threads: 2,
    load: Load::Open { rate: 500.0 },
    admission: AdmissionPolicy::Shed { high_water: 256 },
    control: Control::Static,
    latency_mask: 0,
};

const CHURN: LiveParams = LiveParams {
    jobs: 10_000,
    traced_jobs: 20_000,
    rounds: (7_000, 7_000),
    pool_threads: 3,
    // ~80 ms of work in flight: small enough that the generator idles
    // (and its lateness shows) even in a 10 000-job repetition.
    load: Load::Closed { window: 2_048 },
    admission: AdmissionPolicy::Open,
    control: Control::Flip,
    latency_mask: 3,
};

/// The live companion `sim_replay` carries: `pipe_fine`'s shape, smaller.
const FINE_COMPANION: LiveParams = LiveParams {
    jobs: 50_000,
    ..FINE
};

const SIM_MAIN: SimParams = SimParams {
    requests: 2_000,
    roundtrip_requests: 200,
};

/// The simulator companion the live workloads carry.
const SIM_COMPANION: SimParams = SimParams {
    requests: 500,
    roundtrip_requests: 100,
};

pub const PLANS: [Plan; 4] = [
    Plan {
        name: "pipe_fine",
        main: Main::Live,
        live: FINE,
        sim: SIM_COMPANION,
    },
    Plan {
        name: "pipe_paced",
        main: Main::Live,
        live: PACED,
        sim: SIM_COMPANION,
    },
    Plan {
        name: "pipe_churn",
        main: Main::Live,
        live: CHURN,
        sim: SIM_COMPANION,
    },
    Plan {
        name: "sim_replay",
        main: Main::Sim,
        live: FINE_COMPANION,
        sim: SIM_MAIN,
    },
];

/// The fixed-size reconfiguration probe every traced pass runs twice
/// (partial drain, then forced full drain): `pipe_churn`'s shape, short.
pub const RECONFIG_PROBE: LiveParams = CHURN;

pub fn plan(name: &str) -> Option<Plan> {
    PLANS.iter().copied().find(|p| p.name == name)
}

#[cfg(test)]
impl LiveParams {
    /// The same run at `1/div` of the job count (smoke tests).
    pub fn shrunk(self, div: usize) -> Self {
        LiveParams {
            jobs: (self.jobs / div).max(1),
            traced_jobs: (self.traced_jobs / div).max(1),
            ..self
        }
    }
}

#[cfg(test)]
impl SimParams {
    pub fn shrunk(self, div: usize) -> Self {
        SimParams {
            requests: (self.requests / div).max(4),
            roundtrip_requests: (self.roundtrip_requests / div).max(4),
        }
    }
}
