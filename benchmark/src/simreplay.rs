//! The simulator + trace-tooling part: single thread, no pool, no queues.
//!
//! Phase A sweeps fig-11's grid — four application models x loads
//! {0.2, 0.5, 0.8, 1.0} x {Static, WQT-H, WQ-Linear} — through
//! `dope_sim::system::run_system_observed` with a `RecordingObserver`
//! attached. Phase B takes one recording per app x mechanism (load 0.8)
//! and round-trips it through the codec, `summarize`, `explain` and
//! `replay_into_sim`.

use crate::mech::TimedMechanism;
use crate::plan::{SimParams, SIM_LOADS};
use crate::sys;
use dope_core::{Mechanism, Resources, StaticMechanism};
use dope_mechanisms::{WqLinear, WqtH};
use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
use dope_trace::{
    explain, parse_jsonl, replay_into_sim, summarize, to_jsonl, Recorder, RecordingObserver,
    TraceRecord,
};
use dope_workload::ArrivalSchedule;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hardware contexts of the simulated machine (the paper's).
const CONTEXTS: u32 = 24;

/// Load of the grid point whose recording phase B round-trips.
const ROUNDTRIP_LOAD: f64 = 0.8;

/// Mechanism tuning per application, as in fig-11 (`Mmax`; `Mmin` = 1,
/// `Qmax` = 12 and threshold `T` = 4 throughout).
fn apps() -> [(TwoLevelModel, u32); 4] {
    [
        (dope_apps::transcode::sim_model(), 8),
        (dope_apps::swaptions::sim_model(), 8),
        (dope_apps::bzip::sim_model(), 10),
        (dope_apps::gimp::sim_model(), 8),
    ]
}

fn mechanisms(model: &TwoLevelModel, m_max: u32) -> [Box<dyn Mechanism>; 3] {
    [
        Box::new(StaticMechanism::new(
            model.config_for_width(CONTEXTS, m_max),
        )),
        Box::new(WqtH::new(4.0, m_max, 4, 4)),
        Box::new(WqLinear::new(1, m_max, 12.0)),
    ]
}

/// Per-step wall time of phase B, summed over recordings (traced pass).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepNanos {
    pub encode: f64,
    pub decode: f64,
    pub summarize: f64,
    pub explain: f64,
    pub replay: f64,
}

/// One repetition of the simulator part.
#[derive(Debug, Clone, Default)]
pub struct SimRep {
    pub setup_s: f64,
    pub requests: u64,
    pub cpu_us_per_sim_request: f64,
    pub trace_events: u64,
    pub cpu_us_per_trace_event: f64,
    pub phase_a_wall_s: f64,
    pub phase_b_wall_s: f64,
    /// Events phase A recorded, over requests simulated.
    pub events_per_request: f64,
    pub dropped_events: u64,
    pub jsonl_bytes: u64,
    /// Folded simulated response statistics of every grid point; two
    /// repetitions of one seed must agree bit for bit.
    pub response_digest: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Filled by the traced pass only.
    pub steps: StepNanos,
    pub consult_ns: Vec<f64>,
}

/// FNV-style fold of one 64-bit word into a digest.
fn fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

struct Point {
    records: Vec<TraceRecord>,
    dropped: u64,
    digest: u64,
}

fn simulate(
    model: &TwoLevelModel,
    mechanism: &mut dyn Mechanism,
    schedule: &ArrivalSchedule,
) -> Point {
    // Sized so the ring never evicts: the recording must keep its
    // `Launched` event to be replayable.
    let recorder = Recorder::bounded(schedule.len() * 8 + 64);
    let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MinResponseTime");
    let outcome = run_system_observed(
        model,
        schedule,
        mechanism,
        Resources::threads(CONTEXTS),
        &SystemParams::default(),
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    let mut digest = fold(0, outcome.mean_response().to_bits());
    digest = fold(
        digest,
        outcome.response.percentile(0.99).unwrap_or(0.0).to_bits(),
    );
    digest = fold(digest, outcome.completed);
    digest = fold(digest, outcome.config_changes);
    Point {
        dropped: recorder.dropped(),
        records: recorder.drain(),
        digest,
    }
}

/// The JSONL text of one small recording (WQ-Linear on the transcode
/// model), for the JSON-parser probe.
pub fn sample_jsonl(seed: u64) -> String {
    let (model, m_max) = &apps()[0];
    let schedule = ArrivalSchedule::for_load_factor(
        ROUNDTRIP_LOAD,
        model.max_throughput(CONTEXTS, 1),
        200,
        seed,
    );
    let mut mechanism = WqLinear::new(1, *m_max, 12.0);
    to_jsonl(&simulate(model, &mut mechanism, &schedule).records)
}

pub fn run(params: &SimParams, seed: u64, traced: bool) -> SimRep {
    let mut rep = SimRep::default();
    let consult_ns = Arc::new(Mutex::new(Vec::new()));
    let wrap = |mechanism: Box<dyn Mechanism>| -> Box<dyn Mechanism> {
        if traced {
            Box::new(TimedMechanism {
                inner: mechanism,
                consult_ns: Arc::clone(&consult_ns),
            })
        } else {
            mechanism
        }
    };

    // ---- set-up: models and seeded arrival schedules ----
    let setup_cpu = sys::process_cpu_ns();
    let apps = apps();
    let schedule_for = |model: &TwoLevelModel, load: f64, requests: usize| {
        ArrivalSchedule::for_load_factor(load, model.max_throughput(CONTEXTS, 1), requests, seed)
    };
    let grid: Vec<Vec<ArrivalSchedule>> = apps
        .iter()
        .map(|(model, _)| {
            SIM_LOADS
                .iter()
                .map(|&load| schedule_for(model, load, params.requests))
                .collect()
        })
        .collect();
    let roundtrip: Vec<ArrivalSchedule> = apps
        .iter()
        .map(|(model, _)| schedule_for(model, ROUNDTRIP_LOAD, params.roundtrip_requests))
        .collect();
    rep.setup_s = (sys::process_cpu_ns() - setup_cpu) as f64 / 1e9;

    // ---- phase A: the grid, recorded ----
    let wall = Instant::now();
    let cpu = sys::process_cpu_ns();
    let mut events_a = 0u64;
    for ((model, m_max), schedules) in apps.iter().zip(&grid) {
        for schedule in schedules {
            for mechanism in mechanisms(model, *m_max) {
                let point = simulate(model, wrap(mechanism).as_mut(), schedule);
                rep.requests += schedule.len() as u64;
                rep.dropped_events += point.dropped;
                rep.response_digest = fold(rep.response_digest, point.digest);
                events_a += point.records.len() as u64;
            }
        }
    }
    rep.cpu_us_per_sim_request =
        (sys::process_cpu_ns() - cpu) as f64 / 1e3 / rep.requests.max(1) as f64;
    rep.phase_a_wall_s = wall.elapsed().as_secs_f64();
    rep.events_per_request = events_a as f64 / rep.requests.max(1) as f64;

    // ---- phase B: round-trip one recording per app x mechanism ----
    let recordings: Vec<Vec<TraceRecord>> = apps
        .iter()
        .zip(&roundtrip)
        .flat_map(|((model, m_max), schedule)| {
            mechanisms(model, *m_max)
                .into_iter()
                .map(|mut mechanism| simulate(model, mechanism.as_mut(), schedule).records)
                .collect::<Vec<_>>()
        })
        .collect();
    let wall = Instant::now();
    let cpu = sys::process_cpu_ns();
    let mut step = Instant::now();
    let mut lap = |slot: &mut f64| {
        if traced {
            *slot += step.elapsed().as_nanos() as f64;
            step = Instant::now();
        }
    };
    for records in &recordings {
        rep.trace_events += records.len() as u64;
        lap(&mut 0.0);
        let text = to_jsonl(records);
        lap(&mut rep.steps.encode);
        rep.jsonl_bytes += text.len() as u64;
        let parsed = parse_jsonl(&text);
        lap(&mut rep.steps.decode);
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(err) => {
                rep.violations.push(format!("parse_jsonl failed: {err}"));
                continue;
            }
        };
        if &parsed != records {
            rep.violations
                .push("parse_jsonl(to_jsonl(x)) != x".to_string());
        }
        lap(&mut 0.0);
        black_box(summarize(&parsed).render());
        lap(&mut rep.steps.summarize);
        black_box(explain(&parsed).render());
        lap(&mut rep.steps.explain);
        let replayed = replay_into_sim(&parsed);
        lap(&mut rep.steps.replay);
        match replayed {
            Ok(outcome) if outcome.matches() => {}
            Ok(_) => rep
                .violations
                .push("replay applied a different configuration sequence".to_string()),
            Err(err) => rep.violations.push(format!("replay failed: {err}")),
        }
    }
    rep.cpu_us_per_trace_event =
        (sys::process_cpu_ns() - cpu) as f64 / 1e3 / rep.trace_events.max(1) as f64;
    rep.phase_b_wall_s = wall.elapsed().as_secs_f64();

    if rep.dropped_events != 0 {
        rep.violations
            .push(format!("recorder dropped {} events", rep.dropped_events));
    }
    rep.failed = if rep.violations.is_empty() {
        0
    } else {
        rep.requests
    };
    rep.consult_ns = std::mem::take(&mut *consult_ns.lock().expect("single-threaded"));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PLANS;

    #[test]
    fn smoke_run_round_trips_and_repeats_exactly() {
        let params = PLANS[3].sim.shrunk(100);
        let first = run(&params, 11, false);
        let again = run(&params, 11, true);
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        assert_eq!(first.response_digest, again.response_digest);
        assert_ne!(
            first.response_digest,
            run(&params, 12, false).response_digest
        );
        assert_eq!(first.requests, 48 * params.requests as u64);
        assert!(first.trace_events > 0 && first.cpu_us_per_trace_event > 0.0);
        assert!(again.steps.decode > 0.0 && !again.consult_ns.is_empty());
        assert_eq!(first.steps.decode, 0.0);
    }
}
