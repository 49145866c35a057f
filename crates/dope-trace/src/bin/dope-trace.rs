//! The `dope-trace` command-line tool: record, replay, and render traces.
//!
//! ```text
//! dope-trace record [OUT]            record a built-in adaptive scenario
//! dope-trace replay <TRACE>          replay a JSONL trace through the control core
//! dope-trace timeline <TRACE>        render a JSONL trace as ASCII
//! dope-trace stats <TRACE>           histogram summaries of a trace
//! dope-trace explain <TRACE> [--json]  decision audit of a trace
//! ```
//!
//! `TRACE` may be `-` to read JSONL from standard input; `record` writes
//! to `OUT` when given, standard output otherwise. Exit status: `0` on
//! success (for `replay`: the replayed accepted-config sequence matched
//! the recorded one), `1` on a failed replay or unreadable trace, `2` on
//! a usage error.

use std::io::Read as _;
use std::process::ExitCode;

use dope_core::Resources;
use dope_mechanisms::WqLinear;
use dope_sim::profile::AmdahlProfile;
use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
use dope_trace::{
    explain, parse_jsonl, render_timeline, replay_into_sim, summarize, Recorder, RecordingObserver,
    TraceRecord,
};
use dope_workload::ArrivalSchedule;

const USAGE: &str =
    "usage: dope-trace <record [OUT] | replay <TRACE> | timeline <TRACE> | stats <TRACE> | explain <TRACE> [--json]>
  record [OUT]       record a built-in adaptive scenario as JSONL (stdout when OUT omitted)
  replay <TRACE>     replay a JSONL trace through the control core; exit 0 iff the decision sequence matches
  timeline <TRACE>   render a JSONL trace as an ASCII timeline
  stats <TRACE>      histogram summaries (counts, mean, p50/p95/p99, max) of a trace
  explain <TRACE>    decision audit: rationale, candidate table, predicted-vs-realized error
                     per decision; --json re-emits the decisions as strict JSONL
  TRACE may be '-' for standard input";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read: fn(&[TraceRecord]) -> Result<String, String> = match args.first().map(String::as_str)
    {
        Some("record") if args.len() <= 2 => return record(args.get(1).map(String::as_str)),
        Some("replay") if args.len() == 2 => replay,
        Some("timeline") if args.len() == 2 => |records| Ok(render_timeline(records)),
        Some("stats") if args.len() == 2 => |records| Ok(summarize(records).render()),
        Some("explain") if args.len() == 2 => |records| Ok(explain(records).render()),
        Some("explain") if args.len() == 3 && args[2] == "--json" => {
            |records| Ok(explain(records).to_jsonl())
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match load(&args[1]).and_then(|records| read(&records)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("dope-trace: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The built-in scenario: an x264-like transactional server under a
/// work-queue mechanism, arrivals ramping enough to force adaptation.
fn record(out: Option<&str>) -> ExitCode {
    let model = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(8.0, 0.95, 0.1, 0.05));
    let threads = 24;
    let mut mechanism = WqLinear::new(1, 12, 8.0);
    let recorder = Recorder::bounded(65_536);
    let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MinResponseTime");
    let schedule = ArrivalSchedule::poisson(0.8, 200, 11);
    let outcome = run_system_observed(
        &model,
        &schedule,
        &mut mechanism,
        Resources::threads(threads),
        &SystemParams::default(),
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    let jsonl = recorder.to_jsonl();
    let Some(path) = out else {
        print!("{jsonl}");
        return ExitCode::SUCCESS;
    };
    if let Err(err) = std::fs::write(path, &jsonl) {
        eprintln!("dope-trace: cannot write {path}: {err}");
        return ExitCode::FAILURE;
    }
    let (events, reconfigs) = (recorder.len(), outcome.config_changes);
    eprintln!("recorded {events} events ({reconfigs} reconfigurations) to {path}");
    ExitCode::SUCCESS
}

/// Replays `records` through the control core; a diverged decision
/// sequence is an error.
fn replay(records: &[TraceRecord]) -> Result<String, String> {
    let outcome = replay_into_sim(records)?;
    if outcome.matches() {
        Ok(format!(
            "replay OK: {} accepted configuration(s) reproduced\n",
            outcome.recorded.len()
        ))
    } else {
        Err(format!(
            "replay DIVERGED: recorded {} accepted configuration(s), replayed {}",
            outcome.recorded.len(),
            outcome.replayed.len()
        ))
    }
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|err| format!("cannot read stdin: {err}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?
    };
    parse_jsonl(&text).map_err(|err| format!("{path}: {err}"))
}
