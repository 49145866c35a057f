//! The repo benchmark: end-to-end CPU-cost metrics over four workloads
//! plus a traced per-layer pass. See `README.md` next to this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dope-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dope-benchmark --seed <n> [--seconds <s>] [--order a,b,c,d] [--out set.json]
//! dope-benchmark --compare A.json B.json
//! ```

mod alloc;
mod catalogue;
mod live;
mod mech;
mod plan;
mod probes;
mod report;
mod run;
mod simreplay;
mod spans;
mod stats;
mod sys;
mod work;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` when the caller gives none (what `BENCHMARK.json` states).
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  dope-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  dope-benchmark --seed <n> [--seconds <s>] [--order a,b,c,d] [--out set.json]
  dope-benchmark --compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    order: Option<Vec<String>>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let number = |flag: &str, text: String| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number, got `{text}`"))
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = Some(number(&flag, value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--order" => args.order = Some(value()?.split(',').map(str::to_string).collect()),
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let plan = plan::plan(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let outcome = if args.trace {
        run::traced(&plan, args.seed)
    } else {
        run::timed(
            &plan,
            args.seed,
            args.seconds.unwrap_or(DEFAULT_SECONDS) as f64,
        )
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", run::reps_json(&outcome));
    println!("{}", run::result_json(&outcome));
    Ok(outcome.correct)
}

fn every_workload(args: &Args) -> Result<bool, String> {
    let order = args
        .order
        .clone()
        .unwrap_or_else(|| plan::PLANS.iter().map(|p| p.name.to_string()).collect());
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let (set, correct) = report::run_all(args.seed, seconds, &order)?;
    report::print_set(&set);
    if let Some(path) = &args.out {
        std::fs::write(path, set.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            let (table, regressed) = report::compare(a, b)?;
            print!("{table}");
            Ok(!regressed)
        } else if let Some(name) = &args.workload {
            one_workload(name, &args)
        } else {
            every_workload(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // An output check failed or a metric regressed: the report above
        // says which.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let parsed = args("--workload pipe_fine --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("pipe_fine"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, Some(20), true)
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--compare only-one.json").is_err());
    }
}
