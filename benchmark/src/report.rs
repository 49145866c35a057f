//! Sets of runs: without `--workload` the binary runs every workload in a
//! fresh child process and writes one JSON document; `--compare A.json
//! B.json` judges two of them.

use crate::catalogue::{bound_of, END_TO_END};
use crate::plan::{self, PLANS};
use crate::{stats, sys};
use dope_core::json::{parse, Value};
use std::process::Command;

pub const SCHEMA: &str = "dope-benchmark-set/v1";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs this binary once for `workload` and returns its
/// `(reps line, result line)`, echoing everything else it printed.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default();
    let reps = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        println!("{workload}: exited with {}", output.status);
    }
    let parse_line =
        |line: &str| parse(line).map_err(|e| format!("{workload}: bad output line: {e}"));
    Ok((parse_line(reps)?, parse_line(result)?))
}

/// Runs every workload (timed pass, then traced pass) in `order` and
/// returns the set document plus whether every output check passed.
pub fn run_all(seed: u64, seconds: u64, order: &[String]) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in order {
        let plan = plan::plan(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let (reps, timed) = child(name, seed, seconds, false)?;
        let (_, traced) = child(name, seed, seconds, true)?;
        let is_true = |doc: &Value| doc.get("correct") == Some(&Value::Bool(true));
        let correct = is_true(&timed) && is_true(&traced);
        all_correct &= correct;
        let count = |doc: &Value, key| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
        workloads.push(obj(vec![
            ("name", Value::String(name.clone())),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Number(count(&timed, "attempted"))),
            ("failed", Value::Number(count(&timed, "failed"))),
            (
                "traced_attempted",
                Value::Number(count(&traced, "attempted")),
            ),
            ("traced_failed", Value::Number(count(&traced, "failed"))),
            ("jobs_per_rep", Value::Number(plan.live.jobs as u64)),
            (
                "rounds",
                Value::Array(vec![
                    Value::Number(u64::from(plan.live.rounds.0)),
                    Value::Number(u64::from(plan.live.rounds.1)),
                ]),
            ),
            (
                "sim_requests_per_point",
                Value::Number(plan.sim.requests as u64),
            ),
            (
                "end_to_end",
                timed.get("metrics").cloned().unwrap_or(Value::Null),
            ),
            ("reps", reps),
            (
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Value::Null),
            ),
        ]));
    }
    let env = obj(vec![
        ("nproc", Value::Number(u64::from(sys::nproc()))),
        ("kernel", Value::String(sys::kernel())),
        ("seed", Value::Number(seed)),
        ("seconds", Value::Number(seconds)),
        (
            "order",
            Value::Array(order.iter().cloned().map(Value::String).collect()),
        ),
    ]);
    let set = obj(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("env", env),
        ("workloads", Value::Array(workloads)),
    ]);
    Ok((set, all_correct))
}

/// Prints every metric of a set by name, with its unit.
pub fn print_set(set: &Value) {
    for workload in set
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let name = workload.get("name").and_then(Value::as_str).unwrap_or("?");
        println!(
            "== {name}: correct {}, attempted {}, failed {}",
            workload
                .get("correct")
                .map_or("?".to_string(), Value::to_json),
            workload
                .get("attempted")
                .map_or("?".to_string(), Value::to_json),
            workload
                .get("failed")
                .map_or("?".to_string(), Value::to_json),
        );
        for group in ["end_to_end", "per_layer"] {
            let Some(Value::Object(metrics)) = workload.get(group) else {
                continue;
            };
            for (metric, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
                println!("  {metric:<36} {value:>16.4} {unit}");
            }
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a `{SCHEMA}` document"));
    }
    Ok(doc)
}

fn workload<'a>(set: &'a Value, name: &str) -> Option<&'a Value> {
    set.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn metric_value(workload: &Value, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn metric_reps(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("reps")
        .and_then(|r| r.get(metric))
        .and_then(Value::as_array)
        .map(|values| values.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How B compares with A on one metric; every end-to-end metric is
/// lower-is-better.
pub fn judge(a: f64, b: f64, spread: f64, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if a > 0.0 && (b - a) / a > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Compares set B against set A; returns the table and whether any
/// pairing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut table = format!(
        "{:<11} {:<24} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B vs A", "spread", "bound"
    );
    let mut regressed = false;
    for plan in &PLANS {
        let (Some(wa), Some(wb)) = (workload(&a, plan.name), workload(&b, plan.name)) else {
            table.push_str(&format!("{:<11} missing from one set\n", plan.name));
            continue;
        };
        for &(metric, _, _) in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(wa, metric), metric_value(wb, metric)) else {
                continue;
            };
            let bound = bound_of(metric).unwrap_or(0.0);
            // The wider of the two sets' own rep-to-rep quartile spreads:
            // a difference inside it cannot be told from noise.
            let spread = [metric_reps(wa, metric), metric_reps(wb, metric)]
                .iter()
                .filter(|reps| reps.len() >= 2)
                .map(|reps| stats::iqr_share(reps))
                .fold(0.0, f64::max);
            let verdict = judge(va, vb, spread, bound);
            regressed |= verdict == "regressed";
            table.push_str(&format!(
                "{:<11} {:<24} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {verdict}\n",
                plan.name,
                metric,
                va,
                vb,
                100.0 * (vb - va) / va,
                100.0 * spread,
                100.0 * bound
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_noise_regression_and_improvement() {
        assert_eq!(judge(10.0, 10.5, 0.02, 0.10), "ok");
        assert_eq!(judge(10.0, 11.5, 0.02, 0.10), "regressed");
        assert_eq!(judge(10.0, 8.0, 0.02, 0.10), "ok");
        assert_eq!(judge(10.0, 11.5, 0.30, 0.10), "unresolved");
    }
}
