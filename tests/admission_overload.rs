//! The admission gate racing a partial reconfiguration.
//!
//! A producer storms a `Shed`-gated service while the mechanism bumps
//! the gated path's extent mid-storm — an extents-only change, so the
//! epoch is a *partial* drain that suspends only the gated path while
//! an untouched background path runs straight through the boundary.
//! The gate's counters must stay coherent across that boundary: every
//! offer gets exactly one verdict, every admitted request is served
//! (the drain suspends workers, it must not lose queued items), and
//! the `AdmissionDecision` rows a reader derives from the periods
//! recorded while the drain is in flight carry monotone cumulative
//! counters that satisfy the conservation invariant at every row.

use dope_core::{AdmissionPolicy, AdmissionStats, Config, Goal, TaskConfig};
use dope_metrics::{names, MetricsRegistry};
use dope_runtime::Dope;
use dope_trace::{render_timeline, summarize, Recorder, TraceEvent, TraceRecord};
use dope_workload::AdmissionQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::{check, closed_queue, Leaf, Scripted};

mod support;

/// The gate's counters in each recorded period whose gate saw traffic:
/// the periods a reader derives an `AdmissionDecision` row from.
fn pressured(records: &[TraceRecord]) -> Vec<AdmissionStats> {
    records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::SnapshotTaken { snapshot } if snapshot.admission.offered > 0 => {
                Some(snapshot.admission)
            }
            _ => None,
        })
        .collect()
}

/// The window verdict of each `ADMIT` row the timeline derives.
fn verdicts(records: &[TraceRecord]) -> Vec<String> {
    render_timeline(records)
        .lines()
        .filter(|line| line.contains("ADMIT "))
        .filter_map(|line| line.split_once("verdict=")?.1.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn admission_counters_stay_coherent_across_a_partial_drain() {
    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 32 });
    let served = Arc::new(AtomicU64::new(0));

    // The gated path drains the admission queue, one item per invoke; an
    // untouched path makes the extent bump on `gated` delta-scoped, and its
    // replica must run straight through the epoch boundary.
    let gated = Leaf::new("gated", gate.clone())
        .work(Duration::from_millis(1))
        .hits(&served)
        .spec();
    let background = Leaf::new("background", closed_queue(40))
        .work(Duration::from_millis(3))
        .spec();
    let pair = |gated| {
        Config::new(vec![
            TaskConfig::leaf("gated", gated),
            TaskConfig::leaf("background", 1),
        ])
    };
    let target = pair(2);
    let recorder = Recorder::bounded(8192);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 3 })
        .mechanism(Box::new(
            Scripted::once(0, target.clone()).starting(pair(1)),
        ))
        .control_period(Duration::from_millis(10))
        .admission(gate.policy())
        .admission_probe(gate.stats_probe())
        .recorder(recorder.clone())
        .launch(vec![gated, background])
        .expect("launch");

    // Storm across the reconfiguration boundary: the first consult
    // (~10 ms in) bumps the gated extent while offers keep arriving.
    let producer = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            for burst in 0..30u64 {
                for i in 0..50 {
                    let _ = gate.offer(burst * 50 + i);
                }
                std::thread::sleep(Duration::from_millis(4));
            }
        })
    };
    producer.join().expect("producer");
    gate.close();
    let report = dope.wait().expect("drain");

    // The extent bump raced the storm and was applied as a delta epoch.
    assert_eq!(report.reconfigurations, 1);
    assert_eq!(report.final_config, target);
    let records = recorder.records();
    check(&records, true);
    let epochs: Vec<(String, u64)> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ReconfigureEpoch {
                scope,
                paths_drained,
                ..
            } => Some((scope.to_string(), *paths_drained)),
            _ => None,
        })
        .collect();
    assert_eq!(
        epochs,
        vec![("partial".to_string(), 1)],
        "an extents-only bump under storm takes the delta path"
    );

    // Conservation across the drain boundary: one verdict per offer,
    // and the partial drain suspended workers without losing items.
    let stats = gate.stats();
    assert_eq!(stats.offered, 1500, "every producer offer got a verdict");
    assert_eq!(
        stats.offered,
        stats.admitted + stats.shed_high_water,
        "offer conservation survives the reconfiguration race"
    );
    assert!(stats.shed() > 0, "the storm outruns a 32-deep watermark");
    assert_eq!(
        served.load(Ordering::Relaxed),
        stats.admitted,
        "every admitted request is served; the drain loses nothing"
    );

    // Every period recorded while the race was in flight holds gate
    // counters that are internally consistent and never regress, and
    // each is read as one derived row (`check` refuses a written copy).
    let periods = pressured(&records);
    let mut last = AdmissionStats::default();
    for gate_now in &periods {
        assert_eq!(
            gate_now.offered,
            gate_now.admitted + gate_now.shed(),
            "conservation holds at every period"
        );
        assert!(
            gate_now.offered >= last.offered
                && gate_now.admitted >= last.admitted
                && gate_now.shed() >= last.shed(),
            "cumulative counters are monotone across the boundary"
        );
        last = *gate_now;
    }
    assert!(
        periods.len() >= 2,
        "the monitor sampled the gate during the run"
    );
    assert!(
        last.offered <= stats.offered && last.admitted <= stats.admitted,
        "recorded counters never run ahead of the gate"
    );
    let summary = summarize(&records);
    assert!(
        summary
            .admission_verdicts
            .keys()
            .all(|key| key == "shed/admitted" || key == "shed/shed"),
        "{:?}",
        summary.admission_verdicts
    );
    assert_eq!(
        summary.admission_verdicts.values().sum::<u64>(),
        periods.len() as u64,
        "one row per period with traffic"
    );
    assert_eq!(
        summary.admission_totals,
        Some((last.offered, last.admitted, last.shed()))
    );
}

/// `Monitor::snapshot()` is a read anyone may take. An outside caller
/// hammering it between control ticks (a dashboard, the benchmark's
/// generator) must leave the recording and the exported series to the
/// control loop: no extra record, no `dope_monitor_snapshots_total`
/// bump, and — the window being the recorded period's alone — every
/// period in which the gate shed reads as `"shed"`.
#[test]
fn outside_snapshots_leave_no_record_and_steal_no_shed_window() {
    let gate: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionPolicy::Shed { high_water: 8 });
    let spec = Leaf::new("gated", gate.clone()).spec();
    let recorder = Recorder::bounded(8192);
    let registry = MetricsRegistry::new();
    let dope = Dope::builder(Goal::MaxThroughput { threads: 1 })
        .control_period(Duration::from_millis(10))
        .admission(gate.policy())
        .admission_probe(gate.stats_probe())
        .recorder(recorder.clone())
        .metrics(registry.clone())
        .launch(vec![spec])
        .expect("launch");

    let monitor = dope.monitor();
    let storming = Arc::new(AtomicBool::new(true));
    let outside = {
        let (monitor, storming) = (monitor.clone(), Arc::clone(&storming));
        std::thread::spawn(move || {
            while storming.load(Ordering::Acquire) {
                let _ = monitor.snapshot();
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    // Every burst overflows the 8-deep watermark, so every control period
    // of the storm sheds.
    for burst in 0..30u64 {
        for i in 0..50 {
            let _ = gate.offer(burst * 50 + i);
        }
        std::thread::sleep(Duration::from_millis(4));
    }
    storming.store(false, Ordering::Release);
    outside.join().expect("outside reader");
    gate.close();
    dope.wait().expect("drain");

    // Each recorded period is the control loop's own: its derived row
    // carries its snapshot's counters and judges the window since the
    // previous recorded *period*.
    let records = recorder.records();
    let periods = check(&records, true).kind("SnapshotTaken");
    let pressured = pressured(&records);
    let verdicts = verdicts(&records);
    assert_eq!(
        verdicts.len(),
        pressured.len(),
        "one row per period with traffic"
    );
    let (mut shed_periods, mut shed_before) = (0u64, 0u64);
    for (verdict, gate_now) in verdicts.iter().zip(&pressured) {
        let shed_in_window = gate_now.shed() > shed_before;
        shed_periods += u64::from(shed_in_window);
        let expected = if shed_in_window { "shed" } else { "admitted" };
        assert_eq!(verdict, expected, "{gate_now:?}");
        shed_before = gate_now.shed();
    }
    assert!(
        shed_periods >= 3,
        "the storm shed in {shed_periods} periods"
    );
    let snapshots_total = format!("{} {periods}\n", names::MONITOR_SNAPSHOTS_TOTAL);
    assert!(registry.render().contains(&snapshots_total));

    // And with nothing else running, the exact form: N outside calls,
    // no new record, no counter moved.
    let (len, rendered) = (recorder.len(), registry.render());
    for _ in 0..16 {
        let _ = monitor.snapshot();
    }
    assert_eq!(recorder.len(), len);
    let line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with(names::MONITOR_SNAPSHOTS_TOTAL))
            .map(str::to_string)
    };
    assert_eq!(line(&registry.render()), line(&rendered));
}
