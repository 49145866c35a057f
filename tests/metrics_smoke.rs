//! Smoke tests of the live metrics plane.
//!
//! A real WQ-Linear run serves its own Prometheus endpoint, scrapes it
//! mid-flight like `curl` would, and meters its own monitoring overhead
//! against the paper's "< 1 %" claim, which is the ceiling it is held
//! to. A separate test ages a freshly recorded trace into the
//! pre-percentile dialect and checks the offline tooling still accepts
//! it.

use dope_apps::transcode;
use dope_core::Goal;
use dope_mechanisms::WqLinear;
use dope_metrics::{names, scrape, MetricsRegistry, MetricsServer};
use dope_runtime::Dope;
use std::time::Duration;
use support::check;

mod support;

/// Every metric family name declared by a `# TYPE` exposition line.
fn exposed_families(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn live_scrape_is_well_formed_and_canonical() {
    let (service, descriptor) = transcode::live_service();
    let registry = MetricsRegistry::new();
    let server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind endpoint");
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .metrics(registry.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    for id in 0..24u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    // Let work start, then scrape the *live* endpoint exactly as an
    // external scraper would, while the service is still transcoding.
    std::thread::sleep(Duration::from_millis(80));
    let live = scrape(&server.local_addr().to_string()).expect("live scrape");

    service.queue.close();
    dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 24);

    // The acceptance trio: exec-latency histogram buckets, the epoch
    // counter, and the self-measured overhead ratio.
    let bucket = format!("{}_bucket", names::TASK_EXEC_SECONDS);
    let count = format!("{}_count", names::TASK_EXEC_SECONDS);
    let sum = format!("{}_sum", names::TASK_EXEC_SECONDS);
    assert!(live.contains(&bucket) && live.contains("le=\""), "{live}");
    assert!(live.contains("le=\"+Inf\""), "{live}");
    assert!(live.contains(&count) && live.contains(&sum), "{live}");
    assert!(live.contains(names::RECONFIGURE_EPOCHS_TOTAL), "{live}");
    assert!(live.contains(names::MONITORING_OVERHEAD_RATIO), "{live}");

    // Well-formed exposition: every family has HELP and TYPE headers,
    // every sample line belongs to a declared family and carries a
    // parseable value.
    let families = exposed_families(&live);
    assert!(!families.is_empty());
    for family in &families {
        assert!(live.contains(&format!("# HELP {family} ")), "{family}");
        assert!(
            names::ALL.contains(&family.as_str()),
            "scrape exposes {family}, which is not in names::ALL"
        );
    }
    for line in live
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let name = series.split('{').next().unwrap();
        assert!(
            families.iter().any(|f| name.starts_with(f.as_str())),
            "sample {name} has no # TYPE header"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value {value:?} in {line:?}"
        );
    }

    // The executive leaves the series at the run's final totals: a
    // second scrape, after the drain, shows the completed work.
    let final_scrape = scrape(&server.local_addr().to_string()).expect("final scrape");
    assert!(
        final_scrape.contains(&format!("{} 24", names::QUEUE_COMPLETED_TOTAL)),
        "{final_scrape}"
    );
    // The catalogue holds nothing a run never registers: by now every
    // family is exposed.
    let exposed = exposed_families(&final_scrape);
    let unregistered: Vec<&str> = names::ALL
        .iter()
        .copied()
        .filter(|name| !exposed.iter().any(|family| family == name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "never registered: {unregistered:?}"
    );
    server.shutdown();
}

#[test]
fn concurrent_scrapes_never_observe_a_torn_exposition() {
    let (service, descriptor) = transcode::live_service();
    let registry = MetricsRegistry::new();
    let server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind endpoint");
    let addr = server.local_addr().to_string();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(5))
        .queue_probe(service.queue_probe())
        .metrics(registry.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 6,
        width: 48,
        height: 48,
    };
    for id in 0..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }

    // N scraper threads hammer the endpoint while the executive keeps
    // reconfiguring (a 5 ms control period over 48 videos guarantees
    // live registry churn: counters incrementing, histograms filling,
    // per-rationale series appearing for the first time). Every scrape
    // must be a complete, well-formed exposition — a torn render would
    // show a sample line whose family has no TYPE header, a HELP-less
    // family, or an unparseable value.
    const SCRAPERS: usize = 8;
    let scrapes: Vec<std::thread::JoinHandle<Vec<String>>> = (0..SCRAPERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                (0..25)
                    .map(|_| scrape(&addr).expect("concurrent scrape"))
                    .collect()
            })
        })
        .collect();
    let bodies: Vec<String> = scrapes
        .into_iter()
        .flat_map(|handle| handle.join().expect("scraper thread must not panic"))
        .collect();

    service.queue.close();
    dope.wait().expect("drains");
    server.shutdown();

    assert_eq!(bodies.len(), SCRAPERS * 25);
    for body in &bodies {
        let families = exposed_families(body);
        for family in &families {
            assert!(
                body.contains(&format!("# HELP {family} ")),
                "family {family} lost its HELP header mid-reconfiguration"
            );
            assert!(
                names::ALL.contains(&family.as_str()),
                "torn scrape exposes {family}, which is not in names::ALL"
            );
        }
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("torn sample line {line:?}"));
            let name = series.split('{').next().unwrap();
            assert!(
                families.iter().any(|f| name.starts_with(f.as_str())),
                "sample {name} appeared without its # TYPE header"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value {value:?} in {line:?}"
            );
        }
    }

    // Monotone reads: a counter observed across the scrape sequence of
    // one thread never goes backwards (the registry is live, so values
    // only grow). Torn renders classically show up as a counter reset.
    let dispatched = format!("{} ", names::POOL_JOBS_DISPATCHED_TOTAL);
    let mut last = 0.0f64;
    for body in bodies.iter().take(25) {
        if let Some(line) = body
            .lines()
            .find(|l| l.starts_with(&dispatched) || *l == dispatched.trim())
        {
            let value: f64 = line.rsplit(' ').next().unwrap().parse().expect("counter");
            assert!(
                value >= last,
                "counter went backwards under concurrent scraping: {value} < {last}"
            );
            last = value;
        }
    }
}

#[test]
fn monitoring_overhead_stays_below_regression_ceiling() {
    let (service, descriptor) = transcode::live_service();
    let registry = MetricsRegistry::new();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .metrics(registry.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 6,
        width: 48,
        height: 48,
    };
    for id in 0..32u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    service.queue.close();
    let monitor = dope.monitor();
    dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 32);

    // The paper claims monitoring costs under 1 % of execution; that
    // claim is the ceiling.
    let ratio = monitor.monitoring_overhead_ratio();
    assert!(ratio.is_finite() && ratio >= 0.0, "ratio {ratio}");
    assert!(
        ratio < 0.01,
        "monitoring overhead regressed: {:.4}% of execution",
        ratio * 100.0
    );

    // The same figure is published for scrapers, and agrees.
    let rendered = registry.render();
    let line = rendered
        .lines()
        .find(|l| l.starts_with(names::MONITORING_OVERHEAD_RATIO))
        .expect("overhead ratio is exported");
    let published: f64 = line.rsplit(' ').next().unwrap().parse().expect("gauge");
    assert!(
        published < 0.01,
        "published overhead ratio regressed: {published}"
    );
}

/// Strips the additive `p50/p95/p99_exec_secs` fields from a JSONL
/// trace, turning it back into the pre-percentile dialect.
fn strip_percentile_fields(jsonl: &str) -> String {
    let mut text = jsonl.to_string();
    while let Some(start) = text.find(", \"p50_exec_secs\"") {
        let end = start + text[start..].find('}').expect("stats object closes");
        text.replace_range(start..end, "");
    }
    text
}

#[test]
fn pre_percentile_traces_still_replay_and_summarize() {
    use dope_core::{Resources, StaticMechanism};
    use dope_sim::profile::AmdahlProfile;
    use dope_sim::system::{run_system_observed, SystemParams, TwoLevelModel};
    use dope_trace::{parse_jsonl, replay_into_sim, summarize, Recorder, RecordingObserver};
    use dope_workload::ArrivalSchedule;

    let model = TwoLevelModel::pipeline("transcode", AmdahlProfile::new(4.0, 0.9, 0.1, 0.05));
    let mut mech = StaticMechanism::new(model.config_for_width(8, 4));
    let recorder = Recorder::bounded(4096);
    let mut observer = RecordingObserver::new(recorder.clone()).with_goal("MaxThroughput");
    let outcome = run_system_observed(
        &model,
        &ArrivalSchedule::uniform(1.0, 12),
        &mut mech,
        Resources::threads(8),
        &SystemParams::default(),
        &mut observer,
    );
    observer.finished(outcome.completed, outcome.config_changes);
    check(&recorder.records(), true);

    // Age the recording: drop every percentile field, as a trace written
    // before the metrics plane existed would lack them.
    let aged = strip_percentile_fields(&recorder.to_jsonl());
    assert!(
        !aged.contains("p50_exec_secs") && recorder.to_jsonl().contains("p50_exec_secs"),
        "the aging surgery must actually remove fields"
    );

    let records = parse_jsonl(&aged).expect("old dialect still parses");
    let replay = replay_into_sim(&records).expect("old dialect still replays");
    assert!(replay.matches(), "replay must reproduce accepted configs");

    let summary = summarize(&records);
    assert!(
        summary.task_p99_exec_secs.is_empty(),
        "absent percentiles summarize as not-measured, not as zeros"
    );
    let text = summary.render();
    assert!(text.contains("finished:"), "{text}");
}
