//! The paper's running example: an online video-transcoding service.
//!
//! Videos arrive on a work queue; each can be transcoded sequentially or
//! with intra-video parallelism. The administrator asks for minimum
//! response time; DoPE drives the WQ-Linear mechanism, which widens the
//! inner DoP when the queue is short (latency mode) and narrows it when
//! the queue grows (throughput mode).
//!
//! While the service runs, its live telemetry is served in Prometheus
//! text format on an ephemeral localhost port (the example scrapes
//! itself once, curl-style, and prints a few series).
//!
//! Run with: `cargo run --release --example video_service`

use dope_apps::transcode::{self, VideoParams};
use dope_core::Goal;
use dope_mechanisms::WqLinear;
use dope_metrics::{names, scrape, MetricsRegistry, MetricsServer};
use dope_runtime::Dope;
use std::thread;
use std::time::Duration;

fn main() {
    let (service, descriptor) = transcode::live_service();
    let goal = Goal::MinResponseTime { threads: 4 };
    println!("goal: {goal}");

    // Live metrics: one registry shared by the executive and a scrape
    // endpoint (port 0 = ephemeral; use e.g. "127.0.0.1:9184" to pin).
    let registry = MetricsRegistry::new();
    let server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("metrics endpoint");
    println!("metrics: http://{}/metrics", server.local_addr());

    let dope = Dope::builder(goal)
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(20))
        .queue_probe(service.queue_probe())
        .metrics(registry.clone())
        .launch(descriptor)
        .expect("launch");

    // Two traffic phases: a light trickle, then a burst.
    let params = VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    let queue = service.queue.clone();
    let producer = thread::spawn(move || {
        for id in 0..12u64 {
            let _ = queue.enqueue(transcode::make_video(id, params));
            thread::sleep(Duration::from_millis(40)); // light load
        }
        for id in 12..60u64 {
            let _ = queue.enqueue(transcode::make_video(id, params)); // burst
        }
        queue.close();
    });
    producer.join().expect("producer");

    // Scrape our own endpoint while the service is still live — exactly
    // what `curl http://.../metrics` would return.
    let monitor = dope.monitor();
    let scraped = scrape(&server.local_addr().to_string()).expect("self-scrape");
    let exec_count = format!("{}_count", names::TASK_EXEC_SECONDS);
    println!("\n-- live scrape (excerpt) --");
    for line in scraped.lines().filter(|l| {
        l.starts_with(&exec_count)
            || l.starts_with(names::RECONFIGURE_EPOCHS_TOTAL)
            || l.starts_with(names::MONITORING_OVERHEAD_RATIO)
            || l.starts_with(names::POOL_THREADS)
    }) {
        println!("  {line}");
    }

    let report = dope.wait().expect("service drains");

    let response = service.stats.response();
    println!(
        "\ntranscoded {} videos; mean response {:.1} ms, p95 {:.1} ms (±3.1%)",
        response.count(),
        response.mean().unwrap_or(0.0) * 1e3,
        response.percentile(0.95).unwrap_or(0.0) * 1e3,
    );
    println!(
        "monitoring overhead: {:.3}% of execution",
        monitor.monitoring_overhead_ratio() * 100.0
    );
    println!("reconfigurations: {}", report.reconfigurations);
    for (t, config) in &report.config_history {
        println!("  t={t:>6.2}s  {config}");
    }
    server.shutdown();
    assert_eq!(response.count(), 60);
    assert!(
        scraped.contains(names::TASK_EXEC_SECONDS) && scraped.contains("le="),
        "scrape must include exec-latency histogram buckets"
    );
}
