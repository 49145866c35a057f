//! The metric registry: named families of counters, gauges, and
//! histograms, rendered in the Prometheus text exposition format.
//!
//! Handles returned by the `*_with_labels` constructors are `Arc`s of
//! plain atomic cells — the hot path never touches the registry map or
//! any lock. The map itself sits behind a `std::sync::RwLock` and is
//! only locked at registration and render time.
//!
//! ```
//! use dope_metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let hits = registry.counter("dope_demo_hits_total", "Demo hit count");
//! hits.inc();
//! let text = registry.render();
//! assert!(text.contains("# TYPE dope_demo_hits_total counter"));
//! assert!(text.contains("dope_demo_hits_total 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{Histogram, LocalHistogram};

/// A render-time producer of a [`LocalHistogram`] — the scrape-side of a
/// sharded histogram, merged on demand (see
/// [`MetricsRegistry::register_histogram_source`]).
pub type HistogramSource = Arc<dyn Fn() -> LocalHistogram + Send + Sync>;

/// A render-time producer of a monotone counter value (see
/// [`MetricsRegistry::register_counter_source`]).
pub type CounterSource = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `n` if it is currently lower (used to
    /// mirror externally maintained monotone totals, e.g. queue
    /// enqueue counts).
    pub fn set_at_least(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point metric that can go up and down.
///
/// Stored as the bit pattern of an `f64` in an `AtomicU64`; the pattern
/// of `0.0` is all zeros, so the default gauge reads zero.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Histogram exposition boundaries in seconds: `{1, 2.5, 5} × 10^d` for
/// decades `10^-5 .. 10^2`, i.e. 10 µs up to 100 s, plus `+Inf`.
///
/// These are *rendering* boundaries only — recording precision is the
/// fine log-linear layout in [`crate::histogram`].
pub const EXPOSITION_BOUNDS_SECS: [f64; 24] = [
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1,
    5e-1, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// Evaluated at render time: the source merges whatever sharded or
    /// externally owned state backs the series into a point-in-time
    /// [`LocalHistogram`].
    HistogramSource(HistogramSource),
    /// Evaluated at render time; must be monotone for counter semantics.
    CounterSource(CounterSource),
}

struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the rendered label block (`{k="v",...}` or empty).
    series: BTreeMap<String, Series>,
}

/// A registry of metric families. Cloning shares the underlying state.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    families: Arc<RwLock<BTreeMap<String, Family>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.read().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry")
            .field("families", &families.len())
            .finish()
    }
}

/// Renders a label set as a deterministic `{k="v",...}` block.
///
/// Labels are sorted by key; values are escaped per the Prometheus text
/// format (backslash, double quote, newline).
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Formats a float like Prometheus clients do: shortest round-trip
/// representation, `+Inf`/`-Inf`/`NaN` spelled out.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        // Integers render as "x.0" for gauge clarity — but counters
        // pass through the u64 path, not this one.
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        s
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn with_family<R>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        extract: impl Fn(&Series) -> Option<R>,
    ) -> R {
        let key = label_block(labels);
        let mut families = self.families.write().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric `{name}` re-registered with a different type"
        );
        let series = family.series.entry(key).or_insert_with(make);
        extract(series).expect("series kind matches family kind")
    }

    /// The unlabelled counter `name`, created on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with_labels(name, help, &[])
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.with_family(
            name,
            help,
            Kind::Counter,
            labels,
            || Series::Counter(Arc::new(Counter::new())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The unlabelled gauge `name`, created on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with_labels(name, help, &[])
    }

    /// The gauge `name{labels}`, created on first use.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.with_family(
            name,
            help,
            Kind::Gauge,
            labels,
            || Series::Gauge(Arc::new(Gauge::new())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The unlabelled histogram `name`, created on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with_labels(name, help, &[])
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.with_family(
            name,
            help,
            Kind::Histogram,
            labels,
            || Series::Histogram(Arc::new(Histogram::new())),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registers an externally owned counter under `name{labels}`,
    /// replacing any series previously registered there.
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: Arc<Counter>,
    ) {
        self.replace_series(name, help, Kind::Counter, labels, || {
            Series::Counter(counter)
        });
    }

    /// Registers a render-time histogram source under `name{labels}`,
    /// replacing any series previously registered there.
    ///
    /// A *source* is a closure the registry calls on every render — the
    /// scrape hook for state that is sharded across writers (the
    /// monitor's per-worker recorder shards) and only merged on demand.
    pub fn register_histogram_source(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        source: HistogramSource,
    ) {
        self.replace_series(name, help, Kind::Histogram, labels, || {
            Series::HistogramSource(source)
        });
    }

    /// Registers a render-time counter source under `name{labels}`,
    /// replacing any series previously registered there. The closure
    /// must return a monotonically non-decreasing value.
    pub fn register_counter_source(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        source: CounterSource,
    ) {
        self.replace_series(name, help, Kind::Counter, labels, || {
            Series::CounterSource(source)
        });
    }

    fn replace_series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) {
        let key = label_block(labels);
        let mut families = self.families.write().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric `{name}` re-registered with a different type"
        );
        family.series.insert(key, make());
    }

    /// All registered family names, sorted.
    #[must_use]
    pub fn family_names(&self) -> Vec<String> {
        let families = self.families.read().unwrap_or_else(|e| e.into_inner());
        families.keys().cloned().collect()
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, histogram
    /// `_bucket{le=...}` series cumulative over
    /// [`EXPOSITION_BOUNDS_SECS`] plus `+Inf`, then `_sum` and `_count`.
    #[must_use]
    pub fn render(&self) -> String {
        let families = self.families.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", fmt_f64(g.get())));
                    }
                    Series::Histogram(h) => {
                        render_histogram(&mut out, name, labels, &h.snapshot());
                    }
                    Series::HistogramSource(source) => {
                        render_histogram(&mut out, name, labels, &source());
                    }
                    Series::CounterSource(source) => {
                        out.push_str(&format!("{name}{labels} {}\n", source()));
                    }
                }
            }
        }
        out
    }
}

/// Splices `le="..."` into an existing label block (or creates one).
fn labels_with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // labels is "{...}": insert before the closing brace.
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Renders one reading of a histogram, so its buckets, `+Inf` and
/// `_count` agree however writers race the scrape.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &LocalHistogram) {
    let count = h.count();
    for &bound in &EXPOSITION_BOUNDS_SECS {
        let le = fmt_f64(bound);
        let cum = h.cumulative_le_secs(bound);
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            labels_with_le(labels, &le)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {count}\n",
        labels_with_le(labels, "+Inf")
    ));
    out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.sum_secs())));
    out.push_str(&format!("{name}_count{labels} {count}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("dope_test_total", "test");
        let b = r.counter("dope_test_total", "test");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn set_at_least_is_monotone() {
        let c = Counter::new();
        c.set_at_least(10);
        c.set_at_least(5);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::new();
        g.set(612.5);
        assert_eq!(g.get(), 612.5);
        g.set(-0.25);
        assert_eq!(g.get(), -0.25);
    }

    #[test]
    fn render_emits_help_type_and_values() {
        let r = MetricsRegistry::new();
        r.counter("dope_a_total", "counts a").add(7);
        r.gauge("dope_b", "gauges b").set(1.5);
        let text = r.render();
        assert!(text.contains("# HELP dope_a_total counts a\n"));
        assert!(text.contains("# TYPE dope_a_total counter\n"));
        assert!(text.contains("dope_a_total 7\n"));
        assert!(text.contains("# TYPE dope_b gauge\n"));
        assert!(text.contains("dope_b 1.5\n"));
    }

    #[test]
    fn labelled_series_render_sorted_and_escaped() {
        let r = MetricsRegistry::new();
        r.counter_with_labels("dope_l_total", "l", &[("z", "1"), ("a", "x\"y")])
            .inc();
        let text = r.render();
        assert!(
            text.contains("dope_l_total{a=\"x\\\"y\",z=\"1\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("dope_h_seconds", "h");
        h.record_secs(0.003); // 3 ms
        h.record_secs(0.040); // 40 ms
        let text = r.render();
        assert!(text.contains("# TYPE dope_h_seconds histogram\n"));
        assert!(
            text.contains("dope_h_seconds_bucket{le=\"0.005\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dope_h_seconds_bucket{le=\"0.05\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("dope_h_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dope_h_seconds_count 2\n"));
        // Buckets must be monotone non-decreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("dope_h_seconds_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone: {line}");
            last = v;
        }
    }

    #[test]
    fn labelled_histogram_splices_le() {
        let r = MetricsRegistry::new();
        r.histogram_with_labels("dope_h_seconds", "h", &[("path", "0.1")])
            .record_secs(0.001);
        let text = r.render();
        assert!(
            text.contains("dope_h_seconds_bucket{path=\"0.1\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("dope_h_seconds_count{path=\"0.1\"} 1\n"));
    }

    #[test]
    fn a_render_racing_a_writer_is_one_reading() {
        use std::sync::atomic::AtomicBool;
        let r = MetricsRegistry::new();
        let h = r.histogram("dope_race_seconds", "raced");
        let started = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (started, stop) = (Arc::clone(&started), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Every value sits below the first `le` bound, so a
                // record landing mid-render moves every bucket line.
                for nanos in (100..1_100).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    h.record_nanos(nanos);
                    started.store(true, Ordering::Relaxed);
                }
            })
        };
        while !started.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        let value = |line: &str| -> u64 { line.rsplit(' ').next().unwrap().parse().unwrap() };
        let torn: Vec<String> = (0..500)
            .map(|_| r.render())
            .filter(|text| {
                let buckets: Vec<u64> = text
                    .lines()
                    .filter(|l| l.starts_with("dope_race_seconds_bucket"))
                    .map(value)
                    .collect();
                let count = text
                    .lines()
                    .find(|l| l.starts_with("dope_race_seconds_count"))
                    .map(value);
                !buckets.windows(2).all(|w| w[0] <= w[1]) || buckets.last().copied() != count
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(
            torn.is_empty(),
            "{} of 500 renders torn, e.g.\n{}",
            torn.len(),
            torn[0]
        );
    }

    #[test]
    fn histogram_source_is_merged_at_render_time() {
        use std::sync::Mutex;
        let r = MetricsRegistry::new();
        // Two "shards" merged on every render — the scrape always sees
        // the freshest union, with no shared cell between the writers.
        let shards = Arc::new(Mutex::new(vec![
            LocalHistogram::new(),
            LocalHistogram::new(),
        ]));
        let source = Arc::clone(&shards);
        r.register_histogram_source(
            "dope_src_seconds",
            "sharded",
            &[("path", "0")],
            Arc::new(move || {
                let mut merged = LocalHistogram::new();
                for shard in source.lock().unwrap().iter() {
                    merged.merge(shard);
                }
                merged
            }),
        );
        shards.lock().unwrap()[0].record_secs(0.003);
        shards.lock().unwrap()[1].record_secs(0.040);
        let text = r.render();
        assert!(
            text.contains("dope_src_seconds_count{path=\"0\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("dope_src_seconds_bucket{path=\"0\",le=\"0.005\"} 1\n"),
            "{text}"
        );
        // A later record is visible on the next render: nothing cached.
        shards.lock().unwrap()[0].record_secs(0.001);
        assert!(r
            .render()
            .contains("dope_src_seconds_count{path=\"0\"} 3\n"));
    }

    #[test]
    fn counter_source_is_read_at_render_time() {
        let r = MetricsRegistry::new();
        let value = Arc::new(AtomicU64::new(7));
        let source = Arc::clone(&value);
        r.register_counter_source(
            "dope_src_total",
            "sourced",
            &[],
            Arc::new(move || source.load(Ordering::Relaxed)),
        );
        assert!(r.render().contains("dope_src_total 7\n"));
        value.store(9, Ordering::Relaxed);
        assert!(r.render().contains("dope_src_total 9\n"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn source_kind_conflict_panics() {
        let r = MetricsRegistry::new();
        let _ = r.gauge("dope_src_conflict", "g");
        r.register_counter_source("dope_src_conflict", "c", &[], Arc::new(|| 0));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("dope_conflict", "c");
        let _ = r.gauge("dope_conflict", "g");
    }

    #[test]
    fn fmt_f64_spells_special_values() {
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(0.005), "0.005");
    }
}
