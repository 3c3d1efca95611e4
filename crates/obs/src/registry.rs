//! The labeled metrics registry: typed handles, static label sets,
//! and the scrape-ready exposition writers.
//!
//! # Design
//!
//! The hot path is the *handle*, not the registry: a [`Counter`] or
//! [`Gauge`] is one `Arc<AtomicU64>` and records with a single relaxed
//! RMW, a [`Histogram`] with two. The registry
//! itself is only touched at registration and scrape time (one mutex
//! around the metadata table), so instrumented code never contends on
//! it.
//!
//! Handles can be **late-bound**: a subsystem that already owns its
//! counters (e.g. `agar-cache`'s `AtomicCacheStats`) registers the
//! *existing* cells under a metric name and label set, keeping every
//! count accumulated before the registry was attached. Conversely, a
//! detached registry costs nothing — the cells are plain atomics
//! whether or not anything scrapes them.
//!
//! # Exposition
//!
//! [`MetricsRegistry::render_prometheus`] writes the Prometheus text
//! format (`# HELP`/`# TYPE` once per family, one sample line per
//! labeled cell, histograms as cumulative `_bucket{le=...}` series
//! plus `_sum`/`_count`). [`MetricsRegistry::render_json`] writes the
//! same snapshot as a JSON document for CI artifacts. Both are
//! hand-rolled string builders — the vendored serde is a stub — and
//! both iterate metrics in registration order, so a deterministic run
//! produces byte-identical output.

use crate::histogram::Histogram;
use crate::json::json_escape;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell: the clone and the original
/// observe the same value. This is what makes late binding work — the
/// owner keeps recording through its handle while the registry holds a
/// clone for scraping.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A static label set: `(name, value)` pairs attached to a metric at
/// registration time. Rendered in insertion order, so a deterministic
/// run produces byte-identical exposition output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Labels(Vec<(&'static str, String)>);

impl Labels {
    /// An empty label set.
    pub fn new() -> Self {
        Labels::default()
    }

    /// Appends a label (builder style).
    pub fn with(mut self, name: &'static str, value: impl Into<String>) -> Self {
        debug_assert!(valid_name(name), "invalid label name: {name}");
        self.0.push((name, value.into()));
        self
    }

    /// Whether no labels are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pairs, in insertion order.
    fn pairs(&self) -> &[(&'static str, String)] {
        &self.0
    }

    /// Renders `{a="x",b="y"}` (empty string for no labels), with an
    /// optional extra pair appended (used for histogram `le` labels).
    fn render(&self, extra: Option<(&str, &str)>) -> String {
        if self.0.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (name, value) in &self.0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{name}=\"{}\"", escape_label_value(value));
        }
        if let Some((name, value)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{name}=\"{}\"", escape_label_value(value));
        }
        out.push('}');
        out
    }
}

fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Whether `name` is a valid Prometheus metric/label name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels additionally forbid `:`, which
/// no caller in this workspace uses).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The cell a registered metric reads at scrape time.
#[derive(Clone, Debug)]
enum Cell {
    /// One counter, or the sum of several (a count striped over cells
    /// that are each written by one owner).
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Cell {
    fn type_name(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct Metric {
    name: &'static str,
    help: &'static str,
    labels: Labels,
    cell: Cell,
}

/// The metrics registry: a metadata table mapping `(name, labels)` to
/// live cells, plus the exposition writers. See the module docs for
/// the design; in short, handles are lock-free and the registry mutex
/// is only taken at registration and scrape time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers an *existing* counter cell (late binding: the cell
    /// keeps every count it accumulated before registration). If the
    /// exact `(name, labels)` pair is already registered, the cell is
    /// replaced — re-registration is idempotent.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a type conflict.
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        cell: &Counter,
    ) {
        self.register(name, help, labels, Cell::Counter(vec![cell.clone()]));
    }

    /// Registers existing counter cells as **one** series whose value
    /// is their sum (late binding, as [`MetricsRegistry::register_counter`];
    /// idempotent per `(name, labels)`). For a count striped over
    /// cells that each have one writer, such as one cell per lock
    /// stripe.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a type conflict.
    pub fn register_counter_sum(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        cells: &[Counter],
    ) {
        self.register(name, help, labels, Cell::Counter(cells.to_vec()));
    }

    /// Registers an existing gauge cell (late binding; idempotent per
    /// `(name, labels)`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a type conflict.
    pub fn register_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        cell: &Gauge,
    ) {
        self.register(name, help, labels, Cell::Gauge(cell.clone()));
    }

    /// Registers an existing histogram cell (late binding; idempotent
    /// per `(name, labels)`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a type conflict.
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        cell: &Histogram,
    ) {
        self.register(name, help, labels, Cell::Histogram(cell.clone()));
    }

    fn register(&self, name: &'static str, help: &'static str, labels: Labels, cell: Cell) {
        assert!(valid_name(name), "invalid metric name: {name}");
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        for existing in metrics.iter_mut() {
            if existing.name == name {
                assert_eq!(
                    existing.cell.type_name(),
                    cell.type_name(),
                    "metric {name} re-registered as a different type"
                );
                if existing.labels == labels {
                    existing.cell = cell; // idempotent re-registration
                    return;
                }
            }
        }
        metrics.push(Metric {
            name,
            help,
            labels,
            cell,
        });
    }

    /// Number of registered `(name, labels)` cells.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry poisoned").len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the Prometheus text exposition format. `# HELP` and
    /// `# TYPE` are emitted once per family (first registration
    /// wins), followed by every cell of that family in registration
    /// order.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut done: Vec<&'static str> = Vec::new();
        for metric in metrics.iter() {
            if done.contains(&metric.name) {
                continue;
            }
            done.push(metric.name);
            let _ = writeln!(out, "# HELP {} {}", metric.name, metric.help);
            let _ = writeln!(out, "# TYPE {} {}", metric.name, metric.cell.type_name());
            for cell in metrics.iter().filter(|m| m.name == metric.name) {
                render_prometheus_cell(&mut out, cell);
            }
        }
        out
    }

    /// Renders the same snapshot as a JSON document (for `--metrics`
    /// CI artifacts): an array of `{name, type, labels, ...}` objects,
    /// in registration order. Histograms carry their bucket upper
    /// bounds (seconds), cumulative counts, sum and count.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut out = String::from("{\n  \"metrics\": [");
        for (i, metric) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": \"");
            out.push_str(metric.name);
            out.push_str("\", \"type\": \"");
            out.push_str(metric.cell.type_name());
            out.push_str("\", \"labels\": {");
            for (j, (name, value)) in metric.labels.pairs().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": \"{}\"", json_escape(value));
            }
            out.push('}');
            match &metric.cell {
                Cell::Counter(cells) => {
                    let _ = write!(out, ", \"value\": {}", sum(cells));
                }
                Cell::Gauge(g) => {
                    let _ = write!(out, ", \"value\": {}", g.get());
                }
                Cell::Histogram(h) => {
                    let snapshot = h.snapshot();
                    out.push_str(", \"le_seconds\": [");
                    for (j, (le, _)) in snapshot.cumulative_buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{le}");
                    }
                    out.push_str("], \"cumulative_counts\": [");
                    for (j, (_, count)) in snapshot.cumulative_buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{count}");
                    }
                    let _ = write!(
                        out,
                        "], \"count\": {}, \"sum_seconds\": {}",
                        snapshot.count, snapshot.sum_seconds
                    );
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The value of a counter series: the sum of its cells.
fn sum(cells: &[Counter]) -> u64 {
    cells.iter().map(Counter::get).sum()
}

fn render_prometheus_cell(out: &mut String, metric: &Metric) {
    match &metric.cell {
        Cell::Counter(cells) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                metric.name,
                metric.labels.render(None),
                sum(cells)
            );
        }
        Cell::Gauge(g) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                metric.name,
                metric.labels.render(None),
                g.get()
            );
        }
        Cell::Histogram(h) => {
            let snapshot = h.snapshot();
            for (le, count) in &snapshot.cumulative_buckets {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    metric.name,
                    metric.labels.render(Some(("le", le))),
                    count
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                metric.name,
                metric.labels.render(Some(("le", "+Inf"))),
                snapshot.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                metric.name,
                metric.labels.render(None),
                snapshot.sum_seconds
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                metric.name,
                metric.labels.render(None),
                snapshot.count
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let registry = MetricsRegistry::new();
        let c = Counter::new();
        registry.register_counter("test_ops_total", "ops", Labels::new(), &c);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        registry.register_gauge("test_bytes", "bytes", Labels::new(), &g);
        g.set(100);
        g.add(20);
        assert_eq!(g.get(), 120);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn late_binding_keeps_prior_counts() {
        let cell = Counter::new();
        cell.add(7); // counted before any registry exists
        let registry = MetricsRegistry::new();
        registry.register_counter("late_total", "late", Labels::new(), &cell);
        cell.inc();
        let text = registry.render_prometheus();
        assert!(text.contains("late_total 8"), "{text}");
    }

    #[test]
    fn a_counter_sum_is_one_live_series() {
        let stripes = [Counter::new(), Counter::new(), Counter::new()];
        stripes[0].add(2);
        let registry = MetricsRegistry::new();
        registry.register_counter_sum("striped_total", "s", Labels::new(), &stripes);
        stripes[2].add(5);
        assert_eq!(registry.len(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE striped_total counter"), "{text}");
        assert!(text.contains("striped_total 7"), "{text}");
        assert!(registry.render_json().contains("\"value\": 7"));
    }

    #[test]
    fn reregistration_is_idempotent_per_label_set() {
        let registry = MetricsRegistry::new();
        let a = Counter::new();
        a.add(1);
        let labels = || Labels::new().with("region", "fra");
        registry.register_counter("dup_total", "d", labels(), &a);
        let b = Counter::new();
        b.add(9);
        registry.register_counter("dup_total", "d", labels(), &b);
        assert_eq!(registry.len(), 1, "same (name, labels) replaces");
        assert!(registry
            .render_prometheus()
            .contains("dup_total{region=\"fra\"} 9"));
        // A different label set is a new cell of the same family.
        registry.register_counter("dup_total", "d", Labels::new().with("region", "syd"), &a);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let registry = MetricsRegistry::new();
        let c = Counter::new();
        registry.register_counter(
            "agar_chunk_hits_total",
            "Chunk lookups served by the cache.",
            Labels::new()
                .with("tier", "ram")
                .with("region", "Frankfurt"),
            &c,
        );
        c.add(3);
        let h = Histogram::new();
        registry.register_histogram(
            "agar_read_latency_seconds",
            "End-to-end read latency.",
            Labels::new(),
            &h,
        );
        h.record(Duration::from_millis(250));
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP agar_chunk_hits_total Chunk lookups served by the cache."));
        assert!(text.contains("# TYPE agar_chunk_hits_total counter"));
        assert!(text.contains("agar_chunk_hits_total{tier=\"ram\",region=\"Frankfurt\"} 3"));
        assert!(text.contains("# TYPE agar_read_latency_seconds histogram"));
        assert!(text.contains("agar_read_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("agar_read_latency_seconds_count 1"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.split_whitespace().count() == 2, "bad line: {line}");
        }
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let registry = MetricsRegistry::new();
        for scenario in ["a", "b", "c"] {
            registry.register_counter(
                "family_total",
                "one help",
                Labels::new().with("scenario", scenario),
                &Counter::new(),
            );
        }
        let text = registry.render_prometheus();
        assert_eq!(text.matches("# HELP family_total").count(), 1);
        assert_eq!(text.matches("# TYPE family_total").count(), 1);
        assert_eq!(text.matches("family_total{scenario=").count(), 3);
    }

    #[test]
    fn json_snapshot_contains_values() {
        let registry = MetricsRegistry::new();
        let c = Counter::new();
        registry.register_counter("j_total", "j", Labels::new().with("kind", "x"), &c);
        c.add(11);
        let json = registry.render_json();
        assert!(json.contains("\"name\": \"j_total\""));
        assert!(json.contains("\"kind\": \"x\""));
        assert!(json.contains("\"value\": 11"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        let labels = Labels::new().with("p", "say \"hi\"\\n");
        registry.register_counter("esc_total", "e", labels, &Counter::new());
        let text = registry.render_prometheus();
        assert!(text.contains("p=\"say \\\"hi\\\"\\\\n\""), "{text}");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_rejected() {
        MetricsRegistry::new().register_counter("9bad-name", "x", Labels::new(), &Counter::new());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_rejected() {
        let registry = MetricsRegistry::new();
        registry.register_counter("clash", "x", Labels::new(), &Counter::new());
        registry.register_gauge("clash", "x", Labels::new().with("a", "b"), &Gauge::new());
    }
}
