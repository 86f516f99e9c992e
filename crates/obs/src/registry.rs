//! The metrics registry: named + labeled counters, gauges and histograms,
//! rendered on demand in Prometheus text exposition format.
//!
//! Counters and gauges are **collector closures**
//! ([`register_counter_fn`](MetricsRegistry::register_counter_fn),
//! [`register_gauge_fn`](MetricsRegistry::register_gauge_fn)) that read a
//! value at scrape time; histograms are an `Arc<Histogram>` the caller
//! records into ([`register_histogram`](MetricsRegistry::register_histogram)).
//! Every component exposes counters it already keeps this way (the run
//! tally, `CacheCounters`, dedup and occupancy counters), so their
//! field layouts and JSON shapes stay as they are: the closure captures the
//! `Arc`'d struct and loads its atomics when a scrape happens, costing
//! nothing between scrapes.
//!
//! Re-registering the same `(name, labels)` replaces the previous source,
//! so per-run components (a fresh engine per bench trial, say) can re-bind
//! their collectors without leaking stale entries.

use crate::hist::Histogram;
use std::sync::{Arc, Mutex};

/// Where a metric's value comes from at scrape time.
enum Source {
    Histogram(Arc<Histogram>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
}

impl Source {
    /// Prometheus `# TYPE` keyword.
    fn type_name(&self) -> &'static str {
        match self {
            Source::CounterFn(_) => "counter",
            Source::GaugeFn(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric.
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// A registry of named + labeled metrics. Cheap to share (`Arc`), scraped
/// by [`render_prometheus`](MetricsRegistry::render_prometheus); the
/// registry lock is taken only on registration and scrape, never on the
/// recording hot path.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(&self, name: &str, labels: &[(&str, &str)], source: Source) {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(m) = metrics.iter_mut().find(|m| m.name == name && m.labels == labels) {
            m.source = source;
        } else {
            metrics.push(Metric { name: name.to_string(), labels, source });
        }
    }

    /// Registers (or replaces) a histogram the caller records into.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], hist: Arc<Histogram>) {
        self.upsert(name, labels, Source::Histogram(hist));
    }

    /// Registers (or replaces) a counter collector: `f` is called at scrape
    /// time and must be monotonic for Prometheus semantics to hold.
    pub fn register_counter_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.upsert(name, labels, Source::CounterFn(Box::new(f)));
    }

    /// Registers (or replaces) a gauge collector called at scrape time.
    pub fn register_gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.upsert(name, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format (version 0.0.4): one `# TYPE` line per metric name, then one
    /// sample line per label set — histograms expand into cumulative
    /// `_bucket{le=...}` lines (non-empty buckets plus `+Inf`), `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap();
        // Deterministic output: group by name, then label order.
        let mut order: Vec<usize> = (0..metrics.len()).collect();
        order.sort_by(|&a, &b| {
            (&metrics[a].name, &metrics[a].labels).cmp(&(&metrics[b].name, &metrics[b].labels))
        });
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for &i in &order {
            let m = &metrics[i];
            let name = sanitize_name(&m.name);
            if last_name != Some(m.name.as_str()) {
                out.push_str(&format!("# TYPE {name} {}\n", m.source.type_name()));
                last_name = Some(m.name.as_str());
            }
            match &m.source {
                Source::CounterFn(f) => {
                    let labels = render_labels(&m.labels, &[]);
                    out.push_str(&format!("{name}{labels} {}\n", f()));
                }
                Source::GaugeFn(f) => {
                    let labels = render_labels(&m.labels, &[]);
                    out.push_str(&format!("{name}{labels} {}\n", fmt_f64(f())));
                }
                Source::Histogram(h) => {
                    h.for_each_nonempty_bucket(|le, cumulative| {
                        let labels = render_labels(&m.labels, &[("le", &fmt_f64(le))]);
                        out.push_str(&format!("{name}_bucket{labels} {cumulative}\n"));
                    });
                    let inf = render_labels(&m.labels, &[("le", "+Inf")]);
                    out.push_str(&format!("{name}_bucket{inf} {}\n", h.count()));
                    let labels = render_labels(&m.labels, &[]);
                    out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.sum())));
                    out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; anything else becomes
/// `_`. A leading digit gets a `_` prefix.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders `{k="v",...}` with `extra` pairs appended (empty string when
/// there are no labels at all).
fn render_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::with_capacity(labels.len() + extra.len());
    for (k, v) in labels {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes `\`, `"` and newlines per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Shortest-exact float formatting (Prometheus accepts any Go-parseable
/// float; Rust's `{}` on `f64` round-trips).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_fns_replace_on_reregistration() {
        let reg = MetricsRegistry::new();
        reg.register_counter_fn("hits_total", &[], || 1);
        reg.register_counter_fn("hits_total", &[], || 42);
        let text = reg.render_prometheus();
        assert!(text.contains("hits_total 42"), "{text}");
        assert!(!text.contains("hits_total 1\n"), "{text}");
    }

    #[test]
    fn prometheus_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.register_counter_fn("windows_total", &[("lane", "0")], || 7);
        reg.register_counter_fn("windows_total", &[("lane", "1")], || 5);
        reg.register_gauge_fn("queue_depth", &[], || 2.5);
        let h = Arc::new(Histogram::new());
        reg.register_histogram("latency_ms", &[], Arc::clone(&h));
        h.record(2.0);
        h.record(2.0);
        h.record(1000.0);
        reg.register_counter_fn("cache_hits_total", &[], || 11);
        let expected = format!(
            "# TYPE cache_hits_total counter\n\
             cache_hits_total 11\n\
             # TYPE latency_ms histogram\n\
             latency_ms_bucket{{le=\"{le2}\"}} 2\n\
             latency_ms_bucket{{le=\"{le1000}\"}} 3\n\
             latency_ms_bucket{{le=\"+Inf\"}} 3\n\
             latency_ms_sum 1004\n\
             latency_ms_count 3\n\
             # TYPE queue_depth gauge\n\
             queue_depth 2.5\n\
             # TYPE windows_total counter\n\
             windows_total{{lane=\"0\"}} 7\n\
             windows_total{{lane=\"1\"}} 5\n",
            le2 = bucket_upper_bound_of(2.0),
            le1000 = bucket_upper_bound_of(1000.0),
        );
        assert_eq!(reg.render_prometheus(), expected);
    }

    /// Upper bound of the bucket a value lands in (test helper mirroring
    /// the histogram's internal indexing).
    fn bucket_upper_bound_of(v: f64) -> f64 {
        let h = Histogram::new();
        h.record(v);
        let mut le = f64::NAN;
        h.for_each_nonempty_bucket(|bound, _| le = bound);
        le
    }

    #[test]
    fn names_are_sanitized() {
        let reg = MetricsRegistry::new();
        reg.register_counter_fn("9bad.name-total", &[("k", "a\"b")], || 1);
        let text = reg.render_prometheus();
        assert!(text.contains("_9bad_name_total{k=\"a\\\"b\"} 1"), "{text}");
    }
}
