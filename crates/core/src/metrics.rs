//! Shared timing/metrics helpers: millisecond conversion, the run tally
//! every window-at-a-time or pipelined run keeps, the latency/throughput
//! summaries it reports, and the reuse counters of incremental reasoning
//! ([`crate::incremental`]). Every latency percentile comes from one
//! [`sr_obs::Histogram`] through [`LatencyStats::from_histogram`].

use crate::engine::EngineStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped. The one escaper behind the hand-rolled JSON writers.
pub(crate) fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A duration in fractional milliseconds (the unit of every figure).
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency distribution summary (milliseconds) over a set of samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (p50).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Smallest sample.
    pub min_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Summarizes a [`sr_obs::Histogram`] in constant memory, without
    /// retaining every sample. `count`/`mean`/`min`/`max` are exact; the
    /// percentiles are nearest-rank within
    /// [`sr_obs::Histogram::REL_ERROR`] (exact for single-sample
    /// summaries). Zeroed stats on an empty histogram.
    pub fn from_histogram(hist: &sr_obs::Histogram) -> Self {
        if hist.is_empty() {
            return LatencyStats::default();
        }
        LatencyStats {
            count: hist.count() as usize,
            mean_ms: hist.mean(),
            p50_ms: hist.quantile(0.50),
            p95_ms: hist.quantile(0.95),
            p99_ms: hist.quantile(0.99),
            min_ms: hist.min(),
            max_ms: hist.max(),
        }
    }

    /// Renders the summary as a JSON object (the workspace has no JSON
    /// serializer dependency; this hand-rolled form is what
    /// `BENCH_throughput.json` embeds).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ms\": {:.4}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"min_ms\": {:.4}, \"max_ms\": {:.4}}}",
            self.count,
            self.mean_ms,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.min_ms,
            self.max_ms
        )
    }
}

/// Window and item totals of one run, shared with the metrics registry so
/// a live scrape reads them without locking the engine.
#[derive(Default)]
struct RunCounts {
    windows: AtomicU64,
    items: AtomicU64,
}

/// The run tally of [`StreamEngine`](crate::engine::StreamEngine), whatever
/// its lanes serve, and of any window-at-a-time caller: window and item
/// totals, the per-window latency histogram, and the span from the first
/// submission to the last completion (errors are
/// [`FailureCounters::errors`]). Only its owner's thread
/// records; scrapes read the shared counters and histogram.
#[derive(Default)]
pub struct RunTally {
    counts: Arc<RunCounts>,
    latency: Arc<sr_obs::Histogram>,
    first: Option<Instant>,
    last_done: Option<Instant>,
}

impl RunTally {
    /// Marks the run as started at `at`, unless it already was.
    pub fn start(&mut self, at: Instant) {
        self.first.get_or_insert(at);
    }

    /// Counts one finished window of `items` items that took `latency` and
    /// was done at `done`.
    pub fn record(&mut self, items: usize, latency: Duration, done: Instant) {
        self.counts.windows.fetch_add(1, Ordering::Relaxed);
        self.counts.items.fetch_add(items as u64, Ordering::Relaxed);
        self.latency.record(duration_ms(latency));
        self.last_done = self.last_done.max(Some(done));
    }

    /// The fields of [`EngineStats`] every run shares; the rest are left at
    /// their defaults. `errors` is read from `failures`; `failure` is present
    /// when the run was `armed` (a deadline or a fault plan) or any of
    /// `failures` moved.
    pub fn stats(&self, armed: bool, failures: &FailureCounters) -> EngineStats {
        let elapsed = match (self.first, self.last_done) {
            (Some(t0), Some(t1)) => t1.saturating_duration_since(t0),
            _ => Duration::ZERO,
        };
        let secs = elapsed.as_secs_f64();
        let per_sec = |n: u64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
        let windows = self.counts.windows.load(Ordering::Relaxed);
        let items = self.counts.items.load(Ordering::Relaxed);
        EngineStats {
            windows,
            errors: failures.errors.load(Ordering::Relaxed),
            items,
            elapsed_ms: duration_ms(elapsed),
            windows_per_sec: per_sec(windows),
            items_per_sec: per_sec(items),
            latency: LatencyStats::from_histogram(&self.latency),
            failure: (armed || failures.any_nonzero()).then(|| failures.snapshot()),
            ..EngineStats::default()
        }
    }

    /// Registers `{prefix}_{windows,items}_total` and
    /// `{prefix}_window_latency_ms` with `registry`.
    pub(crate) fn register_metrics(&self, registry: &sr_obs::MetricsRegistry, prefix: &str) {
        type Field = fn(&RunCounts) -> &AtomicU64;
        let counters: [(&str, Field); 2] = [("windows", |c| &c.windows), ("items", |c| &c.items)];
        for (name, field) in counters {
            let shared = Arc::clone(&self.counts);
            registry.register_counter_fn(&format!("{prefix}_{name}_total"), &[], move || {
                field(&shared).load(Ordering::Relaxed)
            });
        }
        let name = format!("{prefix}_window_latency_ms");
        registry.register_histogram(&name, &[], Arc::clone(&self.latency));
    }
}

/// Live counters of incremental reasoning, shared (behind an `Arc`) between
/// the [`IncrementalReasoner`](crate::incremental::IncrementalReasoner)s of
/// one engine or one multi-tenant engine and whoever reports them.
/// Atomics: engine lanes update them concurrently.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Communities whose answers were reused (clean communities).
    pub hits: AtomicU64,
    /// Communities that had to be recomputed (dirty communities).
    pub misses: AtomicU64,
    /// Entries evicted by a [`PartitionCache`](crate::incremental::PartitionCache),
    /// a measured-surface facade; incremental reasoning evicts nothing.
    pub evictions: AtomicU64,
}

impl CacheCounters {
    /// A point-in-time copy for reports.
    pub fn snapshot(&self) -> IncrementalSnapshot {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let total = hits + misses;
        IncrementalSnapshot {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_partition_ratio: if total > 0 { misses as f64 / total as f64 } else { 0.0 },
        }
    }

    /// Binds the live counters to `registry` as scrape-time collector
    /// closures (`sr_cache_{hits,misses}_total`): the hot path keeps its
    /// `fetch_add`s and nothing is double-counted.
    pub fn register_metrics(self: &Arc<Self>, registry: &sr_obs::MetricsRegistry) {
        type Field = fn(&CacheCounters) -> &AtomicU64;
        let counters: [(&str, Field); 2] =
            [("sr_cache_hits_total", |c| &c.hits), ("sr_cache_misses_total", |c| &c.misses)];
        for (name, field) in counters {
            let shared = Arc::clone(self);
            registry.register_counter_fn(name, &[], move || field(&shared).load(Ordering::Relaxed));
        }
    }
}

/// Snapshot of how much incremental reasoning reused, embedded in
/// [`EngineStats`] and the bench records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IncrementalSnapshot {
    /// Communities whose answers were reused.
    pub hits: u64,
    /// Communities recomputed.
    pub misses: u64,
    /// Entries a [`PartitionCache`](crate::incremental::PartitionCache)
    /// facade evicted; not rendered by [`IncrementalSnapshot::to_json`].
    pub evictions: u64,
    /// `misses / (hits + misses)` — the fraction of community computations
    /// that were actually dirty (0 when nothing was processed).
    pub dirty_partition_ratio: f64,
}

impl IncrementalSnapshot {
    /// Renders the snapshot as a JSON object (hand-rolled, as for
    /// [`LatencyStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"dirty_partition_ratio\": {:.4}}}",
            self.hits, self.misses, self.dirty_partition_ratio
        )
    }
}

/// Live counters of the fault-tolerance machinery, shared (behind an `Arc`)
/// between a stream engine, its lanes' partitioned reasoners, and the
/// multi-tenant scheduler. Atomics: lanes, forked threads and the engine's
/// caller update them concurrently.
#[derive(Debug, Default)]
pub struct FailureCounters {
    /// Partition jobs retried after a panic.
    pub retries: AtomicU64,
    /// Partitions recovered by the full re-ground fallback (every recovery
    /// attempt runs it; counted once per recovered partition).
    pub fallbacks: AtomicU64,
    /// Windows emitted degraded because the per-window deadline fired.
    pub degraded_windows: AtomicU64,
    /// Degraded windows whose real result later arrived (and was discarded
    /// to preserve ordered emission).
    pub late_recoveries: AtomicU64,
    /// Reasoner panics an engine lane caught and turned into that window's
    /// error; the lane kept serving.
    pub lane_rebuilds: AtomicU64,
    /// Serving entries quarantined by the multi-tenant scheduler.
    pub quarantines: AtomicU64,
    /// Windows whose reasoner returned an error (or panicked), and entry
    /// runs a multi-tenant scheduler saw fail. Reported as
    /// [`EngineStats::errors`], not in the snapshot.
    pub errors: AtomicU64,
}

impl FailureCounters {
    /// A point-in-time copy for reports.
    pub fn snapshot(&self) -> FailureSnapshot {
        FailureSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            degraded_windows: self.degraded_windows.load(Ordering::Relaxed),
            late_recoveries: self.late_recoveries.load(Ordering::Relaxed),
            lane_rebuilds: self.lane_rebuilds.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }

    /// True when any counter moved — used to decide whether the snapshot is
    /// worth reporting at all (counters are omitted, never fabricated, when
    /// nothing failure-related happened and no failure machinery was armed).
    pub fn any_nonzero(&self) -> bool {
        self.retries.load(Ordering::Relaxed) > 0
            || self.fallbacks.load(Ordering::Relaxed) > 0
            || self.degraded_windows.load(Ordering::Relaxed) > 0
            || self.late_recoveries.load(Ordering::Relaxed) > 0
            || self.lane_rebuilds.load(Ordering::Relaxed) > 0
            || self.quarantines.load(Ordering::Relaxed) > 0
    }
}

/// Snapshot of the fault-tolerance counters, embedded in
/// [`EngineStats`] and the chaos bench record.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailureSnapshot {
    /// Partition jobs retried after a panic.
    pub retries: u64,
    /// Partitions recovered via the full re-ground fallback.
    pub fallbacks: u64,
    /// Windows emitted degraded on deadline.
    pub degraded_windows: u64,
    /// Degraded windows whose real result later arrived.
    pub late_recoveries: u64,
    /// Reasoner panics caught by engine lanes (the lane kept serving).
    pub lane_rebuilds: u64,
    /// Serving entries quarantined.
    pub quarantines: u64,
}

impl FailureSnapshot {
    /// Renders the snapshot as a JSON object (hand-rolled, as for
    /// [`LatencyStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"retries\": {}, \"fallbacks\": {}, \"degraded_windows\": {}, \
             \"late_recoveries\": {}, \"lane_rebuilds\": {}, \"quarantines\": {}}}",
            self.retries,
            self.fallbacks,
            self.degraded_windows,
            self.late_recoveries,
            self.lane_rebuilds,
            self.quarantines
        )
    }
}

/// Per-tenant latency summary reported by the multi-tenant scheduler
/// ([`MultiTenantEngine`](crate::multi_tenant::MultiTenantEngine)), embedded
/// in [`EngineStats`]. The latency a tenant
/// observes is the wall clock until *its program's* result is ready for the
/// window — tenants deduplicated onto one program run record the same
/// sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantLatency {
    /// Tenant id (any string; escaped when rendered into JSON).
    pub tenant: String,
    /// Fingerprint of the program the tenant is subscribed to (see
    /// [`program_fingerprint`](crate::incremental::program_fingerprint)).
    pub program: u64,
    /// Per-window latency distribution observed by this tenant.
    pub latency: LatencyStats,
}

impl TenantLatency {
    /// Renders the summary as a JSON object (hand-rolled, as for
    /// [`LatencyStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenant\": {}, \"program\": {}, \"latency\": {}}}",
            json_string(&self.tenant),
            self.program,
            self.latency.to_json()
        )
    }
}

/// Work-deduplication counters of the multi-tenant scheduler: how many
/// tenant-window results were served versus how many program runs actually
/// happened. The dedup key is `(program fingerprint, partitioner)` — N
/// tenants behind one key cost one run per window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DedupSnapshot {
    /// Tenants currently admitted.
    pub tenants: u64,
    /// Distinct `(program, partitioner)` entries currently admitted.
    pub programs: u64,
    /// Windows processed.
    pub windows: u64,
    /// Tenant-window results served (one per tenant per window).
    pub tenant_windows: u64,
    /// Program runs actually executed (one per distinct program per window).
    pub program_runs: u64,
    /// `tenant_windows - program_runs`: runs avoided by sharing.
    pub shared_runs_saved: u64,
    /// `shared_runs_saved / tenant_windows` (0 when nothing was served).
    pub dedup_ratio: f64,
}

impl DedupSnapshot {
    /// Renders the snapshot as a JSON object (hand-rolled, as for
    /// [`LatencyStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenants\": {}, \"programs\": {}, \"windows\": {}, \
             \"tenant_windows\": {}, \"program_runs\": {}, \
             \"shared_runs_saved\": {}, \"dedup_ratio\": {:.4}}}",
            self.tenants,
            self.programs,
            self.windows,
            self.tenant_windows,
            self.program_runs,
            self.shared_runs_saved,
            self.dedup_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LatencyStats {
        /// The exact nearest-rank summary of `samples` that
        /// [`LatencyStats::from_histogram`] approximates. Zeroed stats on
        /// an empty slice.
        fn from_samples(samples: &[f64]) -> Self {
            if samples.is_empty() {
                return LatencyStats::default();
            }
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = |q: f64| sorted[(q * (sorted.len() - 1) as f64).round() as usize];
            LatencyStats {
                count: sorted.len(),
                mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
                p50_ms: rank(0.50),
                p95_ms: rank(0.95),
                p99_ms: rank(0.99),
                min_ms: sorted[0],
                max_ms: sorted[sorted.len() - 1],
            }
        }
    }

    #[test]
    fn duration_ms_converts() {
        assert_eq!(duration_ms(Duration::from_millis(1500)), 1500.0);
        assert_eq!(duration_ms(Duration::ZERO), 0.0);
    }

    #[test]
    fn latency_stats_summarize() {
        let xs = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        let s = LatencyStats::from_samples(&xs);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_ms, 3.0);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 5.0);
        assert!(s.p95_ms >= s.p50_ms);
    }

    #[test]
    fn empty_stats_are_zeroed_and_json_renders() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        let json = LatencyStats::from_samples(&[2.0]).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"p99_ms\": 2.0000"));
    }

    #[test]
    fn from_histogram_matches_from_samples_within_the_error_bound() {
        let xs = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        let hist = sr_obs::Histogram::new();
        for &x in &xs {
            hist.record(x);
        }
        let exact = LatencyStats::from_samples(&xs);
        let approx = LatencyStats::from_histogram(&hist);
        assert_eq!(approx.count, exact.count);
        assert_eq!(approx.mean_ms, exact.mean_ms);
        assert_eq!(approx.min_ms, exact.min_ms);
        assert_eq!(approx.max_ms, exact.max_ms);
        for (a, e) in [
            (approx.p50_ms, exact.p50_ms),
            (approx.p95_ms, exact.p95_ms),
            (approx.p99_ms, exact.p99_ms),
        ] {
            assert!((a - e).abs() <= e * sr_obs::Histogram::REL_ERROR + 1e-9, "{a} vs {e}");
        }
        // Single-sample summaries stay exact — the JSON pin relies on it.
        let one = sr_obs::Histogram::new();
        one.record(2.0);
        let json = LatencyStats::from_histogram(&one).to_json();
        assert!(json.contains("\"p99_ms\": 2.0000"), "{json}");
        // Empty histograms zero out like empty slices.
        assert_eq!(
            LatencyStats::from_histogram(&sr_obs::Histogram::new()),
            LatencyStats::from_samples(&[])
        );
    }

    #[test]
    fn tenant_latency_and_dedup_render_json() {
        let t = TenantLatency {
            tenant: "t0".into(),
            program: 42,
            latency: LatencyStats::from_samples(&[2.0]),
        };
        let json = t.to_json();
        assert!(json.contains("\"tenant\": \"t0\""), "{json}");
        assert!(json.contains("\"program\": 42"), "{json}");
        assert!(json.contains("\"p99_ms\": 2.0000"), "{json}");
        let quoted = TenantLatency { tenant: r#"a"b\c"#.into(), ..t };
        assert!(quoted.to_json().contains(r#""tenant": "a\"b\\c""#), "{}", quoted.to_json());
        assert_eq!(json_string("\u{1}\n"), r#""\u0001\n""#);
        let d = DedupSnapshot {
            tenants: 8,
            programs: 3,
            windows: 10,
            tenant_windows: 80,
            program_runs: 30,
            shared_runs_saved: 50,
            dedup_ratio: 0.625,
        };
        let json = d.to_json();
        assert!(json.contains("\"dedup_ratio\": 0.6250"), "{json}");
        assert!(json.contains("\"shared_runs_saved\": 50"), "{json}");
    }

    #[test]
    fn failure_counters_snapshot_and_json() {
        let f = FailureCounters::default();
        assert!(!f.any_nonzero());
        f.retries.fetch_add(2, Ordering::Relaxed);
        f.fallbacks.fetch_add(1, Ordering::Relaxed);
        f.degraded_windows.fetch_add(3, Ordering::Relaxed);
        assert!(f.any_nonzero());
        let s = f.snapshot();
        assert_eq!((s.retries, s.fallbacks, s.degraded_windows), (2, 1, 3));
        let json = s.to_json();
        assert!(json.contains("\"retries\": 2"), "{json}");
        assert!(json.contains("\"degraded_windows\": 3"), "{json}");
        assert!(json.contains("\"quarantines\": 0"), "{json}");
    }

    #[test]
    fn cache_counters_snapshot_and_ratio() {
        let c = CacheCounters::default();
        assert_eq!(c.snapshot().dirty_partition_ratio, 0.0, "no samples, no ratio");
        c.hits.fetch_add(3, Ordering::Relaxed);
        c.misses.fetch_add(1, Ordering::Relaxed);
        c.evictions.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 2));
        assert_eq!(s.dirty_partition_ratio, 0.25);
        let json = s.to_json();
        assert!(json.contains("\"dirty_partition_ratio\": 0.2500"), "{json}");
        assert!(!json.contains("evictions"), "nothing evicts: key omitted: {json}");
    }
}
