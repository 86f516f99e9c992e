//! `sr-obs` — the engine-wide observability substrate.
//!
//! Every execution layer of the stream reasoner reports into the three
//! primitives defined here, instead of growing its own ad-hoc telemetry:
//!
//! * [`MetricsRegistry`] — named + labeled counters, gauges and
//!   [`Histogram`]s, scraped on demand. Components either own the metric
//!   (an `Arc<AtomicU64>` counter, an `Arc<Histogram>`) or register a
//!   *collector closure* over counters they already maintain, so existing
//!   snapshot structs keep their exact shapes while becoming scrapeable.
//! * [`Histogram`] — a log-bucketed, mergeable latency histogram with
//!   constant memory (one fixed array of atomic buckets), lock-free
//!   recording and nearest-rank percentile lookup whose relative error is
//!   bounded by [`Histogram::REL_ERROR`]. It replaces the engine's old
//!   retain-every-sample `Vec<f64>` + re-sort summaries.
//! * [`Tracer`] — per-window stage tracing. Spans are recorded per
//!   lifecycle stage ([`Stage`]: windowing → partition → cache-lookup →
//!   ground → plan → solve → combine → recover → emit),
//!   tagged with the ambient [`TraceCtx`] (window id, lane, partition,
//!   serving-entry fingerprint) that engine lanes and partition jobs
//!   install. The disabled path is a single relaxed atomic
//!   load — tracing off costs ~one branch.
//!
//! Exporters: [`render_prometheus`](MetricsRegistry::render_prometheus)
//! produces Prometheus text exposition (served by [`MetricsServer`] from a
//! plain `std::net::TcpListener` thread — the workspace is offline, no HTTP
//! dependency), and [`chrome_trace_json`] renders drained spans as a Chrome
//! `chrome://tracing` / Perfetto trace-event file for per-window flame
//! views.

pub mod export;
pub mod hist;
pub mod registry;
pub mod serve;
pub mod trace;

pub use export::chrome_trace_json;
pub use hist::Histogram;
pub use registry::{Gauge, MetricsRegistry};
pub use serve::{scrape, MetricsServer};
pub use trace::{
    ctx_scope, current_ctx, group_by_window, span, tracer, CtxGuard, SpanGuard, SpanRecord, Stage,
    TraceCtx, Tracer, WindowTrace,
};
