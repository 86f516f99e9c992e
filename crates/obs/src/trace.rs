//! Per-window stage tracing.
//!
//! A [`Tracer`] records [`SpanRecord`]s — one per lifecycle [`Stage`]
//! execution — tagged with the ambient [`TraceCtx`] (window id, lane,
//! partition index, serving-entry fingerprint). The context is a
//! thread-local that engine lanes install and partition jobs carry onto
//! `WorkerPool` workers with [`ctx_scope`], so spans recorded deep inside a
//! pool worker still attribute to the right window and partition even
//! though the work crossed a job boundary.
//!
//! Tracing is off by default. The disabled fast path —
//! [`span`] returning `None` — is a single relaxed atomic load and a
//! branch; no clock is read and nothing allocates. When enabled, spans
//! accumulate in a bounded buffer (drops are counted, never blocking the
//! engine) until [`drain`](Tracer::drain)ed, typically once per run, then
//! grouped into [`WindowTrace`]s or exported as a Chrome trace
//! ([`chrome_trace_json`](crate::chrome_trace_json)).
//!
//! The process-global tracer ([`tracer`]) is what production code uses;
//! unit tests that must not observe each other's spans can build a private
//! [`Tracer::new`] instance, or filter drained spans by a unique window id.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A window's lifecycle stage, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// The whole window, submit to emit (the enclosing span).
    Window,
    /// Stream items turned into input facts.
    Windowing,
    /// Routing items into partitions.
    Partition,
    /// Finding the dirty communities: routing the window's delta.
    CacheLookup,
    /// Scratch (full) grounding, or perfect-model evaluation of a
    /// stratified program.
    Ground,
    /// Cost-based join (re)planning.
    Plan,
    /// Solving the ground program with CDCL (non-stratified programs only).
    Solve,
    /// Combining per-partition answers.
    Combine,
    /// Recovering from a failed partition job: retry attempts and the full
    /// re-ground fallback after a worker panic.
    Recover,
    /// Ordered emission out of the engine.
    Emit,
}

impl Stage {
    /// Stable lowercase name (Chrome trace event / table row label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Window => "window",
            Stage::Windowing => "windowing",
            Stage::Partition => "partition",
            Stage::CacheLookup => "cache_lookup",
            Stage::Ground => "ground",
            Stage::Plan => "plan",
            Stage::Solve => "solve",
            Stage::Combine => "combine",
            Stage::Recover => "recover",
            Stage::Emit => "emit",
        }
    }

    /// Every stage, in pipeline order (diag tables iterate this).
    pub fn all() -> &'static [Stage] {
        &[
            Stage::Window,
            Stage::Windowing,
            Stage::Partition,
            Stage::CacheLookup,
            Stage::Ground,
            Stage::Plan,
            Stage::Solve,
            Stage::Combine,
            Stage::Recover,
            Stage::Emit,
        ]
    }
}

/// The ambient attribution for spans recorded on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The window being processed.
    pub window_id: u64,
    /// Engine lane index, when running inside a lane thread.
    pub lane: Option<u32>,
    /// Partition index, when running inside a pool worker job.
    pub partition: Option<u32>,
    /// Serving-entry fingerprint, when running under the multi-tenant
    /// engine.
    pub entry_fp: Option<u64>,
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Which stage ran.
    pub stage: Stage,
    /// Attribution captured when the span opened.
    pub ctx: TraceCtx,
    /// Microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx {
        window_id: 0,
        lane: None,
        partition: None,
        entry_fp: None,
    }) };
}

/// Reads the current thread's trace context.
pub fn current_ctx() -> TraceCtx {
    CTX.with(Cell::get)
}

/// Installs `ctx` for the current thread until the guard drops (the
/// previous context is restored), so nested scopes — an engine lane
/// handing partitions to pool workers, a pool worker re-used by the next
/// window — attribute correctly.
pub fn ctx_scope(ctx: TraceCtx) -> CtxGuard {
    let prev = CTX.with(|c| c.replace(ctx));
    CtxGuard { prev }
}

/// Restores the previous [`TraceCtx`] on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    prev: TraceCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Default capacity of the span buffer (records are 48 bytes; ~12 MB cap).
const DEFAULT_CAP: usize = 262_144;

/// A span recorder. Production code uses the process-global [`tracer`];
/// tests can construct private instances.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with the default buffer capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// A disabled tracer holding at most `cap` spans between drains.
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The one check on the off path: a relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span for `stage` under the current thread's context.
    /// Returns `None` — without reading a clock — when tracing is off;
    /// the span is recorded when the guard drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> Option<SpanGuard<'_>> {
        if !self.is_enabled() {
            return None;
        }
        Some(SpanGuard { tracer: self, stage, ctx: current_ctx(), start: Instant::now() })
    }

    /// Records a finished span (used by the guard; exposed for tests).
    pub fn record(&self, stage: Stage, ctx: TraceCtx, start: Instant, end: Instant) {
        let start_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = end.saturating_duration_since(start).as_micros() as u64;
        let mut spans = self.spans.lock().unwrap();
        if spans.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(SpanRecord { stage, ctx, start_us, dur_us });
    }

    /// Takes every buffered span (oldest first) and resets the drop
    /// counter.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.dropped.store(0, Ordering::Relaxed);
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    /// Spans rejected since the last drain because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Records a [`SpanRecord`] on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    stage: Stage,
    ctx: TraceCtx,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.record(self.stage, self.ctx, self.start, Instant::now());
    }
}

/// The process-global tracer that the engine, reasoners and pool workers
/// report to.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Opens a span on the global tracer — the one-liner used on hot paths:
/// `let _s = sr_obs::span(Stage::Ground);`.
#[inline]
pub fn span(stage: Stage) -> Option<SpanGuard<'static>> {
    tracer().span(stage)
}

/// All spans of one window, in recording order.
#[derive(Clone, Debug)]
pub struct WindowTrace {
    /// The window these spans belong to.
    pub window_id: u64,
    /// The window's spans (every stage, every partition, every lane).
    pub spans: Vec<SpanRecord>,
}

impl WindowTrace {
    /// Sum of this window's span durations for one stage, in microseconds.
    pub fn stage_total_us(&self, stage: Stage) -> u64 {
        self.spans.iter().filter(|s| s.stage == stage).map(|s| s.dur_us).sum()
    }
}

/// Groups drained spans into per-window traces, ordered by window id.
pub fn group_by_window(spans: Vec<SpanRecord>) -> Vec<WindowTrace> {
    let mut by_window: std::collections::BTreeMap<u64, Vec<SpanRecord>> =
        std::collections::BTreeMap::new();
    for span in spans {
        by_window.entry(span.ctx.window_id).or_default().push(span);
    }
    by_window.into_iter().map(|(window_id, spans)| WindowTrace { window_id, spans }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_clock() {
        let t = Tracer::new();
        assert!(t.span(Stage::Ground).is_none());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn spans_capture_the_ambient_context_and_nest() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _outer_ctx =
                ctx_scope(TraceCtx { window_id: 7, lane: Some(1), ..TraceCtx::default() });
            let _window = t.span(Stage::Window);
            {
                let _inner_ctx =
                    ctx_scope(TraceCtx { window_id: 7, partition: Some(2), ..TraceCtx::default() });
                let _ground = t.span(Stage::Ground);
            }
            // Context restored after the inner scope.
            assert_eq!(current_ctx().lane, Some(1));
            assert_eq!(current_ctx().partition, None);
        }
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        // Inner guard dropped first.
        assert_eq!(spans[0].stage, Stage::Ground);
        assert_eq!(spans[0].ctx.partition, Some(2));
        assert_eq!(spans[1].stage, Stage::Window);
        assert_eq!(spans[1].ctx.lane, Some(1));
        for s in &spans {
            assert_eq!(s.ctx.window_id, 7);
        }
        // The outer span encloses the inner one.
        assert!(spans[1].start_us <= spans[0].start_us);
        assert!(spans[1].start_us + spans[1].dur_us >= spans[0].start_us + spans[0].dur_us);
    }

    #[test]
    fn buffer_cap_drops_instead_of_growing() {
        let t = Tracer::with_capacity(2);
        t.set_enabled(true);
        for _ in 0..5 {
            drop(t.span(Stage::Solve));
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn group_by_window_partitions_and_orders() {
        let t = Tracer::new();
        t.set_enabled(true);
        for w in [3u64, 1, 3] {
            let _ctx = ctx_scope(TraceCtx { window_id: w, ..TraceCtx::default() });
            drop(t.span(Stage::Solve));
        }
        let traces = group_by_window(t.drain());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].window_id, 1);
        assert_eq!(traces[1].window_id, 3);
        assert_eq!(traces[1].spans.len(), 2);
        assert!(traces[1].stage_total_us(Stage::Ground) == 0);
    }
}
