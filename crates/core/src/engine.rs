//! Pipelined stream engine: every stream of windows runs through it.
//!
//! Calling a [`Reasoner`] directly processes the stream strictly one window
//! at a time, so end-to-end throughput is bounded by single-window latency.
//! The [`StreamEngine`] instead keeps a bounded number of windows in flight
//! across parallel *lanes* (each lane thread owns one [`Reasoner`] backend)
//! and applies backpressure on [`StreamEngine::submit`] when the bound is
//! reached. Each lane sends its finished windows, stamped with the moment
//! they finished, on one result channel.
//!
//! The engine is generic over the reasoner's output, answer sets by default;
//! a multi-tenant run is a `StreamEngine<Vec<TenantOutput>>` whose lane
//! runs the scheduler (see [`StreamEngine::with_ctx`]).
//!
//! Emission runs on the caller's thread: [`StreamEngine::submit`],
//! [`StreamEngine::poll_output`] and [`StreamEngine::finish`] drain that
//! channel, put the results back in submission order and count each window
//! into the run's tally as they emit it, so emission stays deterministic and
//! a live metrics scrape trails it by at most one call.
//! [`StreamEngine::finish`] reports throughput statistics (windows/s,
//! items/s, p50/p95/p99 latency).

use crate::config::ReasonerConfig;
use crate::exec::{partition_pool, ExecCtx};
use crate::fault::{FaultPlan, FaultSite};
use crate::incremental::ParallelReasoner;
use crate::metrics::{
    duration_ms, DedupSnapshot, FailureCounters, FailureSnapshot, IncrementalSnapshot,
    LatencyStats, RunTally, TenantLatency,
};
use crate::partition::Partitioner;
use crate::poison::lock_recover;
use crate::reasoner::{Reasoner, ReasonerOutput};
use asp_core::{AspError, Predicate, Program, Symbols};
use sr_rdf::Triple;
use sr_stream::{Window, Windower};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of lanes — windows reasoned over concurrently. `1` degenerates
    /// to pipelined-but-serial processing.
    pub in_flight: usize,
    /// Extra submitted-but-unclaimed windows buffered before
    /// [`StreamEngine::submit`] blocks (backpressure). Total windows admitted
    /// at once is `in_flight + queue_depth`.
    pub queue_depth: usize,
    /// Per-window deadline, measured from [`StreamEngine::submit`]. A head
    /// window whose lane finished after it, or that has no result by then,
    /// is emitted **degraded** (the last good output, tagged
    /// [`EngineOutput::degraded`]) at the caller's next `submit`,
    /// `poll_output` or `finish`, instead of stalling ordered emission; its
    /// real result is dropped as a late recovery. `None` disables it.
    pub window_deadline_ms: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: None }
    }
}

/// One finished window, emitted in submission order.
#[derive(Debug)]
pub struct EngineOutput<O = ReasonerOutput> {
    /// Submission sequence number (0, 1, 2, ... — the emission order).
    pub seq: u64,
    /// The window's own id.
    pub window_id: u64,
    /// Items the window contained.
    pub items: usize,
    /// Wall-clock reasoning latency inside the lane; for a degraded window,
    /// its deadline.
    pub latency: Duration,
    /// The reasoner's output, or the error/panic it produced. For a degraded
    /// window this is the last good output the engine emitted (empty when no
    /// window succeeded yet) — see [`EngineOutput::degraded`].
    pub result: Result<O, AspError>,
    /// True when the window blew its [`EngineConfig::window_deadline_ms`]
    /// and `result` is a stale placeholder, not this window's real answer.
    pub degraded: bool,
}

/// Busy-time accounting of one engine lane, reported in
/// [`EngineStats::lanes`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneOccupancy {
    /// Wall-clock the lane spent inside `Reasoner::process`.
    pub busy_ms: f64,
    /// Windows the lane processed.
    pub windows: u64,
    /// `busy_ms` over the run's elapsed wall clock (0 when nothing ran).
    pub busy_fraction: f64,
}

impl LaneOccupancy {
    /// Renders the occupancy as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"busy_ms\": {:.4}, \"windows\": {}, \"busy_fraction\": {:.4}}}",
            self.busy_ms, self.windows, self.busy_fraction
        )
    }
}

/// Throughput report of one engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Windows that finished (including errored ones).
    pub windows: u64,
    /// Windows whose reasoner returned an error (or panicked); in a
    /// multi-tenant run, also each serving entry's failed run of a window.
    pub errors: u64,
    /// Total stream items across finished windows.
    pub items: u64,
    /// Wall clock from first submission to last completion.
    pub elapsed_ms: f64,
    /// Sustained windows per second.
    pub windows_per_sec: f64,
    /// Sustained items per second.
    pub items_per_sec: f64,
    /// Total time [`StreamEngine::submit`] spent blocked on backpressure
    /// (queue full): a high value means the engine, not the stream, limited
    /// the run. `None`, and omitted from the JSON rather than fabricated as
    /// `0.0`, when the run had no submit path (a window-at-a-time baseline).
    pub submit_blocked_ms: Option<f64>,
    /// How many communities the lanes reused versus recomputed when they
    /// are partitioned; `None` for custom lanes.
    pub incremental: Option<IncrementalSnapshot>,
    /// Per-lane occupancy (busy-time fraction over the run).
    pub lanes: Vec<LaneOccupancy>,
    /// High-water mark of submitted-but-unclaimed windows (queue depth the
    /// backpressure bound actually reached).
    pub queue_high_water: u64,
    /// Per-window reasoning latency distribution.
    pub latency: LatencyStats,
    /// Per-tenant latency summaries of a multi-tenant run; empty otherwise
    /// (and then omitted from the JSON).
    pub tenants: Vec<TenantLatency>,
    /// Work-deduplication counters of the multi-tenant scheduler; `None`
    /// for single-program runs (omitted from the JSON).
    pub dedup: Option<DedupSnapshot>,
    /// Recovery counters (retries, fallbacks, degraded windows, quarantines).
    /// Present only when the run could have produced them — a deadline was
    /// configured, the reasoner config carried a fault plan, or some counter
    /// actually fired; otherwise `None` and omitted from the JSON rather
    /// than fabricated as a row of zeros.
    pub failure: Option<FailureSnapshot>,
    /// Admission-control counters (budget, admissions, rejections) of the
    /// multi-tenant scheduler. Present only when a budget is configured or
    /// an admission was actually rejected; otherwise `None` and omitted
    /// from the JSON — same omit-never-fabricate rule as `failure`.
    pub admission: Option<crate::admission::AdmissionSnapshot>,
}

impl EngineStats {
    /// Renders the report as a JSON object (hand-rolled; the workspace has
    /// no JSON serializer dependency). Inapplicable sections are *omitted*,
    /// never fabricated: `submit_blocked_ms` only appears when the run had a
    /// submit path, `tenants`/`dedup` only when the stats come from the
    /// multi-tenant scheduler.
    pub fn to_json(&self) -> String {
        let lanes: Vec<String> = self.lanes.iter().map(LaneOccupancy::to_json).collect();
        let mut fields = vec![
            format!("\"windows\": {}", self.windows),
            format!("\"errors\": {}", self.errors),
            format!("\"items\": {}", self.items),
            format!("\"elapsed_ms\": {:.4}", self.elapsed_ms),
            format!("\"windows_per_sec\": {:.4}", self.windows_per_sec),
            format!("\"items_per_sec\": {:.4}", self.items_per_sec),
        ];
        if let Some(blocked) = self.submit_blocked_ms {
            fields.push(format!("\"submit_blocked_ms\": {blocked:.4}"));
        }
        fields.push(format!(
            "\"incremental\": {}",
            self.incremental.as_ref().map_or_else(|| "null".to_string(), |i| i.to_json())
        ));
        fields.push(format!("\"lanes\": [{}]", lanes.join(", ")));
        fields.push(format!("\"queue_high_water\": {}", self.queue_high_water));
        fields.push(format!("\"latency\": {}", self.latency.to_json()));
        if !self.tenants.is_empty() {
            let tenants: Vec<String> = self.tenants.iter().map(TenantLatency::to_json).collect();
            fields.push(format!("\"tenants\": [{}]", tenants.join(", ")));
        }
        if let Some(dedup) = &self.dedup {
            fields.push(format!("\"dedup\": {}", dedup.to_json()));
        }
        if let Some(failure) = &self.failure {
            fields.push(format!("\"failure\": {}", failure.to_json()));
        }
        if let Some(admission) = &self.admission {
            fields.push(format!("\"admission\": {}", admission.to_json()));
        }
        format!("{{{}}}", fields.join(", "))
    }
}

/// Final report returned by [`StreamEngine::finish`].
#[derive(Debug)]
pub struct EngineReport<O = ReasonerOutput> {
    /// Ordered outputs not already drained via [`StreamEngine::poll_output`].
    pub outputs: Vec<EngineOutput<O>>,
    /// Throughput statistics over *all* windows the engine processed.
    pub stats: EngineStats,
}

/// What `submit` remembers about a window until it is emitted: enough to
/// emit a degraded placeholder for it without its result.
struct Pending {
    window_id: u64,
    items: usize,
    submitted: Instant,
}

/// Lock-free occupancy accounting shared between `submit` and the lanes.
struct OccupancyAcc {
    /// Per-lane busy nanoseconds inside `Reasoner::process`.
    busy_ns: Vec<AtomicU64>,
    /// Per-lane processed-window counts.
    lane_windows: Vec<AtomicU64>,
    /// Submitted-but-unclaimed windows right now.
    queued: AtomicU64,
    /// High-water mark of `queued`.
    queue_high_water: AtomicU64,
}

/// The pipelined engine. See the module docs for the execution model.
pub struct StreamEngine<O = ReasonerOutput> {
    input: Option<SyncSender<(u64, Window)>>,
    /// Finished windows, each stamped with the moment its lane finished.
    results: Receiver<(EngineOutput<O>, Instant)>,
    lanes: Vec<JoinHandle<()>>,
    /// Windows, items, errors and latency of every emitted window.
    tally: RunTally,
    submitted: u64,
    /// Cumulative time `submit` spent blocked on backpressure.
    blocked: Duration,
    /// Whether the lanes are partitioned reasoners reporting into `ctx`'s
    /// reuse counters.
    partitioned: bool,
    occupancy: Arc<OccupancyAcc>,
    /// The partitioned lanes' shared pool and counters; its recovery
    /// counters are shared with every lane either way.
    ctx: ExecCtx,
    /// Per-window deadline; `None` disables degraded emission.
    deadline: Option<Duration>,
    /// The lanes' fault plan, read by `submit` for `SourceStall`; set only
    /// by [`StreamEngine::with_partitioned_lanes`].
    faults: Option<Arc<FaultPlan>>,
    /// Submitted windows not yet emitted, in `seq` order.
    pending: VecDeque<Pending>,
    /// Results that arrived before their turn to be emitted, by `seq`.
    arrived: BTreeMap<u64, (EngineOutput<O>, Instant)>,
    /// Emitted windows the consumer has not taken yet.
    ready: VecDeque<EngineOutput<O>>,
    /// The last real, successful output, replayed by degraded placeholders;
    /// kept only under a deadline.
    last_good: Option<O>,
}

impl<O: Clone + Default + Send + 'static> StreamEngine<O> {
    /// Spawns `config.in_flight` lanes; `factory(lane_idx)` builds each
    /// lane's reasoner backend (errors surface here, before any thread
    /// starts).
    pub fn new(
        config: EngineConfig,
        factory: impl FnMut(usize) -> Result<Box<dyn Reasoner<O>>, AspError>,
    ) -> Result<Self, AspError> {
        StreamEngine::with_ctx(config, factory, ExecCtx::default())
    }

    /// Like [`StreamEngine::new`] but sharing `ctx` with the caller, so what
    /// the lanes' reasoners count (retries, fallbacks, quarantines) lands in
    /// the same snapshot as the engine's degradations. A multi-tenant run
    /// passes its scheduler's context and gives every lane a clone of one
    /// `Arc<Mutex<MultiTenantEngine>>`.
    pub fn with_ctx(
        config: EngineConfig,
        mut factory: impl FnMut(usize) -> Result<Box<dyn Reasoner<O>>, AspError>,
        ctx: ExecCtx,
    ) -> Result<Self, AspError> {
        let lanes_n = config.in_flight.max(1);
        let mut reasoners = Vec::with_capacity(lanes_n);
        for i in 0..lanes_n {
            reasoners.push(factory(i)?);
        }

        let (input_tx, input_rx) = sync_channel::<(u64, Window)>(config.queue_depth);
        let input_rx = Arc::new(Mutex::new(input_rx));
        let (result_tx, results) = channel();
        let occupancy = Arc::new(OccupancyAcc {
            busy_ns: (0..lanes_n).map(|_| AtomicU64::new(0)).collect(),
            lane_windows: (0..lanes_n).map(|_| AtomicU64::new(0)).collect(),
            queued: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        });

        let mut lanes = Vec::with_capacity(lanes_n);
        for (i, mut reasoner) in reasoners.into_iter().enumerate() {
            let input_rx = Arc::clone(&input_rx);
            let result_tx = result_tx.clone();
            let occ = Arc::clone(&occupancy);
            let fail = Arc::clone(&ctx.failures);
            let handle = std::thread::Builder::new()
                .name(format!("engine-lane-{i}"))
                .spawn(move || loop {
                    // Holding the lock while blocked on `recv` is the
                    // hand-off: exactly one idle lane waits for the next
                    // window, the rest queue on the mutex.
                    let next = {
                        let rx = lock_recover(&input_rx);
                        rx.recv()
                    };
                    let Ok((seq, window)) = next else { return };
                    occ.queued.fetch_sub(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    let caught = {
                        // Attribute everything the backend does — including
                        // pool-worker jobs it fans out — to this window/lane.
                        let _trace_ctx = sr_obs::tracer().is_enabled().then(|| {
                            sr_obs::ctx_scope(sr_obs::TraceCtx {
                                window_id: window.id,
                                lane: Some(i as u32),
                                ..sr_obs::current_ctx()
                            })
                        });
                        let _span = sr_obs::span(sr_obs::Stage::Window);
                        std::panic::catch_unwind(AssertUnwindSafe(|| reasoner.process(&window)))
                    };
                    // Lane supervision: a panic becomes this window's error
                    // and the lane keeps serving. Every backend stays usable
                    // after one: `R` grounds each window from scratch, and
                    // PR writes its reuse slots only after a window succeeds.
                    let result = caught.unwrap_or_else(|_| {
                        fail.lane_rebuilds.fetch_add(1, Ordering::Relaxed);
                        Err(AspError::Internal(format!(
                            "engine lane {i} reasoner panicked on window {} (seq {seq}); \
                             the lane keeps serving",
                            window.id
                        )))
                    });
                    let done = Instant::now();
                    let latency = done - t0;
                    occ.busy_ns[i].fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
                    occ.lane_windows[i].fetch_add(1, Ordering::Relaxed);
                    let output = EngineOutput {
                        seq,
                        window_id: window.id,
                        items: window.len(),
                        latency,
                        result,
                        degraded: false,
                    };
                    if result_tx.send((output, done)).is_err() {
                        return; // the engine is gone: shutting down
                    }
                })
                .map_err(|e| AspError::Internal(format!("cannot spawn engine lane: {e}")))?;
            lanes.push(handle);
        }

        Ok(StreamEngine {
            input: Some(input_tx),
            results,
            lanes,
            tally: RunTally::default(),
            submitted: 0,
            blocked: Duration::ZERO,
            partitioned: false,
            occupancy,
            ctx,
            deadline: config.window_deadline_ms.map(Duration::from_millis),
            faults: None,
            pending: VecDeque::new(),
            arrived: BTreeMap::new(),
            ready: VecDeque::new(),
            last_good: None,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Binds this engine's live state to `registry` so a Prometheus scrape
    /// sees it mid-run: window/error/item totals and the per-window latency
    /// histogram of the windows emitted so far, recovery counters, queue
    /// occupancy and per-lane busy time, each named `{prefix}_…`
    /// (`sr_engine`, or `sr_tenant` for a multi-tenant run). Collector
    /// closures capture `Arc`s, so the bindings stay valid (frozen at their
    /// final values) after [`StreamEngine::finish`]. When the lanes run
    /// partitioned their shared reuse counters are registered too.
    pub fn register_metrics(&self, registry: &sr_obs::MetricsRegistry, prefix: &str) {
        self.tally.register_metrics(registry, prefix);
        for (name, pick) in [
            ("errors_total", (|f| &f.errors) as fn(&FailureCounters) -> &AtomicU64),
            ("degraded_windows_total", |f| &f.degraded_windows),
            ("retries_total", |f| &f.retries),
            ("fallbacks_total", |f| &f.fallbacks),
            ("late_recoveries_total", |f| &f.late_recoveries),
            ("lane_rebuilds_total", |f| &f.lane_rebuilds),
        ] {
            let failures = Arc::clone(&self.ctx.failures);
            registry.register_counter_fn(&format!("{prefix}_{name}"), &[], move || {
                pick(&failures).load(Ordering::Relaxed)
            });
        }
        registry.register_counter_fn(
            "sr_poison_recoveries_total",
            &[],
            crate::poison::poison_recoveries,
        );
        let occ = Arc::clone(&self.occupancy);
        registry.register_gauge_fn(&format!("{prefix}_queue_depth"), &[], move || {
            occ.queued.load(Ordering::Relaxed) as f64
        });
        let occ = Arc::clone(&self.occupancy);
        registry.register_gauge_fn(&format!("{prefix}_queue_high_water"), &[], move || {
            occ.queue_high_water.load(Ordering::Relaxed) as f64
        });
        for lane in 0..self.occupancy.busy_ns.len() {
            let occ = Arc::clone(&self.occupancy);
            let label = lane.to_string();
            registry.register_counter_fn(
                &format!("{prefix}_lane_busy_ms_total"),
                &[("lane", &label)],
                move || occ.busy_ns[lane].load(Ordering::Relaxed) / 1_000_000,
            );
            let occ = Arc::clone(&self.occupancy);
            registry.register_counter_fn(
                &format!("{prefix}_lane_windows_total"),
                &[("lane", &label)],
                move || occ.lane_windows[lane].load(Ordering::Relaxed),
            );
        }
        if self.partitioned {
            self.ctx.counters.register_metrics(registry);
        }
    }

    /// Submits one window; blocks when `in_flight + queue_depth` windows are
    /// already admitted (backpressure). Time spent blocked is accumulated
    /// and reported as [`EngineStats::submit_blocked_ms`]. Emits whatever is
    /// due first, so the tally trails emission by at most one submit.
    pub fn submit(&mut self, window: Window) -> Result<(), AspError> {
        self.drain();
        let input =
            self.input.as_ref().ok_or_else(|| AspError::Internal("engine already shut".into()))?;
        // A stalled source is simulated *before* admission, so the window's
        // deadline clock starts at its real submission time.
        if let Some(plan) =
            self.faults.as_ref().filter(|p| p.fires(FaultSite::SourceStall, window.id, 0))
        {
            std::thread::sleep(plan.stall());
        }
        // Count the window as queued before handing it over: a lane may
        // claim (and decrement) it while `send` is still returning.
        let q = self.occupancy.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.occupancy.queue_high_water.fetch_max(q, Ordering::Relaxed);
        let (window_id, items) = (window.id, window.len());
        let t0 = Instant::now();
        self.tally.start(t0);
        if input.send((self.submitted, window)).is_err() {
            self.occupancy.queued.fetch_sub(1, Ordering::Relaxed);
            return Err(AspError::Internal("engine input closed".into()));
        }
        self.blocked += t0.elapsed();
        self.pending.push_back(Pending { window_id, items, submitted: t0 });
        self.submitted += 1;
        Ok(())
    }

    /// Pumps stream items through `windower`, submitting every window it
    /// closes, then flushes the tail. Returns the number of windows
    /// submitted. Any [`Windower`] feeds the engine this way.
    pub fn pump(
        &mut self,
        items: impl IntoIterator<Item = Triple>,
        windower: &mut dyn Windower,
    ) -> Result<u64, AspError> {
        let mut submitted = 0;
        for item in items {
            if let Some(window) = windower.feed(item) {
                self.submit(window)?;
                submitted += 1;
            }
        }
        if let Some(window) = windower.flush() {
            self.submit(window)?;
            submitted += 1;
        }
        Ok(submitted)
    }

    /// Non-blocking: the next finished window in submission order, if one is
    /// ready. Windows drained here do not reappear in the final report's
    /// `outputs` (they still count toward its `stats`).
    pub fn poll_output(&mut self) -> Option<EngineOutput<O>> {
        self.drain();
        self.ready.pop_front()
    }

    /// Graceful shutdown: closes the input, waits for every in-flight window
    /// to be emitted (degraded ones at their deadline) and for every lane to
    /// finish, and returns the remaining ordered outputs plus the run's
    /// throughput statistics.
    pub fn finish(mut self) -> EngineReport<O> {
        self.input = None; // closing the channel ends the lanes
        self.drain();
        while let Some(&Pending { submitted, .. }) = self.pending.front() {
            let got = match self.deadline {
                None => self.results.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => self
                    .results
                    .recv_timeout((submitted + d).saturating_duration_since(Instant::now())),
            };
            match got {
                Ok(result) => self.accept(result),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.emit_due();
        }
        // Whatever still arrives belongs to a window emitted degraded.
        while let Ok(result) = self.results.recv() {
            self.accept(result);
        }
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
        let armed = self.deadline.is_some() || self.faults.is_some();
        let base = self.tally.stats(armed, &self.ctx.failures);
        let lanes = self
            .occupancy
            .busy_ns
            .iter()
            .zip(&self.occupancy.lane_windows)
            .map(|(busy, windows)| {
                let busy_ms = busy.load(Ordering::Relaxed) as f64 / 1e6;
                LaneOccupancy {
                    busy_ms,
                    windows: windows.load(Ordering::Relaxed),
                    busy_fraction: if base.elapsed_ms > 0.0 {
                        busy_ms / base.elapsed_ms
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let stats = EngineStats {
            submit_blocked_ms: Some(duration_ms(self.blocked)),
            incremental: self.partitioned.then(|| self.ctx.counters.snapshot()),
            lanes,
            queue_high_water: self.occupancy.queue_high_water.load(Ordering::Relaxed),
            ..base
        };
        EngineReport { outputs: self.ready.drain(..).collect(), stats }
    }

    /// `seq` of the oldest window not yet emitted.
    fn next_seq(&self) -> u64 {
        self.submitted - self.pending.len() as u64
    }

    /// Takes every result the lanes have sent so far, then emits what is due.
    fn drain(&mut self) {
        while let Ok(result) = self.results.try_recv() {
            self.accept(result);
        }
        self.emit_due();
    }

    /// Files one lane result for emission. A result whose window was
    /// already emitted degraded came too late: it is counted and dropped.
    fn accept(&mut self, (output, done): (EngineOutput<O>, Instant)) {
        if output.seq < self.next_seq() {
            self.ctx.failures.late_recoveries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.arrived.insert(output.seq, (output, done));
        }
    }

    /// Emits windows in submission order for as long as the head is due:
    /// its result has arrived, or its deadline has passed. A head whose lane
    /// finished after the deadline, or that has no result at its deadline,
    /// is emitted degraded, with its deadline as its latency.
    fn emit_due(&mut self) {
        let now = Instant::now();
        while let Some(&Pending { window_id, items, submitted }) = self.pending.front() {
            let seq = self.next_seq();
            let output = match self.arrived.remove(&seq) {
                Some((output, done)) if self.deadline.is_none_or(|d| done <= submitted + d) => {
                    let errors = u64::from(output.result.is_err());
                    self.ctx.failures.errors.fetch_add(errors, Ordering::Relaxed);
                    self.tally.record(items, output.latency, done);
                    if let (Some(_), Ok(result)) = (self.deadline, &output.result) {
                        self.last_good = Some(result.clone());
                    }
                    output
                }
                arrived => {
                    let Some(deadline) =
                        self.deadline.filter(|&d| arrived.is_some() || submitted + d <= now)
                    else {
                        break;
                    };
                    let failures = &self.ctx.failures;
                    failures
                        .late_recoveries
                        .fetch_add(u64::from(arrived.is_some()), Ordering::Relaxed);
                    failures.degraded_windows.fetch_add(1, Ordering::Relaxed);
                    self.tally.record(items, deadline, submitted + deadline);
                    EngineOutput {
                        seq,
                        window_id,
                        items,
                        latency: deadline,
                        result: Ok(self.last_good.clone().unwrap_or_default()),
                        degraded: true,
                    }
                }
            };
            self.pending.pop_front();
            let _trace_ctx = sr_obs::tracer().is_enabled().then(|| {
                sr_obs::ctx_scope(sr_obs::TraceCtx { window_id, ..sr_obs::current_ctx() })
            });
            let _span = sr_obs::span(sr_obs::Stage::Emit);
            self.ready.push_back(output);
        }
    }
}

impl StreamEngine {
    /// Convenience: an engine whose lanes are [`ParallelReasoner`]s sharing
    /// one [`ExecCtx`]: one worker pool of [`ReasonerConfig::workers`]
    /// threads (`0`: `partitions × in_flight`, so every in-flight window can
    /// fan out over all its partitions at once) — or no pool, where
    /// [`partition_pool`] keeps partitions on the lane thread — and one set of
    /// counters, which [`EngineStats::incremental`] and
    /// [`EngineStats::failure`] report on [`StreamEngine::finish`]. This is
    /// the standard construction for pipelined `PR` streaming (the CLI's and
    /// the benchmark's). Each lane reuses only what it computed itself, so
    /// with several lanes a community is reused only when the same lane
    /// answered the window the delta is based on. `reasoner_cfg`'s fault plan
    /// reaches every partition job and `submit`.
    pub fn with_partitioned_lanes(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        reasoner_cfg: ReasonerConfig,
        config: EngineConfig,
    ) -> Result<Self, AspError> {
        let workers = partitioner.partitions().max(1) * config.in_flight.max(1);
        let ctx = ExecCtx { pool: partition_pool(&reasoner_cfg, workers)?, ..Default::default() };
        let faults = reasoner_cfg.faults.clone();
        let mut engine = StreamEngine::with_ctx(
            config,
            |_lane| {
                let reasoner = ParallelReasoner::with_ctx(
                    syms,
                    program,
                    inpre,
                    partitioner.clone(),
                    reasoner_cfg.clone(),
                    ctx.clone(),
                )?;
                Ok(Box::new(reasoner) as Box<dyn Reasoner>)
            },
            ctx.clone(),
        )?;
        engine.partitioned = true;
        engine.faults = faults;
        Ok(engine)
    }
}

impl<O> Drop for StreamEngine<O> {
    fn drop(&mut self) {
        self.input = None;
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake backend that reverses nothing but records and sleeps: lets the
    /// tests exercise ordering without a full ASP stack.
    struct FakeReasoner {
        lane: usize,
        delay: Duration,
        panic_on_window: Option<u64>,
    }

    impl Reasoner for FakeReasoner {
        fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
            if self.panic_on_window == Some(window.id) {
                panic!("lane {} poisoned by window {}", self.lane, window.id);
            }
            // Earlier windows sleep longer, forcing out-of-order completion.
            let scale = 5u64.saturating_sub(window.id.min(5));
            std::thread::sleep(self.delay * scale as u32);
            Ok(ReasonerOutput { partition_sizes: vec![window.len()], ..Default::default() })
        }
    }

    fn fake_factory(
        delay_ms: u64,
        panic_on_window: Option<u64>,
    ) -> impl FnMut(usize) -> Result<Box<dyn Reasoner>, AspError> {
        move |lane| {
            Ok(Box::new(FakeReasoner {
                lane,
                delay: Duration::from_millis(delay_ms),
                panic_on_window,
            }) as Box<dyn Reasoner>)
        }
    }

    /// A backend that answers instantly except on the listed windows, which
    /// sleep `slow` — long enough to blow a configured deadline.
    struct SlowOnSome {
        slow: Duration,
        slow_windows: Vec<u64>,
    }

    impl Reasoner for SlowOnSome {
        fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
            if self.slow_windows.contains(&window.id) {
                std::thread::sleep(self.slow);
            }
            // Tag the output with the window id so tests can tell whose
            // result a degraded placeholder replayed.
            Ok(ReasonerOutput { partition_sizes: vec![window.id as usize], ..Default::default() })
        }
    }

    fn windows(n: u64) -> Vec<Window> {
        (0..n).map(|i| Window::new(i, Vec::new())).collect()
    }

    #[test]
    fn outputs_are_reordered_by_submission_sequence() {
        let cfg = EngineConfig { in_flight: 3, queue_depth: 3, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(2, None)).unwrap();
        for w in windows(6) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        let seqs: Vec<u64> = report.outputs.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        let ids: Vec<u64> = report.outputs.iter().map(|o| o.window_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(report.stats.windows, 6);
        assert_eq!(report.stats.errors, 0);
        assert_eq!(report.stats.latency.count, 6);
        assert!(report.stats.windows_per_sec > 0.0);
    }

    #[test]
    fn lane_occupancy_and_queue_high_water_are_reported() {
        let cfg = EngineConfig { in_flight: 2, queue_depth: 3, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(2, None)).unwrap();
        for w in windows(8) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.stats.lanes.len(), 2, "one occupancy record per lane");
        let total_windows: u64 = report.stats.lanes.iter().map(|l| l.windows).sum();
        assert_eq!(total_windows, 8, "every window accounted to some lane");
        assert!(report.stats.lanes.iter().any(|l| l.busy_ms > 0.0), "sleeping lanes were busy");
        for lane in &report.stats.lanes {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&lane.busy_fraction),
                "busy fraction is a fraction: {}",
                lane.busy_fraction
            );
        }
        assert!(report.stats.queue_high_water >= 1, "submissions outpaced the slow lanes");
        assert!(
            report.stats.queue_high_water <= 3 + 1 + 2,
            "bounded by queue_depth + the in-send window + one transient per lane, got {}",
            report.stats.queue_high_water
        );
        let json = report.stats.to_json();
        assert!(json.contains("\"lanes\": [{"), "{json}");
        assert!(json.contains("\"busy_fraction\":"), "{json}");
        assert!(json.contains("\"queue_high_water\":"), "{json}");
    }

    #[test]
    fn lane_panic_surfaces_as_error_and_engine_continues() {
        let cfg = EngineConfig { in_flight: 2, queue_depth: 1, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(0, Some(1))).unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 4);
        assert!(report.outputs[1].result.is_err(), "window 1 panicked");
        assert!(report.outputs[3].result.is_ok(), "later windows still flow");
        assert_eq!(report.stats.errors, 1);
    }

    #[test]
    fn poll_output_drains_in_order_and_report_keeps_the_rest() {
        let cfg = EngineConfig { in_flight: 2, queue_depth: 2, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(1, None)).unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        // Busy-wait briefly for the first ordered output.
        let mut first = None;
        for _ in 0..2_000 {
            if let Some(out) = engine.poll_output() {
                first = Some(out);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let first = first.expect("an output arrives");
        assert_eq!(first.seq, 0);
        let report = engine.finish();
        assert_eq!(report.stats.windows, 4, "stats cover drained outputs too");
        assert_eq!(report.outputs.first().map(|o| o.seq), Some(1));
    }

    #[test]
    fn dropping_the_engine_mid_flight_shuts_down_cleanly() {
        let cfg = EngineConfig { in_flight: 2, queue_depth: 1, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(1, None)).unwrap();
        for w in windows(3) {
            engine.submit(w).unwrap();
        }
        drop(engine); // must not hang or leak panics
    }

    #[test]
    fn single_lane_engine_still_pipelines_ids() {
        let cfg = EngineConfig { in_flight: 1, queue_depth: 0, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(0, None)).unwrap();
        for w in windows(3) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 3);
        assert_eq!(engine_seqs(&report), vec![0, 1, 2]);
    }

    fn engine_seqs(report: &EngineReport) -> Vec<u64> {
        report.outputs.iter().map(|o| o.seq).collect()
    }

    #[test]
    fn submit_blocking_time_is_recorded() {
        // One slow lane, zero queue depth: the third submit must block until
        // the first window finishes.
        let cfg = EngineConfig { in_flight: 1, queue_depth: 0, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(10, None)).unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        let blocked = report.stats.submit_blocked_ms.expect("the engine path always reports it");
        assert!(blocked > 0.0, "saturated submission must record blocking, got {blocked}");
        assert!(report.stats.incremental.is_none(), "no incremental lanes here");
        let json = report.stats.to_json();
        assert!(json.contains("\"submit_blocked_ms\":"), "{json}");
        assert!(json.contains("\"incremental\": null"), "{json}");
        assert!(!json.contains("\"tenants\":"), "single-program stats omit tenant sections");
        assert!(!json.contains("\"dedup\":"), "{json}");
        // A run with no submit path omits the key honestly instead of
        // fabricating 0.0 (the `--json` shape contract across modes).
        let stats = EngineStats { submit_blocked_ms: None, ..report.stats };
        assert!(!stats.to_json().contains("submit_blocked_ms"), "{}", stats.to_json());
        // Same discipline for the failure section: no deadline, no faults,
        // no counters — no key.
        assert!(stats.failure.is_none(), "clean run reports no failure section");
        assert!(!stats.to_json().contains("\"failure\""), "{}", stats.to_json());
    }

    #[test]
    fn deadline_emits_degraded_placeholders_and_keeps_emission_ordered() {
        let cfg = EngineConfig { in_flight: 1, queue_depth: 2, window_deadline_ms: Some(50) };
        let mut engine = StreamEngine::new(cfg, |_lane| {
            Ok(Box::new(SlowOnSome { slow: Duration::from_millis(400), slow_windows: vec![1] })
                as Box<dyn Reasoner>)
        })
        .unwrap();
        for w in windows(3) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 3, "every window emits, stalled or not");
        assert_eq!(engine_seqs(&report), vec![0, 1, 2]);
        assert!(!report.outputs[0].degraded, "the fast head is real");
        assert!(report.outputs[1].degraded, "window 1 blew the 50ms deadline");
        // The placeholder replays the last good result — window 0's, whose
        // fake output carries its window id as the partition-size tag.
        assert_eq!(report.outputs[1].result.as_ref().unwrap().partition_sizes, vec![0]);
        assert!(
            report.outputs[2].degraded,
            "window 2 was stuck behind the stall past its own deadline"
        );
        assert_eq!(report.stats.windows, 3, "late real results are not double-counted");
        assert_eq!(report.stats.errors, 0, "degradation is not an error");
        let failure = report.stats.failure.expect("a configured deadline forces the section");
        assert_eq!(failure.degraded_windows, 2);
        assert_eq!(failure.late_recoveries, 2, "both stalled results eventually arrived");
        let json = report.stats.to_json();
        assert!(json.contains("\"failure\": {"), "{json}");
        assert!(json.contains("\"degraded_windows\": 2"), "{json}");
    }

    #[test]
    fn polling_alone_emits_an_overdue_head_degraded_and_drops_its_late_result() {
        /// Holds window 1 until the test releases it (at most 10 s, so a
        /// failing test cannot hang its lanes); answers the rest at once,
        /// tagged with their window id.
        struct Gated(Arc<Mutex<Receiver<()>>>);
        impl Reasoner for Gated {
            fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
                if window.id == 1 {
                    let _ = lock_recover(&self.0).recv_timeout(Duration::from_secs(10));
                }
                Ok(ReasonerOutput {
                    partition_sizes: vec![window.id as usize],
                    ..Default::default()
                })
            }
        }
        let (release, gate) = channel();
        let gate = Arc::new(Mutex::new(gate));
        let cfg = EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: Some(200) };
        let mut engine = StreamEngine::new(cfg, |_lane| {
            Ok(Box::new(Gated(Arc::clone(&gate))) as Box<dyn Reasoner>)
        })
        .unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        let mut outputs = Vec::new();
        let t0 = Instant::now();
        while outputs.len() < 4 && t0.elapsed() < Duration::from_secs(10) {
            match engine.poll_output() {
                Some(out) => outputs.push(out),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        assert_eq!(outputs.iter().map(|o| o.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let degraded: Vec<bool> = outputs.iter().map(|o| o.degraded).collect();
        assert_eq!(degraded, vec![false, true, false, false], "only the held window degrades");
        assert_eq!(outputs[1].latency, Duration::from_millis(200), "its deadline is its latency");
        assert_eq!(outputs[1].result.as_ref().unwrap().partition_sizes, vec![0]);
        // The held window's real result is a late recovery, never a second
        // output.
        release.send(()).unwrap();
        let report = engine.finish();
        assert!(report.outputs.is_empty(), "everything was polled already");
        assert_eq!(report.stats.windows, 4);
        let failure = report.stats.failure.expect("a configured deadline forces the section");
        assert_eq!((failure.degraded_windows, failure.late_recoveries), (1, 1));
    }

    #[test]
    fn a_scrape_before_finish_counts_the_windows_emitted_so_far() {
        let registry = sr_obs::MetricsRegistry::new();
        let cfg = EngineConfig { in_flight: 1, queue_depth: 0, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(0, None)).unwrap();
        engine.register_metrics(&registry, "sr_engine");
        for w in windows(3) {
            engine.submit(w).unwrap();
            let t0 = Instant::now();
            while engine.poll_output().is_none() && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let text = registry.render_prometheus();
        assert!(text.contains("sr_engine_windows_total 3"), "{text}");
        assert!(text.contains("sr_engine_window_latency_ms_count 3"), "{text}");
        assert_eq!(engine.finish().stats.windows, 3);
    }

    #[test]
    fn recoverable_lane_panic_rebuilds_and_the_lane_continues() {
        let cfg = EngineConfig { in_flight: 1, queue_depth: 3, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(0, Some(1))).unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 4, "the only lane survived its panic");
        let err = report.outputs[1].result.as_ref().unwrap_err().to_string();
        assert!(err.contains("lane 0"), "names the lane: {err}");
        assert!(err.contains("window 1"), "names the window: {err}");
        assert!(err.contains("keeps serving"), "says what the supervisor did: {err}");
        assert!(report.outputs[3].result.is_ok(), "the lane keeps serving");
        assert_eq!(report.stats.errors, 1);
        let failure = report.stats.failure.expect("a rebuild forces the failure section");
        assert_eq!(failure.lane_rebuilds, 1);
    }

    #[test]
    fn registered_metrics_reflect_the_run_even_after_finish() {
        let registry = sr_obs::MetricsRegistry::new();
        let cfg = EngineConfig { in_flight: 2, queue_depth: 2, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(1, None)).unwrap();
        engine.register_metrics(&registry, "sr_engine");
        for w in windows(5) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.stats.latency.count, 5);
        // The collectors captured Arcs, so the scrape still works after the
        // engine is gone — frozen at the run's final values.
        let text = registry.render_prometheus();
        assert!(text.contains("sr_engine_windows_total 5"), "{text}");
        assert!(text.contains("sr_engine_errors_total 0"), "{text}");
        assert!(text.contains("sr_engine_window_latency_ms_count 5"), "{text}");
        assert!(text.contains("sr_engine_lane_windows_total{lane=\"0\"}"), "{text}");
        assert!(text.contains("sr_engine_lane_windows_total{lane=\"1\"}"), "{text}");
        assert!(text.contains("# TYPE sr_engine_window_latency_ms histogram"), "{text}");
    }

    #[test]
    fn histogram_backed_latency_summary_matches_the_run() {
        let cfg = EngineConfig { in_flight: 1, queue_depth: 1, ..Default::default() };
        let mut engine = StreamEngine::new(cfg, fake_factory(2, None)).unwrap();
        for w in windows(4) {
            engine.submit(w).unwrap();
        }
        let report = engine.finish();
        let lat = &report.stats.latency;
        assert_eq!(lat.count, 4);
        assert!(lat.min_ms > 0.0, "sleeping reasoner took time");
        assert!(lat.min_ms <= lat.p50_ms && lat.p50_ms <= lat.max_ms, "{lat:?}");
        assert!(lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.p99_ms, "{lat:?}");
        assert!(lat.p99_ms <= lat.max_ms, "extreme ranks are exact: {lat:?}");
    }

    #[test]
    fn pool_worker_spans_nest_inside_the_lane_window_span() {
        use crate::analysis::DependencyAnalysis;
        use crate::config::AnalysisConfig;
        use crate::partition::PlanPartitioner;
        use asp_parser::parse_program;
        use sr_rdf::Node;

        // Unique window ids so spans from other tests sharing the global
        // tracer can be filtered out.
        const BASE: u64 = 9_770_000;
        let syms = Symbols::new();
        let program = parse_program(
            &syms,
            "jam(X) :- slow(X), busy(X), not light(X).\nfire(X) :- smoke(X), heat(X).",
        )
        .unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let partitioner: Arc<dyn Partitioner> = Arc::new(PlanPartitioner::new(
            analysis.plan.clone(),
            crate::config::UnknownPredicate::Partition0,
        ));
        let t = |s: &str, p: &str| sr_rdf::Triple::new(Node::iri(s), Node::iri(p), Node::Int(1));
        let mut engine = StreamEngine::with_partitioned_lanes(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner,
            ReasonerConfig::default(),
            EngineConfig { in_flight: 2, queue_depth: 2, ..Default::default() },
        )
        .unwrap();
        sr_obs::tracer().set_enabled(true);
        for id in BASE..BASE + 3 {
            engine
                .submit(Window::new(id, vec![t("a", "slow"), t("a", "busy"), t("b", "smoke")]))
                .unwrap();
        }
        let report = engine.finish();
        sr_obs::tracer().set_enabled(false);
        assert_eq!(report.stats.errors, 0);
        let spans: Vec<sr_obs::SpanRecord> = sr_obs::tracer()
            .drain()
            .into_iter()
            .filter(|s| (BASE..BASE + 3).contains(&s.ctx.window_id))
            .collect();
        for id in BASE..BASE + 3 {
            let window = spans
                .iter()
                .find(|s| s.stage == sr_obs::Stage::Window && s.ctx.window_id == id)
                .expect("each window has a lane-level Window span");
            assert!(window.ctx.lane.is_some(), "lane tag installed by the lane thread");
            let workers: Vec<_> = spans
                .iter()
                .filter(|s| s.ctx.window_id == id && s.ctx.partition.is_some())
                .collect();
            assert!(!workers.is_empty(), "pool-worker spans attribute across the job boundary");
            for s in &workers {
                assert!(
                    s.start_us + 2 >= window.start_us
                        && s.start_us + s.dur_us <= window.start_us + window.dur_us + 2,
                    "worker span {:?} must nest inside the window span {window:?}",
                    s
                );
            }
            // The fan-out stages all got recorded under the worker context
            // (the program is stratified, so no worker reaches `Solve`).
            for stage in [sr_obs::Stage::Windowing, sr_obs::Stage::Ground] {
                assert!(
                    workers.iter().any(|s| s.stage == stage),
                    "stage {stage:?} traced inside pool workers"
                );
            }
        }
    }

    #[test]
    fn lanes_that_keep_partitions_home_spawn_no_pool_workers() {
        use crate::analysis::DependencyAnalysis;
        use crate::config::{AnalysisConfig, ParallelMode};
        use crate::partition::PlanPartitioner;
        use asp_parser::parse_program;

        let syms = Symbols::new();
        let program = parse_program(
            &syms,
            "jam(X) :- slow(X), busy(X), not light(X).\nfire(X) :- smoke(X), heat(X).",
        )
        .unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let partitioner: Arc<dyn Partitioner> = Arc::new(PlanPartitioner::new(
            analysis.plan.clone(),
            crate::config::UnknownPredicate::Partition0,
        ));
        let pool_workers = |reasoner_cfg: ReasonerConfig| {
            let engine = StreamEngine::with_partitioned_lanes(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner.clone(),
                reasoner_cfg,
                EngineConfig { in_flight: 2, queue_depth: 2, ..Default::default() },
            )
            .unwrap();
            engine.ctx.workers()
        };
        let delta_ground = ReasonerConfig { delta_ground: true, ..Default::default() };
        assert_eq!(pool_workers(delta_ground), 0, "delta_ground lanes never submit to a pool");
        let sequential = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
        assert_eq!(pool_workers(sequential), 0, "Sequential lanes run partitions themselves");
        assert_eq!(pool_workers(ReasonerConfig::default()), 4, "2 partitions x 2 lanes");
        let two = ReasonerConfig { workers: 2, ..Default::default() };
        assert_eq!(pool_workers(two), 2, "an explicit worker count sizes the pool");
    }

    #[test]
    fn incremental_lanes_report_cache_stats_and_match_parallel_lanes() {
        use crate::analysis::DependencyAnalysis;
        use crate::config::AnalysisConfig;
        use crate::partition::PlanPartitioner;
        use asp_parser::parse_program;
        use sr_rdf::Node;

        let syms = Symbols::new();
        let program = parse_program(
            &syms,
            "jam(X) :- slow(X), busy(X), not light(X).\nfire(X) :- smoke(X), heat(X).",
        )
        .unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let partitioner: Arc<dyn Partitioner> = Arc::new(PlanPartitioner::new(
            analysis.plan.clone(),
            crate::config::UnknownPredicate::Partition0,
        ));
        let t = |s: &str, p: &str| sr_rdf::Triple::new(Node::iri(s), Node::iri(p), Node::Int(1));
        // Alternating two-item bursts per community through a 4-item window
        // sliding by 2: each slide retracts and adds one community's burst,
        // so the other community is reused.
        let mut windower = sr_stream::SlidingWindower::new(4, 2);
        let mut windows: Vec<Window> = Vec::new();
        for s in ["a", "b", "c", "d", "e"] {
            let burst = if s == "b" || s == "d" { ["smoke", "heat"] } else { ["slow", "busy"] };
            for p in burst {
                windows.extend(windower.push(t(s, p)));
            }
        }
        assert_eq!(windows.len(), 4);

        let run = |windows: Vec<Window>| {
            let mut engine = StreamEngine::with_partitioned_lanes(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner.clone(),
                ReasonerConfig::default(),
                EngineConfig { in_flight: 1, queue_depth: 2, ..Default::default() },
            )
            .unwrap();
            for w in windows {
                engine.submit(w).unwrap();
            }
            let report = engine.finish();
            let rendered: Vec<String> = report
                .outputs
                .iter()
                .map(|o| {
                    let out = o.result.as_ref().unwrap();
                    out.answers
                        .iter()
                        .map(|a| a.display(&syms).to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                })
                .collect();
            (rendered, report.stats)
        };
        // The same windows without their deltas: tumbling, so every
        // community of every window is recomputed.
        let (full, full_stats) =
            run(windows.iter().map(|w| Window::new(w.id, w.items.clone())).collect());
        let (inc, inc_stats) = run(windows.clone());
        assert_eq!(full, inc, "incremental lanes must be byte-identical");
        let tumbling = full_stats.incremental.expect("partitioned lanes report cache stats");
        assert_eq!((tumbling.hits, tumbling.misses), (0, 8), "tumbling lanes reuse nothing");
        let snap = inc_stats.incremental.expect("incremental lanes report cache stats");
        assert_eq!(snap.misses, 2 + 3, "window 0 solves both, then one per slide");
        assert_eq!(snap.hits, 3, "the community a slide leaves alone is reused");
        assert!(inc_stats.to_json().contains("\"dirty_partition_ratio\":"));
    }
}
