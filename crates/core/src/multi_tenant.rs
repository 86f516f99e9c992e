//! The multi-tenant scheduler: N tenant programs served over one shared
//! stream, with per-window work deduplicated by serving key.
//!
//! [`MultiTenantEngine`] wraps a [`ProgramRegistry`] and processes each
//! window **once per distinct `(program, partitioner)` entry**, not once
//! per tenant: every tenant attached to an entry receives the same
//! `Arc`-shared [`ReasonerOutput`], so N tenants running the same rule set
//! cost ~1 tenant. Within one entry the window is routed and its dirty
//! communities are found exactly once (that is what the entry's
//! [`IncrementalReasoner`](crate::incremental::IncrementalReasoner) does);
//! across entries only the worker pool and the counters are shared.
//!
//! Execution model: each live (not quarantined) entry becomes one job on the
//! registry's [`ExecCtx`](crate::exec::ExecCtx), which all entries share.
//! Under [`ParallelMode::Threads`](crate::config::ParallelMode) the jobs run
//! concurrently on the shared worker pool, at most `workers` at once; an
//! entry's job fans its dirty partitions out over the same pool and runs the
//! ones no other worker has picked up itself (see [`crate::exec`]). The
//! caller thread only waits. Without a pool (Sequential mode) the entries
//! run on the caller thread one after another. Either way the bookkeeping —
//! errors, panic recovery, quarantine and deadline scoring, latency samples
//! and outputs — runs serially after the batch, in first-admission order.
//!
//! Correctness bar: each tenant's output is byte-identical to running its
//! own single-program pipeline over the same windows (property-tested in
//! `tests/multi_tenant_identity.rs`, in both modes, including admit/retire
//! mid-stream). Outputs are deterministic whatever the interleaving:
//! entries emit in first-admission order and tenants in admission order
//! within their entry.

use crate::admission::{AdmissionSnapshot, AdmitError};
use crate::engine::EngineStats;
use crate::exec::Job;
use crate::metrics::{duration_ms, DedupSnapshot, FailureCounters, LatencyStats, TenantLatency};
use crate::poison::lock_recover;
use crate::reasoner::{Reasoner, ReasonerOutput};
use crate::registry::{ProgramEntry, ProgramRegistry, TenantPartitioner};
use asp_core::{AspError, Symbols};
use sr_stream::Window;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one entry's job returns: its output and its own run time.
type EntryRun = (Result<ReasonerOutput, AspError>, Duration);

/// One tenant's view of a processed window. Tenants deduplicated onto the
/// same program run share the `Arc` (and record the same latency).
pub struct TenantOutput {
    /// The tenant id.
    pub tenant: String,
    /// Fingerprint of the tenant's program.
    pub program: u64,
    /// The program-scoped symbol store (renders `output`'s answer sets).
    pub syms: Symbols,
    /// The entry's own run time for this window: from the moment its job
    /// started to the moment its output was ready. Time the job waited for
    /// a worker is not included.
    pub latency: Duration,
    /// The shared reasoner output.
    pub output: Arc<ReasonerOutput>,
    /// True when `output` is a degraded placeholder rather than a reasoning
    /// result. The scheduler never serves one: a failing entry's tenants get
    /// no output for the window instead.
    pub degraded: bool,
}

/// Per-tenant latency distribution in first-seen order. Retired tenants
/// keep their recorded history so a final report never loses data. The
/// histogram keeps memory constant no matter how long the tenant is served.
struct TenantSamples {
    tenant: String,
    program: u64,
    latency: sr_obs::Histogram,
}

/// Scheduler totals kept in shared atomics so a live Prometheus scrape
/// (see [`MultiTenantEngine::register_metrics`]) can read them mid-run
/// without locking the engine.
#[derive(Default)]
struct SchedulerCounters {
    windows: std::sync::atomic::AtomicU64,
    items: std::sync::atomic::AtomicU64,
    tenant_windows: std::sync::atomic::AtomicU64,
    program_runs: std::sync::atomic::AtomicU64,
    /// Entry runs that errored or panicked (the window itself survives:
    /// other entries keep serving).
    errors: std::sync::atomic::AtomicU64,
}

/// The scheduler. See the module docs for the execution model.
pub struct MultiTenantEngine {
    registry: ProgramRegistry,
    samples: Vec<TenantSamples>,
    window_latency: Arc<sr_obs::Histogram>,
    counters: Arc<SchedulerCounters>,
    started: Option<Instant>,
    last_done: Option<Instant>,
    /// Per-entry serving deadline; an over-deadline (but successful) window
    /// still serves its result and scores toward quarantine.
    deadline: Option<Duration>,
    /// Consecutive failed/overdue windows before an entry is quarantined.
    quarantine_threshold: u32,
    /// Admissions that succeeded (attaches included).
    admitted: u64,
    /// Admissions refused with an [`AdmitError`].
    rejected: u64,
}

impl MultiTenantEngine {
    /// An engine with no tenants. `config` applies to every admitted
    /// program (see [`ProgramRegistry::new`]).
    pub fn new(config: crate::config::ReasonerConfig) -> Self {
        MultiTenantEngine {
            registry: ProgramRegistry::new(config),
            samples: Vec::new(),
            window_latency: Arc::new(sr_obs::Histogram::new()),
            counters: Arc::new(SchedulerCounters::default()),
            started: None,
            last_done: None,
            deadline: None,
            quarantine_threshold: 3,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Replaces the admission policy on the underlying registry. Applies
    /// to future admissions only.
    pub fn set_admission_policy(&mut self, policy: crate::admission::AdmissionPolicy) {
        self.registry.set_policy(policy);
    }

    /// Sets (or clears) the per-entry serving deadline. A successful window
    /// slower than this still serves its result but counts against the
    /// entry like a failure, so a chronically overdue program ends up
    /// quarantined instead of dragging every cohabiting tenant down.
    pub fn set_window_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline = deadline_ms.map(Duration::from_millis);
    }

    /// Consecutive failed (or overdue) windows before an entry is
    /// quarantined. Default 3; a threshold of 0 disables quarantine.
    pub fn set_quarantine_threshold(&mut self, threshold: u32) {
        self.quarantine_threshold = threshold;
    }

    /// Tenants currently attached to quarantined entries (each stops
    /// receiving outputs until [`MultiTenantEngine::readmit`]).
    pub fn quarantined_tenants(&self) -> Vec<String> {
        self.registry
            .entries()
            .iter()
            .filter(|e| e.is_quarantined())
            .flat_map(|e| e.tenants().iter().cloned())
            .collect()
    }

    /// Lifts the quarantine from the entry serving `tenant` (all tenants of
    /// that entry resume at the next window; the failure streak restarts
    /// from zero). Errors when the tenant is unknown; a no-op when its
    /// entry is not quarantined.
    pub fn readmit(&mut self, tenant: &str) -> Result<(), AspError> {
        for entry in self.registry.entries_mut() {
            if entry.tenants.iter().any(|t| t == tenant) {
                entry.quarantined = false;
                entry.consecutive_failures = 0;
                return Ok(());
            }
        }
        Err(AspError::Internal(format!("tenant '{tenant}' is not admitted")))
    }

    /// The scheduler's shared recovery counters: the entries' retries and
    /// fallbacks and the scheduler's quarantines (also snapshotted into
    /// [`EngineStats::failure`] by [`MultiTenantEngine::stats`]).
    pub fn failure_counters(&self) -> &Arc<FailureCounters> {
        &self.registry.ctx.failures
    }

    /// Admits a tenant (delegates to [`ProgramRegistry::admit`]); valid
    /// mid-stream — the tenant joins at the next window. Failures come
    /// back as a structured [`AdmitError`] (duplicate tenant, bad program,
    /// over budget with the dominating term named) and are counted into
    /// [`EngineStats::admission`].
    pub fn admit(
        &mut self,
        tenant: &str,
        source: &str,
        partitioner: TenantPartitioner,
    ) -> Result<u64, AdmitError> {
        match self.registry.admit(tenant, source, partitioner) {
            Ok(fp) => {
                self.admitted += 1;
                Ok(fp)
            }
            Err(err) => {
                self.rejected += 1;
                Err(err)
            }
        }
    }

    /// Retires a tenant (delegates to [`ProgramRegistry::retire`]); valid
    /// mid-stream — the tenant's recorded latency history is kept for the
    /// final report.
    pub fn retire(&mut self, tenant: &str) -> Result<u64, AspError> {
        self.registry.retire(tenant)
    }

    /// The underlying registry (tenant/program introspection).
    pub fn registry(&self) -> &ProgramRegistry {
        &self.registry
    }

    /// Processes one window for every admitted tenant: each registry entry
    /// runs once, as one job on the shared pool (see the module docs), and
    /// every tenant of the entry receives the shared result.
    /// Outputs are ordered deterministically (entries in first-admission
    /// order, tenants in admission order within their entry). An empty
    /// registry yields an empty vector — the window still counts.
    ///
    /// **Tenant isolation:** an entry whose reasoner errors or panics no
    /// longer aborts the whole window — its tenants just get no output for
    /// it (counted in [`EngineStats::errors`]) and the remaining entries
    /// keep serving. An entry that fails (or, with a deadline set, runs
    /// overdue) [`quarantine_threshold`](MultiTenantEngine::set_quarantine_threshold)
    /// windows in a row is quarantined: skipped entirely until
    /// [`MultiTenantEngine::readmit`].
    pub fn process(&mut self, window: &Window) -> Result<Vec<TenantOutput>, AspError> {
        use std::sync::atomic::Ordering;
        let t_window = Instant::now();
        self.started.get_or_insert(t_window);
        let mut outputs = Vec::with_capacity(self.registry.tenant_count());
        let live: Vec<usize> = (0..self.registry.entries().len())
            .filter(|&i| !self.registry.entries()[i].quarantined)
            .collect();
        let shared_window = Arc::new(window.clone());
        let trace = sr_obs::tracer().is_enabled().then(sr_obs::current_ctx);
        let jobs = live
            .iter()
            .map(|&i| {
                let entry = &self.registry.entries()[i];
                let reasoner = Arc::clone(&entry.reasoner);
                let window = Arc::clone(&shared_window);
                // Spans recorded under this entry carry its serving-entry
                // fingerprint, so a trace distinguishes tenants' programs.
                let trace = trace.map(|ctx| sr_obs::TraceCtx {
                    window_id: window.id,
                    entry_fp: Some(entry.fingerprint),
                    ..ctx
                });
                Box::new(move || {
                    let _trace_ctx = trace.map(sr_obs::ctx_scope);
                    let t0 = Instant::now();
                    let output = lock_recover(&reasoner).process(&window);
                    (output, t0.elapsed())
                }) as Job<EntryRun>
            })
            .collect();
        let runs = self.registry.ctx.run(jobs);

        // Bookkeeping runs serially, in first-admission order.
        let samples = &mut self.samples;
        let deadline = self.deadline;
        let threshold = self.quarantine_threshold;
        let failures = Arc::clone(&self.registry.ctx.failures);
        let entries = self.registry.entries_mut();
        for (i, run) in live.into_iter().zip(runs) {
            let entry = &mut entries[i];
            let (output, latency) = match run {
                Ok((Ok(output), latency)) => (output, latency),
                failed => {
                    // This entry's failure stays its own: count it, score
                    // it toward quarantine, keep serving the other entries.
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    if failed.is_err() {
                        // A panic may have poisoned the reasoner's
                        // incremental state; invalidate it before reuse.
                        let _ = Reasoner::recover(&mut *lock_recover(&entry.reasoner));
                    }
                    strike(entry, threshold, &failures);
                    continue;
                }
            };
            if deadline.is_some_and(|d| latency > d) {
                // Served, but too slow: score toward quarantine so a
                // chronically overdue program stops hurting its cohort.
                strike(entry, threshold, &failures);
            } else {
                entry.consecutive_failures = 0;
            }
            self.counters.program_runs.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::new(output);
            for tenant in &entry.tenants {
                self.counters.tenant_windows.fetch_add(1, Ordering::Relaxed);
                record(samples, tenant, entry.fingerprint, duration_ms(latency));
                outputs.push(TenantOutput {
                    tenant: tenant.clone(),
                    program: entry.fingerprint,
                    syms: entry.syms.clone(),
                    latency,
                    output: Arc::clone(&shared),
                    degraded: false,
                });
            }
        }
        self.counters.windows.fetch_add(1, Ordering::Relaxed);
        self.counters.items.fetch_add(window.len() as u64, Ordering::Relaxed);
        self.window_latency.record(duration_ms(t_window.elapsed()));
        self.last_done = Some(Instant::now());
        Ok(outputs)
    }

    /// The current work-deduplication counters.
    pub fn dedup_snapshot(&self) -> DedupSnapshot {
        use std::sync::atomic::Ordering;
        let tenant_windows = self.counters.tenant_windows.load(Ordering::Relaxed);
        let saved = tenant_windows - self.counters.program_runs.load(Ordering::Relaxed);
        DedupSnapshot {
            tenants: self.registry.tenant_count() as u64,
            programs: self.registry.program_count() as u64,
            windows: self.counters.windows.load(Ordering::Relaxed),
            tenant_windows,
            program_runs: self.counters.program_runs.load(Ordering::Relaxed),
            shared_runs_saved: saved,
            dedup_ratio: if tenant_windows > 0 {
                saved as f64 / tenant_windows as f64
            } else {
                0.0
            },
        }
    }

    /// Binds the scheduler's live state to `registry`: window/item/run
    /// totals, the per-window latency histogram and the entries' shared
    /// reuse counters. Collector closures capture `Arc`s,
    /// so scrapes keep working (frozen) after the engine is dropped.
    pub fn register_metrics(&self, registry: &sr_obs::MetricsRegistry) {
        use std::sync::atomic::Ordering;
        type CounterRead = fn(&SchedulerCounters) -> u64;
        let counters: [(&str, CounterRead); 5] = [
            ("sr_tenant_windows_total", |c| c.windows.load(Ordering::Relaxed)),
            ("sr_tenant_items_total", |c| c.items.load(Ordering::Relaxed)),
            ("sr_tenant_tenant_windows_total", |c| c.tenant_windows.load(Ordering::Relaxed)),
            ("sr_tenant_program_runs_total", |c| c.program_runs.load(Ordering::Relaxed)),
            ("sr_tenant_errors_total", |c| c.errors.load(Ordering::Relaxed)),
        ];
        for (name, read) in counters {
            let shared = Arc::clone(&self.counters);
            registry.register_counter_fn(name, &[], move || read(&shared));
        }
        let failures = Arc::clone(&self.registry.ctx.failures);
        registry.register_counter_fn("sr_tenant_quarantines_total", &[], move || {
            failures.quarantines.load(Ordering::Relaxed)
        });
        registry.register_histogram(
            "sr_tenant_window_latency_ms",
            &[],
            Arc::clone(&self.window_latency),
        );
        self.registry.ctx.counters.register_metrics(registry);
    }

    /// A throughput/latency report over everything processed so far:
    /// overall stats plus per-tenant latency p50/p95/p99 (`tenants`) and
    /// the dedup counters (`dedup`). `submit_blocked_ms` is `None` —
    /// [`MultiTenantEngine::process`] returns when the window is served,
    /// there is no submit queue to block on.
    pub fn stats(&self) -> EngineStats {
        let elapsed = match (self.started, self.last_done) {
            (Some(t0), Some(t1)) => t1.saturating_duration_since(t0),
            _ => Duration::ZERO,
        };
        let elapsed_s = elapsed.as_secs_f64();
        use std::sync::atomic::Ordering;
        let windows = self.counters.windows.load(Ordering::Relaxed);
        let items = self.counters.items.load(Ordering::Relaxed);
        EngineStats {
            windows,
            errors: self.counters.errors.load(Ordering::Relaxed),
            items,
            elapsed_ms: duration_ms(elapsed),
            windows_per_sec: if elapsed_s > 0.0 { windows as f64 / elapsed_s } else { 0.0 },
            items_per_sec: if elapsed_s > 0.0 { items as f64 / elapsed_s } else { 0.0 },
            submit_blocked_ms: None,
            incremental: Some(self.registry.ctx.counters.snapshot()),
            lanes: Vec::new(),
            queue_high_water: 0,
            latency: LatencyStats::from_histogram(&self.window_latency),
            tenants: self
                .samples
                .iter()
                .map(|s| TenantLatency {
                    tenant: s.tenant.clone(),
                    program: s.program,
                    latency: LatencyStats::from_histogram(&s.latency),
                })
                .collect(),
            dedup: Some(self.dedup_snapshot()),
            failure: (self.deadline.is_some()
                || self.registry.config.faults.is_some()
                || self.registry.ctx.failures.any_nonzero())
            .then(|| self.registry.ctx.failures.snapshot()),
            admission: self.admission_snapshot(),
        }
    }

    /// The admission counters, or `None` when admission control never
    /// engaged (no budget configured, nothing rejected) — the JSON then
    /// omits the section instead of fabricating zeros.
    pub fn admission_snapshot(&self) -> Option<AdmissionSnapshot> {
        let budget = self.registry.policy().budget_cells;
        (budget.is_some() || self.rejected > 0).then_some(AdmissionSnapshot {
            budget_cells: budget,
            admitted: self.admitted,
            rejected: self.rejected,
        })
    }
}

/// Scores one failed or overdue window against `entry`, quarantining it at
/// `threshold` consecutive strikes (`0` never quarantines).
fn strike(entry: &mut ProgramEntry, threshold: u32, failures: &FailureCounters) {
    entry.consecutive_failures += 1;
    if threshold > 0 && entry.consecutive_failures >= threshold {
        entry.quarantined = true;
        failures.quarantines.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

fn record(samples: &mut Vec<TenantSamples>, tenant: &str, program: u64, latency_ms: f64) {
    match samples.iter_mut().find(|s| s.tenant == tenant) {
        Some(s) => {
            // A tenant id reused after retirement continues its sample
            // series under whatever program it now runs.
            s.program = program;
            s.latency.record(latency_ms);
        }
        None => {
            let latency = sr_obs::Histogram::new();
            latency.record(latency_ms);
            samples.push(TenantSamples { tenant: tenant.to_string(), program, latency });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ParallelMode, ReasonerConfig};
    use sr_rdf::{Node, Triple};

    const PROGRAM_A: &str = "jam(X) :- slow(X), busy(X), not light(X).";
    const PROGRAM_B: &str = "fire(X) :- smoke(X), heat(X).";

    fn engine() -> MultiTenantEngine {
        MultiTenantEngine::new(ReasonerConfig {
            incremental: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        })
    }

    /// The caller-thread engine and one whose entries run on a 2-worker
    /// pool.
    fn engines() -> [MultiTenantEngine; 2] {
        let pooled = ReasonerConfig { incremental: true, workers: 2, ..Default::default() };
        [engine(), MultiTenantEngine::new(pooled)]
    }

    fn t(s: &str, p: &str) -> Triple {
        Triple::new(Node::iri(s), Node::iri(p), Node::Int(1))
    }

    fn window(id: u64) -> Window {
        Window::new(id, vec![t("a", "slow"), t("a", "busy"), t("b", "smoke"), t("b", "heat")])
    }

    fn rendered(out: &TenantOutput) -> Vec<String> {
        out.output.answers.iter().map(|a| a.display(&out.syms).to_string()).collect()
    }

    #[test]
    fn duplicate_tenants_share_one_program_run() {
        for mut eng in engines() {
            eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
            eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
            eng.admit("t2", PROGRAM_B, TenantPartitioner::Dependency).unwrap();
            let outputs = eng.process(&window(0)).unwrap();
            let tenants: Vec<&str> = outputs.iter().map(|o| o.tenant.as_str()).collect();
            assert_eq!(tenants, ["t0", "t1", "t2"], "every tenant, in admission order");
            assert!(
                Arc::ptr_eq(&outputs[0].output, &outputs[1].output),
                "tenants of one program share the same Arc"
            );
            assert!(!Arc::ptr_eq(&outputs[0].output, &outputs[2].output));
            assert!(rendered(&outputs[0])[0].contains("jam(a)"), "{:?}", rendered(&outputs[0]));
            assert!(rendered(&outputs[2])[0].contains("fire(b)"), "{:?}", rendered(&outputs[2]));
            let dedup = eng.dedup_snapshot();
            assert_eq!(dedup.tenant_windows, 3);
            assert_eq!(dedup.program_runs, 2, "two distinct programs ran");
            assert_eq!(dedup.shared_runs_saved, 1);
            assert!((dedup.dedup_ratio - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_report_per_tenant_latency_and_dedup() {
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        for id in 0..3 {
            eng.process(&window(id)).unwrap();
        }
        let stats = eng.stats();
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].latency.count, 3, "one sample per window");
        assert_eq!(stats.tenants[0].program, stats.tenants[1].program);
        assert!(stats.submit_blocked_ms.is_none(), "no submit path, key omitted");
        let dedup = stats.dedup.expect("scheduler stats always carry dedup");
        assert_eq!(dedup.program_runs, 3, "one run per window despite two tenants");
        assert_eq!(dedup.tenant_windows, 6);
        let json = stats.to_json();
        assert!(json.contains("\"tenants\": [{"), "{json}");
        assert!(json.contains("\"dedup\": {"), "{json}");
        assert!(!json.contains("\"submit_blocked_ms\""), "{json}");
        assert!(
            stats.incremental.is_some(),
            "shared reuse counters surface through the usual field"
        );
    }

    #[test]
    fn retire_mid_stream_keeps_counters_and_history_consistent() {
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.process(&window(0)).unwrap();
        let counters = |eng: &MultiTenantEngine| eng.stats().incremental.unwrap();
        let before = counters(&eng);
        assert!(before.hits + before.misses > 0, "window 0 was counted");

        // t1 — and then t0, the *last* tenant of the program — retire
        // mid-stream; the counters must stay consistent.
        eng.retire("t1").unwrap();
        let outputs = eng.process(&window(1)).unwrap();
        assert_eq!(outputs.len(), 1, "only t0 is served now");
        eng.retire("t0").unwrap();
        assert!(eng.registry().is_empty());
        let after_drop = counters(&eng);
        assert!(
            after_drop.hits >= before.hits && after_drop.misses >= before.misses,
            "dropping the last tenant never rolls counters back"
        );

        // Processing with no tenants is a no-op result, not an error.
        assert!(eng.process(&window(2)).unwrap().is_empty());
        let unchanged = counters(&eng);
        assert_eq!(unchanged, after_drop, "no tenants, no counter traffic");

        eng.admit("t2", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.process(&window(3)).unwrap();
        let readmitted = counters(&eng);
        assert!(
            readmitted.hits >= unchanged.hits && readmitted.misses > unchanged.misses,
            "the re-admitted program counts into the same counters: {readmitted:?}"
        );
        let stats = eng.stats();
        assert_eq!(stats.tenants.len(), 3, "retired tenants keep their recorded history");
        assert_eq!(stats.tenants[0].tenant, "t0");
        assert_eq!(stats.tenants[0].latency.count, 2, "t0 saw windows 0 and 1");
        assert_eq!(stats.tenants[1].latency.count, 1, "t1 only saw window 0");
    }

    #[test]
    fn registered_metrics_reflect_scheduler_and_shared_state() {
        let registry = sr_obs::MetricsRegistry::new();
        let mut eng = engine();
        eng.register_metrics(&registry);
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        for id in 0..2 {
            eng.process(&window(id)).unwrap();
        }
        let text = registry.render_prometheus();
        assert!(text.contains("sr_tenant_windows_total 2"), "{text}");
        assert!(text.contains("sr_tenant_program_runs_total 2"), "{text}");
        assert!(text.contains("sr_tenant_tenant_windows_total 4"), "{text}");
        assert!(text.contains("sr_tenant_window_latency_ms_count 2"), "{text}");
        assert!(text.contains("sr_cache_hits_total"), "the reuse counters register too: {text}");
    }

    #[test]
    fn overdue_windows_score_toward_quarantine_but_still_serve() {
        for mut eng in engines() {
            eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
            eng.set_window_deadline_ms(Some(0)); // every real window is overdue
            eng.set_quarantine_threshold(2);
            let first = eng.process(&window(0)).unwrap();
            assert_eq!(first.len(), 1, "an overdue window still serves its result");
            assert!(eng.quarantined_tenants().is_empty(), "one strike is not enough");
            let second = eng.process(&window(1)).unwrap();
            assert_eq!(second.len(), 1);
            assert_eq!(eng.quarantined_tenants(), ["t0"], "two strikes at threshold 2");
            assert!(eng.process(&window(2)).unwrap().is_empty(), "a quarantined entry is skipped");
            let stats = eng.stats();
            assert_eq!(stats.errors, 0, "overdue is not an error");
            assert_eq!(stats.failure.expect("deadline configured").quarantines, 1);
        }
    }

    #[test]
    fn failure_section_is_omitted_without_deadline_faults_or_counters() {
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.process(&window(0)).unwrap();
        let stats = eng.stats();
        assert!(stats.failure.is_none(), "nothing to report, nothing fabricated");
        assert!(!stats.to_json().contains("\"failure\""), "{}", stats.to_json());
        assert!(stats.admission.is_none(), "no policy, no rejections: section omitted");
        assert!(!stats.to_json().contains("\"admission\""), "{}", stats.to_json());
    }

    #[test]
    fn over_budget_admissions_are_rejected_and_reported() {
        use crate::admission::{AdmissionPolicy, AdmitError, WindowSpec};
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.set_admission_policy(AdmissionPolicy::with_budget(WindowSpec::tuple(1000), 10));
        let err = eng.admit("t1", PROGRAM_B, TenantPartitioner::Dependency).unwrap_err();
        assert!(matches!(err, AdmitError::OverBudget { .. }), "{err}");
        let outputs = eng.process(&window(0)).unwrap();
        assert_eq!(outputs.len(), 1, "only the admitted tenant is served");
        let stats = eng.stats();
        let adm = stats.admission.expect("a budget is configured");
        assert_eq!((adm.budget_cells, adm.admitted, adm.rejected), (Some(10), 1, 1));
        assert!(stats.to_json().contains("\"admission\": {"), "{}", stats.to_json());
    }
}
