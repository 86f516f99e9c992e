//! The multi-tenant scheduler: N tenant programs served over one shared
//! stream, with per-window work deduplicated by serving key.
//!
//! [`MultiTenantEngine`] admits and retires tenant programs at runtime and
//! deduplicates them by **serving key** `(program fingerprint,
//! partitioner)`: tenants whose program text renders identically (see
//! [`program_fingerprint`], which hashes the rendered rules, whatever
//! `Symbols` store parsed them) and who ask for the same partitioning share
//! one [`ProgramEntry`]. The partitioner is part of the key because the
//! paper's random baseline can change answers.
//!
//! Each entry gets its **own `Symbols` store** (its community reasoners
//! resolve symbol ids against the store their program was built from) and
//! its own [`IncrementalReasoner`], which reuses the communities a window's
//! delta leaves untouched from the last window *it* answered; a re-admitted
//! program starts cold. Each window runs **once per entry**, not once per
//! tenant: every tenant of an entry receives the same `Arc`-shared
//! [`ReasonerOutput`].
//!
//! Execution model: one [`MultiTenantEngine::process`] call serves one
//! window; the scheduler keeps no clock. It is a [`Reasoner`] whose output
//! is one [`TenantOutput`] per served tenant, so a stream runs through
//! [`StreamEngine`](crate::engine::StreamEngine) like any other: the
//! engine's lane holds the scheduler behind a mutex (so the caller keeps a
//! handle for [`MultiTenantEngine::stats`]) and reports into its
//! [`ExecCtx`]. One lane is enough, since each window already fans out
//! over the entries; lanes sharing the scheduler take turns on it. The
//! engine keeps the run's tally and its deadline rule: an overdue window is
//! emitted degraded, as in any other run.
//!
//! Entries share that [`ExecCtx`]: one thread bound,
//! [`ReasonerConfig::workers`] (or the first admitted program's partition
//! count when that is `0`), set at the first admission that needs one,
//! plus the reuse, recovery and quarantine counters. Each live (not
//! quarantined) entry is one job of one [`ExecCtx::fork_join`]: the thread
//! that called [`MultiTenantEngine::process`] runs entries itself and forks
//! threads only while permits are free, and each entry fans its dirty
//! partitions out under the same bound without taking a second permit (see
//! [`crate::exec`]). In Sequential mode every entry runs on the caller, one
//! after another. Either way the bookkeeping — panic recovery, quarantine
//! scoring, latency samples and outputs — runs serially after the batch,
//! in first-admission order.
//!
//! Correctness bar: each tenant's output is byte-identical to running its
//! own single-program pipeline over the same windows, called directly or
//! through the engine (property-tested in `tests/multi_tenant_identity.rs`).
//! Entries emit in first-admission order and tenants in admission order
//! within their entry.

use crate::admission::{AdmissionPolicy, AdmissionSnapshot, AdmitError, ProgramBounds};
use crate::analysis::DependencyAnalysis;
use crate::config::{AnalysisConfig, ReasonerConfig, UnknownPredicate};
use crate::engine::EngineStats;
use crate::exec::ExecCtx;
use crate::incremental::{program_fingerprint, IncrementalReasoner};
use crate::metrics::{duration_ms, DedupSnapshot, FailureCounters, LatencyStats, TenantLatency};
use crate::partition::{Partitioner, PlanPartitioner, RandomPartitioner};
use crate::reasoner::{Reasoner, ReasonerOutput};
use asp_core::{AspError, Symbols};
use asp_parser::parse_program;
use sr_stream::Window;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive failed windows before an entry is quarantined.
const QUARANTINE_THRESHOLD: u32 = 3;

/// How a tenant's window partitioning is chosen at admission. Part of the
/// serving key: tenants only share work when both the program fingerprint
/// *and* the partitioner choice match.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TenantPartitioner {
    /// Run the paper's input-dependency analysis and partition by the
    /// resulting plan (content-routed; exact answers).
    #[default]
    Dependency,
    /// The random k-way baseline (window-seeded; answers may differ from
    /// the dependency plan's, which is exactly why this is part of the
    /// serving key).
    Random {
        /// Number of partitions.
        k: usize,
        /// PRNG seed.
        seed: u64,
    },
}

/// One serving entry: an admitted program's private `Symbols` store, its
/// shared [`IncrementalReasoner`] and the tenants subscribed to it
/// (admission order).
pub struct ProgramEntry {
    fingerprint: u64,
    partitioner: TenantPartitioner,
    syms: Symbols,
    reasoner: IncrementalReasoner,
    tenants: Vec<String>,
    /// Windows this entry failed (panic/error) on, consecutively; reset on a
    /// successful window.
    consecutive_failures: u32,
    /// A quarantined entry is skipped by the scheduler until readmitted.
    quarantined: bool,
}

impl ProgramEntry {
    /// Tenants subscribed to this program, in admission order.
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }

    /// Number of partitions the program's reasoner fans out over.
    pub fn partitions(&self) -> usize {
        self.reasoner.partitions()
    }
}

/// One tenant's view of a processed window. Tenants deduplicated onto the
/// same program run share the `Arc` (and record the same latency).
#[derive(Clone, Debug)]
pub struct TenantOutput {
    /// The tenant id.
    pub tenant: String,
    /// Fingerprint of the tenant's program.
    pub program: u64,
    /// The program-scoped symbol store (renders `output`'s answer sets).
    pub syms: Symbols,
    /// The entry's own run time for this window: from the moment a thread
    /// started its job to the moment its output was ready. Time the job
    /// waited behind other entries is not included.
    pub latency: Duration,
    /// The shared reasoner output.
    pub output: Arc<ReasonerOutput>,
    /// True when `output` is a degraded placeholder rather than a reasoning
    /// result. The scheduler never serves one: a failing entry's tenants get
    /// no output for the window instead. An engine that emits a window
    /// degraded marks its [`EngineOutput`](crate::engine::EngineOutput).
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

/// Dedup totals kept in shared atomics so a live Prometheus scrape (see
/// [`MultiTenantEngine::register_metrics`]) can read them mid-run without
/// locking the engine.
#[derive(Default)]
struct SchedulerCounters {
    tenant_windows: std::sync::atomic::AtomicU64,
    program_runs: std::sync::atomic::AtomicU64,
}

/// The scheduler: admits and retires tenants, dedups programs by serving
/// key and serves every entry once per window. See the module docs.
pub struct MultiTenantEngine {
    /// Applies to every admitted program.
    config: ReasonerConfig,
    /// The thread bound and counters every entry's reasoner shares; the
    /// scheduler adds its quarantines to the failure counters.
    ctx: ExecCtx,
    policy: AdmissionPolicy,
    /// Admitted programs in first-admission order — the deterministic
    /// scheduling order.
    entries: Vec<ProgramEntry>,
    samples: Vec<TenantSamples>,
    /// Windows processed.
    windows: u64,
    counters: Arc<SchedulerCounters>,
    /// Admissions that succeeded (attaches included).
    admitted: u64,
    /// Admissions refused with an [`AdmitError`].
    rejected: u64,
}

impl MultiTenantEngine {
    /// An engine with no tenants. `config` applies to every admitted
    /// program. The default [`AdmissionPolicy`] admits everything (no
    /// budget).
    pub fn new(config: ReasonerConfig) -> Self {
        MultiTenantEngine {
            config,
            ctx: ExecCtx::default(),
            policy: AdmissionPolicy::default(),
            entries: Vec::new(),
            samples: Vec::new(),
            windows: 0,
            counters: Arc::new(SchedulerCounters::default()),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Replaces the admission policy. Applies to future admissions only —
    /// already-admitted entries are never retroactively rejected.
    pub fn set_admission_policy(&mut self, policy: AdmissionPolicy) {
        self.policy = policy;
    }

    /// The thread bound and counters every entry shares; an engine that runs
    /// the scheduler takes a clone after the first admission sizes it.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Tenants currently attached to quarantined entries (each stops
    /// receiving outputs until [`MultiTenantEngine::readmit`]).
    pub fn quarantined_tenants(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.quarantined)
            .flat_map(|e| e.tenants.iter().cloned())
            .collect()
    }

    /// Lifts the quarantine from the entry serving `tenant` (all tenants of
    /// that entry resume at the next window; the failure streak restarts
    /// from zero). Errors when the tenant is unknown; a no-op when its
    /// entry is not quarantined.
    pub fn readmit(&mut self, tenant: &str) -> Result<(), AspError> {
        for entry in &mut self.entries {
            if entry.tenants.iter().any(|t| t == tenant) {
                entry.quarantined = false;
                entry.consecutive_failures = 0;
                return Ok(());
            }
        }
        Err(AspError::Internal(format!("tenant '{tenant}' is not admitted")))
    }

    /// Admits `tenant` with `source`; valid mid-stream — the tenant joins
    /// at the next window. If the rendered program and the partitioner
    /// choice match an admitted entry, the tenant attaches to it (no new
    /// reasoner or store); otherwise the program is parsed into a fresh
    /// `Symbols` store, analyzed, checked against the admission policy and
    /// gets its own [`IncrementalReasoner`]. Returns the program
    /// fingerprint. Fails with a structured [`AdmitError`] on a duplicate
    /// tenant id, a program that does not parse/analyze, or a static bound
    /// over the policy budget (the dominating term named). Admissions and
    /// rejections are counted into [`EngineStats::admission`].
    pub fn admit(
        &mut self,
        tenant: &str,
        source: &str,
        partitioner: TenantPartitioner,
    ) -> Result<u64, AdmitError> {
        let result = (|| {
            if self.entry_of(tenant).is_some() {
                return Err(AdmitError::DuplicateTenant { tenant: tenant.to_string() });
            }
            let syms = Symbols::new();
            let program = parse_program(&syms, source)?;
            let fingerprint = program_fingerprint(&syms, &program);
            if let Some(entry) = self
                .entries
                .iter_mut()
                .find(|e| e.fingerprint == fingerprint && e.partitioner == partitioner)
            {
                // Duplicate program: attach the tenant, drop the scratch
                // store. The entry already passed this policy (or a prior
                // one) at first admission; attaching adds no state.
                entry.tenants.push(tenant.to_string());
                return Ok(fingerprint);
            }
            let analysis =
                DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
            if let Some(budget) = self.policy.budget_cells {
                // The admission bound is always the worst case, never the
                // size of the current store (a transiently small store must
                // not admit a program that can outgrow memory later).
                let window = &self.policy.window;
                let bounds = match partitioner {
                    TenantPartitioner::Dependency => {
                        ProgramBounds::analyze(&syms, &program, &analysis, window)
                    }
                    TenantPartitioner::Random { k, .. } => {
                        ProgramBounds::uniform(&syms, &program, &analysis.inpre, k, window)
                    }
                };
                if bounds.total_cells.exceeds(budget) {
                    return Err(AdmitError::OverBudget {
                        bound: bounds.total_cells,
                        budget,
                        dominating: bounds.dominating,
                    });
                }
            }
            let part: Arc<dyn Partitioner> = match partitioner {
                TenantPartitioner::Dependency => Arc::new(PlanPartitioner::new(
                    analysis.plan.clone(),
                    UnknownPredicate::Partition0,
                )),
                TenantPartitioner::Random { k, seed } => Arc::new(RandomPartitioner::new(k, seed)),
            };
            if self.ctx.threads() == 0 {
                self.ctx = self.ctx.with_bound(&self.config, part.partitions());
            }
            // One reasoner per entry: its reuse slots are shared by every
            // tenant that attaches later.
            let reasoner = IncrementalReasoner::with_ctx(
                &syms,
                &program,
                Some(&analysis.inpre),
                part,
                self.config.clone(),
                self.ctx.clone(),
            )?;
            self.entries.push(ProgramEntry {
                fingerprint,
                partitioner,
                syms,
                reasoner,
                tenants: vec![tenant.to_string()],
                consecutive_failures: 0,
                quarantined: false,
            });
            Ok(fingerprint)
        })();
        match result {
            Ok(_) => self.admitted += 1,
            Err(_) => self.rejected += 1,
        }
        result
    }

    /// Retires `tenant`, returning its program fingerprint; valid
    /// mid-stream. When the last tenant of a program leaves, the whole
    /// entry — reasoner, reuse slots, symbol store — is dropped; the shared
    /// context and counters stay, and the tenant's recorded latency history is
    /// kept for the final report.
    pub fn retire(&mut self, tenant: &str) -> Result<u64, AspError> {
        for (idx, entry) in self.entries.iter_mut().enumerate() {
            if let Some(pos) = entry.tenants.iter().position(|t| t == tenant) {
                entry.tenants.remove(pos);
                let fingerprint = entry.fingerprint;
                if entry.tenants.is_empty() {
                    self.entries.remove(idx);
                }
                return Ok(fingerprint);
            }
        }
        Err(AspError::Internal(format!("tenant '{tenant}' is not admitted")))
    }

    /// Tenants currently admitted.
    pub fn tenant_count(&self) -> usize {
        self.entries.iter().map(|e| e.tenants.len()).sum()
    }

    /// Distinct serving entries (programs × partitioner choices) admitted.
    pub fn program_count(&self) -> usize {
        self.entries.len()
    }

    /// The serving entry `tenant` is attached to, if admitted.
    pub fn entry_of(&self, tenant: &str) -> Option<&ProgramEntry> {
        self.entries.iter().find(|e| e.tenants.iter().any(|t| t == tenant))
    }

    /// Processes one window for every admitted tenant: each serving entry
    /// runs once, as one fork–join job (see the module docs), and
    /// every tenant of the entry receives the shared result.
    /// Outputs are ordered deterministically (entries in first-admission
    /// order, tenants in admission order within their entry). An engine
    /// without tenants yields an empty vector — the window still counts.
    ///
    /// **Tenant isolation:** an entry whose reasoner errors or panics does
    /// not abort the whole window — its tenants just get no output for it
    /// (counted in [`EngineStats::errors`]) and the remaining entries keep
    /// serving. An entry that fails three
    /// windows in a row is quarantined: skipped entirely until
    /// [`MultiTenantEngine::readmit`]. Lateness is not failure: a deadline
    /// belongs to the engine that runs the scheduler.
    pub fn process(&mut self, window: &Window) -> Result<Vec<TenantOutput>, AspError> {
        use std::sync::atomic::Ordering;
        self.windows += 1;
        let mut outputs = Vec::with_capacity(self.tenant_count());
        let trace = sr_obs::tracer().is_enabled().then(sr_obs::current_ctx);
        let mut live: Vec<&mut ProgramEntry> =
            self.entries.iter_mut().filter(|e| !e.quarantined).collect();
        // Every entry reasons over the whole window: equal weights keep
        // first-admission order.
        let runs = self.ctx.fork_join(
            &mut live,
            |_| window.len(),
            |entry| {
                // Spans recorded under this entry carry its serving-entry
                // fingerprint, so a trace distinguishes tenants' programs.
                let _trace_ctx = trace.map(|ctx| {
                    sr_obs::ctx_scope(sr_obs::TraceCtx {
                        window_id: window.id,
                        entry_fp: Some(entry.fingerprint),
                        ..ctx
                    })
                });
                let t0 = Instant::now();
                let output = entry.reasoner.process(window);
                (output, t0.elapsed())
            },
        );

        // Bookkeeping runs serially, in first-admission order.
        for (entry, run) in live.into_iter().zip(runs) {
            let Ok((Ok(output), latency)) = run else {
                // This entry's failure (an error, or a panic — the
                // reasoner's reuse slots are written only after a
                // successful window) stays its own: score it toward
                // quarantine, keep serving the other entries.
                strike(entry, &self.ctx.failures);
                continue;
            };
            entry.consecutive_failures = 0;
            self.counters.program_runs.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::new(output);
            for tenant in &entry.tenants {
                self.counters.tenant_windows.fetch_add(1, Ordering::Relaxed);
                record(&mut self.samples, tenant, entry.fingerprint, duration_ms(latency));
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
        Ok(outputs)
    }

    /// The current work-deduplication counters.
    pub fn dedup_snapshot(&self) -> DedupSnapshot {
        use std::sync::atomic::Ordering;
        let tenant_windows = self.counters.tenant_windows.load(Ordering::Relaxed);
        let saved = tenant_windows - self.counters.program_runs.load(Ordering::Relaxed);
        DedupSnapshot {
            tenants: self.tenant_count() as u64,
            programs: self.program_count() as u64,
            windows: self.windows,
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

    /// Binds the scheduler's live state to `registry`: tenant-window and
    /// program-run totals, quarantines and the entries' shared reuse
    /// counters. The run's window, item, error and latency series are those
    /// of the engine that runs the scheduler ([`StreamEngine::register_metrics`]
    /// with the `sr_tenant` prefix). Collector closures capture `Arc`s, so scrapes
    /// keep working (frozen) after the engine is dropped.
    ///
    /// [`StreamEngine::register_metrics`]: crate::engine::StreamEngine::register_metrics
    pub fn register_metrics(&self, registry: &sr_obs::MetricsRegistry) {
        use std::sync::atomic::Ordering;
        type CounterRead = fn(&SchedulerCounters) -> u64;
        let counters: [(&str, CounterRead); 2] = [
            ("sr_tenant_tenant_windows_total", |c| c.tenant_windows.load(Ordering::Relaxed)),
            ("sr_tenant_program_runs_total", |c| c.program_runs.load(Ordering::Relaxed)),
        ];
        for (name, read) in counters {
            let shared = Arc::clone(&self.counters);
            registry.register_counter_fn(name, &[], move || read(&shared));
        }
        let failures = Arc::clone(&self.ctx.failures);
        registry.register_counter_fn("sr_tenant_quarantines_total", &[], move || {
            failures.quarantines.load(Ordering::Relaxed)
        });
        self.ctx.counters.register_metrics(registry);
    }

    /// The scheduler's half of a run report: per-tenant latency p50/p95/p99
    /// (`tenants`), failed entry runs (`errors`), the dedup, reuse and
    /// admission counters, and the recovery counters when a fault plan is
    /// configured or one moved. The run's window and item totals,
    /// throughput and window latency are those of the engine that runs the
    /// scheduler ([`EngineStats`] from [`StreamEngine::finish`], whose
    /// `errors` include these) and stay at their defaults here.
    ///
    /// [`StreamEngine::finish`]: crate::engine::StreamEngine::finish
    pub fn stats(&self) -> EngineStats {
        let failures = &self.ctx.failures;
        let armed = self.config.faults.is_some() || failures.any_nonzero();
        let budget = self.policy.budget_cells;
        EngineStats {
            errors: failures.errors.load(std::sync::atomic::Ordering::Relaxed),
            incremental: Some(self.ctx.counters.snapshot()),
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
            // Omitted, not zeroed, when admission control never engaged.
            admission: (budget.is_some() || self.rejected > 0).then_some(AdmissionSnapshot {
                budget_cells: budget,
                admitted: self.admitted,
                rejected: self.rejected,
            }),
            failure: armed.then(|| failures.snapshot()),
            ..EngineStats::default()
        }
    }
}

/// Counts one failed window of `entry` and scores it, quarantining the
/// entry at [`QUARANTINE_THRESHOLD`] consecutive strikes.
fn strike(entry: &mut ProgramEntry, failures: &FailureCounters) {
    failures.errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    entry.consecutive_failures += 1;
    if entry.consecutive_failures >= QUARANTINE_THRESHOLD {
        entry.quarantined = true;
        failures.quarantines.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Reasoner<Vec<TenantOutput>> for MultiTenantEngine {
    fn process(&mut self, window: &Window) -> Result<Vec<TenantOutput>, AspError> {
        MultiTenantEngine::process(self, window)
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
    use crate::engine::{EngineConfig, StreamEngine};
    use crate::fault::{FaultPlan, FaultSite};
    use crate::poison::lock_recover;
    use sr_rdf::{Node, Triple};
    use std::sync::Mutex;

    const PROGRAM_A: &str = "jam(X) :- slow(X), busy(X), not light(X).";
    const PROGRAM_B: &str = "fire(X) :- smoke(X), heat(X).";

    fn engine() -> MultiTenantEngine {
        MultiTenantEngine::new(ReasonerConfig {
            incremental: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        })
    }

    /// The caller-thread engine and one whose entries fork under a bound of
    /// 2 threads.
    fn engines() -> [MultiTenantEngine; 2] {
        let forking = ReasonerConfig { incremental: true, workers: 2, ..Default::default() };
        [engine(), MultiTenantEngine::new(forking)]
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

    /// A stream engine whose lanes share `eng` and report into its context.
    fn through_engine(
        eng: MultiTenantEngine,
        config: EngineConfig,
    ) -> (Arc<Mutex<MultiTenantEngine>>, StreamEngine<Vec<TenantOutput>>) {
        let ctx = eng.ctx().clone();
        let shared = Arc::new(Mutex::new(eng));
        let engine = StreamEngine::with_ctx(
            config,
            |_lane| Ok(Box::new(Arc::clone(&shared)) as Box<dyn Reasoner<Vec<TenantOutput>>>),
            ctx,
        )
        .unwrap();
        (shared, engine)
    }

    #[test]
    fn duplicate_tenants_share_one_program_run() {
        for mut eng in engines() {
            let fp_a = eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
            let fp_dup = eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
            assert_eq!(fp_a, fp_dup, "identical source renders to one fingerprint");
            let fp_b = eng.admit("t2", PROGRAM_B, TenantPartitioner::Dependency).unwrap();
            assert_ne!(fp_a, fp_b);
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
            assert_eq!(eng.program_count(), 2, "the duplicate attached, no second entry");
            assert_eq!(eng.entry_of("t1").unwrap().tenants(), ["t0", "t1"]);
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
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].latency.count, 3, "one sample per window");
        assert_eq!(stats.tenants[0].program, stats.tenants[1].program);
        assert!(stats.submit_blocked_ms.is_none(), "no submit path, key omitted");
        let dedup = stats.dedup.expect("scheduler stats always carry dedup");
        assert_eq!(dedup.windows, 3);
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
        assert_eq!(eng.program_count(), 0);
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
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.register_metrics(&registry);
        let config = EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: None };
        let (_, mut streaming) = through_engine(eng, config);
        streaming.register_metrics(&registry, "sr_tenant");
        for id in 0..2 {
            streaming.submit(window(id)).unwrap();
        }
        assert_eq!(streaming.finish().stats.windows, 2);
        let text = registry.render_prometheus();
        for series in [
            "sr_tenant_windows_total 2",
            "sr_tenant_items_total 8",
            "sr_tenant_errors_total 0",
            "sr_tenant_window_latency_ms_count 2",
            "sr_tenant_program_runs_total 2",
            "sr_tenant_tenant_windows_total 4",
            "sr_tenant_quarantines_total 0",
        ] {
            assert!(text.contains(series), "{series}: {text}");
        }
        assert!(text.contains("sr_cache_hits_total"), "the reuse counters register too: {text}");
    }

    #[test]
    fn overdue_windows_are_emitted_degraded_and_quarantine_nothing() {
        // A plan that slows every window but the first: windows 1..4 take
        // 300 ms each against a 50 ms engine deadline.
        let slow = |seed: u64| {
            FaultPlan::new()
                .with_rule(FaultSite::PartitionSlowdown, 0.9, seed)
                .with_stall(Duration::from_millis(300))
        };
        let fires = |seed: u64, w: u64| slow(seed).fires(FaultSite::PartitionSlowdown, w, 0);
        let seed = (0..100_000)
            .find(|&s| !fires(s, 0) && (1..4).all(|w| fires(s, w)))
            .expect("such a seed exists");
        let mut eng = MultiTenantEngine::new(ReasonerConfig {
            mode: ParallelMode::Sequential,
            faults: Some(Arc::new(slow(seed))),
            ..Default::default()
        });
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        let config = EngineConfig { in_flight: 1, queue_depth: 4, window_deadline_ms: Some(50) };
        let (shared, mut streaming) = through_engine(eng, config);
        for id in 0..4 {
            streaming.submit(window(id)).unwrap();
        }
        let report = streaming.finish();
        let degraded: Vec<bool> = report.outputs.iter().map(|o| o.degraded).collect();
        assert_eq!(degraded, [false, true, true, true], "every slowed window is emitted degraded");
        let replayed = report.outputs[3].result.as_ref().unwrap();
        assert_eq!(replayed.len(), 1, "a placeholder replays window 0's tenant outputs");
        assert!(rendered(&replayed[0])[0].contains("jam(a)"), "{:?}", rendered(&replayed[0]));
        assert_eq!(report.stats.errors, 0, "degradation is not an error");
        let failure = report.stats.failure.expect("a deadline arms the failure section");
        assert_eq!(failure.degraded_windows, 3);
        assert_eq!(failure.quarantines, 0, "lateness alone quarantines nothing");
        let mut eng = lock_recover(&shared);
        assert!(eng.quarantined_tenants().is_empty());
        assert_eq!(eng.process(&window(4)).unwrap().len(), 1, "the slow entry still serves");
    }

    #[test]
    fn failed_entry_runs_count_as_engine_errors() {
        let panics = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1);
        let mut eng = MultiTenantEngine::new(ReasonerConfig {
            mode: ParallelMode::Sequential,
            faults: Some(Arc::new(panics)),
            ..Default::default()
        });
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        let registry = sr_obs::MetricsRegistry::new();
        let config = EngineConfig { in_flight: 1, queue_depth: 2, window_deadline_ms: None };
        let (shared, mut streaming) = through_engine(eng, config);
        streaming.register_metrics(&registry, "sr_tenant");
        for id in 0..2 {
            streaming.submit(window(id)).unwrap();
        }
        let report = streaming.finish();
        let served: Vec<usize> =
            report.outputs.iter().map(|o| o.result.as_ref().unwrap().len()).collect();
        assert_eq!(served, [0, 0], "the failing entry serves nothing, the windows survive");
        assert_eq!(report.stats.errors, 2, "one error per failed entry run");
        assert_eq!(lock_recover(&shared).stats().errors, 2);
        let text = registry.render_prometheus();
        assert!(text.contains("sr_tenant_errors_total 2"), "{text}");
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
        match &err {
            AdmitError::OverBudget { budget, dominating, .. } => {
                assert_eq!(*budget, 10);
                assert!(!dominating.component.is_empty());
            }
            other => panic!("expected OverBudget, got {other}"),
        }
        assert!(err.to_string().contains("exceeds budget 10"), "{err}");
        assert!(eng.entry_of("t1").is_none(), "rejected program left no entry");
        let outputs = eng.process(&window(0)).unwrap();
        assert_eq!(outputs.len(), 1, "only the admitted tenant is served");
        let stats = eng.stats();
        let adm = stats.admission.expect("a budget is configured");
        assert_eq!((adm.budget_cells, adm.admitted, adm.rejected), (Some(10), 1, 1));
        assert!(stats.to_json().contains("\"admission\": {"), "{}", stats.to_json());
    }

    #[test]
    fn partitioner_choice_is_part_of_the_serving_key() {
        let mut eng = engine();
        eng.admit("dep", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("ran", PROGRAM_A, TenantPartitioner::Random { k: 2, seed: 7 }).unwrap();
        assert_eq!(
            eng.program_count(),
            2,
            "same program under a different partitioner must not share results"
        );
        eng.admit("ran2", PROGRAM_A, TenantPartitioner::Random { k: 2, seed: 7 }).unwrap();
        assert_eq!(eng.program_count(), 2, "identical random choice does share");
        assert_eq!(eng.entry_of("ran2").unwrap().tenants(), ["ran", "ran2"]);
    }

    #[test]
    fn entries_share_one_pool_sized_by_workers() {
        let mut eng = MultiTenantEngine::new(ReasonerConfig { workers: 2, ..Default::default() });
        for i in 0..4 {
            let source = format!("{PROGRAM_A}\ntenant_tag({i}).");
            eng.admit(&format!("t{i}"), &source, TenantPartitioner::Dependency).unwrap();
        }
        assert_eq!(eng.program_count(), 4, "four distinct programs, four entries");
        assert_eq!(eng.ctx.threads(), 2, "one bound of 2 threads, not one per entry");
        for entry in &eng.entries {
            let ctx = entry.reasoner.ctx();
            assert_eq!(ctx.threads(), 2);
            assert!(
                Arc::ptr_eq(&ctx.counters, &eng.ctx.counters),
                "every entry shares the context"
            );
        }
        let outputs = eng.process(&window(0)).unwrap();
        assert_eq!(outputs.len(), 4, "every entry served under the shared bound");
    }

    #[test]
    fn duplicate_tenant_id_is_rejected() {
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        let err = eng.admit("t0", PROGRAM_B, TenantPartitioner::Dependency).unwrap_err();
        assert!(err.to_string().contains("already admitted"), "{err}");
        assert_eq!(eng.tenant_count(), 1, "the failed admission left no trace");
    }

    #[test]
    fn retiring_the_last_tenant_drops_the_entry() {
        let mut eng = engine();
        eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        eng.retire("t0").unwrap();
        assert_eq!(eng.program_count(), 1, "t1 still holds the program");
        assert_eq!(eng.tenant_count(), 1);
        eng.retire("t1").unwrap();
        assert_eq!(eng.program_count(), 0, "last tenant out, entry dropped");
        assert!(eng.retire("t1").is_err(), "retiring twice fails");
    }

    #[test]
    fn bad_programs_are_rejected_at_admission() {
        let mut eng = engine();
        assert!(eng.admit("t0", "jam(X :-", TenantPartitioner::Dependency).is_err());
        assert_eq!(eng.program_count(), 0, "nothing admitted");
    }
}
