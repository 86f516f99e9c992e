//! Incremental reasoning over sliding windows: a partition-level result
//! cache.
//!
//! The paper's input-dependency partitioning makes partitions independent
//! under the dependency graph, so a partition whose *content* is unchanged
//! between two overlapping windows must yield the identical answer set.
//! [`IncrementalReasoner`] exploits that: it re-partitions every window,
//! fingerprints each partition's content, reuses the cached answer sets of
//! partitions whose fingerprint is unchanged, and dispatches only the dirty
//! partitions to the shared [`WorkerPool`](crate::exec::WorkerPool) (or the
//! caller thread in [`ParallelMode::Sequential`], or when
//! [`ReasonerConfig::delta_ground`] is set). The combined output is
//! byte-identical to full recomputation — the cache changes *where* answers
//! come from, never *what* they are.
//!
//! A dirty partition is always reasoned from scratch. For a stratified
//! program that means evaluating its perfect model bottom-up
//! ([`asp_grounder::Grounder::perfect_model`]), which on sliding windows
//! costs less than maintaining the partition's grounding across windows
//! did. So the [`WindowDelta`](sr_stream::WindowDelta) a sliding window
//! carries is not consumed here.
//!
//! Content fingerprints are the correctness mechanism: they are sound for
//! any [`Partitioner`] (including the window-id-seeded random baseline,
//! whose splits change even when the window content does not). Cache keys are
//! `(program fingerprint, partition fingerprint)`, so one cache can be
//! shared across engine lanes — and across programs — without collisions.

use crate::config::{ParallelMode, ReasonerConfig};
use crate::fault::{self, FaultSite};
use crate::metrics::{CacheCounters, FailureCounters};
use crate::parallel::{max_timing, reasoner_pool, sum_timing, ReasonerPool};
use crate::partition::Partitioner;
use crate::poison::lock_recover;
use crate::reasoner::{merge_stats, Reasoner, ReasonerOutput, SingleReasoner, Timing};
use asp_core::{AnswerSet, AspError, FastMap, Predicate, Program, Symbols};
use asp_solver::{SolveStats, SolverConfig};
use sr_rdf::{Node, Triple};
use sr_stream::Window;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_node(h: u64, node: &Node) -> u64 {
    // A type tag keeps e.g. the IRI `3` apart from the integer `3`.
    match node {
        Node::Iri(s) => fnv(fnv(h, &[1]), s.as_bytes()),
        Node::Literal(s) => fnv(fnv(h, &[2]), s.as_bytes()),
        Node::Int(i) => fnv(fnv(h, &[3]), &i.to_le_bytes()),
    }
}

fn hash_triple(t: &Triple, seed: u64) -> u64 {
    let h = fnv(hash_node(seed, &t.s), &[0x1f]);
    let h = fnv(hash_node(h, &t.p), &[0x1f]);
    hash_node(h, &t.o)
}

/// Order-independent 128-bit content fingerprint of a bag of triples.
/// Multiset-equal inputs — and only those, up to hash collisions — map to
/// the same fingerprint, so a partition whose items merely *moved* inside
/// the window still hits the cache (answer sets are order-insensitive).
/// 128 bits keep the collision probability negligible even across
/// million-window streams.
pub fn fingerprint_items(items: &[Triple]) -> u128 {
    let mut per_triple: Vec<u128> = items
        .iter()
        .map(|t| {
            let a = hash_triple(t, FNV_OFFSET);
            let b = hash_triple(t, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
            (u128::from(a) << 64) | u128::from(b)
        })
        .collect();
    per_triple.sort_unstable();
    let len = (items.len() as u64).to_le_bytes();
    let mut h1 = fnv(FNV_OFFSET, &len);
    let mut h2 = fnv(FNV_OFFSET ^ 0x5851_f42d_4c95_7f2d, &len);
    for v in per_triple {
        let bytes = v.to_le_bytes();
        h1 = fnv(h1, &bytes);
        h2 = fnv(h2, &bytes);
    }
    (u128::from(h1) << 64) | u128::from(h2)
}

/// Stable fingerprint of a program (its rendered rules): the first half of
/// every cache key, so caches shared across reasoners never serve answers
/// computed under a different rule set.
pub fn program_fingerprint(syms: &Symbols, program: &Program) -> u64 {
    fnv(FNV_OFFSET, program.display(syms).to_string().as_bytes())
}

struct CacheEntry {
    answers: Arc<Vec<AnswerSet>>,
    last_used: u64,
}

struct CacheState {
    map: FastMap<(u64, u128), CacheEntry>,
    tick: u64,
}

/// A bounded, LRU partition-level result cache keyed by
/// `(program fingerprint, partition content fingerprint)`. Thread-safe:
/// engine lanes processing different windows share one cache behind an
/// `Arc`, so window `k+1` reuses entries window `k` inserted.
pub struct PartitionCache {
    capacity: usize,
    state: Mutex<CacheState>,
    counters: CacheCounters,
}

impl PartitionCache {
    /// A cache holding at most `capacity` partition results. Capacity `0`
    /// disables caching entirely: every lookup misses and inserts are
    /// dropped (the always-recompute baseline).
    pub fn new(capacity: usize) -> Self {
        PartitionCache {
            capacity,
            state: Mutex::new(CacheState { map: FastMap::default(), tick: 0 }),
            counters: CacheCounters::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live hit/miss/eviction counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Binds the live cache counters to `registry` as scrape-time collector
    /// closures: the counters keep their `AtomicU64` field layout and the
    /// hot path keeps its `fetch_add`s — nothing is double-counted and no
    /// JSON snapshot shape changes. Planner metrics appear too (zero until
    /// cost planning reports through the shared counters).
    pub fn register_metrics(self: &Arc<Self>, registry: &sr_obs::MetricsRegistry) {
        use std::sync::atomic::Ordering;
        type CounterRead = fn(&CacheCounters) -> u64;
        let counters: [(&str, CounterRead); 5] = [
            ("sr_cache_hits_total", |c: &CacheCounters| c.hits.load(Ordering::Relaxed)),
            ("sr_cache_misses_total", |c: &CacheCounters| c.misses.load(Ordering::Relaxed)),
            ("sr_cache_evictions_total", |c: &CacheCounters| c.evictions.load(Ordering::Relaxed)),
            ("sr_planner_replans_total", |c: &CacheCounters| {
                c.planner_replans.load(Ordering::Relaxed)
            }),
            ("sr_planner_plans_reordered_total", |c: &CacheCounters| {
                c.planner_plans_reordered.load(Ordering::Relaxed)
            }),
        ];
        for (name, read) in counters {
            let cache = Arc::clone(self);
            registry.register_counter_fn(name, &[], move || read(cache.counters()));
        }
        let cache = Arc::clone(self);
        registry.register_gauge_fn("sr_cache_entries", &[], move || cache.len() as f64);
    }

    /// Looks up a partition result, counting a hit or miss.
    pub fn get(&self, program: u64, fingerprint: u128) -> Option<Arc<Vec<AnswerSet>>> {
        use std::sync::atomic::Ordering;
        if self.capacity == 0 {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(&(program, fingerprint)) {
            Some(entry) => {
                entry.last_used = tick;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.answers))
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a partition result, evicting the least-recently-used entry
    /// when over capacity.
    pub fn insert(&self, program: u64, fingerprint: u128, answers: Arc<Vec<AnswerSet>>) {
        use std::sync::atomic::Ordering;
        if self.capacity == 0 {
            return;
        }
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        state.map.insert((program, fingerprint), CacheEntry { answers, last_used: tick });
        while state.map.len() > self.capacity {
            // Linear LRU scan: capacities are small (hundreds) and eviction
            // is off the solving critical path.
            let oldest = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map over capacity");
            state.map.remove(&oldest);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The incremental parallel reasoner: partition → fingerprint → reuse clean
/// partitions from the [`PartitionCache`], re-solve only dirty ones →
/// combine. Implements [`Reasoner`], so it drops into the
/// [`StreamEngine`](crate::engine::StreamEngine) unchanged.
pub struct IncrementalReasoner {
    syms: Symbols,
    partitioner: Arc<dyn Partitioner>,
    config: ReasonerConfig,
    /// The (possibly shared) worker pool that serves dirty partitions;
    /// `None` in Sequential mode and under [`ReasonerConfig::delta_ground`],
    /// where they run on the caller thread.
    pool: Option<Arc<ReasonerPool>>,
    /// The caller-thread scratch reasoner. In Sequential mode it serves
    /// every partition; in Threads mode it is the retry/fallback engine for
    /// partitions whose pooled job panicked (see
    /// [`IncrementalReasoner::recover_partition`]). Always exactly one.
    sequential: Vec<SingleReasoner>,
    cache: Arc<PartitionCache>,
    /// Shared failure counters (retries/fallbacks), handed in by the engine
    /// via [`IncrementalReasoner::set_failure_counters`]; a private default
    /// otherwise.
    failures: Arc<FailureCounters>,
    program_id: u64,
    /// Planner counters already flushed from the sequential scratch
    /// reasoner, which reports cumulative totals. Pooled workers keep their
    /// plan caches on their own threads and are not aggregated.
    scratch_reported: (u64, u64),
}

impl IncrementalReasoner {
    /// Builds the incremental reasoner with its own worker pool (Threads
    /// mode without [`ReasonerConfig::delta_ground`]) or caller-thread
    /// execution, and its own cache sized by
    /// [`ReasonerConfig::cache_capacity`].
    pub fn new(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
    ) -> Result<Self, AspError> {
        let cache = Arc::new(PartitionCache::new(config.cache_capacity));
        Self::with_cache(syms, program, inpre, partitioner, config, cache)
    }

    /// Like [`IncrementalReasoner::new`], but over an existing shared cache
    /// (the construction used by engine lanes: one cache, many lanes).
    pub fn with_cache(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
        cache: Arc<PartitionCache>,
    ) -> Result<Self, AspError> {
        let n = partitioner.partitions().max(1);
        let solver = SolverConfig { max_models: config.max_models, ..Default::default() };
        let program_id = program_fingerprint(syms, program);
        let pool = match config.mode {
            ParallelMode::Threads if !config.delta_ground => {
                let workers = if config.workers == 0 { n } else { config.workers };
                Some(Arc::new(reasoner_pool(
                    syms,
                    program,
                    inpre,
                    &solver,
                    workers,
                    config.cost_planning,
                )?))
            }
            _ => None,
        };
        // The scratch reasoner exists in both modes: Sequential execution in
        // one, the panicked-job retry/fallback path in the other
        // (construction-time cost only — idle unless a pooled job fails).
        let mut scratch = SingleReasoner::new(syms, program, inpre, solver)?;
        scratch.set_cost_planning(config.cost_planning);
        Ok(IncrementalReasoner {
            syms: syms.clone(),
            partitioner,
            config,
            pool,
            sequential: vec![scratch],
            cache,
            failures: Arc::new(FailureCounters::default()),
            program_id,
            scratch_reported: (0, 0),
        })
    }

    /// Builds the reasoner on an existing shared cache and, when given one,
    /// an existing shared pool that serves its dirty partitions (Threads
    /// semantics); without a pool they run on the caller thread, as
    /// [`ReasonerConfig::delta_ground`] asks. The pool's workers must have
    /// been built for the same `program`/signature; `program_id` scopes the
    /// cache keys (see [`program_fingerprint`]). The program itself builds
    /// the caller-thread scratch reasoner.
    #[allow(clippy::too_many_arguments)] // lane-construction plumbing: every argument is shared state
    pub fn with_pool(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
        pool: Option<Arc<ReasonerPool>>,
        cache: Arc<PartitionCache>,
        program_id: u64,
    ) -> Result<Self, AspError> {
        let solver = SolverConfig { max_models: config.max_models, ..Default::default() };
        let mut scratch = SingleReasoner::new(syms, program, inpre, solver)?;
        scratch.set_cost_planning(config.cost_planning);
        Ok(IncrementalReasoner {
            syms: syms.clone(),
            partitioner,
            pool,
            config,
            sequential: vec![scratch],
            cache,
            failures: Arc::new(FailureCounters::default()),
            program_id,
            scratch_reported: (0, 0),
        })
    }

    /// Shares the engine-wide failure counters with this reasoner so its
    /// retries and fallbacks land in the same [`FailureCounters`] snapshot
    /// the engine reports.
    pub fn set_failure_counters(&mut self, failures: Arc<FailureCounters>) {
        self.failures = failures;
    }

    /// The failure counters this reasoner reports into.
    pub fn failure_counters(&self) -> &Arc<FailureCounters> {
        &self.failures
    }

    /// Number of parallel partitions.
    pub fn partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    /// The shared partition cache.
    pub fn cache(&self) -> &Arc<PartitionCache> {
        &self.cache
    }

    /// How many times a failed partition job is retried on the scratch
    /// reasoner before the window errors out.
    const MAX_PARTITION_RETRIES: u32 = 2;

    /// Recovers one partition whose job panicked (pooled worker or the
    /// sequential path): bounded retries with exponential backoff, each
    /// attempt a full re-ground of the partition content on the caller's
    /// scratch reasoner. Recovery attempts re-roll the `WorkerPanic` fault at
    /// an attempt-salted coordinate, so a sub-1.0 injection rate models a
    /// transient fault (recovery succeeds) while a rate-1.0 plan
    /// deterministically exhausts the retries and surfaces the error with
    /// the window id and partition index.
    fn recover_partition(
        &mut self,
        window: &Window,
        i: usize,
    ) -> Result<(Vec<AnswerSet>, Timing, SolveStats), AspError> {
        use std::sync::atomic::Ordering;
        let _span = sr_obs::span(sr_obs::Stage::Recover);
        let items = self.partitioner.partition(window).into_iter().nth(i).unwrap_or_default();
        for attempt in 0..Self::MAX_PARTITION_RETRIES {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(1u64 << attempt));
            }
            self.failures.retries.fetch_add(1, Ordering::Relaxed);
            let reasoner = &mut self.sequential[0];
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // Attempt-salted coordinate: distinct from the original
                // job's roll, so injected faults are transient by default.
                let salted = i as u64 + ((attempt as u64 + 1) << 32);
                if fault::fires(FaultSite::WorkerPanic, window.id, salted) {
                    panic!(
                        "injected recovery fault (window {}, partition {i}, attempt {attempt})",
                        window.id
                    );
                }
                reasoner.process_items(&items)
            }));
            match outcome {
                Ok(result) => {
                    let out = result?;
                    self.failures.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return Ok(out);
                }
                Err(_) => continue,
            }
        }
        Err(AspError::Internal(format!(
            "partition {i} of window {} failed: worker panicked and {} re-ground retries were \
             exhausted",
            window.id,
            Self::MAX_PARTITION_RETRIES
        )))
    }

    /// Processes one window: partition → fingerprint/lookup → solve dirty →
    /// combine. Output is byte-identical to
    /// [`ParallelReasoner`](crate::parallel::ParallelReasoner) over the same
    /// partitioner.
    pub fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        let _trace_ctx = sr_obs::tracer().is_enabled().then(|| {
            sr_obs::ctx_scope(sr_obs::TraceCtx { window_id: window.id, ..sr_obs::current_ctx() })
        });
        let start = Instant::now();
        let t_part = Instant::now();
        let (mut parts, fingerprints, partition_sizes) = {
            let _span = sr_obs::span(sr_obs::Stage::Partition);
            let parts = self.partitioner.partition(window);
            let fingerprints: Vec<u128> = parts.iter().map(|p| fingerprint_items(p)).collect();
            let partition_sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            (parts, fingerprints, partition_sizes)
        };

        // Clean partitions come straight from the cache; the rest are dirty.
        let (mut per_partition, dirty) = {
            let _span = sr_obs::span(sr_obs::Stage::CacheLookup);
            let per_partition: Vec<Option<Arc<Vec<AnswerSet>>>> = fingerprints
                .iter()
                .enumerate()
                .map(|(i, &fp)| {
                    // Fault hook: drop the cached entry on the floor — an
                    // identity-preserving fault (the recompute must yield
                    // the same answers the cache held).
                    if fault::injection_enabled()
                        && fault::fires(FaultSite::CacheInvalidate, window.id, i as u64)
                    {
                        return None;
                    }
                    self.cache.get(self.program_id, fp)
                })
                .collect();
            let dirty: Vec<usize> =
                (0..parts.len()).filter(|&i| per_partition[i].is_none()).collect();
            (per_partition, dirty)
        };
        // Fingerprinting + cache lookups are the incremental handler's
        // overhead: account them to the partitioning stage.
        let partition_time = t_part.elapsed();

        let mut stats = SolveStats::default();
        let mut critical = Timing::default();
        let mut fresh: Vec<(usize, Vec<AnswerSet>)> = Vec::with_capacity(dirty.len());

        match self.pool.clone() {
            Some(pool) => {
                let payloads: Vec<Vec<Triple>> =
                    dirty.iter().map(|&i| std::mem::take(&mut parts[i])).collect();
                let batch = pool.submit(window.id, payloads);
                // The pool batch is concurrent within itself (max); serial
                // recoveries after it add to the critical path.
                let mut pool_critical = Timing::default();
                for (k, outcome) in batch.wait().into_iter().enumerate() {
                    let (answers, timing, s) = match outcome {
                        Ok(result) => result?,
                        Err(_panicked) => {
                            // The pooled job panicked: retry on the scratch
                            // reasoner (serial, after the batch — account it
                            // additively, not into the concurrent max).
                            let (answers, rt, s) = self.recover_partition(window, dirty[k])?;
                            critical = sum_timing(critical, rt);
                            (answers, Timing::default(), s)
                        }
                    };
                    stats = merge_stats(stats, s);
                    pool_critical = max_timing(pool_critical, timing);
                    fresh.push((dirty[k], answers));
                }
                critical = sum_timing(critical, pool_critical);
            }
            None => {
                for &i in &dirty {
                    let reasoner = &mut self.sequential[0];
                    let items = &parts[i];
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        // The sequential path hosts the same fault hooks the
                        // pool workers do, so Sequential-mode lanes (and the
                        // multi-tenant scheduler) see identical failures.
                        if fault::injection_enabled() {
                            if fault::fires(FaultSite::PartitionSlowdown, window.id, i as u64) {
                                std::thread::sleep(fault::stall_duration());
                            }
                            if fault::fires(FaultSite::WorkerPanic, window.id, i as u64) {
                                panic!(
                                    "injected worker fault (window {}, partition {i})",
                                    window.id
                                );
                            }
                        }
                        reasoner.process_items(items)
                    }));
                    let (answers, timing, s) = match outcome {
                        Ok(result) => result?,
                        Err(_) => self.recover_partition(window, i)?,
                    };
                    stats = merge_stats(stats, s);
                    // Sequential mode has no critical path: stages add up.
                    critical = sum_timing(critical, timing);
                    fresh.push((i, answers));
                }
            }
        }
        // Flush planner counters from the sequential scratch reasoner (pooled
        // workers keep their plan caches on their threads and are not
        // aggregated — nor is the scratch reasoner while a pool serves, when
        // it only runs the rare recovery path).
        if self.pool.is_none() {
            if let Some((replans, reordered, generation)) =
                self.sequential.first().and_then(SingleReasoner::planner_counters)
            {
                use std::sync::atomic::Ordering;
                let c = self.cache.counters();
                c.planner_enabled.store(true, Ordering::Relaxed);
                c.planner_replans.fetch_add(replans - self.scratch_reported.0, Ordering::Relaxed);
                c.planner_plans_reordered
                    .fetch_add(reordered - self.scratch_reported.1, Ordering::Relaxed);
                c.planner_generation.fetch_max(generation, Ordering::Relaxed);
                self.scratch_reported = (replans, reordered);
            }
        }

        for (i, answers) in fresh {
            let answers = Arc::new(answers);
            self.cache.insert(self.program_id, fingerprints[i], Arc::clone(&answers));
            per_partition[i] = Some(answers);
        }
        // Combine over borrowed slices: cached answers never leave the Arc.
        let borrowed: Vec<&[AnswerSet]> = per_partition
            .iter()
            .map(|p| p.as_ref().expect("every partition is cached or freshly solved").as_slice())
            .collect();

        let t_combine = Instant::now();
        let (answers, unsat_partitions) = {
            let _span = sr_obs::span(sr_obs::Stage::Combine);
            crate::combine::combine(
                &self.syms,
                &borrowed,
                self.config.combine,
                self.config.max_combined,
            )
        };
        let combine_time = t_combine.elapsed();

        Ok(ReasonerOutput {
            answers,
            timing: Timing {
                total: start.elapsed(),
                partition: partition_time,
                transform: critical.transform,
                ground: critical.ground,
                solve: critical.solve,
                combine: combine_time,
            },
            partition_sizes,
            unsat_partitions,
            solve_stats: stats,
        })
    }
}

impl Reasoner for IncrementalReasoner {
    fn name(&self) -> &'static str {
        "IR"
    }

    fn partitions(&self) -> usize {
        IncrementalReasoner::partitions(self)
    }

    fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        IncrementalReasoner::process(self, window)
    }

    fn recover(&mut self) -> bool {
        // The partition cache is safe as-is — entries are inserted only
        // after a successful solve — and the scratch reasoner is stateless.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnknownPredicate;
    use crate::parallel::ParallelReasoner;
    use crate::partition::{PlanPartitioner, RandomPartitioner};
    use crate::plan::PartitioningPlan;
    use asp_parser::parse_program;
    use sr_rdf::Node;
    use sr_stream::SlidingWindower;
    use std::sync::atomic::Ordering;

    const PROGRAM_P: &str = r#"
        very_slow_speed(X) :- average_speed(X,Y), Y < 20.
        many_cars(X) :- car_number(X,Y), Y > 40.
        traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
        car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
        give_notification(X) :- traffic_jam(X).
        give_notification(X) :- car_fire(X).
    "#;

    fn t(s: &str, p: &str, o: Node) -> Triple {
        Triple::new(Node::iri(s), Node::iri(p), o)
    }

    fn paper_plan() -> PartitioningPlan {
        let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
        for p in ["average_speed", "car_number", "traffic_light"] {
            membership.insert(p.to_string(), vec![0]);
        }
        for p in ["car_in_smoke", "car_speed", "car_location"] {
            membership.insert(p.to_string(), vec![1]);
        }
        PartitioningPlan { communities: 2, membership }
    }

    fn motivating_items() -> Vec<Triple> {
        vec![
            t("newcastle", "average_speed", Node::Int(10)),
            t("newcastle", "car_number", Node::Int(55)),
            t("newcastle", "traffic_light", Node::Int(1)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("dangan")),
        ]
    }

    fn render(syms: &Symbols, out: &ReasonerOutput) -> Vec<String> {
        out.answers.iter().map(|a| a.display(syms).to_string()).collect()
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let a = vec![t("s1", "p", Node::Int(1)), t("s2", "q", Node::Int(2))];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(fingerprint_items(&a), fingerprint_items(&b), "order must not matter");
        let c = vec![t("s1", "p", Node::Int(1)), t("s2", "q", Node::Int(3))];
        assert_ne!(fingerprint_items(&a), fingerprint_items(&c), "content must matter");
        // Multiset semantics: duplicates count.
        let d = vec![a[0].clone(), a[0].clone()];
        assert_ne!(fingerprint_items(&a[..1]), fingerprint_items(&d));
        // Type tags: the IRI "3" differs from the integer 3.
        let iri3 = vec![t("s", "p", Node::iri("3"))];
        let int3 = vec![t("s", "p", Node::Int(3))];
        assert_ne!(fingerprint_items(&iri3), fingerprint_items(&int3));
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        let cache = PartitionCache::new(2);
        let ans = Arc::new(vec![AnswerSet::default()]);
        assert!(cache.get(1, 10).is_none());
        cache.insert(1, 10, ans.clone());
        cache.insert(1, 20, ans.clone());
        assert!(cache.get(1, 10).is_some(), "entry 10 touched: now most recent");
        cache.insert(1, 30, ans.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, 20).is_none(), "20 was the LRU entry and got evicted");
        assert!(cache.get(1, 10).is_some());
        assert!(cache.get(1, 30).is_some());
        assert!(cache.get(2, 10).is_none(), "program id scopes the key");
        let snap = cache.counters().snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.misses, 3);
    }

    #[test]
    fn cache_metrics_scrape_matches_the_counters() {
        let registry = sr_obs::MetricsRegistry::new();
        let cache = Arc::new(PartitionCache::new(2));
        cache.register_metrics(&registry);
        let ans = Arc::new(vec![AnswerSet::default()]);
        cache.insert(1, 10, ans);
        assert!(cache.get(1, 10).is_some());
        assert!(cache.get(1, 99).is_none());
        let text = registry.render_prometheus();
        assert!(text.contains("sr_cache_hits_total 1"), "{text}");
        assert!(text.contains("sr_cache_misses_total 1"), "{text}");
        assert!(text.contains("sr_cache_entries 1"), "{text}");
        assert!(text.contains("sr_planner_replans_total 0"), "{text}");
    }

    #[test]
    fn zero_capacity_cache_always_misses() {
        let cache = PartitionCache::new(0);
        cache.insert(1, 10, Arc::new(vec![AnswerSet::default()]));
        assert!(cache.get(1, 10).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters().misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters().hits.load(Ordering::Relaxed), 0);
    }

    fn build_pair(config: ReasonerConfig) -> (Symbols, ParallelReasoner, IncrementalReasoner) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let partitioner: Arc<dyn Partitioner> =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let pr = ParallelReasoner::new(&syms, &program, None, partitioner.clone(), config.clone())
            .unwrap();
        let ir = IncrementalReasoner::new(&syms, &program, None, partitioner, config).unwrap();
        (syms, pr, ir)
    }

    #[test]
    fn identical_to_parallel_reasoner_and_second_window_hits() {
        let (syms, mut pr, mut ir) =
            build_pair(ReasonerConfig { incremental: true, ..Default::default() });
        let window = Window::new(0, motivating_items());
        let full = pr.process(&window).unwrap();
        let inc = ir.process(&window).unwrap();
        assert_eq!(render(&syms, &full), render(&syms, &inc));
        assert_eq!(inc.partition_sizes, full.partition_sizes);
        // Same content again (new window id): both partitions are clean.
        let again = ir.process(&Window::new(1, motivating_items())).unwrap();
        assert_eq!(render(&syms, &full), render(&syms, &again));
        let snap = ir.cache().counters().snapshot();
        assert_eq!(snap.misses, 2, "first window solves both partitions");
        assert_eq!(snap.hits, 2, "second window reuses both");
    }

    #[test]
    fn dirty_partition_is_recomputed_clean_one_reused() {
        let (syms, mut pr, mut ir) =
            build_pair(ReasonerConfig { incremental: true, ..Default::default() });
        let w0 = Window::new(0, motivating_items());
        ir.process(&w0).unwrap();
        // Drop the traffic light: community 0 changes (the jam now fires),
        // community 1 (the car fire) is untouched and must come from cache.
        let mut items = motivating_items();
        items.remove(2);
        let w1 = Window::new(1, items.clone());
        let inc = ir.process(&w1).unwrap();
        pr.process(&w0).unwrap();
        let full = pr.process(&Window::new(1, items)).unwrap();
        let rendered = render(&syms, &inc);
        assert_eq!(rendered, render(&syms, &full));
        assert!(rendered[0].contains("traffic_jam(newcastle)"), "{rendered:?}");
        assert!(rendered[0].contains("car_fire(dangan)"), "{rendered:?}");
        let snap = ir.cache().counters().snapshot();
        assert_eq!(snap.hits, 1, "car partition reused");
        assert_eq!(snap.misses, 3, "2 initial + dirty traffic partition");
        assert_eq!(snap.dirty_partition_ratio, 0.75);
    }

    #[test]
    fn sequential_mode_matches_threads_mode() {
        let cfg_t =
            ReasonerConfig { incremental: true, mode: ParallelMode::Threads, ..Default::default() };
        let cfg_s = ReasonerConfig { mode: ParallelMode::Sequential, ..cfg_t.clone() };
        let (syms_t, _, mut ir_t) = build_pair(cfg_t);
        let (_syms_s, _, mut ir_s) = build_pair(cfg_s);
        let w = Window::new(0, motivating_items());
        let a = ir_t.process(&w).unwrap();
        let b = ir_s.process(&w).unwrap();
        assert_eq!(a.answers.len(), b.answers.len());
        assert_eq!(render(&syms_t, &a).len(), 1);
    }

    #[test]
    fn random_partitioner_stays_identical_despite_per_window_reshuffling() {
        // RandomPartitioner splits by (seed, window id): identical content
        // under a different id partitions differently, so fingerprints must
        // be computed from actual partition content, never reused by
        // position. This is the regression guard for that design rule.
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let partitioner: Arc<dyn Partitioner> = Arc::new(RandomPartitioner::new(3, 11));
        let cfg = ReasonerConfig { incremental: true, ..Default::default() };
        let mut pr =
            ParallelReasoner::new(&syms, &program, None, partitioner.clone(), cfg.clone()).unwrap();
        let mut ir = IncrementalReasoner::new(&syms, &program, None, partitioner, cfg).unwrap();
        let mut windower = SlidingWindower::new(4, 2);
        let mut stream = motivating_items();
        stream.extend(motivating_items());
        for item in stream {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&w).unwrap();
                let inc = ir.process(&w).unwrap();
                assert_eq!(render(&syms, &full), render(&syms, &inc), "window {}", w.id);
            }
        }
    }

    #[test]
    fn capacity_zero_reasoner_still_identical() {
        let cfg = ReasonerConfig { incremental: true, cache_capacity: 0, ..Default::default() };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        for id in 0..3 {
            let w = Window::new(id, motivating_items());
            let full = pr.process(&w).unwrap();
            let inc = ir.process(&w).unwrap();
            assert_eq!(render(&syms, &full), render(&syms, &inc));
        }
        assert_eq!(ir.cache().counters().snapshot().hits, 0, "capacity 0 never hits");
    }

    fn sliding_stream(copies: usize) -> Vec<Triple> {
        let mut stream = Vec::new();
        for i in 0..copies {
            let mut items = motivating_items();
            // Vary one reading per round so consecutive windows differ.
            items[0] = t("newcastle", "average_speed", Node::Int(10 + i as i64));
            stream.extend(items);
        }
        stream
    }

    #[test]
    fn delta_ground_serves_dirty_partitions_on_the_caller_thread() {
        let cfg = ReasonerConfig { incremental: true, delta_ground: true, ..Default::default() };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        assert!(ir.pool.is_none(), "no pool: dirty partitions run on the caller");
        let mut windower = SlidingWindower::new(6, 2);
        for item in sliding_stream(4) {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&w).unwrap();
                let inc = ir.process(&w).unwrap();
                assert_eq!(render(&syms, &full), render(&syms, &inc), "window {}", w.id);
            }
        }
        assert!(ir.cache().counters().snapshot().misses > 0, "dirty partitions were solved");
    }

    #[test]
    fn delta_ground_serves_programs_outside_the_stratified_fragment() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "a :- not b. b :- not a.").unwrap();
        let partitioner: Arc<dyn Partitioner> =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let cfg = ReasonerConfig { incremental: true, delta_ground: true, ..Default::default() };
        let mut ir = IncrementalReasoner::new(&syms, &program, None, partitioner, cfg).unwrap();
        let out = ir.process(&Window::new(0, motivating_items())).unwrap();
        assert!(out.solve_stats.vars > 0, "a negative cycle still reaches CDCL");
        assert!(!out.answers.is_empty());
    }

    fn seq_cfg() -> ReasonerConfig {
        ReasonerConfig { incremental: true, mode: ParallelMode::Sequential, ..Default::default() }
    }

    #[test]
    fn injected_panic_recovers_with_identical_output() {
        let _guard = fault::test_guard();
        fault::clear();
        let (syms, mut pr, mut ir) = build_pair(seq_cfg());
        let w = Window::new(0, motivating_items());
        let expected = render(&syms, &pr.process(&w).unwrap());
        // A seed whose fault fires at some original coordinate but at none
        // of the attempt-salted retry coordinates: recovery must succeed.
        let seed = (0..10_000)
            .find(|&s| {
                let plan = crate::fault::FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, s);
                let fires = |p: u64| plan.fires(FaultSite::WorkerPanic, 0, p);
                (0..2).any(&fires) && (0..2).all(|i| !fires(i) || !fires(i + (1 << 32)))
            })
            .expect("such a seed exists");
        fault::install(crate::fault::FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, seed));
        let recovered = ir.process(&w);
        fault::clear();
        assert_eq!(render(&syms, &recovered.unwrap()), expected, "recovery must be lossless");
        let snap = ir.failure_counters().snapshot();
        assert!(snap.retries > 0, "the panicked partition was retried: {snap:?}");
        assert!(snap.fallbacks > 0, "and recovered via the re-ground fallback: {snap:?}");
    }

    #[test]
    fn retry_exhaustion_surfaces_window_and_partition() {
        let _guard = fault::test_guard();
        fault::clear();
        let (_syms, _pr, mut ir) = build_pair(seq_cfg());
        // Rate 1.0 fires at every coordinate, salted retries included: the
        // bounded retries must exhaust and error out loudly.
        fault::install(crate::fault::FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1));
        let err = ir.process(&Window::new(7, motivating_items()));
        fault::clear();
        let msg = format!("{:?}", err.expect_err("rate-1.0 panics exhaust the retries"));
        assert!(msg.contains("window 7"), "error names the window: {msg}");
        assert!(msg.contains("partition"), "error names the partition: {msg}");
        assert!(msg.contains("retries"), "error names the retry policy: {msg}");
        assert_eq!(
            ir.failure_counters().snapshot().retries,
            u64::from(IncrementalReasoner::MAX_PARTITION_RETRIES),
            "every retry was counted"
        );
    }

    #[test]
    fn cache_invalidation_fault_recomputes_identically() {
        let _guard = fault::test_guard();
        fault::clear();
        let (syms, mut pr, mut ir) = build_pair(seq_cfg());
        let expected = render(&syms, &pr.process(&Window::new(0, motivating_items())).unwrap());
        ir.process(&Window::new(0, motivating_items())).unwrap();
        fault::install(crate::fault::FaultPlan::new().with_rule(
            FaultSite::CacheInvalidate,
            1.0,
            4,
        ));
        let again = ir.process(&Window::new(1, motivating_items()));
        fault::clear();
        assert_eq!(render(&syms, &again.unwrap()), expected, "recompute must match the cache");
        let snap = ir.cache().counters().snapshot();
        assert_eq!(snap.hits, 0, "invalidation faults bypass the cache entirely: {snap:?}");
    }

    #[test]
    fn program_fingerprints_differ_across_programs() {
        let syms = Symbols::new();
        let p1 = parse_program(&syms, "a(X) :- b(X).").unwrap();
        let p2 = parse_program(&syms, "a(X) :- c(X).").unwrap();
        assert_ne!(program_fingerprint(&syms, &p1), program_fingerprint(&syms, &p2));
        assert_eq!(program_fingerprint(&syms, &p1), program_fingerprint(&syms, &p1));
    }
}
