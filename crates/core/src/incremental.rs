//! Incremental reasoning over sliding windows: delta windows + a
//! partition-level result cache.
//!
//! The paper's input-dependency partitioning makes partitions independent
//! under the dependency graph, so a partition whose *content* is unchanged
//! between two overlapping windows must yield the identical answer set.
//! [`IncrementalReasoner`] exploits that: it re-partitions every window,
//! fingerprints each partition's content, reuses the cached answer sets of
//! partitions whose fingerprint is unchanged, and dispatches only the dirty
//! partitions to the shared [`WorkerPool`](crate::exec::WorkerPool) (or the
//! caller thread in [`ParallelMode::Sequential`]). The combined output is
//! byte-identical to full recomputation — the cache changes *where* answers
//! come from, never *what* they are.
//!
//! Fingerprints, not the [`WindowDelta`] metadata,
//! are the correctness mechanism: a content fingerprint is sound for any
//! [`Partitioner`] (including the window-id-seeded random baseline, whose
//! splits change even when the window content does not), while deltas
//! describe the stream and feed telemetry. Cache keys are
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
use asp_grounder::{DeltaGrounder, Grounder};
use asp_solver::{SolveStats, SolverConfig};
use sr_rdf::{FormatConfig, FormatProcessor, Node, Triple};
use sr_stream::{DeltaProjections, Window, WindowDelta};
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

/// True when `program` is inside the [`DeltaGrounder`] supported fragment
/// (single-head rules, acyclic dependency graph) — the program-side gate
/// of [`ReasonerConfig::delta_ground`]. The reasoner checks this itself
/// and silently falls back to cache-only reuse; front ends can call it to
/// *warn* instead. Fails only when the program doesn't compile.
pub fn delta_ground_supported(syms: &Symbols, program: &Program) -> Result<bool, AspError> {
    Ok(DeltaGrounder::supports(&Grounder::new(syms, program)?))
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
        let counters: [(&str, CounterRead); 7] = [
            ("sr_cache_hits_total", |c: &CacheCounters| c.hits.load(Ordering::Relaxed)),
            ("sr_cache_misses_total", |c: &CacheCounters| c.misses.load(Ordering::Relaxed)),
            ("sr_cache_evictions_total", |c: &CacheCounters| c.evictions.load(Ordering::Relaxed)),
            ("sr_cache_delta_applies_total", |c: &CacheCounters| {
                c.delta_applies.load(Ordering::Relaxed)
            }),
            ("sr_cache_delta_regrounds_total", |c: &CacheCounters| {
                c.delta_regrounds.load(Ordering::Relaxed)
            }),
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

/// Per-partition maintained grounding for the delta-ground fast path: the
/// [`DeltaGrounder`] state plus the identity of the window content it
/// currently represents.
///
/// # The `base_id` invariant
///
/// [`SlidingWindower`](sr_stream::SlidingWindower) emits `delta` relative
/// to the previous emission *globally*, while
/// [`IncrementalReasoner::process`] re-partitions every window — so a
/// projected per-partition delta is only meaningful against the partition
/// state built from that same base window. The maintained grounding
/// therefore records the id of the window it represents, and
/// [`IncrementalReasoner::delta_process`] trusts a delta **only when
/// `delta.base_id == window_id`** (and the state is valid); any mismatch —
/// a skipped window, a lane handing off mid-stream, a windower reset —
/// falls back to a full rebuild from the partition content. The
/// `delta_base_mismatch_falls_back_to_reground` regression test pins the
/// mismatch path down.
struct DeltaPartition {
    grounder: DeltaGrounder,
    /// Window id whose partition content the state represents (the only id
    /// an incoming `delta.base_id` may match — see the struct docs).
    window_id: u64,
    /// Content fingerprint of that partition.
    content_fp: u128,
    /// False until the first successful (re)build.
    valid: bool,
    /// Planner counters `(replans, plans_reordered)` already flushed to the
    /// shared [`CacheCounters`]; the grounder reports cumulative totals, so
    /// only the difference is added on each flush.
    planner_reported: (u64, u64),
}

/// Per-lane delta-grounding state: one maintained grounding per partition
/// (windows on one lane are processed in submission order, so the delta
/// chain `base_id -> id` can be followed per lane), with the lane's own
/// triple→fact transformer.
struct DeltaLane {
    format: FormatProcessor,
    parts: Vec<DeltaPartition>,
}

impl DeltaLane {
    /// Builds the lane when every gate holds: `delta_ground` requested, the
    /// partitioner routes by content, and the program is in the
    /// [`DeltaGrounder`] supported fragment. `None` otherwise — the caller
    /// silently keeps the partition-cache-only behavior.
    fn build(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: &Arc<dyn Partitioner>,
        config: &ReasonerConfig,
    ) -> Result<Option<DeltaLane>, AspError> {
        if !config.delta_ground || !config.incremental || !partitioner.content_routed() {
            return Ok(None);
        }
        let mut grounder = Grounder::new(syms, program)?;
        // The shared grounder only lends its compiled program to the delta
        // grounders, but keep its planning mode consistent with theirs.
        grounder.set_cost_planning(config.cost_planning);
        let grounder = Arc::new(grounder);
        if !DeltaGrounder::supports(&grounder) {
            return Ok(None);
        }
        let edb;
        let inpre = match inpre {
            Some(i) => i,
            None => {
                edb = program.edb_predicates();
                &edb
            }
        };
        let format_cfg = FormatConfig::from_input_signature(syms, inpre);
        let n = partitioner.partitions().max(1);
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(DeltaPartition {
                grounder: DeltaGrounder::with_cost_planning(
                    Arc::clone(&grounder),
                    config.cost_planning,
                )?,
                window_id: 0,
                content_fp: 0,
                valid: false,
                planner_reported: (0, 0),
            });
        }
        Ok(Some(DeltaLane { format: FormatProcessor::new(syms, &format_cfg), parts }))
    }
}

/// The incremental parallel reasoner: partition → fingerprint → reuse clean
/// partitions from the [`PartitionCache`], re-solve only dirty ones →
/// combine. With [`ReasonerConfig::delta_ground`] on, dirty partitions are
/// additionally served by a per-partition maintained grounding
/// ([`DeltaGrounder`]): the partition-scoped window delta is applied
/// (retract/assert) instead of re-grounding the partition from scratch,
/// with automatic fallback to a full rebuild when the delta chain breaks.
/// Implements [`Reasoner`], so it drops into the
/// [`StreamEngine`](crate::engine::StreamEngine) unchanged.
pub struct IncrementalReasoner {
    syms: Symbols,
    partitioner: Arc<dyn Partitioner>,
    config: ReasonerConfig,
    /// Threads mode: the (possibly shared) worker pool.
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
    /// Delta-ground fast path, when every gate holds (see
    /// [`DeltaLane::build`]). Runs in the caller thread: maintained
    /// grounder state is inherently per-lane.
    delta: Option<DeltaLane>,
    /// Planner counters already flushed from the sequential scratch
    /// reasoner (cumulative, like [`DeltaPartition::planner_reported`]).
    /// Pooled workers keep their plan caches on their own threads and are
    /// not aggregated.
    scratch_reported: (u64, u64),
}

impl IncrementalReasoner {
    /// Builds the incremental reasoner with its own worker pool (Threads
    /// mode) or caller-thread execution (Sequential mode) and its own cache
    /// sized by [`ReasonerConfig::cache_capacity`].
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
            ParallelMode::Threads => {
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
            ParallelMode::Sequential => None,
        };
        // The scratch reasoner exists in both modes: Sequential execution in
        // one, the panicked-job retry/fallback path in the other
        // (construction-time cost only — idle unless a pooled job fails).
        let mut scratch = SingleReasoner::new(syms, program, inpre, solver)?;
        scratch.set_cost_planning(config.cost_planning);
        let delta = DeltaLane::build(syms, program, inpre, &partitioner, &config)?;
        Ok(IncrementalReasoner {
            syms: syms.clone(),
            partitioner,
            config,
            pool,
            sequential: vec![scratch],
            cache,
            failures: Arc::new(FailureCounters::default()),
            program_id,
            delta,
            scratch_reported: (0, 0),
        })
    }

    /// Builds the reasoner on top of an existing shared pool *and* shared
    /// cache (Threads semantics). The pool's workers must have been built
    /// for the same `program`/signature; `program_id` scopes the cache keys
    /// (see [`program_fingerprint`]). The program itself is needed to build
    /// the per-lane delta-grounding state when
    /// [`ReasonerConfig::delta_ground`] is on.
    #[allow(clippy::too_many_arguments)] // lane-construction plumbing: every argument is shared state
    pub fn with_pool(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
        pool: Arc<ReasonerPool>,
        cache: Arc<PartitionCache>,
        program_id: u64,
    ) -> Result<Self, AspError> {
        let delta = DeltaLane::build(syms, program, inpre, &partitioner, &config)?;
        let solver = SolverConfig { max_models: config.max_models, ..Default::default() };
        let mut scratch = SingleReasoner::new(syms, program, inpre, solver)?;
        scratch.set_cost_planning(config.cost_planning);
        Ok(IncrementalReasoner {
            syms: syms.clone(),
            partitioner,
            config,
            pool: Some(pool),
            sequential: vec![scratch],
            cache,
            failures: Arc::new(FailureCounters::default()),
            program_id,
            delta,
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

    /// True when the delta-ground fast path is active (all gates passed:
    /// config, content-routed partitioner, supported program fragment).
    pub fn delta_ground_active(&self) -> bool {
        self.delta.is_some()
    }

    /// Observed per-partition [`DeltaGrounder`] state sizes (the quantities
    /// the static [`ProgramBounds`](crate::admission::ProgramBounds)
    /// predict), in partition order. Empty when the delta-ground path is
    /// inactive — there is then no maintained state to measure.
    pub fn delta_state_sizes(&self) -> Vec<asp_grounder::DeltaStateSize> {
        self.delta
            .as_ref()
            .map(|lane| lane.parts.iter().map(|p| p.grounder.state_size()).collect())
            .unwrap_or_default()
    }

    /// Number of parallel partitions.
    pub fn partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    /// The shared partition cache.
    pub fn cache(&self) -> &Arc<PartitionCache> {
        &self.cache
    }

    /// Projects the window delta onto partitions through the partitioner's
    /// content routing. `None` when the window carries no delta or any item
    /// lacks a content route.
    fn project_delta(&self, window: &Window, partitions: usize) -> Option<Vec<WindowDelta>> {
        let delta = window.delta.as_ref()?;
        let mut routable = true;
        let routed = delta.project(partitions, |item| match self.partitioner.item_routes(item) {
            Some(routes) => routes,
            None => {
                routable = false;
                Vec::new()
            }
        });
        routable.then_some(routed)
    }

    /// Like [`IncrementalReasoner::project_delta`], but through the shared
    /// [`DeltaProjections`] memo when one is supplied *and* the partitioner
    /// exposes a stable routing identity
    /// ([`Partitioner::route_signature`]) — then tenants whose programs
    /// share a partitioning plan project each window's delta once between
    /// them. Falls back to a private projection otherwise.
    fn projected_delta(
        &self,
        window: &Window,
        partitions: usize,
        shared: Option<&DeltaProjections>,
    ) -> Option<Arc<Vec<WindowDelta>>> {
        if let (Some(memo), Some(signature)) = (shared, self.partitioner.route_signature()) {
            return memo.get_or_project(window, signature, partitions, |item| {
                self.partitioner.item_routes(item)
            });
        }
        self.project_delta(window, partitions).map(Arc::new)
    }

    /// Serves one dirty partition from the maintained grounding: applies
    /// the partition-scoped delta when the chain from the previous window
    /// is intact, rebuilds from the full partition content otherwise, then
    /// solves the maintained ground program. `Ok(None)` hands the partition
    /// back to the scratch path (rebuild failed).
    fn delta_process(
        &mut self,
        i: usize,
        window: &Window,
        items: &[Triple],
        fp: u128,
        projected: Option<&[WindowDelta]>,
    ) -> Result<Option<(Vec<AnswerSet>, Timing, SolveStats)>, AspError> {
        use std::sync::atomic::Ordering;
        let Some(lane) = self.delta.as_mut() else { return Ok(None) };
        let st = &mut lane.parts[i];
        let t0 = Instant::now();
        let mut transform = std::time::Duration::ZERO;
        let mut applied = false;
        if st.valid {
            if let (Some(projected), Some(delta)) = (projected, window.delta.as_ref()) {
                // The base_id invariant (see [`DeltaPartition`]): the delta
                // relates this window to `delta.base_id`, so it can only be
                // applied to partition state built from exactly that window.
                if delta.base_id == st.window_id {
                    let pd = &projected[i];
                    // Fault hook: hand the validation below a corrupted copy
                    // of the projected delta — alternately a stale base_id
                    // and a fabricated added triple.
                    let corrupted = (fault::injection_enabled()
                        && fault::fires(FaultSite::DeltaCorrupt, window.id, i as u64))
                    .then(|| {
                        let mut bad = pd.clone();
                        if window.id % 2 == 0 {
                            bad.base_id = bad.base_id.wrapping_add(1);
                        } else {
                            bad.added.push(Triple::new(
                                Node::iri("__fault_corrupt__"),
                                Node::iri("__fault_corrupt__"),
                                Node::Int(window.id as i64),
                            ));
                        }
                        bad
                    });
                    let pd = corrupted.as_ref().unwrap_or(pd);
                    // Validate the projected delta before trusting it: its
                    // base must still match and every added item must exist
                    // in the partition content ([`WindowDelta::consistent_with`]).
                    // A corrupted delta would otherwise be applied silently
                    // and poison every later window on this lane.
                    if pd.base_id == st.window_id && pd.consistent_with(items) {
                        let t_t = Instant::now();
                        let added = lane.format.window_to_facts(&pd.added);
                        let retracted = lane.format.window_to_facts(&pd.retracted);
                        transform += t_t.elapsed();
                        match st.grounder.apply(&added, &retracted) {
                            Ok(()) => {
                                applied = true;
                                self.cache.counters().delta_applies.fetch_add(1, Ordering::Relaxed);
                            }
                            // Chain broken (e.g. underflow): rebuild below.
                            Err(_) => st.valid = false,
                        }
                    } else {
                        // The window-level delta chained correctly but the
                        // projected copy failed validation: corruption.
                        // Rebuild from the full partition content below.
                        self.failures.fallbacks.fetch_add(1, Ordering::Relaxed);
                        st.valid = false;
                    }
                }
            }
        }
        if !applied {
            st.valid = false;
            if st.grounder.reset().is_err() {
                return Ok(None);
            }
            let t_t = Instant::now();
            let facts = lane.format.window_to_facts(items);
            transform += t_t.elapsed();
            if st.grounder.apply(&facts, &[]).is_err() {
                let _ = st.grounder.reset();
                return Ok(None);
            }
            self.cache.counters().delta_regrounds.fetch_add(1, Ordering::Relaxed);
        }
        let ground = t0.elapsed().saturating_sub(transform);
        // The maintained instantiations are the ground program: extract the
        // unique answer set directly (stratified evaluation) instead of
        // simplify → translate → CDCL over a rebuilt program. Equality with
        // `solve_ground(ground_program())` is the supported fragment's
        // guarantee, enforced by the identity tests.
        let t_s = Instant::now();
        let answers = match st.grounder.answer() {
            Some(atoms) => vec![AnswerSet::new(atoms, &self.syms)],
            None => Vec::new(),
        };
        let solve = t_s.elapsed();
        let stats =
            SolveStats { atoms: answers.first().map_or(0, AnswerSet::len), ..Default::default() };
        if let Some((replans, reordered, generation)) = st.grounder.planner_counters() {
            // The grounder reports cumulative totals; flush only the delta
            // since the last report (other partitions share the counters).
            let c = self.cache.counters();
            c.planner_enabled.store(true, Ordering::Relaxed);
            c.planner_replans.fetch_add(replans - st.planner_reported.0, Ordering::Relaxed);
            c.planner_plans_reordered
                .fetch_add(reordered - st.planner_reported.1, Ordering::Relaxed);
            c.planner_generation.fetch_max(generation, Ordering::Relaxed);
            st.planner_reported = (replans, reordered);
        }
        st.window_id = window.id;
        st.content_fp = fp;
        st.valid = true;
        let timing = Timing { total: t0.elapsed(), transform, ground, solve, ..Default::default() };
        Ok(Some((answers, timing, stats)))
    }

    /// How many times a failed partition job is retried on the scratch
    /// reasoner before the window errors out.
    const MAX_PARTITION_RETRIES: u32 = 2;

    /// Recovers one partition whose job panicked (pooled worker or the
    /// sequential path): bounded retries with exponential backoff, each
    /// attempt a full re-ground of the partition content on the caller's
    /// scratch reasoner — the same fallback the delta grounder uses for a
    /// broken chain. Recovery attempts re-roll the `WorkerPanic` fault at an
    /// attempt-salted coordinate, so a sub-1.0 injection rate models a
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
        self.process_shared(window, None)
    }

    /// [`IncrementalReasoner::process`] with an optional shared
    /// [`DeltaProjections`] memo: reasoners serving the same stream (the
    /// multi-tenant scheduler's per-program reasoners) hand in one memo so
    /// the window delta is projected once per routing function instead of
    /// once per reasoner. Passing `None` is exactly `process`; the output
    /// is byte-identical either way.
    pub fn process_shared(
        &mut self,
        window: &Window,
        shared: Option<&DeltaProjections>,
    ) -> Result<ReasonerOutput, AspError> {
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
        let (mut per_partition, mut dirty) = {
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

        if self.delta.is_some() {
            // Clean partitions leave the maintained grounding untouched;
            // advance its window id when the content provably matches.
            if let Some(lane) = self.delta.as_mut() {
                for (i, cached) in per_partition.iter().enumerate() {
                    let st = &mut lane.parts[i];
                    if cached.is_some() && st.valid && st.content_fp == fingerprints[i] {
                        st.window_id = window.id;
                    }
                }
            }
            // Dirty partitions: delta-ground in the caller thread; anything
            // the maintained grounding cannot serve falls through to the
            // pool/sequential scratch path below. Projecting the delta
            // clones every added/retracted triple, so skip it outright in
            // the all-clean steady state the cache is built to produce.
            let projected = if dirty.is_empty() {
                None
            } else {
                let _span = sr_obs::span(sr_obs::Stage::DeltaProject);
                self.projected_delta(window, parts.len(), shared)
            };
            let mut remaining = Vec::with_capacity(dirty.len());
            for &i in &dirty {
                let _span = sr_obs::span(sr_obs::Stage::DeltaGround);
                match self.delta_process(
                    i,
                    window,
                    &parts[i],
                    fingerprints[i],
                    projected.as_deref().map(Vec::as_slice),
                )? {
                    Some((answers, timing, s)) => {
                        stats = merge_stats(stats, s);
                        // The delta path runs serially in the caller: its
                        // stages extend the critical path additively.
                        critical = sum_timing(critical, timing);
                        fresh.push((i, answers));
                    }
                    None => remaining.push(i),
                }
            }
            dirty = remaining;
        }

        match self.pool.clone() {
            Some(pool) => {
                let payloads: Vec<Vec<Triple>> =
                    dirty.iter().map(|&i| std::mem::take(&mut parts[i])).collect();
                let batch = pool.submit(window.id, payloads);
                // The pool batch is concurrent within itself (max) but only
                // starts after the serial delta loop above, so its critical
                // path *adds* to whatever `critical` already holds.
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
        // Flush planner counters from the sequential scratch reasoner (the
        // delta lane flushes its own inside `delta_process`; pooled workers
        // keep their plan caches on their threads and are not aggregated —
        // nor is the scratch reasoner in Threads mode, where it only serves
        // the rare recovery path).
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
        // A panic may have left the maintained delta groundings mid-update:
        // invalidate them all so the next window rebuilds from content. The
        // partition cache is safe as-is — entries are inserted only after a
        // successful solve — and the scratch reasoner is stateless.
        if let Some(lane) = self.delta.as_mut() {
            for st in &mut lane.parts {
                st.valid = false;
                let _ = st.grounder.reset();
            }
        }
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
    fn delta_ground_is_identical_and_applies_deltas() {
        let cfg = ReasonerConfig {
            incremental: true,
            delta_ground: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        assert!(ir.delta_ground_active(), "plan partitioner + program P pass every gate");
        let mut windower = SlidingWindower::new(6, 2);
        for item in sliding_stream(4) {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&w).unwrap();
                let inc = ir.process(&w).unwrap();
                assert_eq!(render(&syms, &full), render(&syms, &inc), "window {}", w.id);
            }
        }
        let snap = ir.cache().counters().snapshot();
        assert!(snap.delta_applies > 0, "overlapping windows must hit the delta path: {snap:?}");
        assert!(snap.delta_regrounds > 0, "the first window has no delta base");
    }

    #[test]
    fn delta_ground_requires_content_routed_partitioner() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let partitioner: Arc<dyn Partitioner> = Arc::new(RandomPartitioner::new(2, 7));
        let cfg = ReasonerConfig { incremental: true, delta_ground: true, ..Default::default() };
        let ir = IncrementalReasoner::new(&syms, &program, None, partitioner, cfg).unwrap();
        assert!(!ir.delta_ground_active(), "random partitioner has no content routing");
    }

    #[test]
    fn delta_ground_requires_supported_program_fragment() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "a :- not b. b :- not a.").unwrap();
        let partitioner: Arc<dyn Partitioner> =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let cfg = ReasonerConfig { incremental: true, delta_ground: true, ..Default::default() };
        let ir = IncrementalReasoner::new(&syms, &program, None, partitioner, cfg).unwrap();
        assert!(!ir.delta_ground_active(), "negation loop is outside the delta fragment");
    }

    #[test]
    fn delta_ground_falls_back_on_broken_chain() {
        // Windows without delta metadata (fresh Window::new) force a full
        // rebuild every time — output must stay identical and the apply
        // counter must stay at zero.
        let cfg = ReasonerConfig {
            incremental: true,
            delta_ground: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        for id in 0..3 {
            let mut items = motivating_items();
            items[0] = t("newcastle", "average_speed", Node::Int(10 + id as i64));
            let w = Window::new(id, items);
            let full = pr.process(&w).unwrap();
            let inc = ir.process(&w).unwrap();
            assert_eq!(render(&syms, &full), render(&syms, &inc));
        }
        let snap = ir.cache().counters().snapshot();
        assert_eq!(snap.delta_applies, 0, "no deltas attached, no incremental applies");
        assert!(snap.delta_regrounds > 0);
    }

    #[test]
    fn delta_base_mismatch_falls_back_to_reground() {
        // Regression for the base_id invariant: a window whose delta claims
        // a base the partition state was NOT built from (skipped window,
        // windower reset) must be re-grounded from scratch, never applied —
        // and the output must stay byte-identical to full recomputation.
        let cfg = ReasonerConfig {
            incremental: true,
            delta_ground: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        let w0 = Window::new(0, motivating_items());
        ir.process(&w0).unwrap();
        pr.process(&w0).unwrap();
        let applies_before = ir.cache().counters().snapshot().delta_applies;

        // Window 2 with a delta claiming base 1 — but the partition states
        // were built from window 0, so the chain is broken.
        let mut items = motivating_items();
        items.remove(2); // drop the traffic light
        let delta = sr_stream::WindowDelta {
            base_id: 1,
            added: Vec::new(),
            retracted: vec![motivating_items()[2].clone()],
        };
        let w2 = Window::new(2, items.clone()).with_delta(delta);
        let inc = ir.process(&w2).unwrap();
        let full = pr.process(&Window::new(2, items)).unwrap();
        assert_eq!(render(&syms, &full), render(&syms, &inc), "mismatch path diverged");

        let snap = ir.cache().counters().snapshot();
        assert_eq!(
            snap.delta_applies, applies_before,
            "a delta with a mismatched base_id must never be applied"
        );
        assert!(snap.delta_regrounds > 0, "the dirty partition was rebuilt instead");

        // A window whose delta DOES chain from window 2 is applied again.
        let mut items3 = motivating_items();
        items3.remove(2);
        items3[0] = t("newcastle", "average_speed", Node::Int(12));
        let delta3 = sr_stream::WindowDelta {
            base_id: 2,
            added: vec![items3[0].clone()],
            retracted: vec![motivating_items()[0].clone()],
        };
        let w3 = Window::new(3, items3.clone()).with_delta(delta3);
        let inc3 = ir.process(&w3).unwrap();
        let full3 = pr.process(&Window::new(3, items3)).unwrap();
        assert_eq!(render(&syms, &full3), render(&syms, &inc3));
        assert!(
            ir.cache().counters().snapshot().delta_applies > applies_before,
            "a correctly chained delta is applied incrementally again"
        );
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
    fn corrupted_delta_falls_back_to_reground_identically() {
        let _guard = fault::test_guard();
        fault::clear();
        let cfg = ReasonerConfig { delta_ground: true, ..seq_cfg() };
        let (syms, mut pr, mut ir) = build_pair(cfg);
        assert!(ir.delta_ground_active());
        fault::install(crate::fault::FaultPlan::new().with_rule(FaultSite::DeltaCorrupt, 1.0, 2));
        let mut windower = SlidingWindower::new(6, 2);
        let mut result = Ok(());
        'stream: for item in sliding_stream(4) {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&w).unwrap();
                let inc = ir.process(&w).unwrap();
                if render(&syms, &full) != render(&syms, &inc) {
                    result = Err(w.id);
                    break 'stream;
                }
            }
        }
        fault::clear();
        assert!(result.is_ok(), "corrupted-delta output diverged at window {:?}", result);
        let snap = ir.cache().counters().snapshot();
        assert_eq!(snap.delta_applies, 0, "every corrupted delta must be rejected: {snap:?}");
        assert!(snap.delta_regrounds > 0, "and served by the full rebuild: {snap:?}");
        assert!(ir.failure_counters().snapshot().fallbacks > 0, "corruption counts as fallback");
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
