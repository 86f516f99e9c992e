//! The partitioned reasoner **PR** of the extended StreamRule (Figure 6):
//! partitioning handler → copies of the reasoner `R` → combining handler,
//! reusing the answers of the communities a slide did not touch.
//!
//! The paper's input-dependency partitioning makes partitions independent
//! under the dependency graph, so a community whose input is unchanged
//! between two windows must yield the identical answer set. The window
//! itself says which communities changed: a sliding window carries a
//! [`WindowDelta`](sr_stream::WindowDelta) against the window before it,
//! and [`Partitioner::item_routes`] maps each added or retracted item to
//! the communities it lands in. [`IncrementalReasoner`] owns one reasoner
//! `R` per community and one slot holding the community's answers in the
//! last window it answered. Community `c` is **clean** when the window's
//! delta is based on that window, every item of the delta has routes, and
//! none of them routes to `c`; a clean community's answers are reused. Every
//! other community is dirty: it becomes one job that carries the
//! community's reasoner and items and is reasoned from scratch, on the
//! [`ExecCtx`]'s shared [`WorkerPool`](crate::exec::WorkerPool), or on the
//! caller thread where [`partition_pool`] gives none. The combined output is
//! byte-identical to full recomputation: reuse changes *where* answers come
//! from, never *what* they are.
//!
//! Faults come from [`ReasonerConfig::faults`]: every job runs
//! [`FaultPlan::before_partition`] at its community index, pooled or not, so
//! both paths fail at the same coordinates. A panicked job is retried on its
//! own community's reasoner with the items it already had; recovery
//! re-rolls `WorkerPanic` at attempt-salted coordinates, and
//! `CacheInvalidate` turns a clean community dirty.
//!
//! This is sound for any delta producer that keeps the multiset invariant
//! documented on [`Window::delta`](sr_stream::Window::delta), and for any
//! partitioner: one whose routing depends on the window (the
//! window-id-seeded random baseline) has no routes, and every one of its
//! communities is dirty in every window. So is every community of a window
//! without a delta (tumbling windows), of a window whose delta is based on a
//! window this reasoner did not answer, and of the first window after an
//! error.
//!
//! The stream also decides what is held between windows: a window's answers
//! are kept unless both it and the window answered before it came without a
//! delta. A tumbling stream therefore holds nothing, while a sliding
//! stream's first window, which has no delta, is held for its second.
//!
//! A dirty partition is evaluated from scratch. For a stratified program
//! that means its perfect model, bottom-up
//! ([`asp_grounder::Grounder::perfect_model`]).
//!
//! The reasoner keeps no clock: its caller times
//! [`IncrementalReasoner::process`], and the per-stage breakdown is in the
//! `sr_obs` spans it records — the caller's `Partition`, `CacheLookup` and
//! `Combine`, and each dirty partition's `Windowing`, `Ground` and `Solve`,
//! tagged with its index. [`ParallelReasoner`] is the paper's name for it.
//!
//! [`fingerprint_items`], [`program_fingerprint`] and [`PartitionCache`]
//! are not on the reasoning path. The multi-tenant engine keys its serving
//! entries by [`program_fingerprint`]; the other two are kept for the
//! measured surface only.

use crate::config::{CombinePolicy, ReasonerConfig};
use crate::exec::{partition_pool, ExecCtx, Job, JobPanicked};
use crate::fault::{FaultPlan, FaultSite};
use crate::metrics::{CacheCounters, FailureCounters};
use crate::partition::Partitioner;
use crate::poison::lock_recover;
use crate::reasoner::{merge_stats, Reasoner, ReasonerOutput, SingleReasoner};
use asp_core::{AnswerSet, AspError, FastMap, Predicate, Program, Symbols};
use asp_solver::{SolveStats, SolverConfig};
use sr_rdf::{Node, Triple};
use sr_stream::Window;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

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

/// Order-independent 128-bit content fingerprint of a bag of triples:
/// multiset-equal inputs — and only those, up to hash collisions — map to
/// the same fingerprint.
///
/// Kept for the measured surface: the benchmark's layer replay times it. No
/// reasoner calls it.
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

/// Stable fingerprint of a program (its rendered rules): the program half
/// of the multi-tenant engine's serving key, independent of which `Symbols`
/// store parsed the program.
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

/// A bounded, LRU result cache keyed by `(program fingerprint, content
/// fingerprint)`, counting hits, misses and evictions.
///
/// Kept for the measured surface: the benchmark's layer replay times it. No
/// reasoner or engine uses it; [`IncrementalReasoner`] reuses
/// clean communities from the window's own delta instead.
pub struct PartitionCache {
    capacity: usize,
    state: Mutex<CacheState>,
    counters: CacheCounters,
}

impl PartitionCache {
    /// A cache holding at most `capacity` results. Capacity `0` disables
    /// caching: every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        PartitionCache {
            capacity,
            state: Mutex::new(CacheState { map: FastMap::default(), tick: 0 }),
            counters: CacheCounters::default(),
        }
    }

    /// The live hit/miss/eviction counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Looks up a result, counting a hit or miss.
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

    /// Inserts a result, evicting the least-recently-used entry when over
    /// capacity.
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

/// One dirty partition of one window: its community's reasoner and items.
/// The same body runs on the pool or on the caller thread, and a job that
/// panicked is retried on the same reasoner with the same items.
struct PartitionJob {
    window_id: u64,
    community: usize,
    reasoner: Arc<Mutex<SingleReasoner>>,
    /// Emptied by the first run that returns; a job that panicked still
    /// has them for its retries.
    items: Mutex<Vec<Triple>>,
    faults: Option<Arc<FaultPlan>>,
    /// The caller's trace attribution tagged with this partition, carried
    /// across the pool boundary; `None` while tracing is off, which keeps
    /// the off path free of thread-local traffic.
    trace: Option<sr_obs::TraceCtx>,
}

type PartOutcome = Result<(Vec<AnswerSet>, SolveStats), AspError>;

impl PartitionJob {
    /// How many times a panicked job is retried before the window errors
    /// out.
    const MAX_RETRIES: u32 = 2;

    /// The fault hook at the job's `(window, community)` coordinate, then
    /// its community's reasoner over its items.
    fn run(&self) -> PartOutcome {
        let _trace_ctx = self.trace.map(sr_obs::ctx_scope);
        if let Some(plan) = &self.faults {
            plan.before_partition(self.window_id, self.community);
        }
        self.process()
    }

    /// The community's reasoner over the items, which are then freed on the
    /// thread that used them rather than serially on the caller's.
    fn process(&self) -> PartOutcome {
        let mut items = lock_recover(&self.items);
        let out = lock_recover(&self.reasoner).process_items(&items);
        drop(std::mem::take(&mut *items));
        out
    }

    /// Recovers a job that panicked: bounded retries with exponential
    /// backoff, each a full re-ground of the job's items on its community's
    /// reasoner. Recovery attempts re-roll the `WorkerPanic` fault at an
    /// attempt-salted coordinate, so a sub-1.0 injection rate models a
    /// transient fault (recovery succeeds) while a rate-1.0 plan
    /// deterministically exhausts the retries and surfaces the error with
    /// the window id and partition index.
    fn recover(&self, failures: &FailureCounters) -> PartOutcome {
        use std::sync::atomic::Ordering;
        let _span = sr_obs::span(sr_obs::Stage::Recover);
        let (window, i) = (self.window_id, self.community);
        for attempt in 0..Self::MAX_RETRIES {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(1u64 << attempt));
            }
            failures.retries.fetch_add(1, Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // Attempt-salted coordinate: distinct from the original
                // job's roll, so injected faults are transient by default.
                let salted = i as u64 + ((attempt as u64 + 1) << 32);
                if self
                    .faults
                    .as_ref()
                    .is_some_and(|p| p.fires(FaultSite::WorkerPanic, window, salted))
                {
                    panic!(
                        "injected recovery fault (window {window}, partition {i}, attempt {attempt})"
                    );
                }
                self.process()
            }));
            if let Ok(result) = outcome {
                let out = result?;
                failures.fallbacks.fetch_add(1, Ordering::Relaxed);
                return Ok(out);
            }
        }
        Err(AspError::Internal(format!(
            "partition {i} of window {window} failed: worker panicked and {} re-ground retries \
             were exhausted",
            Self::MAX_RETRIES
        )))
    }
}

/// One community's copy of `R`, and what it has reported so far.
struct Community {
    reasoner: Arc<Mutex<SingleReasoner>>,
    /// Planner counters `(replans, plans_reordered)` of `reasoner` already
    /// added to the shared counters (the reasoner reports running totals).
    reported: (u64, u64),
}

/// The partitioned reasoner PR: partition → mark the communities the
/// window's delta touched dirty → reuse the clean ones' last answers,
/// re-solve the dirty ones → combine. It is the only partitioned executor;
/// [`ParallelReasoner`] is another name for it. Implements [`Reasoner`], so
/// it drops into the [`StreamEngine`](crate::engine::StreamEngine)
/// unchanged. See the module docs for when a community is clean and what is
/// held between windows.
pub struct IncrementalReasoner {
    syms: Symbols,
    partitioner: Arc<dyn Partitioner>,
    config: ReasonerConfig,
    /// The pool serving dirty partitions and the counters this reasoner
    /// reports into, possibly shared with other reasoners.
    ctx: ExecCtx,
    /// One reasoner per community (per partition index), so each plans its
    /// joins against its own relation statistics.
    communities: Vec<Community>,
    /// The id of the last window this reasoner answered, and each
    /// community's answers in it. Written only after a successful window,
    /// and `None` after two delta-less windows in a row.
    last: Option<(u64, Vec<Arc<Vec<AnswerSet>>>)>,
    /// Whether the last window this reasoner answered came with a delta;
    /// `true` before the first, so a stream's first window is held.
    last_had_delta: bool,
}

impl IncrementalReasoner {
    /// Builds PR with its own worker pool sized by
    /// [`ReasonerConfig::workers`] (`0` = one worker per partition, the
    /// paper's Figure 6 degree of parallelism), or with caller-thread
    /// execution where [`partition_pool`] gives no pool, and private
    /// counters.
    pub fn new(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
    ) -> Result<Self, AspError> {
        let workers = match config.workers {
            0 => partitioner.partitions(),
            n => n,
        };
        let ctx = ExecCtx { pool: partition_pool(&config, workers)?, ..Default::default() };
        Self::with_ctx(syms, program, inpre, partitioner, config, ctx)
    }

    /// Builds PR over a shared execution context: its dirty partitions run
    /// on `ctx.pool` (or on the caller thread without one) and it reports
    /// into `ctx`'s counters. The pool is program-agnostic, so one context
    /// serves reasoners over different programs.
    pub fn with_ctx(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        partitioner: Arc<dyn Partitioner>,
        config: ReasonerConfig,
        ctx: ExecCtx,
    ) -> Result<Self, AspError> {
        let communities = (0..partitioner.partitions())
            .map(|_| {
                let mut reasoner =
                    SingleReasoner::new(syms, program, inpre, SolverConfig::default())?;
                reasoner.set_cost_planning(config.cost_planning);
                Ok(Community { reasoner: Arc::new(Mutex::new(reasoner)), reported: (0, 0) })
            })
            .collect::<Result<_, AspError>>()?;
        Ok(IncrementalReasoner {
            syms: syms.clone(),
            partitioner,
            config,
            ctx,
            communities,
            last: None,
            last_had_delta: true,
        })
    }

    /// The execution context: the pool serving dirty partitions and the
    /// counters this reasoner reports reused (`hits`) and recomputed
    /// (`misses`) communities, planning and recovery into.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Number of parallel partitions.
    pub fn partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    /// Worker threads of the pool serving dirty partitions (0 without one).
    pub fn workers(&self) -> usize {
        self.ctx.workers()
    }

    /// The answers this reasoner may reuse for each of `n` communities in
    /// `window`: `Some` for a clean community, `None` for a dirty one (see
    /// the module docs).
    fn reusable(&self, window: &Window, n: usize) -> Vec<Option<Arc<Vec<AnswerSet>>>> {
        let mut reuse = vec![None; n];
        let (Some(delta), Some((last_id, answers))) = (&window.delta, &self.last) else {
            return reuse;
        };
        if delta.base_id != *last_id {
            return reuse;
        }
        let mut touched = vec![false; n];
        for item in delta.added.iter().chain(&delta.retracted) {
            let Some(routes) = self.partitioner.item_routes(item) else {
                return reuse;
            };
            for c in routes {
                touched[c as usize] = true;
            }
        }
        for (c, slot) in reuse.iter_mut().enumerate() {
            // Fault hook: force a clean community dirty — an
            // identity-preserving fault (the recompute must yield the
            // answers reuse would have served).
            let invalidated = self
                .config
                .faults
                .as_ref()
                .is_some_and(|p| p.fires(FaultSite::CacheInvalidate, window.id, c as u64));
            if !touched[c] && !invalidated {
                *slot = Some(Arc::clone(&answers[c]));
            }
        }
        reuse
    }

    /// Adds what every community's planner did since the last report to the
    /// shared counters.
    fn report_planner(&mut self) {
        use std::sync::atomic::Ordering;
        let c = &self.ctx.counters;
        for community in &mut self.communities {
            let Some((replans, reordered, generation)) =
                lock_recover(&community.reasoner).planner_counters()
            else {
                continue;
            };
            c.planner_enabled.store(true, Ordering::Relaxed);
            c.planner_replans.fetch_add(replans - community.reported.0, Ordering::Relaxed);
            c.planner_plans_reordered
                .fetch_add(reordered - community.reported.1, Ordering::Relaxed);
            c.planner_generation.fetch_max(generation, Ordering::Relaxed);
            community.reported = (replans, reordered);
        }
    }

    /// Processes one window: partition → dirty check → solve dirty →
    /// combine. Output is byte-identical to recomputing every partition.
    pub fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        use std::sync::atomic::Ordering;
        let tracing = sr_obs::tracer().is_enabled();
        let _trace_ctx = tracing.then(|| {
            sr_obs::ctx_scope(sr_obs::TraceCtx { window_id: window.id, ..sr_obs::current_ctx() })
        });
        let (mut parts, partition_sizes) = {
            let _span = sr_obs::span(sr_obs::Stage::Partition);
            let parts = self.partitioner.partition(window);
            let partition_sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            (parts, partition_sizes)
        };

        // Clean communities reuse their last answers; the rest are dirty.
        let (mut per_partition, dirty) = {
            let _span = sr_obs::span(sr_obs::Stage::CacheLookup);
            let per_partition = self.reusable(window, parts.len());
            let dirty: Vec<usize> =
                (0..parts.len()).filter(|&i| per_partition[i].is_none()).collect();
            (per_partition, dirty)
        };
        let counters = &self.ctx.counters;
        counters.hits.fetch_add((parts.len() - dirty.len()) as u64, Ordering::Relaxed);
        counters.misses.fetch_add(dirty.len() as u64, Ordering::Relaxed);

        let jobs: Vec<Arc<PartitionJob>> = dirty
            .iter()
            .map(|&i| {
                Arc::new(PartitionJob {
                    window_id: window.id,
                    community: i,
                    reasoner: Arc::clone(&self.communities[i].reasoner),
                    items: Mutex::new(std::mem::take(&mut parts[i])),
                    faults: self.config.faults.clone(),
                    trace: tracing.then(|| sr_obs::TraceCtx {
                        partition: Some(i as u32),
                        ..sr_obs::current_ctx()
                    }),
                })
            })
            .collect();
        let outcomes = self.ctx.run(
            jobs.iter()
                .map(|job| {
                    let job = Arc::clone(job);
                    Box::new(move || job.run()) as Job<PartOutcome>
                })
                .collect(),
        );
        let mut stats = SolveStats::default();
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let (answers, s) = match outcome {
                Ok(result) => result?,
                Err(JobPanicked) => job.recover(&self.ctx.failures)?,
            };
            stats = merge_stats(stats, s);
            per_partition[job.community] = Some(Arc::new(answers));
        }
        self.report_planner();

        let per_partition: Vec<Arc<Vec<AnswerSet>>> = per_partition
            .into_iter()
            .map(|p| p.expect("every partition is reused or freshly solved"))
            .collect();
        // Combine over borrowed slices: reused answers never leave the Arc.
        let borrowed: Vec<&[AnswerSet]> = per_partition.iter().map(|p| p.as_slice()).collect();

        // No cap: the whole product, as R returns all of its models.
        let (answers, _) = {
            let _span = sr_obs::span(sr_obs::Stage::Combine);
            crate::combine::combine(&self.syms, &borrowed, CombinePolicy::Strict, usize::MAX)
        };
        let has_delta = window.delta.is_some();
        self.last = (has_delta || self.last_had_delta).then_some((window.id, per_partition));
        self.last_had_delta = has_delta;

        Ok(ReasonerOutput { answers, partition_sizes, solve_stats: stats })
    }
}

impl Reasoner for IncrementalReasoner {
    fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        IncrementalReasoner::process(self, window)
    }
}

/// The paper's name for the partitioned reasoner: one executor serves every
/// partitioned window and reuses clean communities whenever the window's
/// delta allows it.
pub type ParallelReasoner = IncrementalReasoner;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ParallelMode, UnknownPredicate};
    use crate::partition::{PlanPartitioner, RandomPartitioner};
    use crate::plan::PartitioningPlan;
    use asp_parser::parse_program;
    use sr_rdf::Node;
    use sr_stream::{SlidingWindower, WindowDelta};
    use std::sync::atomic::Ordering;

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

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
    fn zero_capacity_cache_always_misses() {
        let cache = PartitionCache::new(0);
        cache.insert(1, 10, Arc::new(vec![AnswerSet::default()]));
        assert!(cache.get(1, 10).is_none());
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

    /// `items` as window `id`, changed from window `base_id` by `retracted`.
    fn after(id: u64, base_id: u64, items: Vec<Triple>, retracted: Vec<Triple>) -> Window {
        Window::new(id, items).with_delta(WindowDelta { base_id, added: Vec::new(), retracted })
    }

    /// `window` without its delta: the reference recomputes every partition.
    fn tumbling(window: &Window) -> Window {
        Window::new(window.id, window.items.clone())
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
        // Window 1 changes nothing relative to window 0: both are clean.
        let again = ir.process(&after(1, 0, motivating_items(), Vec::new())).unwrap();
        assert_eq!(render(&syms, &full), render(&syms, &again));
        let snap = ir.ctx().counters.snapshot();
        assert_eq!(snap.misses, 2, "first window solves both partitions");
        assert_eq!(snap.hits, 2, "second window reuses both");
    }

    #[test]
    fn dirty_partition_is_recomputed_clean_one_reused() {
        let (syms, mut pr, mut ir) =
            build_pair(ReasonerConfig { incremental: true, ..Default::default() });
        let w0 = Window::new(0, motivating_items());
        ir.process(&w0).unwrap();
        // Retract the traffic light: community 0 changes (the jam now
        // fires), community 1 (the car fire) is untouched and is reused.
        let mut items = motivating_items();
        let light = items.remove(2);
        let w1 = after(1, 0, items, vec![light]);
        let inc = ir.process(&w1).unwrap();
        pr.process(&w0).unwrap();
        let full = pr.process(&tumbling(&w1)).unwrap();
        let rendered = render(&syms, &inc);
        assert_eq!(rendered, render(&syms, &full));
        assert!(rendered[0].contains("traffic_jam(newcastle)"), "{rendered:?}");
        assert!(rendered[0].contains("car_fire(dangan)"), "{rendered:?}");
        let snap = ir.ctx().counters.snapshot();
        assert_eq!(snap.hits, 1, "car partition reused");
        assert_eq!(snap.misses, 3, "2 initial + dirty traffic partition");
        assert_eq!(snap.dirty_partition_ratio, 0.75);
    }

    #[test]
    fn delta_on_a_window_this_reasoner_did_not_answer_recomputes_everything() {
        let (syms, mut pr, mut ir) =
            build_pair(ReasonerConfig { incremental: true, ..Default::default() });
        // w1 retracts the traffic light (community 0); w2 adds a car reading
        // (community 1) on top of w1.
        let w0 = Window::new(0, motivating_items());
        let mut items = motivating_items();
        let light = items.remove(2);
        let w1 = after(1, 0, items.clone(), vec![light]);
        let car = t("car2", "car_speed", Node::Int(5));
        items.push(car.clone());
        let w2 = Window::new(2, items).with_delta(WindowDelta {
            base_id: 1,
            added: vec![car],
            retracted: Vec::new(),
        });
        // Answer w0, skip w1, then w2: community 0 changed in w1, so w0's
        // answers for it (no jam, the light was on) must not be reused.
        ir.process(&w0).unwrap();
        let inc = render(&syms, &ir.process(&w2).unwrap());
        pr.process(&w1).unwrap();
        assert_eq!(inc, render(&syms, &pr.process(&tumbling(&w2)).unwrap()));
        assert!(inc[0].contains("traffic_jam(newcastle)"), "{inc:?}");
        let snap = ir.ctx().counters.snapshot();
        assert_eq!((snap.hits, snap.misses), (0, 4), "w2 cannot reuse w0: {snap:?}");
    }

    #[test]
    fn delta_less_windows_hold_answers_only_for_a_sliding_successor() {
        let (_syms, _pr, mut ir) = build_pair(ReasonerConfig::default());
        // Tumbling: the first window is held, two delta-less windows in a
        // row release it and hold nothing.
        ir.process(&Window::new(0, motivating_items())).unwrap();
        assert!(ir.last.is_some(), "a stream's first window is held");
        ir.process(&Window::new(1, motivating_items())).unwrap();
        assert!(ir.last.is_none(), "two delta-less windows in a row hold nothing");
        ir.process(&Window::new(2, motivating_items())).unwrap();
        assert!(ir.last.is_none());

        // Sliding: the first window has no delta, yet it is held and its
        // communities are reused by the second.
        let (syms, _pr, mut ir) = build_pair(ReasonerConfig::default());
        let first = render(&syms, &ir.process(&Window::new(0, motivating_items())).unwrap());
        let second = ir.process(&after(1, 0, motivating_items(), Vec::new())).unwrap();
        assert_eq!(render(&syms, &second), first);
        let snap = ir.ctx().counters.snapshot();
        assert_eq!((snap.hits, snap.misses), (2, 2), "the second window reuses both: {snap:?}");
        assert!(ir.last.is_some(), "a delta window is held");
    }

    #[test]
    fn cache_metrics_scrape_matches_the_counters() {
        let (_syms, _pr, mut ir) =
            build_pair(ReasonerConfig { incremental: true, ..Default::default() });
        let registry = sr_obs::MetricsRegistry::new();
        ir.ctx().counters.register_metrics(&registry);
        ir.process(&Window::new(0, motivating_items())).unwrap();
        ir.process(&after(1, 0, motivating_items(), Vec::new())).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("sr_cache_hits_total 2"), "{text}");
        assert!(text.contains("sr_cache_misses_total 2"), "{text}");
        assert!(text.contains("sr_planner_replans_total 0"), "{text}");
        assert!(!text.contains("evictions") && !text.contains("entries"), "{text}");
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
    fn random_partitioner_windows_are_always_dirty_and_identical() {
        // RandomPartitioner splits by (seed, window id), so it has no
        // per-item routes: every partition of every window is dirty, even
        // when the delta leaves most items in place.
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
        let mut windows = 0u64;
        for item in stream {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&w).unwrap();
                let inc = ir.process(&w).unwrap();
                assert_eq!(render(&syms, &full), render(&syms, &inc), "window {}", w.id);
                windows += 1;
            }
        }
        let snap = ir.ctx().counters.snapshot();
        assert!(windows > 1);
        assert_eq!((snap.hits, snap.misses), (0, 3 * windows), "{snap:?}");
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
        assert!(ir.ctx.pool.is_none(), "no pool: dirty partitions run on the caller");
        let mut windower = SlidingWindower::new(6, 2);
        for item in sliding_stream(4) {
            if let Some(w) = windower.push(item) {
                let full = pr.process(&tumbling(&w)).unwrap();
                let inc = ir.process(&w).unwrap();
                assert_eq!(render(&syms, &full), render(&syms, &inc), "window {}", w.id);
            }
        }
        assert!(ir.ctx().counters.snapshot().misses > 0, "dirty partitions were solved");
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

    #[test]
    fn dependency_partitioning_matches_single_reasoner() {
        let (syms, mut pr, _) = build_pair(ReasonerConfig::default());
        let out = pr.process(&Window::new(0, motivating_items())).unwrap();
        assert_eq!(out.answers.len(), 1);
        let rendered = out.answers[0].display(&syms).to_string();
        assert!(rendered.contains("car_fire(dangan)"));
        assert!(rendered.contains("give_notification(dangan)"));
        assert!(!rendered.contains("traffic_jam"), "{rendered}");
        assert_eq!(out.partition_sizes, vec![3, 3]);
    }

    #[test]
    fn random_partitioning_can_produce_the_papers_wrong_answer() {
        // The motivating example: splitting the window so that the
        // traffic_light triple is separated from average_speed/car_number
        // produces the spurious traffic_jam(newcastle).
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let window = Window::new(0, motivating_items());
        let names =
            |v: &Vec<Triple>| v.iter().map(|t| t.predicate_name().to_string()).collect::<Vec<_>>();
        // Find a seed where one side gets speed+number but not the light.
        let seed = (0..64)
            .find(|&seed| {
                RandomPartitioner::new(2, seed).partition(&window).iter().map(names).any(|n| {
                    n.contains(&"average_speed".to_string())
                        && n.contains(&"car_number".to_string())
                        && !n.contains(&"traffic_light".to_string())
                })
            })
            .expect("no seed split speed/number away from the light in 64 tries");
        let partitioner = Arc::new(RandomPartitioner::new(2, seed));
        let mut pr =
            ParallelReasoner::new(&syms, &program, None, partitioner, ReasonerConfig::default())
                .unwrap();
        let rendered = pr.process(&window).unwrap().answers[0].display(&syms).to_string();
        assert!(
            rendered.contains("traffic_jam(newcastle)"),
            "expected the spurious jam: {rendered}"
        );
    }

    #[test]
    fn undersized_pool_still_processes_every_partition() {
        let (syms, mut pr, _) = build_pair(ReasonerConfig { workers: 1, ..Default::default() });
        assert_eq!(pr.workers(), 1, "pool smaller than the 2 partitions");
        let out = pr.process(&Window::new(0, motivating_items())).unwrap();
        assert_eq!(out.partition_sizes, vec![3, 3]);
        let rendered = out.answers[0].display(&syms).to_string();
        assert!(rendered.contains("car_fire(dangan)"));
    }

    #[test]
    fn one_pool_shared_by_two_reasoners() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let config = ReasonerConfig::default();
        let ctx = ExecCtx { pool: partition_pool(&config, 2).unwrap(), ..Default::default() };
        let partitioner: Arc<dyn Partitioner> =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let build = |ctx| {
            ParallelReasoner::with_ctx(
                &syms,
                &program,
                None,
                partitioner.clone(),
                config.clone(),
                ctx,
            )
            .unwrap()
        };
        let mut a = build(ctx.clone());
        let mut b = build(ctx.clone());
        let window = Window::new(0, motivating_items());
        let out_a = a.process(&window).unwrap();
        let out_b = b.process(&window).unwrap();
        assert_eq!(render(&syms, &out_a), render(&syms, &out_b));
        assert_eq!(a.workers(), 2);
        assert_eq!(ctx.counters.snapshot().misses, 4, "both report into the shared counters");
    }

    #[test]
    fn reusable_across_windows_and_deterministic() {
        let (syms, mut pr, _) = build_pair(ReasonerConfig::default());
        let o1 = pr.process(&Window::new(0, motivating_items())).unwrap();
        let o2 = pr.process(&Window::new(0, motivating_items())).unwrap();
        assert_eq!(render(&syms, &o1), render(&syms, &o2));
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
