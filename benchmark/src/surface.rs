//! The measured surface: every call from the benchmark into the workspace
//! crates is made in this file and nowhere else. The signatures used here
//! are listed in `benchmark/README.md`; a later change to the program must
//! keep them compiling until a benchmark issue moves them.
//!
//! The wrappers are deliberately thin: they fix the arguments the benchmark
//! never varies (solver configuration, unknown-predicate policy, queue
//! depth) and name the call, nothing more. Outside this file the benchmark
//! only names the types re-exported below and reads the public fields of
//! `Window` and `WindowDelta`.

pub use asp_core::{AnswerSet, GroundAtom, GroundProgram, Symbols};
pub use asp_grounder::{DeltaGrounder, Grounder};
pub use sr_core::{
    EngineOutput, IncrementalReasoner, MultiTenantEngine, ParallelReasoner, PartitionCache,
    Partitioner, SingleReasoner, StreamEngine, TenantOutput,
};
pub use sr_rdf::{FormatProcessor, Triple};
pub use sr_stream::{ChurnStream, SlidingWindower, Window, WindowDelta, WorkloadGenerator};

use asp_core::{Predicate, Program};
use asp_solver::SolverConfig;
use sr_core::{
    AnalysisConfig, CombinePolicy, DependencyAnalysis, EngineConfig, ParallelMode, PlanPartitioner,
    Projection, RandomPartitioner, ReasonerConfig, TenantPartitioner, UnknownPredicate,
};
use sr_rdf::{FormatConfig, Node};
use sr_stream::{BurstyGenerator, GeneratorKind};
use std::sync::Arc;

/// Worker threads per pool: a constant of the reference machine (2 cores),
/// not derived from the host.
const WORKERS: usize = 2;
/// Capacity of every partition cache the benchmark builds or asks for.
const CACHE_CAPACITY: usize = 64;
/// Windows the engine buffers beyond its lanes.
const QUEUE_DEPTH: usize = 2;

// ---------------------------------------------------------------- design time

/// A parsed program with the symbol store it was parsed into.
pub struct Compiled {
    pub syms: Symbols,
    program: Program,
}

/// `asp_parser::parse_program` into a fresh `Symbols` store.
pub fn parse(text: &str) -> Compiled {
    let syms = Symbols::new();
    let program = asp_parser::parse_program(&syms, text).expect("benchmark program parses");
    Compiled { syms, program }
}

/// The design-time analysis: the dependency partitioner, the input
/// signature and the input predicates grouped by community.
pub struct Analysis {
    pub partitioner: Arc<dyn Partitioner>,
    inpre: Vec<Predicate>,
    /// Input predicate names per community, sorted — the group structure the
    /// bursty generator cycles through.
    pub groups: Vec<Vec<String>>,
}

/// `DependencyAnalysis::analyze` + `PlanPartitioner::new`.
pub fn analyze(c: &Compiled) -> Analysis {
    let a = DependencyAnalysis::analyze(&c.syms, &c.program, None, &AnalysisConfig::default())
        .expect("benchmark program analyzes");
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); a.plan.communities];
    for p in &a.inpre {
        let name = c.syms.resolve(p.name).to_string();
        for &community in a.plan.communities_of(&name).unwrap_or(&[]) {
            groups[community as usize].push(name.clone());
        }
    }
    groups.retain(|g| !g.is_empty());
    groups.iter_mut().for_each(|g| g.sort());
    Analysis {
        partitioner: Arc::new(PlanPartitioner::new(a.plan, UnknownPredicate::Partition0)),
        inpre: a.inpre,
        groups,
    }
}

/// `RandomPartitioner::new` — the paper's PR_Ran_k baseline.
pub fn random_partitioner(k: usize, seed: u64) -> Arc<dyn Partitioner> {
    Arc::new(RandomPartitioner::new(k, seed))
}

// -------------------------------------------------------------------- streams

/// `paper_generator(GeneratorKind::CorrelatedSparse, seed)`.
pub fn correlated_sparse(seed: u64) -> Box<dyn WorkloadGenerator + Send> {
    sr_stream::paper_generator(GeneratorKind::CorrelatedSparse, seed)
}

/// `BurstyGenerator::new`.
pub fn bursty(
    groups: Vec<Vec<String>>,
    burst: usize,
    value_bound: i64,
    seed: u64,
) -> Box<dyn WorkloadGenerator + Send> {
    Box::new(BurstyGenerator::new(groups, burst, value_bound, seed))
}

/// `WorkloadGenerator::window`.
pub fn generate(generator: &mut (dyn WorkloadGenerator + Send), size: usize) -> Vec<Triple> {
    generator.window(size)
}

/// `ChurnStream::new`.
pub fn churn_stream(
    inner: Box<dyn WorkloadGenerator + Send>,
    size: usize,
    slide: usize,
    retract_fraction: f64,
    seed: u64,
) -> ChurnStream {
    ChurnStream::new(inner, size, slide, retract_fraction, seed)
}

/// `ChurnStream::next_window`.
pub fn next_churn_window(stream: &mut ChurnStream) -> Window {
    stream.next_window()
}

/// `SlidingWindower::new`.
pub fn sliding_windower(size: usize, slide: usize) -> SlidingWindower {
    SlidingWindower::new(size, slide)
}

/// `SlidingWindower::push`.
pub fn push(windower: &mut SlidingWindower, item: Triple) -> Option<Window> {
    windower.push(item)
}

/// `Window::new`.
pub fn window(id: u64, items: Vec<Triple>) -> Window {
    Window::new(id, items)
}

/// `Triple::predicate_name`.
pub fn predicate_name(t: &Triple) -> &str {
    t.predicate_name()
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one triple into an FNV-1a digest (type-tagged nodes, so the IRI
/// `3` and the integer `3` differ) — what `inputs.lock` pins.
pub fn digest_triple(mut h: u64, t: &Triple) -> u64 {
    for node in [&t.s, &t.p, &t.o] {
        h = match node {
            Node::Iri(s) => fnv1a(fnv1a(h, &[1]), s.as_bytes()),
            Node::Literal(s) => fnv1a(fnv1a(h, &[2]), s.as_bytes()),
            Node::Int(i) => fnv1a(fnv1a(h, &[3]), &i.to_le_bytes()),
        };
    }
    h
}

// ------------------------------------------------------ reasoners and engines

/// How dirty partitions are served — the three uses of the grounder the
/// workloads cover.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Ground and solve every partition from scratch.
    Scratch,
    /// Partition cache; dirty partitions from scratch.
    CachedOrScratch,
    /// Partition cache; dirty partitions through the delta grounder.
    Delta,
}

fn reasoner_config(strategy: Strategy, mode: ParallelMode) -> ReasonerConfig {
    ReasonerConfig {
        workers: WORKERS,
        incremental: strategy != Strategy::Scratch,
        delta_ground: strategy == Strategy::Delta,
        cache_capacity: CACHE_CAPACITY,
        mode,
        ..Default::default()
    }
}

/// `SingleReasoner::new` — the paper's R, also the reference for every
/// workload's answers.
pub fn single_reasoner(c: &Compiled) -> SingleReasoner {
    SingleReasoner::new(&c.syms, &c.program, None, SolverConfig::default())
        .expect("single reasoner builds")
}

/// `SingleReasoner::process`.
pub fn process_single(r: &mut SingleReasoner, w: &Window) -> Result<Vec<AnswerSet>, String> {
    r.process(w).map(|out| out.answers).map_err(|e| e.to_string())
}

/// `ParallelReasoner::new` — what an engine lane runs under
/// `Strategy::Scratch`, callable on the driver thread. `sequential` runs the
/// partitions one after the other on the caller.
pub fn parallel_reasoner(c: &Compiled, a: &Analysis, sequential: bool) -> ParallelReasoner {
    let mode = if sequential { ParallelMode::Sequential } else { ParallelMode::Threads };
    let cfg = reasoner_config(Strategy::Scratch, mode);
    ParallelReasoner::new(&c.syms, &c.program, Some(&a.inpre), a.partitioner.clone(), cfg)
        .expect("parallel reasoner builds")
}

/// `ParallelReasoner::process`.
pub fn process_parallel(r: &mut ParallelReasoner, w: &Window) -> Result<Vec<AnswerSet>, String> {
    r.process(w).map(|out| out.answers).map_err(|e| e.to_string())
}

/// `IncrementalReasoner::new` — what an engine lane or a tenant entry runs
/// under the two incremental strategies.
pub fn incremental_reasoner(c: &Compiled, a: &Analysis, strategy: Strategy) -> IncrementalReasoner {
    let cfg = reasoner_config(strategy, ParallelMode::Threads);
    IncrementalReasoner::new(&c.syms, &c.program, Some(&a.inpre), a.partitioner.clone(), cfg)
        .expect("incremental reasoner builds")
}

/// `IncrementalReasoner::process`.
pub fn process_incremental(
    r: &mut IncrementalReasoner,
    w: &Window,
) -> Result<Vec<AnswerSet>, String> {
    r.process(w).map(|out| out.answers).map_err(|e| e.to_string())
}

/// `StreamEngine::with_partitioned_lanes` — PR_Dep lanes behind the
/// pipelined engine.
pub fn engine(c: &Compiled, a: &Analysis, strategy: Strategy, in_flight: usize) -> StreamEngine {
    StreamEngine::with_partitioned_lanes(
        &c.syms,
        &c.program,
        Some(&a.inpre),
        a.partitioner.clone(),
        reasoner_config(strategy, ParallelMode::Threads),
        EngineConfig { in_flight, queue_depth: QUEUE_DEPTH, window_deadline_ms: None },
    )
    .expect("engine builds")
}

/// `StreamEngine::submit`.
pub fn submit(engine: &mut StreamEngine, w: Window) {
    engine.submit(w).expect("engine accepts windows until it is finished");
}

/// `StreamEngine::poll_output`.
pub fn poll_output(engine: &mut StreamEngine) -> Option<EngineOutput> {
    engine.poll_output()
}

/// The answers of an emitted window; `None` when it errored or was emitted
/// `degraded`.
pub fn engine_answers(out: &EngineOutput) -> Option<&[AnswerSet]> {
    if out.degraded {
        return None;
    }
    out.result.as_ref().ok().map(|o| o.answers.as_slice())
}

/// `MultiTenantEngine::new` under `Strategy::CachedOrScratch`.
pub fn tenant_engine() -> MultiTenantEngine {
    MultiTenantEngine::new(reasoner_config(Strategy::CachedOrScratch, ParallelMode::Threads))
}

/// `MultiTenantEngine::admit` with `TenantPartitioner::Dependency`.
pub fn admit(engine: &mut MultiTenantEngine, tenant: &str, source: &str) {
    engine.admit(tenant, source, TenantPartitioner::Dependency).expect("tenant admits");
}

/// `MultiTenantEngine::process`.
pub fn process_tenants(
    engine: &mut MultiTenantEngine,
    w: &Window,
) -> Result<Vec<TenantOutput>, String> {
    engine.process(w).map_err(|e| e.to_string())
}

/// Whether a tenant was served a `degraded` placeholder.
pub fn tenant_degraded(out: &TenantOutput) -> bool {
    out.degraded
}

/// One tenant's `(id, rendered answers)`.
pub fn tenant_view(out: &TenantOutput) -> (String, String) {
    (out.tenant.clone(), render(&out.syms, &out.output.answers))
}

/// `MultiTenantEngine::dedup_snapshot().dedup_ratio`.
pub fn dedup_ratio(engine: &MultiTenantEngine) -> f64 {
    engine.dedup_snapshot().dedup_ratio
}

// --------------------------------------------------------- the layers by hand

/// `FormatProcessor::new(FormatConfig::from_program)` — the input signature
/// is the program's EDB predicates, as every reasoner defaults to.
pub fn format_processor(c: &Compiled) -> FormatProcessor {
    FormatProcessor::new(&c.syms, &FormatConfig::from_program(&c.syms, &c.program))
}

/// `FormatProcessor::window_to_facts`.
pub fn to_facts(format: &mut FormatProcessor, items: &[Triple]) -> Vec<GroundAtom> {
    format.window_to_facts(items)
}

/// `Partitioner::partitions`.
pub fn partitions(partitioner: &dyn Partitioner) -> usize {
    partitioner.partitions()
}

/// `Partitioner::partition`.
pub fn partition(partitioner: &dyn Partitioner, w: &Window) -> Vec<Vec<Triple>> {
    partitioner.partition(w)
}

/// `WindowDelta::project` through `Partitioner::item_routes`.
pub fn project(delta: &WindowDelta, partitioner: &dyn Partitioner) -> Vec<WindowDelta> {
    delta.project(partitioner.partitions(), |t| partitioner.item_routes(t).unwrap_or_default())
}

/// `sr_core::fingerprint_items`.
pub fn fingerprint(items: &[Triple]) -> u128 {
    sr_core::fingerprint_items(items)
}

/// `sr_core::program_fingerprint`.
pub fn program_fingerprint(c: &Compiled) -> u64 {
    sr_core::program_fingerprint(&c.syms, &c.program)
}

/// `PartitionCache::new`, sized like the workloads' own caches.
pub fn partition_cache() -> PartitionCache {
    PartitionCache::new(CACHE_CAPACITY)
}

/// `PartitionCache::get`.
pub fn cache_get(cache: &PartitionCache, program: u64, fp: u128) -> Option<Arc<Vec<AnswerSet>>> {
    cache.get(program, fp)
}

/// `PartitionCache::insert`.
pub fn cache_insert(cache: &PartitionCache, program: u64, fp: u128, answers: Arc<Vec<AnswerSet>>) {
    cache.insert(program, fp, answers);
}

/// `PartitionCache::counters().snapshot()` as `(hits, misses, evictions)`.
pub fn cache_counts(cache: &PartitionCache) -> (u64, u64, u64) {
    let s = cache.counters().snapshot();
    (s.hits, s.misses, s.evictions)
}

/// `Grounder::new`.
pub fn grounder(c: &Compiled) -> Arc<Grounder> {
    Arc::new(Grounder::new(&c.syms, &c.program).expect("grounder builds"))
}

/// `Grounder::ground`.
pub fn ground(grounder: &Grounder, facts: &[GroundAtom]) -> GroundProgram {
    grounder.ground(facts).expect("grounding succeeds")
}

/// `(rules, atoms)` of a ground program.
pub fn ground_size(gp: &GroundProgram) -> (usize, usize) {
    (gp.rules.len(), gp.atoms.len())
}

/// `DeltaGrounder::new`.
pub fn delta_grounder(grounder: &Arc<Grounder>) -> DeltaGrounder {
    DeltaGrounder::new(Arc::clone(grounder)).expect("program is in the delta fragment")
}

/// `DeltaGrounder::apply`; false when the state can no longer be trusted.
pub fn delta_apply(
    delta: &mut DeltaGrounder,
    added: &[GroundAtom],
    retracted: &[GroundAtom],
) -> bool {
    delta.apply(added, retracted).is_ok()
}

/// `DeltaGrounder::reset` + `apply(facts, [])`: the full rebuild the delta
/// lane falls back to.
pub fn delta_reground(delta: &mut DeltaGrounder, facts: &[GroundAtom]) {
    delta.reset().expect("delta state resets");
    delta.apply(facts, &[]).expect("partition re-grounds");
}

/// `DeltaGrounder::answer` wrapped as the delta lane does.
pub fn delta_answer(syms: &Symbols, delta: &DeltaGrounder) -> Vec<AnswerSet> {
    delta.answer().map(|atoms| vec![AnswerSet::new(atoms, syms)]).unwrap_or_default()
}

/// `DeltaGrounder::state_size().total_cells()`.
pub fn delta_state_cells(delta: &DeltaGrounder) -> u128 {
    delta.state_size().total_cells()
}

/// What one `solve_ground` call returned.
pub struct Solved {
    pub answers: Vec<AnswerSet>,
    pub vars: usize,
    pub clauses: usize,
    pub conflicts: u64,
    pub stability_checks: u64,
}

/// `asp_solver::solve_ground`.
pub fn solve(syms: &Symbols, gp: &GroundProgram) -> Solved {
    let r = asp_solver::solve_ground(syms, gp, &SolverConfig::default()).expect("solving succeeds");
    Solved {
        answers: r.answer_sets,
        vars: r.stats.vars,
        clauses: r.stats.clauses,
        conflicts: r.stats.conflicts,
        stability_checks: r.stats.stability_checks,
    }
}

/// `sr_core::combine` under the default policy and cap.
pub fn combine(syms: &Symbols, per_partition: &[Arc<Vec<AnswerSet>>]) -> Vec<AnswerSet> {
    let slices: Vec<&[AnswerSet]> = per_partition.iter().map(|p| p.as_slice()).collect();
    sr_core::combine(syms, &slices, CombinePolicy::Strict, ReasonerConfig::default().max_combined).0
}

/// Atoms over all answer sets (`AnswerSet::len`).
pub fn atoms_in(answers: &[AnswerSet]) -> usize {
    answers.iter().map(AnswerSet::len).sum()
}

/// `sr_core::window_accuracy` over the derived atoms (the paper's measure).
pub fn accuracy(c: &Compiled, a: &Analysis, reference: &[AnswerSet], got: &[AnswerSet]) -> f64 {
    sr_core::window_accuracy(&c.syms, reference, got, &Projection::derived(&a.inpre))
}

/// One answer set per line (`AnswerSet::display`) — the canonical form
/// `sr_bench::render_output` uses for byte-identity checks.
pub fn render(syms: &Symbols, answers: &[AnswerSet]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for ans in answers {
        let _ = writeln!(s, "{}", ans.display(syms));
    }
    s
}

/// The benchmark measures the program with its tracer off and no fault
/// plan installed; anything else would be a different program.
pub fn assert_quiet() {
    assert!(!sr_obs::tracer().is_enabled(), "sr_obs tracer must be off");
    assert!(!sr_core::fault::injection_enabled(), "no FaultPlan may be installed");
}
