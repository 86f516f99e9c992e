//! Incremental reasoning correctness: the [`IncrementalReasoner`]'s output
//! must be **byte-identical** to full recomputation — the plain
//! [`ParallelReasoner`] over the same partitioner — across random programs,
//! slide/size combinations and cache capacities (including capacity 0 =
//! always miss), for both the dependency partitioning (`PR_Dep`) and the
//! random baseline (`PR_Ran_k`), on sliding-window streams.

use proptest::prelude::*;
use sr_bench::programs::LARGE_TRAFFIC;
use sr_bench::{program_p_prime, PROGRAM_P};
use std::sync::Arc;
use stream_reasoner::prelude::*;
use stream_reasoner::sr_stream::Pcg32;

const PROGRAMS: [&str; 2] = [PROGRAM_P, LARGE_TRAFFIC];

fn program_source(idx: usize) -> String {
    match idx {
        0 | 1 => PROGRAMS[idx].to_string(),
        _ => program_p_prime(),
    }
}

/// Cuts a sliding-window stream (including the flushed tail) from the paper
/// workload generator.
fn sliding_windows(
    kind: GeneratorKind,
    seed: u64,
    size: usize,
    slide: usize,
    emissions: usize,
) -> Vec<Window> {
    let mut generator = paper_generator(kind, seed);
    let mut windower = SlidingWindower::new(size, slide);
    let total = size + slide * emissions + slide / 2; // odd tail for flush
    let mut windows = Vec::new();
    for triple in generator.window(total) {
        if let Some(w) = windower.push(triple) {
            windows.push(w);
        }
    }
    if let Some(w) = windower.flush() {
        windows.push(w);
    }
    windows
}

fn render(syms: &Symbols, out: &ReasonerOutput) -> String {
    out.answers.iter().map(|a| a.display(syms).to_string()).collect::<Vec<_>>().join("\n")
}

/// Runs full recomputation and the incremental reasoner over the same
/// windows and asserts window-by-window byte identity.
fn assert_identical(
    source: &str,
    partitioner_of: impl Fn(&DependencyAnalysis) -> Arc<dyn Partitioner>,
    windows: &[Window],
    capacity: usize,
) -> Result<(), TestCaseError> {
    assert_identical_with(source, partitioner_of, windows, capacity, false)
}

/// Like [`assert_identical`], optionally with delta-driven grounding inside
/// dirty partitions enabled on the incremental side.
fn assert_identical_with(
    source: &str,
    partitioner_of: impl Fn(&DependencyAnalysis) -> Arc<dyn Partitioner>,
    windows: &[Window],
    capacity: usize,
    delta_ground: bool,
) -> Result<(), TestCaseError> {
    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner = partitioner_of(&analysis);
    // Sequential mode keeps the property runs single-threaded and fast; the
    // engine-level tests cover the pooled path.
    let base_cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
    let inc_cfg = ReasonerConfig {
        incremental: true,
        cache_capacity: capacity,
        delta_ground,
        ..base_cfg.clone()
    };
    let mut full = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        base_cfg,
    )
    .unwrap();
    let mut incremental =
        IncrementalReasoner::new(&syms, &program, Some(&analysis.inpre), partitioner, inc_cfg)
            .unwrap();
    for window in windows {
        let expected = render(&syms, &full.process(window).unwrap());
        let actual = render(&syms, &incremental.process(window).unwrap());
        prop_assert_eq!(
            &expected,
            &actual,
            "window {} diverged (capacity {})",
            window.id,
            capacity
        );
    }
    Ok(())
}

/// Cost-based join planning must never change a byte: the planner-on
/// reasoners (full recompute *and* incremental, with or without delta
/// grounding) against the planner-off full recompute reference, window by
/// window.
fn assert_planner_identity(
    source: &str,
    partitioner_of: impl Fn(&DependencyAnalysis) -> Arc<dyn Partitioner>,
    windows: &[Window],
    capacity: usize,
    delta_ground: bool,
) -> Result<(), TestCaseError> {
    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner = partitioner_of(&analysis);
    let base_cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
    let mut reference = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        base_cfg.clone(),
    )
    .unwrap();
    let mut planned_full = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        ReasonerConfig { cost_planning: true, ..base_cfg.clone() },
    )
    .unwrap();
    let mut planned_inc = IncrementalReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig {
            incremental: true,
            cache_capacity: capacity,
            delta_ground,
            cost_planning: true,
            ..base_cfg
        },
    )
    .unwrap();
    for window in windows {
        let expected = render(&syms, &reference.process(window).unwrap());
        let full = render(&syms, &planned_full.process(window).unwrap());
        prop_assert_eq!(&expected, &full, "planner-on full recompute diverged at {}", window.id);
        let inc = render(&syms, &planned_inc.process(window).unwrap());
        prop_assert_eq!(
            &expected,
            &inc,
            "planner-on incremental diverged at {} (capacity {}, delta {})",
            window.id,
            capacity,
            delta_ground
        );
    }
    Ok(())
}

/// Deterministic (unique-answer-set) programs inside the delta-grounding
/// fragment: what `ReasonerConfig::delta_ground` actually accelerates.
const DELTA_PROGRAMS: [&str; 2] = [PROGRAM_P, LARGE_TRAFFIC];

/// Drives a random add/retract sequence through a [`DeltaGrounder`] and
/// checks, after every step, that the maintained grounding is semantically
/// equal to grounding the current fact multiset from scratch, that solving
/// both ground programs yields byte-identical answer sets, and that the
/// direct [`DeltaGrounder::answer`] extraction matches the solver.
fn assert_delta_grounder_identity(
    source: &str,
    seed: u64,
    steps: usize,
    batch: usize,
    cost_planning: bool,
) -> Result<(), TestCaseError> {
    use stream_reasoner::asp_grounder::{DeltaGrounder, Grounder};
    use stream_reasoner::asp_solver::solve_ground;
    use stream_reasoner::sr_rdf::{FormatConfig, FormatProcessor};

    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let inpre = program.edb_predicates();
    let mut planned = Grounder::new(&syms, &program).unwrap();
    planned.set_cost_planning(cost_planning);
    let grounder = std::sync::Arc::new(planned);
    prop_assert!(DeltaGrounder::supports(&grounder), "traffic programs are in the fragment");
    let mut dg =
        DeltaGrounder::with_cost_planning(std::sync::Arc::clone(&grounder), cost_planning).unwrap();

    let mut format =
        FormatProcessor::new(&syms, &FormatConfig::from_input_signature(&syms, &inpre));
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
    let pool = format.window_to_facts(&generator.window(batch * steps + batch));

    let mut rng = Pcg32::seed(seed ^ 0xd1fa);
    let mut current: Vec<GroundAtom> = Vec::new();
    let mut cursor = 0usize;
    for step in 0..steps {
        // Add a fresh batch; retract a random subset of what is present.
        let added = &pool[cursor..cursor + batch];
        cursor += batch;
        let mut retracted: Vec<GroundAtom> = Vec::new();
        let keep_prob = rng.below(3); // 0..=2: retract roughly 0%/50%/100%
        current.retain(|fact| {
            if rng.below(2) < keep_prob.min(2) {
                true
            } else {
                retracted.push(fact.clone());
                false
            }
        });
        current.extend_from_slice(added);
        dg.apply(added, &retracted).unwrap();

        let scratch = grounder.ground(&current).unwrap();
        let maintained = dg.ground_program();
        prop_assert_eq!(
            maintained.canonical_form(&syms),
            scratch.canonical_form(&syms),
            "ground program diverged at step {} ({} facts)",
            step,
            current.len()
        );

        let solver = SolverConfig::default();
        let from_scratch = solve_ground(&syms, &scratch, &solver).unwrap();
        let from_maintained = solve_ground(&syms, &maintained, &solver).unwrap();
        let rendered = |r: &stream_reasoner::asp_solver::SolveResult| {
            r.answer_sets.iter().map(|a| a.display(&syms).to_string()).collect::<Vec<_>>()
        };
        prop_assert_eq!(
            rendered(&from_scratch),
            rendered(&from_maintained),
            "solver output diverged at step {}",
            step
        );

        let direct = match dg.answer() {
            Some(atoms) => vec![AnswerSet::new(atoms, &syms).display(&syms).to_string()],
            None => Vec::new(),
        };
        prop_assert_eq!(
            rendered(&from_scratch),
            direct,
            "direct answer extraction diverged at step {}",
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole invariant: random add/retract sequences through the
    /// [`DeltaGrounder`] keep the maintained grounding semantically equal
    /// to from-scratch grounding, with answer sets byte-identical both
    /// through the solver and through the direct stratified extraction —
    /// with cost-based planning of the seeded plans on or off.
    #[test]
    fn delta_grounder_matches_scratch_under_random_churn(
        program_idx in 0usize..2,
        seed in 0u64..1_000,
        steps in 2usize..6,
        batch in 5usize..40,
        cost_planning: bool,
    ) {
        assert_delta_grounder_identity(
            DELTA_PROGRAMS[program_idx], seed, steps, batch, cost_planning,
        )?;
    }

    /// Cost-based join planning never changes output: planner-on full
    /// recompute *and* planner-on incremental reasoning (delta grounding on
    /// or off, so both the scratch plan cache and the maintained grounder's
    /// seeded replan path are exercised) against the planner-off reference,
    /// on churned sliding streams.
    #[test]
    fn cost_planning_is_byte_identical_end_to_end(
        program_idx in 0usize..2,
        size in 40usize..=100,
        divisor_idx in 0usize..3,
        fraction_idx in 0usize..3,
        delta_ground: bool,
        capacity in prop_oneof![Just(0usize), Just(64)],
        seed in 0u64..1_000,
    ) {
        let slide = (size / [2, 4, 8][divisor_idx]).max(1);
        let fraction = [0.0, 0.5, 1.0][fraction_idx];
        let inner = paper_generator(GeneratorKind::CorrelatedSparse, seed);
        let mut churn = ChurnStream::new(inner, size, slide, fraction, seed ^ 0x91a);
        let windows = churn.windows(4);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_planner_identity(
            &source,
            |analysis| Arc::new(PlanPartitioner::new(
                analysis.plan.clone(),
                UnknownPredicate::Partition0,
            )),
            &windows,
            capacity,
            delta_ground,
        )?;
    }

    /// The same planner-on/off cross-check under the random partitioner
    /// (content reshuffled every window, delta grounding gated off).
    #[test]
    fn cost_planning_is_byte_identical_under_random_partitioner(
        program_idx in 0usize..2,
        k in 2usize..=4,
        size in 40usize..=80,
        seed in 0u64..1_000,
    ) {
        let slide = (size / 4).max(1);
        let windows = sliding_windows(GeneratorKind::CorrelatedSparse, seed, size, slide, 3);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_planner_identity(
            &source,
            |_| Arc::new(RandomPartitioner::new(k, seed ^ 0xbeef)),
            &windows,
            64,
            true,
        )?;
    }

    /// End-to-end: the delta-grounding incremental reasoner is byte-
    /// identical to full recomputation on sliding streams (the same
    /// harness as the partition-cache property above).
    #[test]
    fn delta_ground_reasoner_is_byte_identical(
        program_idx in 0usize..2,
        size in 40usize..=100,
        divisor_idx in 0usize..4,
        capacity in prop_oneof![Just(0usize), Just(4), Just(64)],
        seed in 0u64..1_000,
    ) {
        let slide = (size / [1, 2, 4, 8][divisor_idx]).max(1);
        let windows = sliding_windows(GeneratorKind::CorrelatedSparse, seed, size, slide, 3);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_identical_with(
            &source,
            |analysis| Arc::new(PlanPartitioner::new(
                analysis.plan.clone(),
                UnknownPredicate::Partition0,
            )),
            &windows,
            capacity,
            true,
        )?;
    }

    /// Retraction-heavy streams: a fixed fraction of each slide's
    /// retractions hits the live window interior ([`ChurnStream`]), the
    /// regime where the DRed over-delete/re-derive path must tear down
    /// derivation chains whose join partners are still live. Output must
    /// stay byte-identical to full recomputation.
    #[test]
    fn delta_ground_is_byte_identical_on_retraction_heavy_streams(
        program_idx in 0usize..2,
        size in 40usize..=100,
        divisor_idx in 0usize..3,
        fraction_idx in 0usize..3,
        capacity in prop_oneof![Just(0usize), Just(64)],
        seed in 0u64..1_000,
    ) {
        let slide = (size / [2, 4, 8][divisor_idx]).max(1);
        let fraction = [0.25, 0.5, 1.0][fraction_idx];
        let inner = paper_generator(GeneratorKind::CorrelatedSparse, seed);
        let mut churn = ChurnStream::new(inner, size, slide, fraction, seed ^ 0xc0de);
        let windows = churn.windows(4);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_identical_with(
            &source,
            |analysis| Arc::new(PlanPartitioner::new(
                analysis.plan.clone(),
                UnknownPredicate::Partition0,
            )),
            &windows,
            capacity,
            true,
        )?;
    }

    /// Requesting `delta_ground` under the window-seeded random partitioner
    /// must gate the fast path off (no content routing) while staying
    /// byte-identical — the delta-on vs -off × partitioner cross check.
    #[test]
    fn delta_ground_request_under_random_partitioner_is_byte_identical(
        program_idx in 0usize..2,
        k in 2usize..=4,
        size in 40usize..=80,
        seed in 0u64..1_000,
    ) {
        let slide = (size / 4).max(1);
        let windows = sliding_windows(GeneratorKind::CorrelatedSparse, seed, size, slide, 3);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_identical_with(
            &source,
            |_| Arc::new(RandomPartitioner::new(k, seed ^ 0xf00d)),
            &windows,
            64,
            true,
        )?;
    }

    /// PR_Dep: dependency-partitioned incremental reasoning is identical to
    /// full recomputation for arbitrary programs, slides and capacities.
    #[test]
    fn incremental_pr_dep_is_byte_identical(
        program_idx in 0usize..3,
        size in 40usize..=100,
        divisor_idx in 0usize..4,
        capacity in prop_oneof![Just(0usize), Just(1), Just(4), Just(64)],
        seed in 0u64..1_000,
        kind in prop_oneof![
            Just(GeneratorKind::Correlated),
            Just(GeneratorKind::CorrelatedSparse),
            Just(GeneratorKind::Faithful),
        ],
    ) {
        let slide = (size / [1, 2, 4, 8][divisor_idx]).max(1);
        let windows = sliding_windows(kind, seed, size, slide, 3);
        let source = program_source(program_idx);
        assert_identical(
            &source,
            |analysis| Arc::new(PlanPartitioner::new(
                analysis.plan.clone(),
                UnknownPredicate::Partition0,
            )),
            &windows,
            capacity,
        )?;
    }

    /// PR_Ran_k: the window-id-seeded random partitioner reshuffles content
    /// across windows, so cache hits are rare and fingerprints must be
    /// recomputed from actual partition content — output still identical.
    #[test]
    fn incremental_pr_ran_k_is_byte_identical(
        program_idx in 0usize..3,
        k in 2usize..=4,
        size in 40usize..=80,
        divisor_idx in 0usize..3,
        capacity in prop_oneof![Just(0usize), Just(8), Just(64)],
        seed in 0u64..1_000,
    ) {
        let slide = (size / [1, 2, 4][divisor_idx]).max(1);
        let windows =
            sliding_windows(GeneratorKind::CorrelatedSparse, seed, size, slide, 3);
        let source = program_source(program_idx);
        assert_identical(
            &source,
            |_| Arc::new(RandomPartitioner::new(k, seed ^ 0xabcd)),
            &windows,
            capacity,
        )?;
    }
}

/// The engine-level wiring: incremental lanes over a shared cache, ordered
/// emission, byte-identical to the window-at-a-time incremental baseline,
/// and cache counters surfaced in `EngineStats`.
#[test]
fn incremental_engine_matches_sequential_and_reports_cache() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let windows = sliding_windows(GeneratorKind::Correlated, 7, 150, 25, 5);
    let cfg = ReasonerConfig { incremental: true, cache_capacity: 32, ..Default::default() };

    let mut baseline = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        ReasonerConfig::default(),
    )
    .unwrap();
    let expected: Vec<String> =
        windows.iter().map(|w| render(&syms, &baseline.process(w).unwrap())).collect();

    let mut engine = StreamEngine::with_partitioned_lanes(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        cfg,
        EngineConfig { in_flight: 2, queue_depth: 2, ..Default::default() },
    )
    .unwrap();
    for w in &windows {
        engine.submit(w.clone()).unwrap();
    }
    let report = engine.finish();
    let actual: Vec<String> =
        report.outputs.iter().map(|o| render(&syms, o.result.as_ref().unwrap())).collect();
    assert_eq!(actual, expected, "incremental engine output diverged");
    let snapshot = report.stats.incremental.expect("incremental lanes report cache stats");
    assert_eq!(snapshot.hits + snapshot.misses, 2 * windows.len() as u64);
    assert!(report.stats.to_json().contains("\"incremental\": {"));
}
