//! Incremental reasoning correctness: the [`IncrementalReasoner`]'s output
//! must be **byte-identical** to full recomputation — a
//! [`ParallelReasoner`] over the same partitioner, given each window without
//! its delta — across random programs,
//! slide/size combinations and cache capacities (including capacity 0 =
//! always miss), for both the dependency partitioning (`PR_Dep`) and the
//! random baseline (`PR_Ran_k`), on sliding-window streams.

use proptest::prelude::*;
use std::sync::Arc;
use stream_reasoner::prelude::*;
use stream_reasoner::sr_stream::Pcg32;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");
const LARGE_TRAFFIC: &str = include_str!("../assets/large_traffic.lp");

/// Rule r7 of Section II-B; P' = P + r7 connects the input dependency
/// graph's two halves.
const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

fn program_p_prime() -> String {
    format!("{PROGRAM_P}{RULE_R7}")
}

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

/// `window` without its delta: a reasoner given it recomputes every
/// partition, which makes it the full-recomputation reference.
fn tumbling(window: &Window) -> Window {
    Window::new(window.id, window.items.clone())
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

/// Like [`assert_identical`], optionally with `delta_ground` set on the
/// incremental side.
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
    // engine-level tests cover the forking path.
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
        let expected = render(&syms, &full.process(&tumbling(window)).unwrap());
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

/// Stratified programs: the [`DeltaGrounder`] facade evaluates their
/// perfect model.
///
/// [`DeltaGrounder`]: stream_reasoner::asp_grounder::DeltaGrounder
const DELTA_PROGRAMS: [&str; 2] = [PROGRAM_P, LARGE_TRAFFIC];

/// Drives a random add/retract sequence through a `DeltaGrounder` and
/// checks, after every step, that its answer equals
/// [`Grounder::perfect_model`] over the live fact multiset.
///
/// [`Grounder::perfect_model`]: stream_reasoner::asp_grounder::Grounder::perfect_model
fn assert_delta_grounder_identity(
    source: &str,
    seed: u64,
    steps: usize,
    batch: usize,
) -> Result<(), TestCaseError> {
    use stream_reasoner::asp_grounder::{DeltaGrounder, Grounder};

    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let inpre = program.edb_predicates();
    let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
    let mut dg = DeltaGrounder::new(Arc::clone(&grounder)).unwrap();

    let mut format =
        FormatProcessor::new(&syms, &FormatConfig::from_input_signature(&syms, &inpre));
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
    let pool = format.window_to_facts(&generator.window(batch * steps + batch));

    let rendered = |model: Option<Vec<GroundAtom>>| {
        model.map(|atoms| AnswerSet::new(atoms, &syms).display(&syms).to_string())
    };
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

        prop_assert_eq!(
            rendered(dg.answer()),
            rendered(grounder.perfect_model(&current).unwrap()),
            "facade answer diverged at step {} ({} facts)",
            step,
            current.len()
        );
    }
    Ok(())
}

/// Retracting a fact the multiset never held breaks the delta chain, and
/// the facade says so instead of answering from a wrong window.
#[test]
fn delta_grounder_rejects_retracting_an_absent_fact() {
    use stream_reasoner::asp_grounder::{DeltaError, DeltaGrounder, Grounder};

    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
    let mut dg = DeltaGrounder::new(grounder).unwrap();
    let inpre = program.edb_predicates();
    let mut format =
        FormatProcessor::new(&syms, &FormatConfig::from_input_signature(&syms, &inpre));
    let facts =
        format.window_to_facts(&paper_generator(GeneratorKind::CorrelatedSparse, 7).window(20));
    dg.apply(&facts[..10], &[]).unwrap();
    let absent = facts[10..].iter().find(|f| !facts[..10].contains(f)).expect("fresh fact");
    assert_eq!(dg.apply(&[], std::slice::from_ref(absent)), Err(DeltaError::SupportUnderflow));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random add/retract sequences through the `DeltaGrounder` facade
    /// answer what perfect-model evaluation of the live multiset answers.
    #[test]
    fn delta_grounder_matches_scratch_under_random_churn(
        program_idx in 0usize..2,
        seed in 0u64..1_000,
        steps in 2usize..6,
        batch in 5usize..40,
    ) {
        assert_delta_grounder_identity(DELTA_PROGRAMS[program_idx], seed, steps, batch)?;
    }

    /// Incremental reasoning, with or without `delta_ground`, against full
    /// recomputation on churned sliding streams: no churn, half of each
    /// slide's retractions in the window interior, or all of them.
    #[test]
    fn incremental_is_byte_identical_on_churned_streams(
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
        assert_identical_with(
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

    /// The same comparison under the random partitioner (content reshuffled
    /// every window), with `delta_ground` on and off, on sliding streams
    /// with no churn, half or all of each slide's retractions in the window
    /// interior.
    #[test]
    fn incremental_is_byte_identical_under_random_partitioner(
        program_idx in 0usize..2,
        k in 2usize..=4,
        size in 40usize..=80,
        fraction_idx in 0usize..3,
        delta_ground: bool,
        seed in 0u64..1_000,
    ) {
        let slide = (size / 4).max(1);
        let fraction = [0.0, 0.5, 1.0][fraction_idx];
        let inner = paper_generator(GeneratorKind::CorrelatedSparse, seed);
        let mut churn = ChurnStream::new(inner, size, slide, fraction, seed ^ 0x5eed);
        let windows = churn.windows(4);
        let source = DELTA_PROGRAMS[program_idx].to_string();
        assert_identical_with(
            &source,
            |_| Arc::new(RandomPartitioner::new(k, seed ^ 0xbeef)),
            &windows,
            64,
            delta_ground,
        )?;
    }

    /// End-to-end: the incremental reasoner with `delta_ground` set (dirty
    /// partitions on its own thread) is byte-identical to full
    /// recomputation on sliding streams.
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
    /// retractions hits the live window interior ([`ChurnStream`]). Output
    /// with `delta_ground` set must stay byte-identical to full
    /// recomputation.
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

    /// `delta_ground` under the window-seeded random partitioner stays
    /// byte-identical too.
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
        windows.iter().map(|w| render(&syms, &baseline.process(&tumbling(w)).unwrap())).collect();

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

/// Exact reuse on P: alternating community bursts through a sliding
/// window of an even number of slides, so each slide retracts and adds
/// items of one community only. On one lane, after the first window exactly
/// one of P's two communities is recomputed per window and the other is
/// reused. On two lanes each lane answers every other window, so a lane's
/// last window is never its next window's delta base: answers must stay
/// identical all the same.
#[test]
fn alternating_community_bursts_recompute_exactly_one_community_per_slide() {
    const SLIDE: usize = 50;
    const SIZE: usize = 4 * SLIDE;
    const WINDOWS: usize = 17;
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    assert_eq!(analysis.plan.communities, 2, "P splits into two communities");
    let community = |t: &Triple| {
        let routes = analysis.plan.communities_of(t.predicate_name()).expect("an input predicate");
        assert_eq!(routes.len(), 1, "no duplicated predicate in P");
        routes[0] as usize
    };

    // Bursts of SLIDE items, alternating between the two communities.
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);
    let mut queues: [Vec<Triple>; 2] = [Vec::new(), Vec::new()];
    let mut stream = Vec::new();
    for burst in 0..SIZE / SLIDE + WINDOWS - 1 {
        let c = burst % 2;
        while queues[c].len() < SLIDE {
            for t in generator.window(SIZE) {
                queues[community(&t)].push(t);
            }
        }
        stream.extend(queues[c].drain(..SLIDE));
    }
    let mut windower = SlidingWindower::new(SIZE, SLIDE);
    let windows: Vec<Window> = stream.into_iter().filter_map(|t| windower.push(t)).collect();
    assert_eq!(windows.len(), WINDOWS);

    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut full = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        ReasonerConfig::default(),
    )
    .unwrap();
    let expected: Vec<String> =
        windows.iter().map(|w| render(&syms, &full.process(&tumbling(w)).unwrap())).collect();
    for in_flight in [1, 2] {
        let mut engine = StreamEngine::with_partitioned_lanes(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner.clone(),
            ReasonerConfig { incremental: true, ..Default::default() },
            EngineConfig { in_flight, queue_depth: 2, ..Default::default() },
        )
        .unwrap();
        for w in &windows {
            engine.submit(w.clone()).unwrap();
        }
        let report = engine.finish();
        let actual: Vec<String> =
            report.outputs.iter().map(|o| render(&syms, o.result.as_ref().unwrap())).collect();
        assert_eq!(actual, expected, "reuse changed an answer ({in_flight} lanes)");
        let reuse = report.stats.incremental.expect("incremental lanes report reuse");
        if in_flight == 1 {
            let slides = WINDOWS as u64 - 1;
            assert_eq!(reuse.hits, slides, "one community reused per slide: {reuse:?}");
            assert_eq!(reuse.misses, 2 + slides, "both at first, then one per slide: {reuse:?}");
        }
    }
}
