//! Static-analysis soundness properties:
//!
//! * **bound soundness** — on random churned sliding streams, the state a
//!   per-partition `DeltaGrounder` facade holds never exceeds the
//!   admission-time [`ProgramBounds`] computed before a single item
//!   arrived, component by component (the facade holds input facts only);
//! * **uniform dominance** — the content-oblivious `uniform` bound (every
//!   partition may see the whole window, the model for random
//!   partitioning) dominates every per-community bound of the dependency
//!   plan, and scales linearly in `k`.

use proptest::prelude::*;
use std::sync::Arc;
use stream_reasoner::asp_grounder::{DeltaGrounder, Grounder};
use stream_reasoner::prelude::*;
use stream_reasoner::sr_core::MemoryBound;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");
const LARGE_TRAFFIC: &str = include_str!("../assets/large_traffic.lp");

/// Stratified programs: the facade evaluates their perfect model.
const DELTA_PROGRAMS: [&str; 2] = [PROGRAM_P, LARGE_TRAFFIC];

/// `a ≤ b` on memory bounds: an unbounded `b` dominates everything.
fn bound_le(a: MemoryBound, b: MemoryBound) -> bool {
    match (a.cells(), b.cells()) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(x), Some(y)) => x <= y,
    }
}

/// One input of the bound-soundness property.
#[derive(Clone, Debug)]
enum BoundCase {
    /// A delta program over churned sliding windows of the paper workload.
    Paper { program_idx: usize, size: usize, slide: usize, fraction: f64, seed: u64 },
    /// The retraction-heavy workload: `LARGE_TRAFFIC` over bursts cycling
    /// the plan's communities, 320-item windows sliding by 1/8 and by 1/2,
    /// half of every slide's retractions drawn from the window interior,
    /// seed 2017.
    BurstyChurn,
}

fn bound_cases() -> impl Strategy<Value = BoundCase> {
    prop_oneof![
        (0usize..2, 40usize..=100, 0usize..4, 0usize..3, 0u64..1_000).prop_map(
            |(program_idx, size, divisor_idx, fraction_idx, seed)| BoundCase::Paper {
                program_idx,
                size,
                slide: (size / [1, 2, 4, 8][divisor_idx]).max(1),
                fraction: [0.0, 0.5, 1.0][fraction_idx],
                seed,
            }
        ),
        Just(BoundCase::BurstyChurn),
    ]
}

/// The plan's input predicates grouped by community, each group sorted so
/// the bursty stream is stable across runs.
fn community_groups(syms: &Symbols, analysis: &DependencyAnalysis) -> Vec<Vec<String>> {
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); analysis.plan.communities];
    for p in &analysis.inpre {
        let name = syms.resolve(p.name).to_string();
        for &c in analysis.plan.communities_of(&name).unwrap_or_default() {
            groups[c as usize].push(name.clone());
        }
    }
    groups.retain(|g| !g.is_empty());
    groups.iter_mut().for_each(|g| g.sort());
    groups
}

/// Feeds every window's partitions to one facade per partition, rebuilt
/// from the partition's facts as the benchmark replay's fallback does, and
/// checks the observed state against the statically predicted bound after
/// every window.
fn assert_bound_sound(
    source: &str,
    size: usize,
    slide: usize,
    windows: impl FnOnce(&Symbols, &DependencyAnalysis) -> Vec<Window>,
) -> Result<(), TestCaseError> {
    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let spec = WindowSpec::sliding(size as u64, slide as u64);
    let bounds = ProgramBounds::analyze(&syms, &program, &analysis, &spec);
    let partitioner = PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0);
    let mut format =
        FormatProcessor::new(&syms, &FormatConfig::from_input_signature(&syms, &analysis.inpre));
    let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
    let mut facades: Vec<DeltaGrounder> = (0..partitioner.partitions())
        .map(|_| DeltaGrounder::new(Arc::clone(&grounder)).unwrap())
        .collect();

    for window in windows(&syms, &analysis) {
        for (i, items) in partitioner.partition(&window).into_iter().enumerate() {
            let facade = &mut facades[i];
            facade.reset().unwrap();
            facade.apply(&format.window_to_facts(&items), &[]).unwrap();
            let observed = facade.state_size();
            let state = &bounds.partitions[i].state;
            prop_assert!(
                observed.within(state),
                "window {}: partition {} observed {:?} exceeded its static bound {:?}",
                window.id,
                i,
                observed,
                state
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Observed facade state never exceeds the static bound, for
    /// random programs × window sizes × slides × churn fractions and for
    /// the bursty retraction-heavy workload at 1/8 and 1/2 slides.
    #[test]
    fn observed_state_never_exceeds_the_static_bound(case in bound_cases()) {
        match case {
            BoundCase::Paper { program_idx, size, slide, fraction, seed } => {
                assert_bound_sound(DELTA_PROGRAMS[program_idx], size, slide, |_, _| {
                    let inner = paper_generator(GeneratorKind::CorrelatedSparse, seed);
                    ChurnStream::new(inner, size, slide, fraction, seed ^ 0xb0d).windows(4)
                })?;
            }
            BoundCase::BurstyChurn => {
                for slide in [320 / 8, 320 / 2] {
                    assert_bound_sound(LARGE_TRAFFIC, 320, slide, |syms, analysis| {
                        let groups = community_groups(syms, analysis);
                        let burst = (slide / groups.len()).max(1);
                        let inner = BurstyGenerator::new(groups, burst, 320, 2017);
                        ChurnStream::new(Box::new(inner), 320, slide, 0.5, 2017).windows(8)
                    })?;
                }
            }
        }
    }

    /// The uniform (random-partitioning) bound dominates every
    /// per-community bound of the dependency plan at the same capacity,
    /// and `uniform(k)` is exactly `k` copies of `uniform(1)`.
    #[test]
    fn uniform_bound_dominates_the_plan_bound(
        program_idx in 0usize..2,
        capacity in 16u64..4096,
        k in 2usize..=5,
    ) {
        let syms = Symbols::new();
        let program = parse_program(&syms, DELTA_PROGRAMS[program_idx]).unwrap();
        let analysis = DependencyAnalysis::analyze(
            &syms, &program, None, &AnalysisConfig::default()).unwrap();
        let spec = WindowSpec::tuple(capacity);
        let plan_bounds = ProgramBounds::analyze(&syms, &program, &analysis, &spec);
        let one = ProgramBounds::uniform(&syms, &program, &analysis.inpre, 1, &spec);
        let k_wide = ProgramBounds::uniform(&syms, &program, &analysis.inpre, k, &spec);

        let uniform_state = &one.partitions[0].state;
        for part in &plan_bounds.partitions {
            for (name, a, b) in [
                ("input_facts", part.state.input_facts, uniform_state.input_facts),
                ("live", part.state.live_instantiations, uniform_state.live_instantiations),
                ("slots", part.state.instantiation_slots, uniform_state.instantiation_slots),
                ("support", part.state.support_atoms, uniform_state.support_atoms),
                ("relations", part.state.relation_slots, uniform_state.relation_slots),
                ("total", part.state.total_cells, uniform_state.total_cells),
            ] {
                prop_assert!(
                    bound_le(a, b),
                    "community {}: {} bound {} exceeds the uniform bound {}",
                    part.community, name, a, b
                );
            }
        }
        prop_assert_eq!(k_wide.partitions.len(), k);
        let one_total = one.total_cells.cells().expect("traffic programs are bounded");
        let k_total = k_wide.total_cells.cells().expect("traffic programs are bounded");
        prop_assert_eq!(k_total, one_total * k as u128, "uniform bound must scale linearly");
    }
}
