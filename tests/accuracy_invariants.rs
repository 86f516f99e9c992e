//! Property-based invariants of the partitioning machinery — the "towards a
//! proof of correctness" direction of the paper's future work, checked
//! empirically over randomized windows.

use proptest::prelude::*;
use std::sync::Arc;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

/// Arbitrary windows over the paper's input signature: a mix of locations,
/// cars, speeds, counts, smoke levels — including degenerate values.
fn window_strategy() -> impl Strategy<Value = Vec<(usize, String, i64)>> {
    // (predicate index, entity, numeric value)
    prop::collection::vec((0usize..6, "[a-d]", -5i64..60), 0..40)
}

fn build_window(spec: &[(usize, String, i64)]) -> Window {
    let preds = PAPER_PREDICATES;
    let items = spec
        .iter()
        .map(|(p, e, v)| {
            let pred = Node::iri(preds[*p]);
            match preds[*p] {
                "traffic_light" => Triple::new(Node::iri(&format!("loc{e}")), pred, Node::Int(1)),
                "car_in_smoke" => Triple::new(
                    Node::iri(&format!("car{e}")),
                    pred,
                    Node::literal(if *v % 2 == 0 { "high" } else { "low" }),
                ),
                "car_speed" => Triple::new(Node::iri(&format!("car{e}")), pred, Node::Int(*v)),
                "car_location" => {
                    Triple::new(Node::iri(&format!("car{e}")), pred, Node::iri(&format!("loc{e}")))
                }
                _ => Triple::new(Node::iri(&format!("loc{e}")), pred, Node::Int(*v)),
            }
        })
        .collect();
    Window::new(1, items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central conjecture: dependency partitioning preserves the answers
    /// of program P on arbitrary windows.
    #[test]
    fn pr_dep_accuracy_is_one_on_program_p(spec in window_strategy()) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        // Sequential mode keeps the property test fast (no thread pools per case).
        let cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
            cfg,
        )
        .unwrap();
        let w = build_window(&spec);
        let base = r.process(&w).unwrap();
        let par = pr.process(&w).unwrap();
        let acc = window_accuracy(&syms, &base.answers, &par.answers, &Projection::All);
        prop_assert_eq!(acc, 1.0);
        prop_assert_eq!(&base.answers, &par.answers);
    }

    /// Algorithm 1 routes every window item to at least one partition, and
    /// non-duplicated items to exactly one.
    #[test]
    fn plan_partitioner_covers_every_item(spec in window_strategy()) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let partitioner =
            PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0);
        let w = build_window(&spec);
        let parts = partitioner.partition(&w);
        let duplicated = analysis.plan.duplicated();
        let expected: usize = w
            .items
            .iter()
            .map(|t| if duplicated.contains(&t.predicate_name()) { 2 } else { 1 })
            .sum();
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, expected);
    }

    /// Random partitioning covers every item exactly once, for any k.
    #[test]
    fn random_partitioner_is_a_partition(spec in window_strategy(), k in 1usize..6, seed: u64) {
        let partitioner = RandomPartitioner::new(k, seed);
        let w = build_window(&spec);
        let parts = partitioner.partition(&w);
        prop_assert_eq!(parts.len(), k);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, w.len());
    }

    /// A single-community plan makes PR behave exactly like R.
    #[test]
    fn single_partition_pr_equals_r(spec in window_strategy()) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let plan = PartitioningPlan::single(PAPER_PREDICATES.iter().map(|s| s.to_string()));
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            None,
            Arc::new(PlanPartitioner::new(plan, UnknownPredicate::Partition0)),
            cfg,
        )
        .unwrap();
        let w = build_window(&spec);
        let base = r.process(&w).unwrap();
        let par = pr.process(&w).unwrap();
        prop_assert_eq!(&base.answers, &par.answers);
    }

    /// Accuracy is 1 exactly when the projected answers coincide, and within
    /// [0, 1] always (random partitioning, any seed).
    #[test]
    fn accuracy_is_bounded(spec in window_strategy(), seed: u64) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            None,
            Arc::new(RandomPartitioner::new(3, seed)),
            cfg,
        )
        .unwrap();
        let w = build_window(&spec);
        let base = r.process(&w).unwrap();
        let par = pr.process(&w).unwrap();
        let acc = window_accuracy(&syms, &base.answers, &par.answers, &Projection::All);
        prop_assert!((0.0..=1.0).contains(&acc), "accuracy {acc} out of range");
    }
}
