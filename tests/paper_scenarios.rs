//! End-to-end scenarios straight from the paper: the Section II-A
//! motivating example, the P' duplication behaviour, and the headline
//! properties of the evaluation.

use std::sync::Arc;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

fn motivating_window() -> Window {
    let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
    Window::new(
        0,
        vec![
            t("newcastle", "average_speed", Node::Int(10)),
            t("newcastle", "car_number", Node::Int(55)),
            t("newcastle", "traffic_light", Node::Int(1)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("dangan")),
        ],
    )
}

/// "The accurate answer is the event car fire(dangan) detected and the
/// notification about the dangan road segment."
#[test]
fn section_2a_correct_answer() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let out = r.process(&motivating_window()).unwrap();
    assert_eq!(out.answers.len(), 1);
    let text = out.answers[0].display(&syms).to_string();
    assert!(text.contains("car_fire(dangan)"));
    assert!(text.contains("give_notification(dangan)"));
    assert!(!text.contains("traffic_jam(newcastle)"));
    assert!(!text.contains("give_notification(newcastle)"));
}

/// The paper's bad split: W1 = {average_speed, car_number, car_in_smoke},
/// W2 = {traffic_light, car_speed, car_location} — "reasoning in parallel
/// over these two input partitions produces as a result the event
/// traffic_jam(newcastle) ... which is not correct".
#[test]
fn section_2a_wrong_split_produces_wrong_event() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let w = motivating_window();
    let w1 = Window::new(0, vec![w.items[0].clone(), w.items[1].clone(), w.items[3].clone()]);
    let w2 = Window::new(0, vec![w.items[2].clone(), w.items[4].clone(), w.items[5].clone()]);
    let a1 = r.process(&w1).unwrap().answers;
    let a2 = r.process(&w2).unwrap().answers;
    let combined = a1[0].union(&a2[0], &syms);
    let text = combined.display(&syms).to_string();
    assert!(
        text.contains("traffic_jam(newcastle)"),
        "the paper's wrong split must produce the spurious jam: {text}"
    );
    assert!(text.contains("give_notification(newcastle)"));
    assert!(!text.contains("car_fire(dangan)"), "the split breaks the fire join: {text}");
}

/// Dependency partitioning on the same window gives exactly R's answer.
#[test]
fn dependency_partitioning_fixes_the_split() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
        ReasonerConfig::default(),
    )
    .unwrap();
    let w = motivating_window();
    let base = r.process(&w).unwrap();
    let par = pr.process(&w).unwrap();
    let acc = window_accuracy(&syms, &base.answers, &par.answers, &Projection::All);
    assert_eq!(acc, 1.0);
    assert_eq!(base.answers, par.answers);
}

/// P' has a connected graph; the decomposing process duplicates car_number
/// and rule r7 still fires correctly inside the fire-side partition.
#[test]
fn p_prime_duplication_keeps_r7_correct() {
    let syms = Symbols::new();
    let program = parse_program(&syms, &format!("{PROGRAM_P}{RULE_R7}")).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    assert_eq!(analysis.plan.duplicated(), vec!["car_number"]);

    // A window where r7 fires: car fire at newcastle AND many cars there,
    // but fast traffic (no jam via r3).
    let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
    let w = Window::new(
        0,
        vec![
            t("newcastle", "average_speed", Node::Int(70)),
            t("newcastle", "car_number", Node::Int(55)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("newcastle")),
        ],
    );
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let base = r.process(&w).unwrap();
    let base_text = base.answers[0].display(&syms).to_string();
    assert!(base_text.contains("traffic_jam(newcastle)"), "r7 must fire: {base_text}");

    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
        ReasonerConfig::default(),
    )
    .unwrap();
    let par = pr.process(&w).unwrap();
    assert_eq!(
        window_accuracy(&syms, &base.answers, &par.answers, &Projection::All),
        1.0,
        "duplicated car_number must let r7 fire in the fire-side partition"
    );
    // The car_number triple is processed twice (duplication).
    let total: usize = par.partition_sizes.iter().sum();
    assert_eq!(total, w.len() + 1);
}

/// Two independent even loops: every `a` item and every `b` item doubles the
/// answer sets, so R returns 2^4 · 2^3 = 128 of them. The combining handler
/// must return the whole product of the two communities' answers, so PR_Dep
/// returns the same 128 in either scheduling mode.
#[test]
fn pr_dep_returns_every_answer_set_of_a_non_stratified_program() {
    const LOOPS: &str = "p(X) :- a(X), not q(X). q(X) :- a(X), not p(X).
                         r(X) :- b(X), not s(X). s(X) :- b(X), not r(X).";
    let syms = Symbols::new();
    let program = parse_program(&syms, LOOPS).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    assert_eq!(analysis.plan.communities, 2, "the a-loop and the b-loop are independent");
    let t = |s: String, p: &str| Triple::new(Node::iri(&s), Node::iri(p), Node::Int(1));
    let items =
        (0..4).map(|i| t(format!("x{i}"), "a")).chain((0..3).map(|i| t(format!("y{i}"), "b")));
    let w = Window::new(0, items.collect());
    let sorted = |answers: &[AnswerSet]| {
        let mut v: Vec<String> = answers.iter().map(|a| a.display(&syms).to_string()).collect();
        v.sort();
        v
    };

    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let reference = sorted(&r.process(&w).unwrap().answers);
    assert_eq!(reference.len(), 128);
    for mode in [ParallelMode::Sequential, ParallelMode::Threads] {
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
            ReasonerConfig { mode, ..ReasonerConfig::default() },
        )
        .unwrap();
        let got = sorted(&pr.process(&w).unwrap().answers);
        assert_eq!(got.len(), reference.len(), "{mode:?}");
        assert_eq!(got, reference, "{mode:?}");
    }
}

/// Larger randomized windows: PR_Dep stays exact on both programs.
#[test]
fn pr_dep_exact_on_synthetic_workloads() {
    for (label, src) in [("P", PROGRAM_P.to_string()), ("P'", format!("{PROGRAM_P}{RULE_R7}"))] {
        let syms = Symbols::new();
        let program = parse_program(&syms, &src).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
            ReasonerConfig::default(),
        )
        .unwrap();
        for (i, kind) in
            [GeneratorKind::Correlated, GeneratorKind::CorrelatedSparse].into_iter().enumerate()
        {
            let mut generator = paper_generator(kind, 33 + i as u64);
            let w = Window::new(i as u64, generator.window(3_000));
            let base = r.process(&w).unwrap();
            let par = pr.process(&w).unwrap();
            let acc = window_accuracy(&syms, &base.answers, &par.answers, &Projection::All);
            assert_eq!(acc, 1.0, "program {label}, generator {kind:?}");
        }
    }
}

/// The query processor filters noise in front of PR_Dep, which reasons.
#[test]
fn pipeline_filters_and_reasons() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let mut query = QueryProcessor::from_input_signature(&syms, &analysis.inpre);
    let mut raw = motivating_window().items;
    raw.push(Triple::new(Node::iri("x"), Node::iri("irrelevant"), Node::Int(1)));
    let kept = query.filter(raw);
    assert_eq!(query.counters(), (6, 1), "one noise item dropped");

    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig::default(),
    )
    .unwrap();
    let out = pr.process(&Window::new(0, kept)).unwrap();
    assert_eq!(out.answers.len(), 1);
    assert!(out.answers[0].display(&syms).to_string().contains("car_fire(dangan)"));
}
