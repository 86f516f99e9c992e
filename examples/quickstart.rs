//! Quickstart: parse the paper's traffic program, run the single reasoner R
//! on the motivating window from Section II-A, then run the dependency-
//! partitioned parallel reasoner PR and confirm they agree.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use std::time::Instant;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = r#"
    very_slow_speed(X) :- average_speed(X,Y), Y < 20.
    many_cars(X)       :- car_number(X,Y), Y > 40.
    traffic_jam(X)     :- very_slow_speed(X), many_cars(X), not traffic_light(X).
    car_fire(X)        :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
    give_notification(X) :- traffic_jam(X).
    give_notification(X) :- car_fire(X).
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P)?;
    println!("Parsed program P with {} rules.", program.rules.len());

    // The window from Section II-A, as RDF triples.
    let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
    let window = Window::new(
        0,
        vec![
            t("newcastle", "average_speed", Node::Int(10)),
            t("newcastle", "car_number", Node::Int(55)),
            t("newcastle", "traffic_light", Node::Int(1)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("dangan")),
        ],
    );

    // ---- Reasoner R -------------------------------------------------------
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default())?;
    let t0 = Instant::now();
    let out_r = r.process(&window)?;
    let r_ms = duration_ms(t0.elapsed());
    println!("\nR answers ({}):", out_r.answers.len());
    for ans in &out_r.answers {
        println!("  {}", ans.display(&syms));
    }

    // ---- Design time: input dependency analysis ---------------------------
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
    println!("\nPartitioning plan ({} communities):", analysis.plan.communities);
    print!("{}", analysis.plan);
    assert!(analysis.verify_plan(&syms).is_empty(), "plan must pass the join-coverage check");

    // ---- Reasoner PR with dependency partitioning -------------------------
    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig::default(),
    )?;
    let t0 = Instant::now();
    let out_pr = pr.process(&window)?;
    let pr_ms = duration_ms(t0.elapsed());
    println!("\nPR answers ({}):", out_pr.answers.len());
    for ans in &out_pr.answers {
        println!("  {}", ans.display(&syms));
    }

    // ---- Accuracy ----------------------------------------------------------
    let projection = Projection::derived(&analysis.inpre);
    let acc = window_accuracy(&syms, &out_r.answers, &out_pr.answers, &projection);
    println!("\nAccuracy of PR vs R (derived atoms): {acc:.3}");
    assert_eq!(acc, 1.0, "dependency partitioning preserves the answers");

    println!("\nLatency  R: {r_ms:.2} ms   PR: {pr_ms:.2} ms");
    Ok(())
}
