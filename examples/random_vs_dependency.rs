//! Random vs dependency-driven partitioning on one window — a miniature of
//! Figures 7/8: latency drops for both, but only dependency partitioning
//! keeps the answers exact.
//!
//! Run with: `cargo run --release --example random_vs_dependency [window_size]`

use std::sync::Arc;
use std::time::Instant;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P)?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
    let projection = Projection::derived(&analysis.inpre);

    let mut generator = paper_generator(GeneratorKind::Correlated, 7);
    let window = Window::new(0, generator.window(size));
    println!("window: {size} items of correlated traffic data\n");

    // Reference: the single reasoner R.
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default())?;
    let (base, base_ms) = timed(|| r.process(&window))?;
    let derived = projection.apply(&base.answers[0], &syms);
    println!(
        "{:<12} latency {:>8.2} ms   accuracy 1.000   ({} derived atoms)",
        "R",
        base_ms,
        derived.len()
    );

    // PR with the dependency plan.
    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut pr_dep = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig::default(),
    )?;
    let (dep, dep_ms) = timed(|| pr_dep.process(&window))?;
    let acc = window_accuracy(&syms, &base.answers, &dep.answers, &projection);
    println!("{:<12} latency {dep_ms:>8.2} ms   accuracy {acc:.3}", "PR_Dep");

    // PR with random k-way splits.
    for k in [2usize, 3, 4, 5] {
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            Arc::new(RandomPartitioner::new(k, 99)),
            ReasonerConfig::default(),
        )?;
        let (out, ms) = timed(|| pr.process(&window))?;
        let acc = window_accuracy(&syms, &base.answers, &out.answers, &projection);
        println!("{:<12} latency {ms:>8.2} ms   accuracy {acc:.3}", format!("PR_Ran_k{k}"));
    }
    Ok(())
}

/// One reasoner call and its wall clock in milliseconds, transformation
/// included.
fn timed(
    process: impl FnOnce() -> Result<ReasonerOutput, AspError>,
) -> Result<(ReasonerOutput, f64), AspError> {
    let t0 = Instant::now();
    let out = process()?;
    Ok((out, duration_ms(t0.elapsed())))
}
