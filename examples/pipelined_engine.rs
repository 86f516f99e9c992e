//! Pipelined multi-window reasoning: a stream of triples is cut by a
//! `Windower`, pumped into the `StreamEngine`, and reasoned over by several
//! `PR_Dep` lanes sharing one execution context — windows overlap in
//! flight, each lane runs its partitions itself and forks threads only
//! while the shared bound has room, yet emission stays in stream order and
//! byte-identical to the sequential pipeline.
//!
//! Run with: `cargo run --release --example pipelined_engine`

use std::sync::Arc;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P)?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));

    // One shared execution context: it bounds the threads every lane and
    // its forks reason on, and every lane reports into its counters.
    let in_flight = 3;
    let config = ReasonerConfig::default();
    let ctx = ExecCtx::default().with_bound(&config, partitioner.partitions() * in_flight);
    let mut engine = StreamEngine::new(
        EngineConfig { in_flight, queue_depth: in_flight, ..Default::default() },
        |_lane| {
            Ok(Box::new(ParallelReasoner::with_ctx(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner.clone(),
                config.clone(),
                ctx.clone(),
            )?) as Box<dyn Reasoner>)
        },
    )?;
    println!(
        "engine ready: {} lanes x {} partitions, at most {} threads reasoning at once",
        engine.lanes(),
        partitioner.partitions(),
        ctx.threads()
    );

    // A synthetic stream, cut generically through the `Windower` trait into
    // 1,500-item tuple windows, the paper's window model.
    let mut generator = paper_generator(GeneratorKind::Correlated, 99);
    let mut windower = TupleWindower::new(1_500);
    let submitted = engine.pump(generator.window(12_000), &mut windower)?;
    println!("submitted {submitted} tuple windows");

    let report = engine.finish();
    for out in &report.outputs {
        let answers = out.result.as_ref().map(|r| r.answers.len()).unwrap_or(0);
        println!(
            "window {:>2} ({:>5} items): {answers} answer set(s) in {:>7.2} ms",
            out.window_id,
            out.items,
            duration_ms(out.latency)
        );
    }
    let s = &report.stats;
    println!(
        "throughput: {:.2} windows/s, {:.0} items/s | latency p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        s.windows_per_sec, s.items_per_sec, s.latency.p50_ms, s.latency.p95_ms, s.latency.p99_ms
    );
    let reuse = ctx.counters.snapshot();
    println!("communities: {} recomputed, {} reused", reuse.misses, reuse.hits);
    Ok(())
}
