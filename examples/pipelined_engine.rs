//! Pipelined multi-window reasoning: a timestamped stream is cut by a
//! `Windower`, pumped into the `StreamEngine`, and reasoned over by several
//! `PR_Dep` lanes sharing one partition worker pool — windows overlap in
//! flight, yet emission stays in stream order and byte-identical to the
//! sequential pipeline.
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

    // One shared execution context: its worker pool serves the partition
    // jobs of every lane, and every lane reports into its counters.
    let in_flight = 3;
    let config = ReasonerConfig::default();
    let ctx = ExecCtx {
        pool: partition_pool(&config, partitioner.partitions() * in_flight)?,
        ..Default::default()
    };
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
        "engine ready: {} lanes x {} partitions over a {}-worker pool",
        engine.lanes(),
        partitioner.partitions(),
        ctx.workers()
    );

    // A timestamped synthetic stream, cut generically through the
    // `Windower` trait into 1,500-item tuple windows, the paper's window
    // model.
    let mut generator = paper_generator(GeneratorKind::Correlated, 99);
    let items: Vec<StreamItem> = generator
        .window(12_000)
        .into_iter()
        .enumerate()
        .map(|(i, triple)| StreamItem { triple, timestamp_ms: i as u64 })
        .collect();
    let mut windower = TupleWindower::new(1_500);
    let submitted = engine.pump(items, &mut windower)?;
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
