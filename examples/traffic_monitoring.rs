//! Live traffic monitoring: the extended StreamRule reasoner of Figure 6
//! running against a rate-limited synthetic city-traffic stream. The
//! partitioning handler splits each window by the dependency plan, parallel
//! reasoners detect traffic jams and car fires, and the combining handler
//! unions the answers into notifications. Each window's latency is the wall
//! clock around the reasoner call; its per-stage breakdown comes from the
//! `sr_obs` trace, summed over partitions.
//!
//! Run with: `cargo run --release --example traffic_monitoring`

use std::sync::Arc;
use std::time::{Duration, Instant};
use stream_reasoner::prelude::*;
use stream_reasoner::sr_obs::{self, Stage};

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P)?;

    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
    let config = ReasonerConfig::default();
    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut reasoner =
        ParallelReasoner::new(&syms, &program, Some(&analysis.inpre), partitioner, config)?;
    println!(
        "Extended StreamRule ready: {} parallel reasoners, duplicated predicates: {:?}",
        analysis.plan.communities,
        analysis.plan.duplicated()
    );

    // A live source: 2,000-item windows of correlated traffic data arriving
    // every 100 ms.
    let generator = paper_generator(GeneratorKind::Correlated, 2026);
    let (rx, producer) = stream_reasoner::sr_stream::spawn_source(
        generator,
        stream_reasoner::sr_stream::SourceConfig {
            window_size: 2_000,
            interval: Duration::from_millis(100),
            windows: 5,
        },
    );

    let projection = Projection::derived(&analysis.inpre);
    sr_obs::tracer().set_enabled(true);
    for window in rx {
        let t0 = Instant::now();
        let out = reasoner.process(&window)?;
        let latency_ms = duration_ms(t0.elapsed());
        let traces = sr_obs::group_by_window(sr_obs::tracer().drain());
        let stage_ms =
            |stage| traces.iter().map(|t| t.stage_total_us(stage)).sum::<u64>() as f64 / 1e3;
        let answers = &out.answers;
        let events: Vec<String> = answers
            .first()
            .map(|ans| {
                projection
                    .apply(ans, &syms)
                    .atoms()
                    .iter()
                    .filter(|a| {
                        let name = syms.resolve(a.pred);
                        name.starts_with("give_notification")
                            || name.starts_with("traffic_jam")
                            || name.starts_with("car_fire")
                    })
                    .map(|a| a.display(&syms).to_string())
                    .collect()
            })
            .unwrap_or_default();
        println!(
            "window {:>2} ({} items) -> {:>3} events in {:>7.2} ms \
             (summed over partitions: partition {:>5.2} ms | ground {:>6.2} ms | \
             solve {:>6.2} ms | combine {:>5.2} ms)",
            window.id,
            window.len(),
            events.len(),
            latency_ms,
            stage_ms(Stage::Partition),
            stage_ms(Stage::Ground),
            stage_ms(Stage::Solve),
            stage_ms(Stage::Combine),
        );
        for e in events.iter().take(5) {
            println!("    {e}");
        }
        if events.len() > 5 {
            println!("    ... and {} more", events.len() - 5);
        }
    }
    producer.join().expect("source thread");
    Ok(())
}
