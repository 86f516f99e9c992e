//! The `sr_obs` trace is the only per-stage breakdown a reasoner gives: a
//! stand-alone partitioned reasoner, with no engine or tenant around it,
//! must record every stage of a window it processes. Kept a one-test binary
//! because the tracer is process-global: no other test can switch it off or
//! drain it mid-run.

use asp_core::Symbols;
use asp_parser::parse_program;
use sr_core::{
    AnalysisConfig, DependencyAnalysis, ParallelReasoner, Partitioner, PlanPartitioner,
    ReasonerConfig, UnknownPredicate,
};
use sr_obs::{SpanRecord, Stage};
use sr_rdf::{Node, Triple};
use sr_stream::{Window, WindowDelta};
use std::sync::Arc;

const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

fn t(s: &str, p: &str, o: Node) -> Triple {
    Triple::new(Node::iri(s), Node::iri(p), o)
}

#[test]
fn a_sliding_window_traces_the_caller_stages_and_each_dirty_partition() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        Arc::clone(&partitioner),
        ReasonerConfig::default(),
    )
    .unwrap();
    assert!(pr.ctx().threads() > 1, "dirty partitions may fork off the caller");

    let mut items = vec![
        t("newcastle", "average_speed", Node::Int(10)),
        t("newcastle", "car_number", Node::Int(55)),
        t("newcastle", "traffic_light", Node::Int(1)),
        t("car1", "car_in_smoke", Node::literal("high")),
        t("car1", "car_speed", Node::Int(0)),
        t("car1", "car_location", Node::iri("dangan")),
    ];
    pr.process(&Window::new(0, items.clone())).unwrap();
    // Slide: retract the traffic light. Only the communities it routes to
    // are dirty; the rest are reused.
    let light = items.remove(2);
    let dirty: &[u32] = partitioner.item_routes(&light).expect("content-routed plan");
    assert!(dirty.len() < partitioner.partitions(), "the slide leaves a community clean");
    let window = Window::new(1, items).with_delta(WindowDelta {
        base_id: 0,
        added: Vec::new(),
        retracted: vec![light],
    });

    let tracer = sr_obs::tracer();
    tracer.drain();
    tracer.set_enabled(true);
    pr.process(&window).unwrap();
    tracer.set_enabled(false);
    let spans: Vec<SpanRecord> =
        tracer.drain().into_iter().filter(|s| s.ctx.window_id == window.id).collect();

    let caller = |stage| spans.iter().any(|s| s.stage == stage && s.ctx.partition.is_none());
    for stage in [Stage::Partition, Stage::CacheLookup, Stage::Combine] {
        assert!(caller(stage), "no caller-level {stage:?} span: {spans:?}");
    }
    for p in 0..partitioner.partitions() as u32 {
        let traced = |stage| spans.iter().any(|s| s.stage == stage && s.ctx.partition == Some(p));
        for stage in [Stage::Windowing, Stage::Ground] {
            assert_eq!(
                traced(stage),
                dirty.contains(&p),
                "partition {p} {stage:?} span (dirty: {dirty:?}): {spans:?}"
            );
        }
    }
}
