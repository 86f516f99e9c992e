//! The wait for forked partition threads is traced: a window whose caller
//! forks records one `join` span on the calling thread, and a window that
//! forks nothing records none. Kept a one-test binary because the tracer is
//! process-global: no other test can switch it off or drain it mid-run.

use asp_core::{FastMap, Symbols};
use asp_parser::parse_program;
use sr_core::{
    ParallelMode, ParallelReasoner, Partitioner, PartitioningPlan, PlanPartitioner, ReasonerConfig,
    UnknownPredicate,
};
use sr_obs::{SpanRecord, Stage, TraceCtx};
use sr_rdf::{Node, Triple};
use sr_stream::Window;
use std::sync::Arc;

const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

fn t(s: &str, p: &str, o: Node) -> Triple {
    Triple::new(Node::iri(s), Node::iri(p), o)
}

/// P's two communities.
fn paper_partitioner() -> Arc<dyn Partitioner> {
    let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
    for p in ["average_speed", "car_number", "traffic_light"] {
        membership.insert(p.to_string(), vec![0]);
    }
    for p in ["car_in_smoke", "car_speed", "car_location"] {
        membership.insert(p.to_string(), vec![1]);
    }
    let plan = PartitioningPlan { communities: 2, membership };
    Arc::new(PlanPartitioner::new(plan, UnknownPredicate::Partition0))
}

/// The spans of one window of P processed under `config`, with the calling
/// thread tagged as lane 7.
fn traced_window(id: u64, config: ReasonerConfig) -> Vec<SpanRecord> {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let mut pr = ParallelReasoner::new(&syms, &program, None, paper_partitioner(), config).unwrap();
    let window = Window::new(
        id,
        vec![
            t("newcastle", "average_speed", Node::Int(10)),
            t("newcastle", "car_number", Node::Int(55)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_location", Node::iri("dangan")),
        ],
    );
    let tracer = sr_obs::tracer();
    tracer.set_enabled(true);
    {
        let _lane = sr_obs::ctx_scope(TraceCtx { lane: Some(7), ..TraceCtx::default() });
        pr.process(&window).unwrap();
    }
    tracer.set_enabled(false);
    tracer.drain().into_iter().filter(|s| s.ctx.window_id == id).collect()
}

#[test]
fn a_forking_window_records_one_join_span_on_the_calling_thread() {
    let spans = traced_window(1, ReasonerConfig { workers: 2, ..Default::default() });
    let joins: Vec<&SpanRecord> = spans.iter().filter(|s| s.stage == Stage::Join).collect();
    assert_eq!(joins.len(), 1, "one fork, one join: {spans:?}");
    let join = joins[0];
    assert_eq!((join.ctx.lane, join.ctx.partition), (Some(7), None), "the caller's own context");
    let partitions: Vec<&SpanRecord> = spans.iter().filter(|s| s.ctx.partition.is_some()).collect();
    assert!(partitions.iter().any(|s| s.ctx.partition == Some(0)), "{spans:?}");
    assert!(partitions.iter().any(|s| s.ctx.partition == Some(1)), "{spans:?}");
    for s in &partitions {
        assert!(
            s.start_us + s.dur_us <= join.start_us + join.dur_us + 1,
            "{s:?} ends after {join:?}"
        );
    }

    for config in [
        ReasonerConfig { workers: 1, ..Default::default() },
        ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() },
    ] {
        let spans = traced_window(2, config);
        assert!(spans.iter().any(|s| s.stage == Stage::Ground), "{spans:?}");
        assert!(spans.iter().all(|s| s.stage != Stage::Join), "no fork, no join: {spans:?}");
    }
}
