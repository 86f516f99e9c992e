//! Engine determinism: the ordered output of the pipelined `StreamEngine`
//! must be byte-identical to the same reasoner run window by window on the
//! traffic workload — for the dependency-partitioned reasoner (`PR_Dep`)
//! and the random baseline (`PR_Ran_k`) alike.

use std::sync::Arc;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

fn traffic_windows(count: usize, size: usize) -> Vec<Window> {
    let mut generator = paper_generator(GeneratorKind::Correlated, 77);
    (0..count).map(|i| Window::new(i as u64, generator.window(size))).collect()
}

fn render(syms: &Symbols, out: &ReasonerOutput) -> String {
    out.answers.iter().map(|a| a.display(syms).to_string()).collect::<Vec<_>>().join("\n")
}

/// Renders every window's answers through the sequential pipeline reasoner.
fn baseline_rendered(
    syms: &Symbols,
    mut reasoner: Box<dyn Reasoner>,
    windows: &[Window],
) -> Vec<String> {
    windows.iter().map(|w| render(syms, &reasoner.process(w).unwrap())).collect()
}

/// Renders the ordered engine outputs under `in_flight` lanes.
fn engine_rendered(
    syms: &Symbols,
    mut factory: impl FnMut(usize) -> Result<Box<dyn Reasoner>, AspError>,
    windows: &[Window],
    in_flight: usize,
) -> Vec<String> {
    let config = EngineConfig { in_flight, queue_depth: in_flight, ..Default::default() };
    let mut engine = StreamEngine::new(config, &mut factory).unwrap();
    for w in windows {
        engine.submit(w.clone()).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.stats.windows as usize, windows.len());
    assert_eq!(report.stats.errors, 0);
    // Ordered emission: seq numbers must already be sorted.
    let seqs: Vec<u64> = report.outputs.iter().map(|o| o.seq).collect();
    assert_eq!(seqs, (0..windows.len() as u64).collect::<Vec<_>>());
    report.outputs.iter().map(|o| render(syms, o.result.as_ref().unwrap())).collect()
}

#[test]
fn pr_dep_engine_output_matches_sequential_pipeline() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let windows = traffic_windows(6, 400);

    let make_dep = |_: usize| -> Result<Box<dyn Reasoner>, AspError> {
        let partitioner =
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
        Ok(Box::new(ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner,
            ReasonerConfig::default(),
        )?))
    };

    let baseline = baseline_rendered(&syms, make_dep(0).unwrap(), &windows);
    for in_flight in [2, 3] {
        let pipelined = engine_rendered(&syms, make_dep, &windows, in_flight);
        assert_eq!(pipelined, baseline, "PR_Dep diverged at in_flight={in_flight}");
    }
}

#[test]
fn pr_ran_k_engine_output_matches_sequential_pipeline() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let windows = traffic_windows(5, 300);

    for k in [2, 3] {
        let make_ran = |_: usize| -> Result<Box<dyn Reasoner>, AspError> {
            Ok(Box::new(ParallelReasoner::new(
                &syms,
                &program,
                Some(&analysis.inpre),
                Arc::new(RandomPartitioner::new(k, 4242)),
                ReasonerConfig::default(),
            )?))
        };
        let baseline = baseline_rendered(&syms, make_ran(0).unwrap(), &windows);
        let pipelined = engine_rendered(&syms, make_ran, &windows, 2);
        assert_eq!(pipelined, baseline, "PR_Ran_k{k} diverged");
    }
}

#[test]
fn engine_over_shared_pool_matches_per_lane_pools() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let windows = traffic_windows(4, 250);
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));

    let config = ReasonerConfig::default();
    let ctx = ExecCtx { pool: partition_pool(&config, 4).unwrap(), ..Default::default() };
    let shared = engine_rendered(
        &syms,
        |_| {
            Ok(Box::new(ParallelReasoner::with_ctx(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner.clone(),
                config.clone(),
                ctx.clone(),
            )?))
        },
        &windows,
        2,
    );
    let owned = engine_rendered(
        &syms,
        |_| {
            Ok(Box::new(ParallelReasoner::new(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner.clone(),
                ReasonerConfig::default(),
            )?))
        },
        &windows,
        2,
    );
    assert_eq!(shared, owned);
}

/// Tracing is observer-only: the same PR_Dep engine run renders
/// byte-identically with the global `sr_obs` tracer enabled and disabled.
#[test]
fn tracing_on_and_off_render_identically() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let windows = traffic_windows(6, 400);
    let make_dep = |_: usize| -> Result<Box<dyn Reasoner>, AspError> {
        let partitioner =
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
        Ok(Box::new(ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner,
            ReasonerConfig::default(),
        )?))
    };

    let tracer = stream_reasoner::sr_obs::tracer();
    tracer.set_enabled(false);
    let untraced = engine_rendered(&syms, make_dep, &windows, 2);
    tracer.set_enabled(true);
    let traced = engine_rendered(&syms, make_dep, &windows, 2);
    tracer.set_enabled(false);
    let spans = tracer.drain();

    assert!(!spans.is_empty(), "the traced run recorded no spans");
    assert_eq!(traced, untraced, "enabling the tracer changed engine output");
}

#[test]
fn sequential_mode_pipeline_also_matches() {
    // The query processor in front of a sequential-mode PR_Dep against the
    // engine's thread-pool lanes fed the raw windows.
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let windows = traffic_windows(4, 200);
    let make_dep = |mode: ParallelMode| -> Result<Box<dyn Reasoner>, AspError> {
        let partitioner =
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
        let config = ReasonerConfig { mode, ..Default::default() };
        Ok(Box::new(ParallelReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner,
            config,
        )?))
    };

    let mut query = QueryProcessor::from_input_signature(&syms, &analysis.inpre);
    let filtered: Vec<Window> =
        windows.iter().map(|w| Window::new(w.id, query.filter(w.items.clone()))).collect();
    let baseline = baseline_rendered(&syms, make_dep(ParallelMode::Sequential).unwrap(), &filtered);
    let pipelined = engine_rendered(&syms, |_| make_dep(ParallelMode::Threads), &windows, 3);
    assert_eq!(pipelined, baseline);
}
