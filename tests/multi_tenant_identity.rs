//! Multi-tenant serving correctness: every tenant's output through the
//! [`MultiTenantEngine`] must be **byte-identical** to running its own
//! single-program incremental pipeline over the same windows — across
//! programs, partitioner choices (dependency plan and the random
//! baseline), slide/size combinations, and admit/retire mid-stream. Work
//! sharing (one program run per serving entry, one shared partition cache)
//! must never change what any tenant observes, and neither may running the
//! serving entries concurrently on the shared pool: every property runs
//! with entries on the caller thread and on a 2-worker pool. Streaming the
//! windows through a [`StreamEngine`] whose lanes share the scheduler
//! serves every tenant what direct `process` calls serve it.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");
const LARGE_TRAFFIC: &str = include_str!("../assets/large_traffic.lp");

/// Rule r7 of Section II-B; P' = P + r7 connects the input dependency
/// graph's two halves.
const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

fn program_p_prime() -> String {
    format!("{PROGRAM_P}{RULE_R7}")
}

/// Cuts a sliding-window stream (including the flushed tail) from the paper
/// workload generator.
fn sliding_windows(seed: u64, size: usize, slide: usize, emissions: usize) -> Vec<Window> {
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
    let mut windower = SlidingWindower::new(size, slide);
    let total = size + slide * emissions + slide / 2; // odd tail for flush
    let mut windows = Vec::new();
    for triple in generator.window(total) {
        if let Some(w) = windower.push(triple) {
            windows.push(w);
        }
    }
    if let Some(w) = windower.flush() {
        windows.push(w);
    }
    windows
}

/// Cuts a tumbling-window stream (no deltas) from the paper workload
/// generator.
fn tumbling_windows(seed: u64, size: usize, count: u64) -> Vec<Window> {
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
    (0..count).map(|id| Window::new(id, generator.window(size))).collect()
}

fn render(syms: &Symbols, out: &ReasonerOutput) -> String {
    out.answers.iter().map(|a| a.display(syms).to_string()).collect::<Vec<_>>().join("\n")
}

/// The caller-thread config the references use: sequential scheduling for
/// determinism and speed.
fn serving_config() -> ReasonerConfig {
    ReasonerConfig {
        mode: ParallelMode::Sequential,
        incremental: true,
        cache_capacity: 64,
        ..Default::default()
    }
}

/// The configs every property serves under: entries on the caller thread,
/// and entries as jobs on a 2-worker pool.
fn serving_configs() -> [ReasonerConfig; 2] {
    let pooled = ReasonerConfig { mode: ParallelMode::Threads, workers: 2, ..serving_config() };
    [serving_config(), pooled]
}

/// Serves one window, appends each tenant's rendered output to `got`, and
/// returns the tenants in the order their outputs came back.
fn serve(
    engine: &mut MultiTenantEngine,
    window: &Window,
    got: &mut HashMap<String, Vec<String>>,
) -> Vec<String> {
    let mut tenants = Vec::new();
    for out in engine.process(window).unwrap() {
        got.entry(out.tenant.clone()).or_default().push(render(&out.syms, &out.output));
        tenants.push(out.tenant);
    }
    tenants
}

/// Streams `windows` through a [`StreamEngine`] with `lanes` lanes that
/// share `engine`, and returns each tenant's rendered outputs.
fn serve_through_engine(
    engine: MultiTenantEngine,
    lanes: usize,
    windows: &[Window],
) -> HashMap<String, Vec<String>> {
    let ctx = engine.ctx().clone();
    let shared = Arc::new(Mutex::new(engine));
    let config = EngineConfig { in_flight: lanes, queue_depth: lanes, window_deadline_ms: None };
    let mut streaming = StreamEngine::with_ctx(
        config,
        |_lane| Ok(Box::new(Arc::clone(&shared)) as Box<dyn Reasoner<Vec<TenantOutput>>>),
        ctx,
    )
    .unwrap();
    for window in windows {
        streaming.submit(window.clone()).unwrap();
    }
    let mut got: HashMap<String, Vec<String>> = HashMap::new();
    for out in streaming.finish().outputs {
        assert!(!out.degraded, "no deadline, no degraded window");
        for tenant in out.result.unwrap() {
            got.entry(tenant.tenant.clone())
                .or_default()
                .push(render(&tenant.syms, &tenant.output));
        }
    }
    got
}

/// One tenant's independent reference: an [`IncrementalReasoner`] built
/// exactly the way the registry builds a serving entry (same partitioner
/// choice, same config) but with its own private cache, run over `windows`.
fn reference_outputs(
    source: &str,
    partitioner: TenantPartitioner,
    windows: &[Window],
) -> Vec<String> {
    let cfg = serving_config();
    let syms = Symbols::new();
    let program = parse_program(&syms, source).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let part: Arc<dyn Partitioner> = match partitioner {
        TenantPartitioner::Dependency => {
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0))
        }
        TenantPartitioner::Random { k, seed } => Arc::new(RandomPartitioner::new(k, seed)),
    };
    let mut reasoner =
        IncrementalReasoner::new(&syms, &program, Some(&analysis.inpre), part, cfg).unwrap();
    windows.iter().map(|w| render(&syms, &reasoner.process(w).unwrap())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole invariant: a mixed tenant population — duplicated tenants,
    /// a distinct program, and the same program under the random
    /// partitioner — each sees output byte-identical to its own pipeline.
    #[test]
    fn every_tenant_matches_its_independent_pipeline(
        size in 40usize..=100,
        divisor_idx in 0usize..4,
        seed in 0u64..1_000,
        dup in 1usize..=3,
        k in 2usize..=4,
    ) {
        let slide = (size / [1, 2, 4, 8][divisor_idx]).max(1);
        let windows = sliding_windows(seed, size, slide, 3);
        let p_prime = program_p_prime();
        let mut population: Vec<(String, &str, TenantPartitioner)> = Vec::new();
        for i in 0..dup {
            population.push((format!("dup{i}"), PROGRAM_P, TenantPartitioner::Dependency));
        }
        population.push(("prime".into(), &p_prime, TenantPartitioner::Dependency));
        population.push((
            "ran".into(),
            PROGRAM_P,
            TenantPartitioner::Random { k, seed: seed ^ 0xabcd },
        ));

        let admission_order: Vec<String> = population.iter().map(|p| p.0.clone()).collect();
        let expected: Vec<Vec<String>> = population
            .iter()
            .map(|(_, source, partitioner)| reference_outputs(source, *partitioner, &windows))
            .collect();
        for config in serving_configs() {
            let mut engine = MultiTenantEngine::new(config.clone());
            for (tenant, source, partitioner) in &population {
                engine.admit(tenant, source, *partitioner).unwrap();
            }
            prop_assert_eq!(
                engine.program_count(),
                3,
                "dup tenants share one entry; the random choice gets its own"
            );

            let mut got: HashMap<String, Vec<String>> = HashMap::new();
            for window in &windows {
                let order = serve(&mut engine, window, &mut got);
                prop_assert_eq!(&order, &admission_order, "{:?}: outputs out of order", config.mode);
            }
            for ((tenant, _, _), expected) in population.iter().zip(&expected) {
                prop_assert_eq!(
                    &got[tenant],
                    expected,
                    "{:?}: tenant {} diverged from its own pipeline (slide {})",
                    config.mode,
                    tenant,
                    slide
                );
            }
            let dedup = engine.dedup_snapshot();
            prop_assert_eq!(
                dedup.program_runs,
                3 * windows.len() as u64,
                "one run per serving entry per window"
            );
            prop_assert_eq!(dedup.tenant_windows, (dup as u64 + 2) * windows.len() as u64);
        }
    }

    /// Admit/retire mid-stream: a tenant that joins at window `j` must see
    /// exactly what a pipeline started at window `j` computes, and a tenant
    /// retired at window `r` must have seen exactly the prefix.
    #[test]
    fn admit_and_retire_mid_stream_keep_byte_identity(
        size in 40usize..=80,
        divisor_idx in 0usize..3,
        seed in 0u64..1_000,
        join_pick in 1usize..100,
        retire_pick in 0usize..100,
    ) {
        let slide = (size / [2, 4, 8][divisor_idx]).max(1);
        let windows = sliding_windows(seed, size, slide, 4);
        let join = 1 + join_pick % (windows.len() - 1);
        let retire = retire_pick % windows.len();

        let steady = reference_outputs(PROGRAM_P, TenantPartitioner::Dependency, &windows);
        let leaver =
            reference_outputs(LARGE_TRAFFIC, TenantPartitioner::Dependency, &windows[..=retire]);
        let joiner = reference_outputs(
            &program_p_prime(),
            TenantPartitioner::Dependency,
            &windows[join..],
        );
        for config in serving_configs() {
            let mut engine = MultiTenantEngine::new(config.clone());
            engine.admit("steady", PROGRAM_P, TenantPartitioner::Dependency).unwrap();
            engine.admit("leaver", LARGE_TRAFFIC, TenantPartitioner::Dependency).unwrap();
            let mut got: HashMap<String, Vec<String>> = HashMap::new();
            for (i, window) in windows.iter().enumerate() {
                if i == join {
                    engine
                        .admit("joiner", &program_p_prime(), TenantPartitioner::Dependency)
                        .unwrap();
                }
                let order = serve(&mut engine, window, &mut got);
                let admitted: Vec<&str> = ["steady", "leaver", "joiner"]
                    .into_iter()
                    .filter(|t| match *t {
                        "leaver" => i <= retire,
                        "joiner" => i >= join,
                        _ => true,
                    })
                    .collect();
                prop_assert_eq!(&order, &admitted, "{:?}: outputs out of order", config.mode);
                if i == retire {
                    engine.retire("leaver").unwrap();
                }
            }

            prop_assert_eq!(&got["steady"], &steady, "{:?}: steady tenant diverged", config.mode);
            prop_assert_eq!(
                &got["leaver"],
                &leaver,
                "{:?}: retired tenant saw a different prefix",
                config.mode
            );
            prop_assert_eq!(
                &got["joiner"],
                &joiner,
                "{:?}: late joiner diverged (joined at {})",
                config.mode,
                join
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Streaming through the engine changes nothing a tenant sees: with one lane
    /// and with two lanes taking turns on the shared scheduler, every
    /// tenant's outputs equal those of direct `process` calls, on tumbling
    /// and on sliding streams.
    #[test]
    fn tenants_through_the_engine_match_direct_process(
        size in 40usize..=100,
        sliding in any::<bool>(),
        seed in 0u64..1_000,
        k in 2usize..=4,
    ) {
        let windows = if sliding {
            sliding_windows(seed, size, (size / 4).max(1), 3)
        } else {
            tumbling_windows(seed, size, 4)
        };
        let p_prime = program_p_prime();
        let population = [
            ("dup0", PROGRAM_P, TenantPartitioner::Dependency),
            ("dup1", PROGRAM_P, TenantPartitioner::Dependency),
            ("prime", p_prime.as_str(), TenantPartitioner::Dependency),
            ("ran", PROGRAM_P, TenantPartitioner::Random { k, seed }),
        ];
        for config in serving_configs() {
            let admitted = || {
                let mut engine = MultiTenantEngine::new(config.clone());
                for (tenant, source, partitioner) in population {
                    engine.admit(tenant, source, partitioner).unwrap();
                }
                engine
            };
            let mut direct = admitted();
            let mut expected: HashMap<String, Vec<String>> = HashMap::new();
            for window in &windows {
                serve(&mut direct, window, &mut expected);
            }
            for lanes in [1, 2] {
                let got = serve_through_engine(admitted(), lanes, &windows);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{:?}, {} lane(s), sliding {}: the engine changed a tenant's outputs",
                    config.mode,
                    lanes,
                    sliding
                );
            }
        }
    }
}

/// Work sharing is observable, not just harmless: with one run per entry,
/// duplicated tenants literally receive the same allocation.
#[test]
fn duplicated_tenants_share_allocations() {
    let windows = sliding_windows(7, 80, 20, 3);
    let mut engine = MultiTenantEngine::new(serving_config());
    engine.admit("a", PROGRAM_P, TenantPartitioner::Dependency).unwrap();
    engine.admit("b", PROGRAM_P, TenantPartitioner::Dependency).unwrap();
    for window in &windows {
        let outputs = engine.process(window).unwrap();
        assert_eq!(outputs.len(), 2);
        assert!(
            Arc::ptr_eq(&outputs[0].output, &outputs[1].output),
            "duplicated tenants must share one Arc'd result"
        );
    }
    let dedup = engine.dedup_snapshot();
    assert_eq!(dedup.program_runs, windows.len() as u64);
    assert_eq!(dedup.shared_runs_saved, windows.len() as u64);
}

/// Under `Threads` every span recorded while an entry is served on a pool
/// worker carries that entry's fingerprint and the window id, and each
/// entry's own stages and its partitions' stages are attributed to it.
#[test]
fn spans_of_pooled_entries_carry_their_entry_and_window() {
    use stream_reasoner::sr_obs::{self, Stage};
    // Window ids no other test in this binary uses, so spans recorded by
    // concurrently running tests while the global tracer is on can be
    // filtered out.
    const BASE: u64 = 9_880_000;
    let config = ReasonerConfig { mode: ParallelMode::Threads, workers: 2, ..serving_config() };
    let mut engine = MultiTenantEngine::new(config);
    let a = engine.admit("a", PROGRAM_P, TenantPartitioner::Dependency).unwrap();
    let b = engine.admit("b", &program_p_prime(), TenantPartitioner::Dependency).unwrap();
    let windows: Vec<Window> = sliding_windows(3, 80, 20, 2)
        .into_iter()
        .map(|w| Window::new(BASE + w.id, w.items))
        .collect();
    let tracer = sr_obs::tracer();
    tracer.set_enabled(true);
    for window in &windows {
        assert_eq!(engine.process(window).unwrap().len(), 2);
    }
    tracer.set_enabled(false);
    let ids = BASE..BASE + windows.len() as u64;
    let spans: Vec<sr_obs::SpanRecord> =
        tracer.drain().into_iter().filter(|s| ids.contains(&s.ctx.window_id)).collect();
    assert!(!spans.is_empty(), "the traced run recorded no spans");
    for s in &spans {
        assert!(
            s.ctx.entry_fp == Some(a) || s.ctx.entry_fp == Some(b),
            "span {s:?} carries no serving entry"
        );
    }
    for id in ids {
        for fp in [a, b] {
            let of_entry: Vec<_> = spans
                .iter()
                .filter(|s| s.ctx.window_id == id && s.ctx.entry_fp == Some(fp))
                .collect();
            for stage in [Stage::Partition, Stage::Combine] {
                assert!(
                    of_entry.iter().any(|s| s.stage == stage && s.ctx.partition.is_none()),
                    "window {id}, entry {fp:016x}: no entry-level {stage:?} span"
                );
            }
            assert!(
                of_entry.iter().any(|s| s.stage == Stage::Ground && s.ctx.partition.is_some()),
                "window {id}, entry {fp:016x}: no partition job span"
            );
        }
    }
}
