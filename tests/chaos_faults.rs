//! Chaos proptests: the pipelined [`StreamEngine`] under randomized
//! deterministic fault plans — worker panics, cache invalidations and
//! partition slowdowns past the window deadline — across
//! partitioner choices, slide/size combinations and in-flight depths. Three
//! invariants must survive every plan:
//!
//! 1. the engine **terminates** and emits every submitted window exactly
//!    once, in submission order (no wedged emission, no dropped windows);
//! 2. every clean (non-degraded, non-errored) window renders
//!    **byte-identically** to the fault-free reference pass;
//! 3. a window that could not produce its real answer is **flagged** —
//!    degraded or a loud per-window error — never silently wrong.
//!
//! Each plan rides on the faulty engine's own `ReasonerConfig`, so these
//! tests share their process with plan-free ones and with each other.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

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

fn render(syms: &Symbols, out: &ReasonerOutput) -> String {
    out.answers.iter().map(|a| a.display(syms).to_string()).collect::<Vec<_>>().join("\n")
}

/// Sequential-mode incremental config: the lanes get no pool and run and
/// recover their partitions inline, so every fault site on the sequential
/// path is exercised deterministically.
fn chaos_config() -> ReasonerConfig {
    ReasonerConfig {
        mode: ParallelMode::Sequential,
        incremental: true,
        cache_capacity: 64,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn engine_under_random_fault_plans_is_ordered_and_never_silently_wrong(
        size in 40usize..=100,
        divisor_idx in 0usize..3,
        seed in 0u64..1_000,
        panic_pct in 0u32..50,
        invalidate_pct in 0u32..50,
        slowdown_pct in 0u32..20,
        in_flight in 1usize..=3,
        random_part in any::<bool>(),
        k in 2usize..=4,
    ) {
        let slide = (size / [2, 4, 8][divisor_idx]).max(1);
        let windows = sliding_windows(seed, size, slide, 3);

        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
                .unwrap();
        let partitioner: Arc<dyn Partitioner> = if random_part {
            Arc::new(RandomPartitioner::new(k, seed ^ 0x55aa))
        } else {
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0))
        };

        // Fault-free reference: the same backend the lanes run, strictly
        // sequential.
        let mut reference = IncrementalReasoner::new(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner.clone(),
            chaos_config(),
        )
        .unwrap();
        let expected: Vec<String> =
            windows.iter().map(|w| render(&syms, &reference.process(w).unwrap())).collect();

        let plan = FaultPlan::new()
            .with_rule(FaultSite::WorkerPanic, f64::from(panic_pct) / 100.0, seed)
            .with_rule(
                FaultSite::CacheInvalidate,
                f64::from(invalidate_pct) / 100.0,
                seed.wrapping_add(2),
            )
            .with_rule(
                FaultSite::PartitionSlowdown,
                f64::from(slowdown_pct) / 100.0,
                seed.wrapping_add(3),
            )
            .with_stall(Duration::from_millis(350));
        let mut engine = StreamEngine::with_partitioned_lanes(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner,
            ReasonerConfig { faults: Some(Arc::new(plan)), ..chaos_config() },
            EngineConfig { in_flight, queue_depth: in_flight, window_deadline_ms: Some(120) },
        )
        .unwrap();
        for window in &windows {
            engine.submit(window.clone()).unwrap();
        }
        let report = engine.finish();

        // (1) Termination + complete, ordered emission. Reaching this line
        // at all is the termination half; finish() would hang otherwise.
        prop_assert_eq!(
            report.outputs.len(),
            windows.len(),
            "every submitted window must be emitted"
        );
        for (i, out) in report.outputs.iter().enumerate() {
            prop_assert_eq!(out.seq, i as u64, "emission left submission order");
            prop_assert_eq!(out.window_id, windows[i].id);
            // (3) Degraded windows are flagged; their stale payload is
            // exempt from identity by construction.
            if out.degraded {
                continue;
            }
            // (2) Clean windows must be byte-identical to the reference;
            // exhausted retries surface loudly per window (Err) — allowed.
            if let Ok(output) = &out.result {
                prop_assert_eq!(
                    render(&syms, output),
                    expected[i].clone(),
                    "clean window {} silently diverged from the fault-free reference",
                    i
                );
            }
        }
        // The deadline was armed, so the stats must carry the failure
        // snapshot (even if every counter stayed zero).
        prop_assert!(report.stats.failure.is_some());
    }
}

/// The fixed seeded chaos case: 48 tumbling PR_Dep windows of the paper
/// workload through two incremental lanes, 5% worker panics and cache
/// invalidations, and 5% partition slowdowns stalling
/// past the window deadline, all seeded from one number. Clean windows stay
/// byte-identical to the fault-free reference, every degraded window is
/// flagged and counted, and at most half of the windows degrade.
#[test]
fn seeded_chaos_run_degrades_at_most_half_the_windows() {
    const SEED: u64 = 2017;
    const FAULT_RATE: f64 = 0.05;
    const SLOWDOWN_RATE: f64 = 0.05;
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, SEED);
    let windows: Vec<Window> = (0..48).map(|i| Window::new(i, generator.window(300))).collect();
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let config = ReasonerConfig { incremental: true, ..Default::default() };
    let mut reference = IncrementalReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        config.clone(),
    )
    .unwrap();
    let expected: Vec<String> =
        windows.iter().map(|w| render(&syms, &reference.process(w).unwrap())).collect();

    let plan = FaultPlan::new()
        .with_rule(FaultSite::WorkerPanic, FAULT_RATE, SEED)
        .with_rule(FaultSite::CacheInvalidate, FAULT_RATE, SEED + 2)
        .with_rule(FaultSite::PartitionSlowdown, SLOWDOWN_RATE, SEED + 3)
        .with_stall(Duration::from_millis(400));
    let mut engine = StreamEngine::with_partitioned_lanes(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig { faults: Some(Arc::new(plan)), ..config },
        EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: Some(120) },
    )
    .unwrap();
    for window in &windows {
        engine.submit(window.clone()).unwrap();
    }
    let report = engine.finish();

    assert_eq!(report.outputs.len(), windows.len());
    let mut degraded = 0u64;
    for (i, out) in report.outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64, "emission left submission order");
        if out.degraded {
            degraded += 1;
        } else if let Ok(output) = &out.result {
            assert_eq!(render(&syms, output), expected[i], "clean window {i} diverged");
        }
    }
    let failure = report.stats.failure.expect("deadline armed: failure section present");
    assert_eq!(failure.degraded_windows, degraded, "every degraded window is flagged");
    assert!(failure.retries > 0 && degraded > 0, "the seeded plan must fire: {failure:?}");
    let fraction = degraded as f64 / windows.len() as f64;
    assert!(fraction <= 0.5, "degraded_window_fraction {fraction} exceeds 0.5");
}

/// A fault-free engine pass with the hooks compiled in renders exactly what
/// the reference renders — and honestly omits the failure section when no
/// deadline is armed.
#[test]
fn inert_hooks_change_nothing() {
    let windows = sliding_windows(11, 80, 20, 3);
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut reference = IncrementalReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        chaos_config(),
    )
    .unwrap();
    let expected: Vec<String> =
        windows.iter().map(|w| render(&syms, &reference.process(w).unwrap())).collect();

    let mut engine = StreamEngine::with_partitioned_lanes(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        chaos_config(),
        EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: None },
    )
    .unwrap();
    for window in &windows {
        engine.submit(window.clone()).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outputs.len(), windows.len());
    for (i, out) in report.outputs.iter().enumerate() {
        assert!(!out.degraded, "no deadline, nothing may degrade");
        assert_eq!(render(&syms, out.result.as_ref().unwrap()), expected[i]);
    }
    assert!(
        report.stats.failure.is_none(),
        "no deadline, no injection, no counters: the failure section must be omitted"
    );
}

/// Two engines on two threads of one process, one under a rate-1.0
/// `worker_panic` + `partition_slowdown` plan, the other under none: the
/// plan stays with the engine whose config carries it. The plan-free engine
/// renders byte-identically to the reference and reports no failure
/// section, while its neighbor fails every window.
#[test]
fn a_plan_stays_with_the_engine_whose_config_carries_it() {
    let windows = sliding_windows(11, 80, 20, 3);
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let partitioner: Arc<dyn Partitioner> =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut reference = IncrementalReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner.clone(),
        chaos_config(),
    )
    .unwrap();
    let expected: Vec<String> =
        windows.iter().map(|w| render(&syms, &reference.process(w).unwrap())).collect();

    let plan = FaultPlan::new()
        .with_rule(FaultSite::WorkerPanic, 1.0, 5)
        .with_rule(FaultSite::PartitionSlowdown, 1.0, 6)
        .with_stall(Duration::from_millis(2));
    let faulty_cfg = ReasonerConfig { faults: Some(Arc::new(plan)), ..Default::default() };
    let start = std::sync::Barrier::new(2);
    let run = |reasoner_cfg: ReasonerConfig| {
        let mut engine = StreamEngine::with_partitioned_lanes(
            &syms,
            &program,
            Some(&analysis.inpre),
            partitioner.clone(),
            reasoner_cfg,
            EngineConfig { in_flight: 2, queue_depth: 2, window_deadline_ms: None },
        )
        .unwrap();
        start.wait();
        for window in &windows {
            engine.submit(window.clone()).unwrap();
        }
        engine.finish()
    };
    let (faulty, clean) = std::thread::scope(|s| {
        let faulty = s.spawn(|| run(faulty_cfg));
        let clean = s.spawn(|| run(ReasonerConfig::default()));
        (faulty.join().unwrap(), clean.join().unwrap())
    });

    assert!(faulty.outputs.iter().all(|o| o.result.is_err()), "rate 1.0 fails every window");
    let failure = faulty.stats.failure.expect("a plan forces the failure section");
    assert!(failure.retries > 0, "{failure:?}");
    assert_eq!(clean.outputs.len(), windows.len());
    for (i, out) in clean.outputs.iter().enumerate() {
        assert_eq!(render(&syms, out.result.as_ref().unwrap()), expected[i], "window {i}");
    }
    assert!(clean.stats.failure.is_none(), "the plan-free engine saw no fault");
}
