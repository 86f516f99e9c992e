//! The tests that install the process-global fault plan
//! ([`sr_core::fault::install`]). The plan is process-wide, so any test
//! sharing a process with one of these would see its faults; they live in
//! their own test binary for that reason, and each holds
//! [`fault::test_guard`] so they never overlap one another.

use asp_core::{FastMap, Symbols};
use asp_parser::parse_program;
use sr_core::exec::WorkerFn;
use sr_core::fault::{self, FaultPlan, FaultSite};
use sr_core::{
    IncrementalReasoner, JobTag, MultiTenantEngine, ParallelMode, ParallelReasoner, Partitioner,
    PartitioningPlan, PlanPartitioner, ReasonerConfig, ReasonerOutput, TenantOutput,
    TenantPartitioner, UnknownPredicate, WorkerPool,
};
use sr_rdf::{Node, Triple};
use sr_stream::{Window, WindowDelta};
use std::sync::Arc;

const PROGRAM_P: &str = r#"
    very_slow_speed(X) :- average_speed(X,Y), Y < 20.
    many_cars(X) :- car_number(X,Y), Y > 40.
    traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
    car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
    give_notification(X) :- traffic_jam(X).
    give_notification(X) :- car_fire(X).
"#;

fn t(s: &str, p: &str, o: Node) -> Triple {
    Triple::new(Node::iri(s), Node::iri(p), o)
}

fn motivating_items() -> Vec<Triple> {
    vec![
        t("newcastle", "average_speed", Node::Int(10)),
        t("newcastle", "car_number", Node::Int(55)),
        t("newcastle", "traffic_light", Node::Int(1)),
        t("car1", "car_in_smoke", Node::literal("high")),
        t("car1", "car_speed", Node::Int(0)),
        t("car1", "car_location", Node::iri("dangan")),
    ]
}

fn render(syms: &Symbols, out: &ReasonerOutput) -> Vec<String> {
    out.answers.iter().map(|a| a.display(syms).to_string()).collect()
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

/// P's two communities over the sequential scratch path, which hosts the
/// same fault hooks the pool workers do.
fn build_pair() -> (Symbols, ParallelReasoner, IncrementalReasoner) {
    let config =
        ReasonerConfig { incremental: true, mode: ParallelMode::Sequential, ..Default::default() };
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let partitioner = paper_partitioner();
    let pr =
        ParallelReasoner::new(&syms, &program, None, partitioner.clone(), config.clone()).unwrap();
    let ir = IncrementalReasoner::new(&syms, &program, None, partitioner, config).unwrap();
    (syms, pr, ir)
}

/// A `WorkerPanic` seed that fires at some partition of window 0 but at none
/// of the attempt-salted retry coordinates of a partition it hit, so a
/// rate-0.5 plan with it is a transient fault.
fn transient_panic_seed() -> u64 {
    (0..10_000)
        .find(|&s| {
            let plan = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, s);
            let fires = |p: u64| plan.fires(FaultSite::WorkerPanic, 0, p);
            (0..2).any(&fires) && (0..2).all(|i| !fires(i) || !fires(i + (1 << 32)))
        })
        .expect("such a seed exists")
}

#[test]
fn injected_worker_panic_hits_every_job_then_clears() {
    let _guard = fault::test_guard();
    fault::clear();
    let fns: Vec<WorkerFn<u64, u64>> =
        (0..2).map(|_| Box::new(|_tag: JobTag, x: u64| x * x) as _).collect();
    let pool = WorkerPool::new("sq", fns).unwrap();
    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 3));
    let out = pool.submit(5, vec![1, 2]).wait();
    assert!(out.iter().all(Result::is_err), "rate-1.0 plan panics every job");
    fault::clear();
    let clean = pool.submit(6, vec![4]).wait();
    assert_eq!(clean, vec![Ok(16)], "hooks are inert once the plan is cleared");
}

#[test]
fn injected_panic_recovers_with_identical_output() {
    let _guard = fault::test_guard();
    fault::clear();
    let (syms, mut pr, mut ir) = build_pair();
    let w = Window::new(0, motivating_items());
    let expected = render(&syms, &pr.process(&w).unwrap());
    // The fault is transient: recovery must succeed.
    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, transient_panic_seed()));
    let recovered = ir.process(&w);
    fault::clear();
    assert_eq!(render(&syms, &recovered.unwrap()), expected, "recovery must be lossless");
    let snap = ir.failure_counters().snapshot();
    assert!(snap.retries > 0, "the panicked partition was retried: {snap:?}");
    assert!(snap.fallbacks > 0, "and recovered via the re-ground fallback: {snap:?}");
}

#[test]
fn pooled_panics_in_a_parallel_reasoner_are_retried_on_scratch() {
    let _guard = fault::test_guard();
    fault::clear();
    // Threads mode with its own pool, built without `incremental`.
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let config = ReasonerConfig { mode: ParallelMode::Threads, ..Default::default() };
    let mut pr = ParallelReasoner::new(&syms, &program, None, paper_partitioner(), config).unwrap();
    assert_eq!(pr.workers(), 2, "one pooled worker per partition");
    let w = Window::new(0, motivating_items());
    let expected = render(&syms, &pr.process(&w).unwrap());

    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, transient_panic_seed()));
    let recovered = pr.process(&w);
    fault::clear();
    assert_eq!(render(&syms, &recovered.unwrap()), expected, "recovery must be lossless");
    let snap = pr.failure_counters().snapshot();
    assert!(snap.retries > 0, "the panicked pooled job was retried: {snap:?}");

    // Rate 1.0 also fires at every retry: the window errors, named.
    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1));
    let err = pr.process(&Window::new(7, motivating_items()));
    fault::clear();
    let msg = format!("{:?}", err.expect_err("rate-1.0 panics exhaust the retries"));
    assert!(msg.contains("window 7"), "error names the window: {msg}");
    assert!(msg.contains("partition"), "error names the partition: {msg}");
}

#[test]
fn retry_exhaustion_surfaces_window_and_partition() {
    let _guard = fault::test_guard();
    fault::clear();
    let (_syms, _pr, mut ir) = build_pair();
    // Rate 1.0 fires at every coordinate, salted retries included: the
    // bounded retries must exhaust and error out loudly.
    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1));
    let err = ir.process(&Window::new(7, motivating_items()));
    fault::clear();
    let msg = format!("{:?}", err.expect_err("rate-1.0 panics exhaust the retries"));
    assert!(msg.contains("window 7"), "error names the window: {msg}");
    assert!(msg.contains("partition"), "error names the partition: {msg}");
    assert!(msg.contains("2 re-ground retries"), "error names the retry policy: {msg}");
    assert_eq!(ir.failure_counters().snapshot().retries, 2, "every retry was counted");
}

#[test]
fn cache_invalidation_fault_recomputes_identically() {
    let _guard = fault::test_guard();
    fault::clear();
    let (syms, mut pr, mut ir) = build_pair();
    let expected = render(&syms, &pr.process(&Window::new(0, motivating_items())).unwrap());
    ir.process(&Window::new(0, motivating_items())).unwrap();
    // Window 1 is unchanged from window 0, so both partitions would be
    // reused; the fault forces them dirty.
    let unchanged = |id: u64| {
        Window::new(id, motivating_items())
            .with_delta(WindowDelta { base_id: id - 1, ..Default::default() })
    };
    fault::install(FaultPlan::new().with_rule(FaultSite::CacheInvalidate, 1.0, 4));
    let again = ir.process(&unchanged(1));
    fault::clear();
    assert_eq!(render(&syms, &again.unwrap()), expected, "recompute must match reuse");
    let snap = ir.cache_counters().snapshot();
    assert_eq!((snap.hits, snap.misses), (0, 4), "invalidation forces recompute: {snap:?}");
    // Without the fault the same change is reused.
    ir.process(&unchanged(2)).unwrap();
    assert_eq!(ir.cache_counters().snapshot().hits, 2);
}

#[test]
fn repeated_failures_quarantine_the_entry_and_readmit_lifts_it() {
    const PROGRAM_A: &str = "jam(X) :- slow(X), busy(X), not light(X).";
    const PROGRAM_B: &str = "fire(X) :- smoke(X), heat(X).";
    let window = |id: u64| {
        let t = |s: &str, p: &str| Triple::new(Node::iri(s), Node::iri(p), Node::Int(1));
        Window::new(id, vec![t("a", "slow"), t("a", "busy"), t("b", "smoke"), t("b", "heat")])
    };
    let rendered = |out: &TenantOutput| -> Vec<String> {
        out.output.answers.iter().map(|a| a.display(&out.syms).to_string()).collect()
    };

    let _guard = fault::test_guard();
    fault::clear();
    let mut eng = MultiTenantEngine::new(ReasonerConfig {
        incremental: true,
        mode: ParallelMode::Sequential,
        ..Default::default()
    });
    eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();

    // A rate-1.0 worker-panic plan makes every partition exhaust its
    // retries: each window is a deterministic entry failure.
    fault::install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 11));
    for id in 0..3 {
        let outputs = eng.process(&window(id)).unwrap();
        assert!(outputs.is_empty(), "a failing entry serves nothing, but the window survives");
    }
    assert_eq!(eng.quarantined_tenants(), vec!["t0".to_string()], "3 strikes by default");
    fault::clear();

    // Quarantined: skipped without even attempting (no new errors), and a
    // freshly admitted healthy tenant is served in the same window.
    eng.admit("t1", PROGRAM_B, TenantPartitioner::Dependency).unwrap();
    let outputs = eng.process(&window(3)).unwrap();
    assert_eq!(outputs.len(), 1, "only the healthy entry runs");
    assert_eq!(outputs[0].tenant, "t1");
    let stats = eng.stats();
    assert_eq!(stats.errors, 3, "one error per failed entry run");
    let failure = stats.failure.expect("a quarantine forces the failure section");
    assert_eq!(failure.quarantines, 1);
    assert!(stats.to_json().contains("\"failure\": {"), "{}", stats.to_json());

    // Re-admission restores service for every tenant of the entry.
    eng.readmit("t0").unwrap();
    assert!(eng.quarantined_tenants().is_empty());
    let outputs = eng.process(&window(4)).unwrap();
    let tenants: Vec<&str> = outputs.iter().map(|o| o.tenant.as_str()).collect();
    assert_eq!(tenants, ["t0", "t1"]);
    assert!(rendered(&outputs[0])[0].contains("jam(a)"), "{:?}", rendered(&outputs[0]));
    assert!(eng.readmit("nobody").is_err());
    fault::clear();
}
