//! Recovery under injected faults: each test puts its [`FaultPlan`] on the
//! [`ReasonerConfig`] of the reasoner or engine it perturbs
//! ([`ReasonerConfig::faults`]). A plan reaches nothing else, not even a
//! reasoner sharing the same pool, so these tests need no isolation from
//! each other or from any other test.

use asp_core::{FastMap, Symbols};
use asp_parser::parse_program;
use sr_core::fault::{FaultPlan, FaultSite};
use sr_core::{
    partition_pool, ExecCtx, IncrementalReasoner, MultiTenantEngine, ParallelMode,
    ParallelReasoner, Partitioner, PartitioningPlan, PlanPartitioner, ReasonerConfig,
    ReasonerOutput, TenantOutput, TenantPartitioner, UnknownPredicate,
};
use sr_rdf::{Node, Triple};
use sr_stream::{Window, WindowDelta};
use std::sync::Arc;

const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

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

/// `plan` as a config value.
fn with_plan(plan: FaultPlan, config: ReasonerConfig) -> ReasonerConfig {
    ReasonerConfig { faults: Some(Arc::new(plan)), ..config }
}

/// P's two communities on the caller thread, which runs the same job body
/// the pool does: a plan-free reference and a reasoner under `plan`.
fn build_pair(plan: FaultPlan) -> (Symbols, ParallelReasoner, IncrementalReasoner) {
    let config =
        ReasonerConfig { incremental: true, mode: ParallelMode::Sequential, ..Default::default() };
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let partitioner = paper_partitioner();
    let pr =
        ParallelReasoner::new(&syms, &program, None, partitioner.clone(), config.clone()).unwrap();
    let ir = IncrementalReasoner::new(&syms, &program, None, partitioner, with_plan(plan, config))
        .unwrap();
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
fn injected_worker_panic_hits_every_pooled_job() {
    // A seed that panics both of window 5's jobs and neither first retry.
    let panics = |seed: u64| FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, seed);
    let seed = (0..10_000)
        .find(|&s| {
            let fires = |p: u64| panics(s).fires(FaultSite::WorkerPanic, 5, p);
            (0..2).all(|p| fires(p) && !fires(p + (1 << 32)))
        })
        .expect("such a seed exists");
    // A faulty and a plan-free reasoner over one pool, each with its own
    // counters.
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let threads = ReasonerConfig::default();
    let pool = partition_pool(&threads, 2).unwrap();
    let build = |config: ReasonerConfig| {
        let ctx = ExecCtx { pool: pool.clone(), ..Default::default() };
        ParallelReasoner::with_ctx(&syms, &program, None, paper_partitioner(), config, ctx).unwrap()
    };
    let mut faulty = build(with_plan(panics(seed), threads.clone()));
    let mut clean = build(threads);
    let shared = |r: &ParallelReasoner| r.ctx().pool.clone().expect("Threads mode has a pool");
    assert!(Arc::ptr_eq(&shared(&faulty), &shared(&clean)), "one pool serves both");

    let w = Window::new(5, motivating_items());
    let expected = render(&syms, &clean.process(&w).unwrap());
    assert_eq!(render(&syms, &faulty.process(&w).unwrap()), expected, "recovery is lossless");
    let snap = faulty.ctx().failures.snapshot();
    assert_eq!((snap.retries, snap.fallbacks), (2, 2), "both pooled jobs panicked: {snap:?}");
    let snap = clean.ctx().failures.snapshot();
    assert_eq!(snap.retries, 0, "the plan-free reasoner's jobs never panic: {snap:?}");
    clean.process(&Window::new(6, motivating_items())).unwrap();
    assert_eq!(clean.ctx().failures.snapshot().retries, 0, "not after the faulty one either");
}

#[test]
fn injected_panic_recovers_with_identical_output() {
    // The fault is transient: recovery must succeed.
    let plan = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, transient_panic_seed());
    let (syms, mut pr, mut ir) = build_pair(plan);
    let w = Window::new(0, motivating_items());
    let expected = render(&syms, &pr.process(&w).unwrap());
    let recovered = ir.process(&w);
    assert_eq!(render(&syms, &recovered.unwrap()), expected, "recovery must be lossless");
    let snap = ir.ctx().failures.snapshot();
    assert!(snap.retries > 0, "the panicked partition was retried: {snap:?}");
    assert!(snap.fallbacks > 0, "and recovered via the re-ground fallback: {snap:?}");
}

#[test]
fn pooled_panics_in_a_parallel_reasoner_are_retried_on_their_community() {
    // Threads mode with its own pool, built without `incremental`.
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).unwrap();
    let threads = ReasonerConfig { mode: ParallelMode::Threads, ..Default::default() };
    let build = |config: ReasonerConfig| {
        ParallelReasoner::new(&syms, &program, None, paper_partitioner(), config).unwrap()
    };
    let w = Window::new(0, motivating_items());
    let expected = render(&syms, &build(threads.clone()).process(&w).unwrap());

    let transient = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, transient_panic_seed());
    let mut pr = build(with_plan(transient, threads.clone()));
    assert_eq!(pr.workers(), 2, "one pooled worker per partition");
    let recovered = pr.process(&w);
    assert_eq!(render(&syms, &recovered.unwrap()), expected, "recovery must be lossless");
    let snap = pr.ctx().failures.snapshot();
    assert!(snap.retries > 0, "the panicked pooled job was retried: {snap:?}");

    // Rate 1.0 also fires at every retry: the window errors, named.
    let always = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1);
    let err = build(with_plan(always, threads)).process(&Window::new(7, motivating_items()));
    let msg = format!("{:?}", err.expect_err("rate-1.0 panics exhaust the retries"));
    assert!(msg.contains("window 7"), "error names the window: {msg}");
    assert!(msg.contains("partition"), "error names the partition: {msg}");
}

/// Window 0 of P, then `slides` slides that each change only community 1's
/// `car_speed` reading: community 0 stays clean on every slide.
fn slides_dirtying_community_1(slides: u64) -> Vec<Window> {
    let with_speed = |v: i64| {
        let mut items = motivating_items();
        items[4] = t("car1", "car_speed", Node::Int(v));
        items
    };
    let speed = |id: u64| (id % 2) as i64;
    let mut windows = vec![Window::new(0, with_speed(0))];
    for id in 1..=slides {
        windows.push(Window::new(id, with_speed(speed(id))).with_delta(WindowDelta {
            base_id: id - 1,
            added: vec![t("car1", "car_speed", Node::Int(speed(id)))],
            retracted: vec![t("car1", "car_speed", Node::Int(speed(id - 1)))],
        }));
    }
    windows
}

#[test]
fn pooled_and_sequential_faults_hit_the_same_community() {
    const SLIDES: u64 = 8;
    // A rate-0.5 seed whose retries always recover, and under which some
    // slide's dirty community 1 and the first batch slot (0) roll
    // differently: a pool that tagged jobs by batch slot would panic (or
    // not) where the sequential path does not.
    let seed = (0..10_000)
        .find(|&s| {
            let plan = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, s);
            let fires = |w: u64, p: u64| plan.fires(FaultSite::WorkerPanic, w, p);
            let recovers = (0..=SLIDES)
                .all(|w| (0..2).all(|i| !(fires(w, i + (1 << 32)) && fires(w, i + (2 << 32)))));
            recovers && (1..=SLIDES).any(|w| fires(w, 1) != fires(w, 0))
        })
        .expect("such a seed exists");
    let windows = slides_dirtying_community_1(SLIDES);

    let run = |mode: ParallelMode| {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let plan = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.5, seed);
        let config = with_plan(plan, ReasonerConfig { mode, ..Default::default() });
        let mut pr =
            ParallelReasoner::new(&syms, &program, None, paper_partitioner(), config).unwrap();
        let answers: Vec<Vec<String>> =
            windows.iter().map(|w| render(&syms, &pr.process(w).unwrap())).collect();
        let reused = pr.ctx().counters.snapshot().hits;
        (answers, pr.ctx().failures.snapshot().retries, reused)
    };
    let (threads, threads_retries, threads_reused) = run(ParallelMode::Threads);
    let (sequential, sequential_retries, sequential_reused) = run(ParallelMode::Sequential);
    assert_eq!(threads_reused, SLIDES, "community 0 is reused on every slide");
    assert_eq!(sequential_reused, SLIDES);
    assert!(sequential_retries > 0, "the plan fires at some community");
    assert_eq!(threads_retries, sequential_retries, "pooled faults land where sequential ones do");
    assert_eq!(threads, sequential, "and both recover to the same answers");
}

#[test]
fn retry_exhaustion_surfaces_window_and_partition() {
    // Rate 1.0 fires at every coordinate, salted retries included: the
    // bounded retries must exhaust and error out loudly.
    let (_syms, _pr, mut ir) =
        build_pair(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 1));
    let err = ir.process(&Window::new(7, motivating_items()));
    let msg = format!("{:?}", err.expect_err("rate-1.0 panics exhaust the retries"));
    assert!(msg.contains("window 7"), "error names the window: {msg}");
    assert!(msg.contains("partition"), "error names the partition: {msg}");
    assert!(msg.contains("2 re-ground retries"), "error names the retry policy: {msg}");
    assert_eq!(ir.ctx().failures.snapshot().retries, 2, "every retry was counted");
}

#[test]
fn cache_invalidation_fault_recomputes_identically() {
    // A seed that invalidates both communities in window 1 and neither in
    // window 2.
    let invalidate = |seed: u64| FaultPlan::new().with_rule(FaultSite::CacheInvalidate, 0.5, seed);
    let seed = (0..10_000)
        .find(|&s| {
            let fires = |w: u64, c: u64| invalidate(s).fires(FaultSite::CacheInvalidate, w, c);
            (0..2).all(|c| fires(1, c) && !fires(2, c))
        })
        .expect("such a seed exists");
    let (syms, mut pr, mut ir) = build_pair(invalidate(seed));
    let expected = render(&syms, &pr.process(&Window::new(0, motivating_items())).unwrap());
    ir.process(&Window::new(0, motivating_items())).unwrap();
    // Window 1 is unchanged from window 0, so both partitions would be
    // reused; the fault forces them dirty.
    let unchanged = |id: u64| {
        Window::new(id, motivating_items())
            .with_delta(WindowDelta { base_id: id - 1, ..Default::default() })
    };
    let again = ir.process(&unchanged(1));
    assert_eq!(render(&syms, &again.unwrap()), expected, "recompute must match reuse");
    let snap = ir.ctx().counters.snapshot();
    assert_eq!((snap.hits, snap.misses), (0, 4), "invalidation forces recompute: {snap:?}");
    // Where the plan does not fire, the same change is reused.
    ir.process(&unchanged(2)).unwrap();
    assert_eq!(ir.ctx().counters.snapshot().hits, 2);
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

    // A rate-0.9 worker-panic seed under which the partition of windows
    // 0..3 exhausts its retries (a deterministic entry failure), window 3's
    // panics once and recovers on the first retry, and window 4's never
    // panics.
    let panics = |seed: u64| FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.9, seed);
    let seed = (0..100_000)
        .find(|&s| {
            let fires =
                |w: u64, attempt: u64| panics(s).fires(FaultSite::WorkerPanic, w, attempt << 32);
            let exhausts = |w: u64| (0..3).all(|attempt| fires(w, attempt));
            (0..3).all(exhausts) && fires(3, 0) && !fires(3, 1) && !fires(4, 0)
        })
        .expect("such a seed exists");
    let mut eng = MultiTenantEngine::new(ReasonerConfig {
        incremental: true,
        mode: ParallelMode::Sequential,
        faults: Some(Arc::new(panics(seed))),
        ..Default::default()
    });
    eng.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
    assert_eq!(eng.entry_of("t0").unwrap().partitions(), 1);

    for id in 0..3 {
        let outputs = eng.process(&window(id)).unwrap();
        assert!(outputs.is_empty(), "a failing entry serves nothing, but the window survives");
    }
    assert_eq!(eng.quarantined_tenants(), vec!["t0".to_string()], "3 strikes by default");

    // Quarantined: skipped without even attempting (no new errors), and a
    // freshly admitted healthy tenant is served in the same window.
    eng.admit("t1", PROGRAM_B, TenantPartitioner::Dependency).unwrap();
    assert_eq!(eng.entry_of("t1").unwrap().partitions(), 1);
    let outputs = eng.process(&window(3)).unwrap();
    assert_eq!(outputs.len(), 1, "only the healthy entry runs");
    assert_eq!(outputs[0].tenant, "t1");
    let stats = eng.stats();
    assert_eq!(stats.errors, 3, "one error per failed entry run");
    let failure = stats.failure.expect("a quarantine forces the failure section");
    assert_eq!(failure.quarantines, 1);
    // The entries' retries and fallbacks reach the tenant stats: two
    // retries in each of windows 0..3, then t1's one retry and fallback.
    assert_eq!((failure.retries, failure.fallbacks), (7, 1), "{failure:?}");
    assert!(stats.to_json().contains("\"failure\": {"), "{}", stats.to_json());

    // Re-admission restores service for every tenant of the entry.
    eng.readmit("t0").unwrap();
    assert!(eng.quarantined_tenants().is_empty());
    let outputs = eng.process(&window(4)).unwrap();
    let tenants: Vec<&str> = outputs.iter().map(|o| o.tenant.as_str()).collect();
    assert_eq!(tenants, ["t0", "t1"]);
    assert!(rendered(&outputs[0])[0].contains("jam(a)"), "{:?}", rendered(&outputs[0]));
    assert!(eng.readmit("nobody").is_err());
}
