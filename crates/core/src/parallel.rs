//! The parallel reasoner **PR** of the extended StreamRule (Figure 6):
//! partitioning handler → parallel copies of the reasoner `R` (each with its
//! own data-format processor, per the architecture diagram) → combining
//! handler.
//!
//! Each community owns its copy of `R` ([`IncrementalReasoner`] is the
//! executor). A dirty partition runs as one job on a shared, program-agnostic
//! [`WorkerPool`] (see [`crate::exec`]), or on the caller thread where
//! [`partition_pool`] gives no pool. Every pool — a stand-alone reasoner's,
//! a registry's, an engine's — is sized by
//! [`ReasonerConfig::workers`](crate::ReasonerConfig); `0` gives one worker
//! per partition (per partition per lane in an engine).

use crate::config::{ParallelMode, ReasonerConfig};
use crate::exec::WorkerPool;
use crate::incremental::IncrementalReasoner;
use asp_core::AspError;
use std::sync::Arc;

/// The pool of `workers` threads that serves partitioned reasoners' dirty
/// partitions, or `None` when they run on the caller thread: in
/// [`ParallelMode::Sequential`] and under [`ReasonerConfig::delta_ground`].
/// Every partitioned executor decides pool-or-caller here; the pool size
/// stays the caller's.
pub fn partition_pool(
    config: &ReasonerConfig,
    workers: usize,
) -> Result<Option<Arc<WorkerPool>>, AspError> {
    if config.mode == ParallelMode::Sequential || config.delta_ground {
        return Ok(None);
    }
    Ok(Some(Arc::new(WorkerPool::new("pr-worker", workers.max(1))?)))
}

/// The paper's name for the partitioned reasoner: one executor serves every
/// partitioned window and reuses clean communities whenever the window's
/// delta allows it.
pub type ParallelReasoner = IncrementalReasoner;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnknownPredicate;
    use crate::exec::ExecCtx;
    use crate::partition::{Partitioner, PlanPartitioner, RandomPartitioner};
    use crate::plan::PartitioningPlan;
    use crate::reasoner::ReasonerOutput;
    use asp_core::{FastMap, Symbols};
    use asp_parser::parse_program;
    use sr_rdf::{Node, Triple};
    use sr_stream::Window;

    const PROGRAM_P: &str = r#"
        very_slow_speed(X) :- average_speed(X,Y), Y < 20.
        many_cars(X) :- car_number(X,Y), Y > 40.
        traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
        car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
        give_notification(X) :- traffic_jam(X).
        give_notification(X) :- car_fire(X).
    "#;

    fn paper_plan() -> PartitioningPlan {
        let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
        for p in ["average_speed", "car_number", "traffic_light"] {
            membership.insert(p.to_string(), vec![0]);
        }
        for p in ["car_in_smoke", "car_speed", "car_location"] {
            membership.insert(p.to_string(), vec![1]);
        }
        PartitioningPlan { communities: 2, membership }
    }

    fn motivating_window() -> Window {
        let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
        Window::new(
            0,
            vec![
                t("newcastle", "average_speed", Node::Int(10)),
                t("newcastle", "car_number", Node::Int(55)),
                t("newcastle", "traffic_light", Node::Int(1)),
                t("car1", "car_in_smoke", Node::literal("high")),
                t("car1", "car_speed", Node::Int(0)),
                t("car1", "car_location", Node::iri("dangan")),
            ],
        )
    }

    fn build_pr(mode: ParallelMode) -> (Symbols, ParallelReasoner) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let partitioner =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let config = ReasonerConfig { mode, ..Default::default() };
        let pr = ParallelReasoner::new(&syms, &program, None, partitioner, config).unwrap();
        (syms, pr)
    }

    #[test]
    fn dependency_partitioning_matches_single_reasoner() {
        let (syms, mut pr) = build_pr(ParallelMode::Threads);
        let out = pr.process(&motivating_window()).unwrap();
        assert_eq!(out.answers.len(), 1);
        let rendered = out.answers[0].display(&syms).to_string();
        assert!(rendered.contains("car_fire(dangan)"));
        assert!(rendered.contains("give_notification(dangan)"));
        assert!(!rendered.contains("traffic_jam"), "{rendered}");
        assert_eq!(out.partition_sizes, vec![3, 3]);
    }

    #[test]
    fn sequential_mode_gives_identical_answers() {
        let (syms, mut pr_t) = build_pr(ParallelMode::Threads);
        let (_s2, mut pr_s) = build_pr(ParallelMode::Sequential);
        let a = pr_t.process(&motivating_window()).unwrap();
        let b = pr_s.process(&motivating_window()).unwrap();
        let render = |o: &ReasonerOutput| {
            o.answers.iter().map(|a| a.display(&syms).to_string()).collect::<Vec<_>>()
        };
        // Symbols differ between instances, so compare through each store.
        assert_eq!(a.answers.len(), b.answers.len());
        assert_eq!(render(&a).len(), 1);
    }

    #[test]
    fn random_partitioning_can_produce_the_papers_wrong_answer() {
        // The motivating example: splitting the window so that the
        // traffic_light triple is separated from average_speed/car_number
        // produces the spurious traffic_jam(newcastle).
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        // Find a seed where partition 0 gets speed+number but not light.
        let mut found = false;
        for seed in 0..64 {
            let part = RandomPartitioner::new(2, seed);
            let parts = part.partition(&motivating_window());
            let names = |v: &Vec<Triple>| {
                v.iter().map(|t| t.predicate_name().to_string()).collect::<Vec<_>>()
            };
            for side in &parts {
                let n = names(side);
                if n.contains(&"average_speed".to_string())
                    && n.contains(&"car_number".to_string())
                    && !n.contains(&"traffic_light".to_string())
                {
                    found = true;
                    let partitioner = Arc::new(RandomPartitioner::new(2, seed));
                    let mut pr = ParallelReasoner::new(
                        &syms,
                        &program,
                        None,
                        partitioner,
                        ReasonerConfig::default(),
                    )
                    .unwrap();
                    let out = pr.process(&motivating_window()).unwrap();
                    let rendered = out.answers[0].display(&syms).to_string();
                    assert!(
                        rendered.contains("traffic_jam(newcastle)"),
                        "expected the spurious jam: {rendered}"
                    );
                    break;
                }
            }
            if found {
                break;
            }
        }
        assert!(found, "no seed split speed/number away from the light in 64 tries");
    }

    #[test]
    fn timing_has_partition_and_combine_components() {
        let (_syms, mut pr) = build_pr(ParallelMode::Threads);
        let out = pr.process(&motivating_window()).unwrap();
        assert!(out.timing.total >= out.timing.partition);
        assert!(out.timing.total >= out.timing.combine);
    }

    #[test]
    fn undersized_pool_still_processes_every_partition() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let partitioner =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let config = ReasonerConfig { workers: 1, ..Default::default() };
        let mut pr = ParallelReasoner::new(&syms, &program, None, partitioner, config).unwrap();
        assert_eq!(pr.workers(), 1, "pool smaller than the 2 partitions");
        let out = pr.process(&motivating_window()).unwrap();
        assert_eq!(out.partition_sizes, vec![3, 3]);
        let rendered = out.answers[0].display(&syms).to_string();
        assert!(rendered.contains("car_fire(dangan)"));
    }

    #[test]
    fn one_pool_shared_by_two_reasoners() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let config = ReasonerConfig::default();
        let ctx = ExecCtx { pool: partition_pool(&config, 2).unwrap(), ..Default::default() };
        let partitioner =
            Arc::new(PlanPartitioner::new(paper_plan(), UnknownPredicate::Partition0));
        let build = |ctx| {
            ParallelReasoner::with_ctx(
                &syms,
                &program,
                None,
                partitioner.clone(),
                config.clone(),
                ctx,
            )
            .unwrap()
        };
        let mut a = build(ctx.clone());
        let mut b = build(ctx.clone());
        let out_a = a.process(&motivating_window()).unwrap();
        let out_b = b.process(&motivating_window()).unwrap();
        let render = |o: &ReasonerOutput| o.answers[0].display(&syms).to_string();
        assert_eq!(render(&out_a), render(&out_b));
        assert_eq!(a.workers(), 2);
        assert_eq!(ctx.counters.snapshot().misses, 4, "both report into the shared counters");
    }

    #[test]
    fn reusable_across_windows_and_deterministic() {
        let (syms, mut pr) = build_pr(ParallelMode::Threads);
        let o1 = pr.process(&motivating_window()).unwrap();
        let o2 = pr.process(&motivating_window()).unwrap();
        let r1: Vec<String> = o1.answers.iter().map(|a| a.display(&syms).to_string()).collect();
        let r2: Vec<String> = o2.answers.iter().map(|a| a.display(&syms).to_string()).collect();
        assert_eq!(r1, r2);
    }
}
