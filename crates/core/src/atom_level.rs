//! Atom-level input dependency partitioning — the paper's §VI future-work
//! extension ("an interesting further extension lies in the input dependency
//! at the atom level").
//!
//! Within one community, two ground items can only fire a rule together when
//! they share a join constant, so the sub-window is split by the connected
//! components of the "shares a constant" relation. Predicates carrying a
//! self-loop in the input dependency graph are the exception: their atoms
//! depend on each other globally (they appear under default negation or
//! self-joins), so all their items — and everything connected to them — stay
//! in one group. The grouping is conservative (every shared constant counts
//! as a potential join key), trading parallelism for answer preservation.

use crate::analysis::DependencyAnalysis;
use crate::config::UnknownPredicate;
use crate::partition::{Partitioner, PlanPartitioner};
use asp_core::{FastMap, Symbols};
use sr_rdf::{Node, Triple};
use sr_stream::Window;
use std::collections::HashSet;

use sr_graph::UnionFind;

/// Splits `items` into independent atom-groups, then bin-packs the groups
/// into at most `max_parts` sub-windows (largest groups first). Predicates
/// in `self_loop_preds` glue all their items together.
pub fn atom_level_partition(
    items: &[Triple],
    self_loop_preds: &HashSet<String>,
    max_parts: usize,
) -> Vec<Vec<Triple>> {
    assert!(max_parts > 0, "max_parts must be positive");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut uf = UnionFind::new(n);

    // Join items sharing any constant value (subject or object).
    let mut first_owner: FastMap<String, usize> = FastMap::default();
    let key = |node: &Node, idx: usize, uf: &mut UnionFind, map: &mut FastMap<String, usize>| {
        let k = match node {
            Node::Iri(s) => format!("i:{}", Node::Iri(s.clone()).local_name()),
            Node::Literal(s) => format!("l:{s}"),
            Node::Int(v) => format!("n:{v}"),
        };
        match map.get(&k) {
            Some(&owner) => {
                uf.union(owner, idx);
            }
            None => {
                map.insert(k, idx);
            }
        }
    };
    // Self-loop predicates share a single synthetic anchor item.
    let mut anchor: Option<usize> = None;
    for (i, t) in items.iter().enumerate() {
        key(&t.s, i, &mut uf, &mut first_owner);
        key(&t.o, i, &mut uf, &mut first_owner);
        if self_loop_preds.contains(t.predicate_name()) {
            match anchor {
                Some(a) => {
                    uf.union(a, i);
                }
                None => anchor = Some(i),
            }
        }
    }

    let groups = uf.groups();
    // Bin-pack groups into max_parts buckets: largest group first into the
    // currently lightest bucket (LPT heuristic).
    let parts_count = max_parts.min(groups.len());
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
    let mut buckets: Vec<Vec<Triple>> = vec![Vec::new(); parts_count];
    for g in order {
        let lightest = buckets
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.len())
            .map(|(i, _)| i)
            .expect("at least one bucket");
        buckets[lightest].extend(groups[g].iter().map(|&i| items[i].clone()));
    }
    buckets.retain(|b| !b.is_empty());
    buckets
}

/// A two-level partitioner: predicate-level communities first (Algorithm 1),
/// then atom-level splitting inside each community — multiplying the
/// available parallelism beyond the number of communities.
#[derive(Debug)]
pub struct AtomLevelPartitioner {
    plan_partitioner: PlanPartitioner,
    self_loop_preds: HashSet<String>,
    parts_per_community: usize,
}

impl AtomLevelPartitioner {
    /// Builds the partitioner from a design-time analysis. Each community is
    /// split into at most `parts_per_community` atom-level sub-windows.
    pub fn from_analysis(
        analysis: &DependencyAnalysis,
        syms: &Symbols,
        parts_per_community: usize,
        unknown: UnknownPredicate,
    ) -> Self {
        assert!(parts_per_community > 0, "parts_per_community must be positive");
        let self_loop_preds = analysis
            .input_graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| analysis.input_graph.graph.has_self_loop(*i))
            .map(|(_, p)| syms.resolve(p.name).to_string())
            .collect();
        AtomLevelPartitioner {
            plan_partitioner: PlanPartitioner::new(analysis.plan.clone(), unknown),
            self_loop_preds,
            parts_per_community,
        }
    }
}

impl Partitioner for AtomLevelPartitioner {
    fn partitions(&self) -> usize {
        self.plan_partitioner.partitions() * self.parts_per_community
    }

    fn partition(&self, window: &Window) -> Vec<Vec<Triple>> {
        let communities = self.plan_partitioner.partition(window);
        let mut out: Vec<Vec<Triple>> = vec![Vec::new(); self.partitions()];
        for (ci, items) in communities.into_iter().enumerate() {
            let groups =
                atom_level_partition(&items, &self.self_loop_preds, self.parts_per_community);
            for (gi, group) in groups.into_iter().enumerate() {
                out[ci * self.parts_per_community + gi] = group;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: Node) -> Triple {
        Triple::new(Node::iri(s), Node::iri(p), o)
    }

    #[test]
    fn items_sharing_entities_stay_together() {
        let items = vec![
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("dangan")),
            t("car2", "car_in_smoke", Node::literal("low2")),
            t("car2", "car_speed", Node::Int(50)),
        ];
        let parts = atom_level_partition(&items, &HashSet::new(), 8);
        assert_eq!(parts.len(), 2);
        for p in &parts {
            let cars: HashSet<&str> = p.iter().map(|t| t.s.local_name()).collect();
            assert_eq!(cars.len(), 1, "one car per group: {p:?}");
        }
    }

    #[test]
    fn shared_objects_join_groups() {
        // car1 and car2 are both at dangan: the location links them.
        let items = vec![
            t("car1", "car_location", Node::iri("dangan")),
            t("car2", "car_location", Node::iri("dangan")),
        ];
        let parts = atom_level_partition(&items, &HashSet::new(), 8);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn self_loop_predicate_glues_its_items() {
        let items = vec![
            t("locA", "traffic_light", Node::Int(1)),
            t("locB", "traffic_light", Node::Int(1)),
            t("locC", "average_speed", Node::Int(10)),
        ];
        let mut self_loops = HashSet::new();
        self_loops.insert("traffic_light".to_string());
        let parts = atom_level_partition(&items, &self_loops, 8);
        // Lights merge; locC is independent.
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn max_parts_bounds_output() {
        let items: Vec<Triple> =
            (0..20).map(|i| t(&format!("s{i}"), "p", Node::Int(1000 + i))).collect();
        let parts = atom_level_partition(&items, &HashSet::new(), 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
        // LPT keeps buckets balanced.
        assert!(
            parts.iter().all(|p| p.len() == 5),
            "{:?}",
            parts.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input() {
        assert!(atom_level_partition(&[], &HashSet::new(), 4).is_empty());
    }

    #[test]
    fn two_level_partitioner_preserves_answers_on_p() {
        use crate::config::{ParallelMode, ReasonerConfig};
        use crate::incremental::ParallelReasoner;
        use crate::reasoner::SingleReasoner;
        use crate::AnalysisConfig;
        use std::sync::Arc;

        const PROGRAM_P: &str = r#"
            very_slow_speed(X) :- average_speed(X,Y), Y < 20.
            many_cars(X) :- car_number(X,Y), Y > 40.
            traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
            car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
            give_notification(X) :- traffic_jam(X).
            give_notification(X) :- car_fire(X).
        "#;
        let syms = Symbols::new();
        let program = asp_parser::parse_program(&syms, PROGRAM_P).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let partitioner = Arc::new(AtomLevelPartitioner::from_analysis(
            &analysis,
            &syms,
            3,
            UnknownPredicate::Partition0,
        ));
        assert_eq!(partitioner.partitions(), 6);

        let mut generator =
            sr_stream::paper_generator(sr_stream::GeneratorKind::CorrelatedSparse, 21);
        let window = Window::new(0, generator.window(1_500));

        let mut r = SingleReasoner::new(&syms, &program, None, asp_solver::SolverConfig::default())
            .unwrap();
        let base = r.process(&window).unwrap();
        let cfg = ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() };
        let mut pr =
            ParallelReasoner::new(&syms, &program, Some(&analysis.inpre), partitioner, cfg)
                .unwrap();
        let par = pr.process(&window).unwrap();
        let acc = crate::accuracy::window_accuracy(
            &syms,
            &base.answers,
            &par.answers,
            &crate::accuracy::Projection::All,
        );
        assert_eq!(acc, 1.0, "atom-level partitioning must preserve program P's answers");
    }
}
