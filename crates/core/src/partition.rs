//! Run-time window partitioning: Algorithm 1 (plan-driven) and the random
//! k-way baseline of \[12\] used in the evaluation as `PR_Ran_k`.

use crate::config::UnknownPredicate;
use crate::plan::PartitioningPlan;
use asp_core::FastMap;
use sr_rdf::Triple;
use sr_stream::{Pcg32, Window};

/// A strategy splitting windows into sub-windows.
pub trait Partitioner: Send + Sync {
    /// Number of partitions produced.
    fn partitions(&self) -> usize;
    /// Splits a window into exactly [`Partitioner::partitions`] vectors;
    /// vector `i` always feeds the same reasoner, community `i`'s.
    fn partition(&self, window: &Window) -> Vec<Vec<Triple>>;
    /// Content-based per-item routing, when the partitioner supports it:
    /// the partition indices `item` would land in (several under
    /// duplication), *independent of the window* the item arrives in. `None` means routing depends on window
    /// context (e.g. the window-id-seeded random baseline). When `Some`, the
    /// routes must agree exactly with [`Partitioner::partition`].
    ///
    /// The [`IncrementalReasoner`](crate::incremental::IncrementalReasoner)
    /// routes each window's delta through it to find the communities a
    /// slide touched; `None` makes every community dirty in every window.
    fn item_routes(&self, _item: &Triple) -> Option<Vec<u32>> {
        None
    }
}

/// Algorithm 1: group items by predicate, route each group to the
/// communities given by the partitioning plan. Items whose predicate the
/// plan does not name go to partition 0 (they cannot fire any rule).
#[derive(Clone, Debug)]
pub struct PlanPartitioner {
    plan: PartitioningPlan,
}

impl PlanPartitioner {
    /// Builds the handler from a validated plan. [`UnknownPredicate`] has
    /// one value; the parameter stays for the benchmark's measured surface.
    pub fn new(plan: PartitioningPlan, _unknown: UnknownPredicate) -> Self {
        PlanPartitioner { plan }
    }

    /// The plan in use.
    pub fn plan(&self) -> &PartitioningPlan {
        &self.plan
    }
}

impl Partitioner for PlanPartitioner {
    fn partitions(&self) -> usize {
        self.plan.communities
    }

    fn partition(&self, window: &Window) -> Vec<Vec<Triple>> {
        let mut parts: Vec<Vec<Triple>> = vec![Vec::new(); self.plan.communities];
        // group(W): classify items by predicate (Algorithm 1, line 3).
        let mut groups: FastMap<&str, Vec<&Triple>> = FastMap::default();
        let mut order: Vec<&str> = Vec::new();
        for item in &window.items {
            let name = item.predicate_name();
            groups
                .entry(name)
                .or_insert_with(|| {
                    order.push(name);
                    Vec::new()
                })
                .push(item);
        }
        // findCommunities + add group into the proper partitions (lines 4-9).
        for name in order {
            let items = &groups[name];
            for &c in self.plan.communities_of(name).unwrap_or(&[0]) {
                parts[c as usize].extend(items.iter().map(|t| (*t).clone()));
            }
        }
        parts
    }

    fn item_routes(&self, item: &Triple) -> Option<Vec<u32>> {
        // Routing is by predicate, so it never depends on the window: the
        // exact per-item form of `partition` above.
        Some(self.plan.communities_of(item.predicate_name()).unwrap_or(&[0]).to_vec())
    }
}

/// The random k-way split of \[12\]: each item goes to a uniformly random
/// partition. Deterministic per `(seed, window id)` so experiments are
/// reproducible.
#[derive(Clone, Debug)]
pub struct RandomPartitioner {
    k: usize,
    seed: u64,
}

impl RandomPartitioner {
    /// A `k`-way random partitioner.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        RandomPartitioner { k, seed }
    }
}

impl Partitioner for RandomPartitioner {
    fn partitions(&self) -> usize {
        self.k
    }

    fn partition(&self, window: &Window) -> Vec<Vec<Triple>> {
        let mut rng = Pcg32::seed(self.seed ^ window.id.wrapping_mul(0x9E3779B97F4A7C15));
        let mut parts: Vec<Vec<Triple>> = vec![Vec::new(); self.k];
        for item in &window.items {
            parts[rng.below(self.k as u64) as usize].push(item.clone());
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_rdf::Node;

    fn window(preds: &[&str]) -> Window {
        let items = preds
            .iter()
            .enumerate()
            .map(|(i, p)| Triple::new(Node::Int(i as i64), Node::iri(p), Node::Int(1)))
            .collect();
        Window::new(7, items)
    }

    fn plan2() -> PartitioningPlan {
        let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
        membership.insert("a".into(), vec![0]);
        membership.insert("b".into(), vec![1]);
        membership.insert("dup".into(), vec![0, 1]);
        PartitioningPlan { communities: 2, membership }
    }

    #[test]
    fn plan_partitioner_routes_groups() {
        let p = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let parts = p.partition(&window(&["a", "b", "a"]));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
    }

    #[test]
    fn duplicated_predicates_land_in_both() {
        let p = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let parts = p.partition(&window(&["dup", "a"]));
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1][0].predicate_name(), "dup");
    }

    #[test]
    fn unknown_predicate_policies() {
        let w = window(&["mystery"]);
        let p0 = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let parts = p0.partition(&w);
        assert_eq!(parts[0].len(), 1);
        assert!(parts[1].is_empty());
    }

    #[test]
    fn every_item_lands_somewhere_with_default_policy() {
        let p = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let w = window(&["a", "b", "dup", "mystery", "a"]);
        let parts = p.partition(&w);
        let total: usize = parts.iter().map(Vec::len).sum();
        // dup counted twice (duplication), others once.
        assert_eq!(total, w.len() + 1);
    }

    #[test]
    fn item_routes_agree_with_partition() {
        let p = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let w = window(&["a", "b", "dup", "mystery"]);
        let parts = p.partition(&w);
        let mut routed: Vec<Vec<Triple>> = vec![Vec::new(); p.partitions()];
        for item in &w.items {
            for r in p.item_routes(item).expect("plan routing is content-based") {
                routed[r as usize].push(item.clone());
            }
        }
        for (i, part) in parts.iter().enumerate() {
            let mut a = part.clone();
            let mut b = routed[i].clone();
            let key = |t: &Triple| format!("{t}");
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "partition {i} diverged");
        }
    }

    #[test]
    fn random_partitioner_has_no_content_routing() {
        let p = RandomPartitioner::new(3, 42);
        let w = window(&["a"]);
        assert!(p.item_routes(&w.items[0]).is_none());
    }

    #[test]
    fn random_partitioner_covers_all_items_exactly_once() {
        let p = RandomPartitioner::new(3, 42);
        let w = window(&["a"; 100]);
        let parts = p.partition(&w);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
        assert!(parts.iter().all(|part| !part.is_empty()), "100 items spread over 3 parts");
    }

    #[test]
    fn random_partitioner_is_deterministic_per_window() {
        let p = RandomPartitioner::new(4, 1);
        let w = window(&["a"; 50]);
        assert_eq!(p.partition(&w), p.partition(&w));
        let w2 = Window::new(8, w.items.clone());
        assert_ne!(p.partition(&w), p.partition(&w2), "different window ids reshuffle");
    }
}
