//! Run-time window partitioning: Algorithm 1 (plan-driven) and the random
//! k-way baseline of \[12\] used in the evaluation as `PR_Ran_k`.

use crate::config::UnknownPredicate;
use crate::plan::PartitioningPlan;
use asp_core::FastMap;
use sr_rdf::{Node, Triple};
use sr_stream::{Pcg32, Window};
use std::sync::Arc;

/// A strategy splitting windows into sub-windows.
///
/// [`Partitioner::route`] is the one method a partitioner implements: it
/// records the split as item indices, so the reasoning path borrows the
/// window instead of copying its items. [`Partitioner::partition`] is a
/// facade built from it for callers that want the sub-windows themselves.
pub trait Partitioner: Send + Sync {
    /// Number of partitions produced.
    fn partitions(&self) -> usize;
    /// Routes a window: exactly [`Partitioner::partitions`] lists of indices
    /// into `window.items`. List `i` always feeds the same reasoner,
    /// community `i`'s; an index appears in several lists when its item is
    /// duplicated.
    fn route(&self, window: &Window) -> Vec<Vec<u32>>;
    /// The sub-windows themselves: [`Partitioner::route`]'s lists with each
    /// index replaced by a clone of its item. No reasoner calls it.
    fn partition(&self, window: &Window) -> Vec<Vec<Triple>> {
        let gather =
            |idx: Vec<u32>| idx.iter().map(|&i| window.items[i as usize].clone()).collect();
        self.route(window).into_iter().map(gather).collect()
    }
    /// Content-based per-item routing, when the partitioner supports it:
    /// the partition indices `item` would land in (several under
    /// duplication), *independent of the window* the item arrives in. `None` means routing depends on window
    /// context (e.g. the window-id-seeded random baseline). When `Some`, the
    /// routes must agree exactly with [`Partitioner::route`].
    ///
    /// The routes are borrowed from the partitioner, so routing an item
    /// allocates nothing.
    ///
    /// The [`IncrementalReasoner`](crate::incremental::IncrementalReasoner)
    /// routes each window's delta through it to find the communities a
    /// slide touched; `None` makes every community dirty in every window.
    fn item_routes(&self, _item: &Triple) -> Option<&[u32]> {
        None
    }
}

/// The index of every item of `window`, which must hold fewer than 2^32.
fn indices(window: &Window) -> std::ops::Range<u32> {
    0..u32::try_from(window.items.len()).expect("a window holds fewer than 2^32 items")
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

    fn route(&self, window: &Window) -> Vec<Vec<u32>> {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); self.plan.communities];
        // group(W): classify items by predicate (Algorithm 1, line 3), in
        // first-appearance order. A predicate's text is looked up by its
        // address first, so its name is read once per distinct allocation;
        // the window is borrowed for the whole call, so no address is freed
        // and reused for other text meanwhile.
        let mut groups: Vec<(&str, Vec<u32>)> = Vec::new();
        let mut by_name: FastMap<&str, usize> = FastMap::default();
        let mut by_text: FastMap<*const u8, usize> = FastMap::default();
        for (i, item) in indices(window).zip(&window.items) {
            let text = match &item.p {
                Node::Iri(text) | Node::Literal(text) => Some(Arc::as_ptr(text).cast::<u8>()),
                Node::Int(_) => None,
            };
            let g = match text.and_then(|t| by_text.get(&t)) {
                Some(&g) => g,
                None => {
                    let name = item.predicate_name();
                    let g = *by_name.entry(name).or_insert_with(|| {
                        groups.push((name, Vec::new()));
                        groups.len() - 1
                    });
                    if let Some(t) = text {
                        by_text.insert(t, g);
                    }
                    g
                }
            };
            groups[g].1.push(i);
        }
        // findCommunities + add group into the proper partitions (lines 4-9).
        for (name, idx) in groups {
            for &c in self.plan.communities_of(name).unwrap_or(&[0]) {
                parts[c as usize].extend_from_slice(&idx);
            }
        }
        parts
    }

    fn item_routes(&self, item: &Triple) -> Option<&[u32]> {
        // Routing is by predicate, so it never depends on the window: the
        // exact per-item form of `route` above, borrowed from the plan.
        Some(self.plan.communities_of(item.predicate_name()).unwrap_or(&[0]))
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

    fn route(&self, window: &Window) -> Vec<Vec<u32>> {
        let mut rng = Pcg32::seed(self.seed ^ window.id.wrapping_mul(0x9E3779B97F4A7C15));
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); self.k];
        for i in indices(window) {
            parts[rng.below(self.k as u64) as usize].push(i);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shared_and_equal_predicate_texts_form_one_group() {
        let shared = Node::iri("http://t#a");
        let item = |s: i64, p: &Node| Triple::new(Node::Int(s), p.clone(), Node::Int(1));
        let w = Window::new(
            7,
            vec![
                item(0, &shared),
                item(1, &Node::iri("b")),
                item(2, &Node::iri("http://u#a")),
                item(3, &shared),
            ],
        );
        let parts = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0).partition(&w);
        let subjects: Vec<i64> = parts[0].iter().map(|t| t.s.as_int().unwrap()).collect();
        assert_eq!(subjects, [0, 2, 3]);
        assert_eq!(parts[1], [w.items[1].clone()]);
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

    /// `partition` is `route` with each index replaced by its item, for
    /// both partitioners: a duplicated predicate lands in both communities,
    /// an unknown one in community 0, and the random split places every
    /// item once.
    #[test]
    fn route_and_partition_agree_item_for_item() {
        let w = window(&["a", "b", "dup", "mystery", "a", "dup"]);
        let plan = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        assert_eq!(plan.route(&w), [vec![0, 4, 2, 5, 3], vec![1, 2, 5]]);
        let random = RandomPartitioner::new(3, 42);
        let mut placed = random.route(&w).concat();
        placed.sort_unstable();
        assert_eq!(placed, [0, 1, 2, 3, 4, 5]);
        for p in [&plan as &dyn Partitioner, &random] {
            let routes = p.route(&w);
            assert_eq!(routes.len(), p.partitions());
            let gathered: Vec<Vec<Triple>> = routes
                .iter()
                .map(|idx| idx.iter().map(|&i| w.items[i as usize].clone()).collect())
                .collect();
            assert_eq!(p.partition(&w), gathered);
        }
    }

    #[test]
    fn item_routes_agree_with_partition() {
        let p = PlanPartitioner::new(plan2(), UnknownPredicate::Partition0);
        let w = window(&["a", "b", "dup", "mystery"]);
        let parts = p.partition(&w);
        let mut routed: Vec<Vec<Triple>> = vec![Vec::new(); p.partitions()];
        for item in &w.items {
            for &r in p.item_routes(item).expect("plan routing is content-based") {
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
