//! Cheap per-predicate relation statistics feeding the cost-based join
//! planner ([`crate::planner`]).
//!
//! [`RelationStats`] tracks, per predicate, the tuple cardinality and the
//! number of distinct values at every argument position. Both are rebuilt
//! in one pass over a fact window ([`RelationStats::rebase`]). A generation
//! counter tells consumers when the numbers have drifted far enough that
//! plans built against older stats are worth rebuilding; the 2×-with-slack
//! hysteresis of `RelationStats::drifted` bounds the replan rate — a
//! relation growing 0 → N bumps the generation O(log N) times, and windows
//! with stable cardinalities never bump it at all.

use asp_core::{FastMap, GroundAtom, GroundTerm, Predicate};
use std::hash::{Hash, Hasher};

/// Additive slack in the drift test: relations this small never trigger a
/// replan on their own (the syntactic plan is fine for toy cardinalities,
/// and without slack every 0 → 1 window would bump the generation).
const DRIFT_SLACK: u64 = 8;

/// Per-predicate counters. `positions[i]` maps a value hash to its
/// multiplicity at argument position `i`, so `positions[i].len()` is the
/// distinct-value count the planner divides by.
#[derive(Debug, Default)]
struct PredStats {
    cardinality: u64,
    /// Cardinality at the last generation bump — the anchor of the drift
    /// hysteresis.
    planned: u64,
    positions: Vec<FastMap<u64, u32>>,
}

impl PredStats {
    fn with_arity(arity: usize) -> Self {
        PredStats { cardinality: 0, planned: 0, positions: vec![FastMap::default(); arity] }
    }
}

/// Hash identity of one ground term: collisions only make a distinct count
/// conservative (an undercount), which costs plan quality, never
/// correctness.
fn term_key(t: &GroundTerm) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Incrementally maintained cardinality + per-position distinct-value
/// statistics over a set of relations. See the module docs for the drift /
/// generation contract.
#[derive(Debug, Default)]
pub struct RelationStats {
    per_pred: FastMap<Predicate, PredStats>,
    generation: u64,
}

impl RelationStats {
    /// Empty statistics at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The 2×-with-slack hysteresis: true when `current` has moved far
    /// enough from `planned` that plans built against `planned` are stale.
    fn drifted(current: u64, planned: u64) -> bool {
        current > planned * 2 + DRIFT_SLACK || planned > current * 2 + DRIFT_SLACK
    }

    /// Rebuilds the counters from a full fact window in one pass (the
    /// scratch-grounding entry point). Each predicate's drift anchor is
    /// kept across rebases, so a sequence of windows with stable
    /// cardinalities bumps the generation at most once, however many times
    /// it is called.
    pub fn rebase(&mut self, facts: &[GroundAtom]) {
        for s in self.per_pred.values_mut() {
            s.cardinality = 0;
            for m in &mut s.positions {
                m.clear();
            }
        }
        for f in facts {
            let s = self
                .per_pred
                .entry(f.predicate())
                .or_insert_with(|| PredStats::with_arity(f.args.len()));
            s.cardinality += 1;
            for (pos, t) in f.args.iter().enumerate() {
                *s.positions[pos].entry(term_key(t)).or_insert(0) += 1;
            }
        }
        let mut drift = false;
        for s in self.per_pred.values_mut() {
            if Self::drifted(s.cardinality, s.planned) {
                s.planned = s.cardinality;
                drift = true;
            }
        }
        if drift {
            self.generation += 1;
        }
    }

    /// Monotone counter bumped whenever cardinalities drift past the
    /// hysteresis threshold; equal generations guarantee unchanged plans.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tuple count of `pred`; `None` when the predicate has never been
    /// observed (as opposed to observed and currently empty).
    pub fn cardinality(&self, pred: Predicate) -> Option<u64> {
        self.per_pred.get(&pred).map(|s| s.cardinality)
    }

    /// Distinct values at argument position `pos` of `pred` (0 when the
    /// predicate or position is unknown).
    pub fn distinct(&self, pred: Predicate, pos: usize) -> u64 {
        self.per_pred.get(&pred).and_then(|s| s.positions.get(pos)).map_or(0, |m| m.len() as u64)
    }

    /// Largest observed cardinality across all predicates — the
    /// pessimistic default for predicates the stats know nothing about.
    pub fn max_cardinality(&self) -> u64 {
        self.per_pred.values().map(|s| s.cardinality).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::Symbols;

    fn atom(syms: &Symbols, name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::new(syms.intern(name), args.iter().map(|&a| GroundTerm::Int(a)).collect())
    }

    #[test]
    fn insert_tracks_cardinality_and_distinct() {
        let syms = Symbols::new();
        let mut stats = RelationStats::new();
        let a = atom(&syms, "edge", &[1, 2]);
        let b = atom(&syms, "edge", &[1, 3]);
        stats.rebase(&[a.clone(), b]);
        assert_eq!(stats.cardinality(a.predicate()), Some(2));
        assert_eq!(stats.distinct(a.predicate(), 0), 1, "both tuples share position 0");
        assert_eq!(stats.distinct(a.predicate(), 1), 2);
        assert_eq!(stats.cardinality(atom(&syms, "other", &[1]).predicate()), None);
    }

    #[test]
    fn generation_bumps_are_logarithmic_in_growth() {
        let syms = Symbols::new();
        let mut stats = RelationStats::new();
        // A window growing by 50 facts at a time, from 50 to 10k.
        let facts: Vec<GroundAtom> = (0..10_000i64).map(|i| atom(&syms, "p", &[i])).collect();
        for n in (50..=facts.len()).step_by(50) {
            stats.rebase(&facts[..n]);
        }
        let gen = stats.generation();
        assert!(gen >= 1, "growing 0 -> 10k must drift at least once");
        assert!(gen <= 16, "hysteresis must bound bumps to O(log n), got {gen}");
    }

    #[test]
    fn small_relations_never_bump_the_generation() {
        let syms = Symbols::new();
        let mut stats = RelationStats::new();
        let facts: Vec<GroundAtom> = (0..8i64).map(|i| atom(&syms, "tiny", &[i])).collect();
        for n in 1..=facts.len() {
            stats.rebase(&facts[..n]);
        }
        assert_eq!(stats.generation(), 0, "within the slack no replan is worth it");
    }

    #[test]
    fn rebase_is_stable_across_identical_windows() {
        let syms = Symbols::new();
        let mut stats = RelationStats::new();
        let window: Vec<GroundAtom> =
            (0..100i64).map(|i| atom(&syms, "obs", &[i, i % 7])).collect();
        stats.rebase(&window);
        let gen = stats.generation();
        assert_eq!(gen, 1, "the first sizable window drifts from empty exactly once");
        for _ in 0..20 {
            stats.rebase(&window);
        }
        assert_eq!(stats.generation(), gen, "identical windows must not thrash the generation");
        assert_eq!(stats.cardinality(window[0].predicate()), Some(100));
        assert_eq!(stats.distinct(window[0].predicate(), 1), 7);
        // A window of a very different size drifts again — once.
        stats.rebase(&window[..4]);
        assert_eq!(stats.generation(), gen + 1);
    }
}
