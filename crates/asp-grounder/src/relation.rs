//! Extensional storage for ground tuples per predicate, with lazily built
//! binding-pattern hash indexes for the instantiation joins.

use asp_core::{FastMap, GroundTerm};

/// A set of ground tuples for one predicate, deduplicated, with per-pattern
/// hash indexes.
///
/// A *binding pattern* is a bitmask over argument positions: bit `i` set means
/// position `i` is bound at lookup time. For each pattern the relation keeps a
/// map from the bound-positions key to the matching tuple indices; indexes are
/// created on first use and maintained incrementally on insert, so repeated
/// joins in the semi-naive fixpoint stay cheap.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: Vec<Box<[GroundTerm]>>,
    ids: FastMap<Box<[GroundTerm]>, u32>,
    indexes: FastMap<u64, FastMap<Box<[GroundTerm]>, Vec<u32>>>,
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple at `idx`.
    #[inline]
    pub fn tuple(&self, idx: u32) -> &[GroundTerm] {
        &self.tuples[idx as usize]
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Box<[GroundTerm]>] {
        &self.tuples
    }

    /// Consumes the relation, returning its tuples in insertion order.
    pub fn into_tuples(self) -> Vec<Box<[GroundTerm]>> {
        self.tuples
    }

    /// Inserts a tuple; returns its index if it was new.
    pub fn insert(&mut self, tuple: Box<[GroundTerm]>) -> Option<u32> {
        if self.ids.contains_key(&tuple) {
            return None;
        }
        let idx = u32::try_from(self.tuples.len()).expect("relation overflow");
        for (&pattern, index) in self.indexes.iter_mut() {
            let key = key_for(&tuple, pattern);
            index.entry(key).or_default().push(idx);
        }
        self.ids.insert(tuple.clone(), idx);
        self.tuples.push(tuple);
        Some(idx)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[GroundTerm]) -> bool {
        self.ids.contains_key(tuple)
    }

    /// Tuple indices matching `key` under `pattern`, restricted to indices in
    /// `[lo, hi)`. `pattern == 0` scans the whole range. The returned vector
    /// is in ascending index order.
    pub fn lookup(&mut self, pattern: u64, key: &[GroundTerm], lo: u32, hi: u32) -> Vec<u32> {
        if pattern == 0 {
            return (lo..hi).collect();
        }
        let index = self.index_for(pattern);
        match index.get(key) {
            Some(idxs) => idxs.iter().copied().filter(|&i| i >= lo && i < hi).collect(),
            None => Vec::new(),
        }
    }

    fn index_for(&mut self, pattern: u64) -> &FastMap<Box<[GroundTerm]>, Vec<u32>> {
        if !self.indexes.contains_key(&pattern) {
            let mut index: FastMap<Box<[GroundTerm]>, Vec<u32>> = FastMap::default();
            for (i, tuple) in self.tuples.iter().enumerate() {
                index.entry(key_for(tuple, pattern)).or_default().push(i as u32);
            }
            self.indexes.insert(pattern, index);
        }
        &self.indexes[&pattern]
    }
}

/// Extracts the bound-position values of `tuple` under `pattern`.
pub(crate) fn key_for(tuple: &[GroundTerm], pattern: u64) -> Box<[GroundTerm]> {
    tuple
        .iter()
        .enumerate()
        .filter(|(i, _)| pattern & (1 << i) != 0)
        .map(|(_, t)| t.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::Symbols;

    fn t(vals: &[i64]) -> Box<[GroundTerm]> {
        vals.iter().map(|&v| GroundTerm::Int(v)).collect()
    }

    #[test]
    fn insert_dedupes() {
        let mut r = Relation::new();
        assert_eq!(r.insert(t(&[1, 2])), Some(0));
        assert_eq!(r.insert(t(&[1, 2])), None);
        assert_eq!(r.insert(t(&[1, 3])), Some(1));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[9, 9])));
    }

    #[test]
    fn pattern_lookup_finds_matches() {
        let mut r = Relation::new();
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 20]));
        r.insert(t(&[2, 30]));
        // pattern 0b01: first position bound.
        let hits = r.lookup(0b01, &t(&[1]), 0, 3);
        assert_eq!(hits, vec![0, 1]);
        let hits = r.lookup(0b01, &t(&[2]), 0, 3);
        assert_eq!(hits, vec![2]);
        let hits = r.lookup(0b01, &t(&[7]), 0, 3);
        assert!(hits.is_empty());
    }

    #[test]
    fn index_stays_fresh_after_inserts() {
        let mut r = Relation::new();
        r.insert(t(&[1, 10]));
        // Force index creation, then insert more.
        assert_eq!(r.lookup(0b01, &t(&[1]), 0, 1).len(), 1);
        r.insert(t(&[1, 20]));
        assert_eq!(r.lookup(0b01, &t(&[1]), 0, 2), vec![0, 1]);
    }

    #[test]
    fn range_restriction_supports_semi_naive_deltas() {
        let mut r = Relation::new();
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 20]));
        r.insert(t(&[1, 30]));
        assert_eq!(r.lookup(0b01, &t(&[1]), 1, 3), vec![1, 2]);
        assert_eq!(r.lookup(0, &[], 1, 2), vec![1]);
    }

    #[test]
    fn second_position_pattern() {
        let syms = Symbols::new();
        let a = GroundTerm::Const(syms.intern("a"));
        let mut r = Relation::new();
        r.insert(vec![GroundTerm::Int(1), a.clone()].into());
        r.insert(vec![GroundTerm::Int(2), a.clone()].into());
        let hits = r.lookup(0b10, std::slice::from_ref(&a), 0, 2);
        assert_eq!(hits, vec![0, 1]);
    }
}
