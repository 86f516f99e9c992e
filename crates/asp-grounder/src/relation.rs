//! Extensional storage for the ground tuples of one predicate, with lazily
//! built binding-pattern indexes for the instantiation joins.
//!
//! **One copy per tuple.** A tuple's arguments are stored once, in
//! insertion order, inline in the tuple vector up to two terms (an
//! [`Args`]; every RDF fact and every atom of the paper's programs), and
//! its position is its id. Neither the membership test
//! nor the binding-pattern indexes copy values: each maps a 64-bit hash of
//! the (bound) values to a chain of tuple ids, and every hit is checked for
//! equality against the stored tuple, so a hash collision costs a comparison,
//! never a wrong answer. A chain is threaded through one `u32` per tuple, in
//! ascending id order, so an index allocates nothing per distinct key and a
//! probe yields its ids in ascending order — the order the proto rules, and
//! so CDCL's enumeration, depend on.

use asp_core::symbol::FastHasher;
use asp_core::{Args, FastMap, GroundTerm};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Chain terminator.
const END: u32 = u32::MAX;

/// Tuple ids chained per 64-bit key hash, each chain in ascending id order.
#[derive(Debug, Default)]
struct HashIndex {
    /// Bit `i` set: argument position `i` is part of the key.
    pattern: u64,
    /// Key hash → first and last id of its chain.
    chains: FastMap<u64, (u32, u32)>,
    /// `next[id]`: the id after `id` in its chain, or [`END`].
    next: Vec<u32>,
}

impl HashIndex {
    /// Appends `id` — larger than every id already indexed — to the chain
    /// of `hash`.
    fn push(&mut self, id: u32, hash: u64) {
        debug_assert_eq!(self.next.len(), id as usize, "ids are indexed in order");
        self.next.push(END);
        match self.chains.entry(hash) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.next[*last as usize] = id;
                *last = id;
            }
            Entry::Vacant(slot) => {
                slot.insert((id, id));
            }
        }
    }

    fn first(&self, hash: u64) -> u32 {
        self.chains.get(&hash).map_or(END, |&(first, _)| first)
    }
}

/// The values of `tuple` at the positions set in `pattern`.
fn bound(tuple: &[GroundTerm], pattern: u64) -> impl Iterator<Item = &GroundTerm> {
    tuple
        .iter()
        .enumerate()
        .filter(move |&(i, _)| i < 64 && (pattern >> i) & 1 == 1)
        .map(|(_, t)| t)
}

/// The 64-bit key hash of a value sequence.
fn key_hash<'a>(values: impl Iterator<Item = &'a GroundTerm>) -> u64 {
    #[cfg(test)]
    if tests::COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut hasher = FastHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// A set of ground tuples for one predicate, deduplicated, with
/// per-binding-pattern hash indexes (see the module docs).
///
/// A *binding pattern* is a bitmask over argument positions: bit `i` set
/// means position `i` is bound at lookup time. An index is built on the
/// first probe with its pattern and maintained on every insert after, so
/// repeated joins in the semi-naive fixpoint stay cheap.
#[derive(Debug, Default)]
pub(crate) struct Relation {
    tuples: Vec<Args>,
    /// Membership: chains keyed by the hash of the whole tuple.
    ids: HashIndex,
    /// One index per binding pattern probed so far (a handful at most).
    indexes: Vec<HashIndex>,
}

/// A cursor over the ids one probe matches, ascending. It borrows nothing,
/// so the caller may insert into the relation between steps; ids at or past
/// the probe's upper bound — every id inserted after it started — are never
/// yielded.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe {
    /// The index walked, or `None` for a range scan.
    index: Option<usize>,
    next: u32,
    lo: u32,
    hi: u32,
}

impl Relation {
    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The tuple with id `id`.
    #[inline]
    pub(crate) fn tuple(&self, id: u32) -> &[GroundTerm] {
        &self.tuples[id as usize]
    }

    /// All tuples in insertion (id) order.
    pub(crate) fn tuples(&self) -> &[Args] {
        &self.tuples
    }

    /// Consumes the relation, returning its tuples in insertion order.
    pub(crate) fn into_tuples(self) -> Vec<Args> {
        self.tuples
    }

    /// Inserts a tuple, taking ownership of it; returns its id if it was
    /// new.
    pub(crate) fn insert(&mut self, tuple: Args) -> Option<u32> {
        let hash = key_hash(tuple.iter());
        if self.find(hash, &tuple) {
            return None;
        }
        Some(self.push(hash, tuple))
    }

    /// Inserts a copy of `tuple` if it is new (which allocates only for
    /// more than two terms); returns its id if so.
    pub(crate) fn insert_slice(&mut self, tuple: &[GroundTerm]) -> Option<u32> {
        let hash = key_hash(tuple.iter());
        if self.find(hash, tuple) {
            return None;
        }
        Some(self.push(hash, tuple.into()))
    }

    /// Membership test.
    pub(crate) fn contains(&self, tuple: &[GroundTerm]) -> bool {
        self.find(key_hash(tuple.iter()), tuple)
    }

    fn find(&self, hash: u64, tuple: &[GroundTerm]) -> bool {
        let mut id = self.ids.first(hash);
        while id != END {
            if *self.tuples[id as usize] == *tuple {
                return true;
            }
            id = self.ids.next[id as usize];
        }
        false
    }

    fn push(&mut self, hash: u64, tuple: Args) -> u32 {
        let id = u32::try_from(self.tuples.len()).ok().filter(|&id| id != END);
        let id = id.expect("relation overflow");
        self.ids.push(id, hash);
        for index in &mut self.indexes {
            index.push(id, key_hash(bound(&tuple, index.pattern)));
        }
        self.tuples.push(tuple);
        id
    }

    /// Starts a probe for the tuples whose `pattern` positions equal `key`
    /// (in position order), restricted to ids in `[lo, hi)`; `pattern == 0`
    /// scans the range. Step it with [`Relation::advance`], passing the
    /// same `key`.
    pub(crate) fn probe(&mut self, pattern: u64, key: &[GroundTerm], lo: u32, hi: u32) -> Probe {
        if pattern == 0 {
            return Probe { index: None, next: lo, lo, hi };
        }
        let slot = match self.indexes.iter().position(|index| index.pattern == pattern) {
            Some(slot) => slot,
            None => {
                let mut index = HashIndex { pattern, ..HashIndex::default() };
                for (id, tuple) in self.tuples.iter().enumerate() {
                    index.push(id as u32, key_hash(bound(tuple, pattern)));
                }
                self.indexes.push(index);
                self.indexes.len() - 1
            }
        };
        let next = self.indexes[slot].first(key_hash(key.iter()));
        Probe { index: Some(slot), next, lo, hi }
    }

    /// The probe's next matching id, in ascending order.
    pub(crate) fn advance(&self, probe: &mut Probe, key: &[GroundTerm]) -> Option<u32> {
        let Some(slot) = probe.index else {
            let id = probe.next;
            probe.next = probe.next.saturating_add(1);
            return (id < probe.hi).then_some(id);
        };
        let index = &self.indexes[slot];
        while probe.next < probe.hi {
            let id = probe.next;
            probe.next = index.next[id as usize];
            if id >= probe.lo && bound(&self.tuples[id as usize], index.pattern).eq(key) {
                return Some(id);
            }
        }
        None
    }

    /// Every id [`Relation::probe`] matches, ascending.
    #[cfg(test)]
    fn lookup<'a>(
        &'a mut self,
        pattern: u64,
        key: &'a [GroundTerm],
        lo: u32,
        hi: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        let mut probe = self.probe(pattern, key, lo, hi);
        let this = &*self;
        std::iter::from_fn(move || this.advance(&mut probe, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::Symbols;
    use std::cell::Cell;

    thread_local! {
        /// Test-only hash hook: while set, every key hashes to 0, so every
        /// tuple and every probe key collides.
        pub(super) static COLLIDE: Cell<bool> = const { Cell::new(false) };
    }

    fn t(vals: &[i64]) -> Args {
        vals.iter().map(|&v| GroundTerm::Int(v)).collect()
    }

    fn ids(r: &mut Relation, pattern: u64, key: &[i64], lo: u32, hi: u32) -> Vec<u32> {
        let key = t(key);
        r.lookup(pattern, &key, lo, hi).collect()
    }

    #[test]
    fn insert_dedupes() {
        let mut r = Relation::default();
        assert_eq!(r.insert(t(&[1, 2])), Some(0));
        assert_eq!(r.insert(t(&[1, 2])), None);
        assert_eq!(r.insert_slice(&t(&[1, 2])), None);
        assert_eq!(r.insert_slice(&t(&[1, 3])), Some(1));
        assert_eq!(r.insert(t(&[1, 3])), None);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[9, 9])));
        assert_eq!(r.into_tuples(), vec![t(&[1, 2]), t(&[1, 3])]);
    }

    #[test]
    fn forced_hash_collisions_stay_exact() {
        COLLIDE.with(|c| c.set(true));
        let mut r = Relation::default();
        for row in [[1, 10], [2, 20], [1, 30], [3, 10]] {
            assert!(r.insert(t(&row)).is_some(), "{row:?} is new despite colliding");
        }
        assert_eq!(r.insert(t(&[2, 20])), None, "dedup compares values, not hashes");
        assert!(r.contains(&t(&[3, 10])));
        assert!(!r.contains(&t(&[3, 30])));
        assert_eq!(ids(&mut r, 0b01, &[1], 0, 4), vec![0, 2]);
        assert_eq!(ids(&mut r, 0b10, &[10], 0, 4), vec![0, 3]);
        assert_eq!(ids(&mut r, 0b11, &[3, 10], 0, 4), vec![3]);
        assert!(ids(&mut r, 0b01, &[7], 0, 4).is_empty());
        COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn pattern_lookup_finds_matches() {
        let mut r = Relation::default();
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 20]));
        r.insert(t(&[2, 30]));
        // pattern 0b01: first position bound.
        assert_eq!(ids(&mut r, 0b01, &[1], 0, 3), vec![0, 1]);
        assert_eq!(ids(&mut r, 0b01, &[2], 0, 3), vec![2]);
        assert!(ids(&mut r, 0b01, &[7], 0, 3).is_empty());
    }

    #[test]
    fn index_stays_fresh_after_inserts() {
        let mut r = Relation::default();
        r.insert(t(&[1, 10]));
        // Force index creation, then insert more.
        assert_eq!(ids(&mut r, 0b01, &[1], 0, 1), vec![0]);
        r.insert(t(&[1, 20]));
        r.insert(t(&[2, 20]));
        r.insert_slice(&t(&[1, 30]));
        assert_eq!(ids(&mut r, 0b01, &[1], 0, 4), vec![0, 1, 3]);
        assert_eq!(ids(&mut r, 0b10, &[20], 0, 4), vec![1, 2]);
    }

    #[test]
    fn range_restricted_probes_return_ascending_ids() {
        let mut r = Relation::default();
        for v in [10, 20, 30, 40, 50] {
            r.insert(t(&[1, v]));
        }
        r.insert(t(&[2, 60]));
        assert_eq!(ids(&mut r, 0b01, &[1], 1, 4), vec![1, 2, 3]);
        assert_eq!(ids(&mut r, 0b01, &[1], 3, 6), vec![3, 4]);
        assert_eq!(ids(&mut r, 0, &[], 1, 3), vec![1, 2]);
        assert!(ids(&mut r, 0b01, &[1], 5, 6).is_empty());
    }

    #[test]
    fn probes_ignore_tuples_inserted_mid_walk() {
        let mut r = Relation::default();
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 20]));
        let key = t(&[1]);
        let mut probe = r.probe(0b01, &key, 0, 2);
        assert_eq!(r.advance(&mut probe, &key), Some(0));
        r.insert(t(&[1, 30]));
        assert_eq!(r.advance(&mut probe, &key), Some(1));
        assert_eq!(r.advance(&mut probe, &key), None, "id 2 lies past the probe's bound");
    }

    #[test]
    fn second_position_pattern() {
        let syms = Symbols::new();
        let a = GroundTerm::Const(syms.intern("a"));
        let mut r = Relation::default();
        r.insert(vec![GroundTerm::Int(1), a.clone()].into());
        r.insert(vec![GroundTerm::Int(2), a.clone()].into());
        let key = [a];
        let hits: Vec<u32> = r.lookup(0b10, &key, 0, 2).collect();
        assert_eq!(hits, vec![0, 1]);
    }
}
