//! Answer sets (stable models) and projections over them.
//!
//! **The atom order.** An answer set keeps its atoms sorted by one total
//! order: predicate name, then polarity (`p` before `-p`), then arguments
//! left to right with int < const < func, integers by value, constants by
//! name, function terms by name then arguments, and a shorter argument list
//! before any longer one it is a prefix of. Names compare as strings, so
//! the order does not depend on interning order.
//!
//! **How it is computed.** [`AnswerSet::new`], [`AnswerSet::union`] and
//! [`AnswerSet::union_many`] resolve each distinct symbol of their input
//! once, under one lock, and rank the symbols by name. Every atom then
//! becomes a short key of `u64` words (`OrderKeys`) whose lexicographic
//! order is the atom order, so sorting and merging compare integers only —
//! no symbol lookups and no string comparisons per comparison.

use crate::atom::{GroundAtom, Predicate};
use crate::symbol::{FastMap, FastSet, Sym, Symbols};
use crate::term::GroundTerm;
use std::fmt;

/// One answer set: a set of ground atoms, stored sorted (see the module
/// docs) for deterministic display and linear-time unions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerSet {
    atoms: Vec<GroundAtom>,
}

impl AnswerSet {
    /// Builds an answer set, sorting and deduplicating the atoms in the
    /// answer-set order (see the module docs).
    pub fn new(mut atoms: Vec<GroundAtom>, syms: &Symbols) -> Self {
        let keys = OrderKeys::new(&atoms, syms);
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        // Equal keys mean identical atoms, so an unstable sort is exact.
        order.sort_unstable_by(|&a, &b| keys.key(a as usize).cmp(keys.key(b as usize)));
        drop(keys);
        permute(&mut atoms, &mut order);
        atoms.dedup();
        AnswerSet { atoms }
    }

    /// The atoms, sorted.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when the answer set is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Membership test (linear scan is fine: answer sets are compared via
    /// hash sets in the accuracy module; this is for tests and examples).
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.atoms.iter().any(|a| a == atom)
    }

    /// Restricts the answer set to atoms whose predicate satisfies `keep`.
    pub fn project(&self, syms: &Symbols, keep: impl Fn(&Predicate) -> bool) -> AnswerSet {
        AnswerSet::new(self.atoms.iter().filter(|a| keep(&a.predicate())).cloned().collect(), syms)
    }

    /// Restricts the answer set to the given predicates.
    pub fn project_to(&self, syms: &Symbols, preds: &FastSet<Predicate>) -> AnswerSet {
        self.project(syms, |p| preds.contains(p))
    }

    /// Union of two answer sets (used by the combining handler).
    ///
    /// Both sides are already sorted, so this is a linear merge over the
    /// same integer keys [`AnswerSet::new`] sorts by, rather than a re-sort —
    /// the combining handler unions window-sized sets on the critical path.
    pub fn union(&self, other: &AnswerSet, syms: &Symbols) -> AnswerSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let keys = OrderKeys::new(self.atoms.iter().chain(&other.atoms), syms);
        let n = self.len();
        let mut atoms = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.atoms.len() && j < other.atoms.len() {
            match keys.key(i).cmp(keys.key(n + j)) {
                std::cmp::Ordering::Less => {
                    atoms.push(self.atoms[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    atoms.push(other.atoms[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    atoms.push(self.atoms[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        atoms.extend_from_slice(&self.atoms[i..]);
        atoms.extend_from_slice(&other.atoms[j..]);
        AnswerSet { atoms }
    }

    /// Union of many answer sets in one k-way merge — the combining
    /// handler's fast path when every partition has a single answer set.
    ///
    /// Equivalent to folding [`AnswerSet::union`] pairwise (the
    /// pairwise-fold equivalence tests pin this down), over the same integer
    /// keys.
    pub fn union_many(syms: &Symbols, sets: &[&AnswerSet]) -> AnswerSet {
        if sets.is_empty() {
            return AnswerSet::default();
        }
        if sets.len() == 1 {
            return sets[0].clone();
        }
        let keys = OrderKeys::new(sets.iter().flat_map(|s| &s.atoms), syms);
        // Set i's atoms are keys `starts[i]..ends[i]`; `heads[i]` is its
        // next unmerged one.
        let mut starts = Vec::with_capacity(sets.len());
        let mut ends = Vec::with_capacity(sets.len());
        let mut offset = 0;
        for s in sets {
            starts.push(offset);
            offset += s.len();
            ends.push(offset);
        }
        let mut heads = starts.clone();
        let mut atoms = Vec::with_capacity(offset);
        loop {
            // Linear minimum over the k heads: k is the partition count,
            // which is small; a heap would cost more than it saves.
            let mut best: Option<usize> = None;
            for i in 0..sets.len() {
                if heads[i] < ends[i]
                    && best.is_none_or(|b| keys.key(heads[i]) < keys.key(heads[b]))
                {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            let min = keys.key(heads[b]);
            atoms.push(sets[b].atoms[heads[b] - starts[b]].clone());
            // Advancing every head equal to the minimum deduplicates.
            for (head, &end) in heads.iter_mut().zip(&ends) {
                while *head < end && keys.key(*head) == min {
                    *head += 1;
                }
            }
        }
        AnswerSet { atoms }
    }

    /// `|self ∩ other|` — computed with a hash set over the smaller side.
    pub fn intersection_size(&self, other: &AnswerSet) -> usize {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        let set: FastSet<&GroundAtom> = small.atoms.iter().collect();
        large.atoms.iter().filter(|a| set.contains(a)).count()
    }

    /// Renders `{a. b. c.}`-style output.
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> AnswerSetDisplay<'a> {
        AnswerSetDisplay { ans: self, syms }
    }
}

/// Reorders `items` in place, cycle by cycle, so that `items[k]` becomes
/// the old `items[order[k]]`; `order` is consumed as the visited marks.
fn permute<T>(items: &mut [T], order: &mut [u32]) {
    for start in 0..items.len() {
        let mut k = start;
        while order[k] as usize != k {
            let src = order[k] as usize;
            order[k] = k as u32;
            if src == start {
                break;
            }
            items.swap(k, src);
            k = src;
        }
    }
}

/// Key-word tags of the three term kinds, in the order the kinds sort.
/// The low 32 bits of a `CONST`/`FUNC` word hold the symbol's rank; an
/// `INT` word is followed by the integer, sign bit flipped so it orders
/// as unsigned. [`FUNC_END`] closes a function term's arguments and sorts
/// below every tag, so `f(1)` comes before `f(1,2)`.
const INT: u64 = 1 << 32;
const CONST: u64 = 2 << 32;
const FUNC: u64 = 3 << 32;
const FUNC_END: u64 = 0;

/// Integer sort keys for a batch of atoms: comparing two atoms' keys as
/// `u64` slices (lexicographically, a prefix first) gives their answer-set
/// order, and equal keys mean equal atoms.
///
/// A key is the word `rank(predicate) << 1 | strong_neg` followed by each
/// argument's words (see [`INT`]). Ranks number the batch's distinct
/// symbols in name order, so each symbol is resolved once per batch.
struct OrderKeys {
    words: Vec<u64>,
    /// Atom `i`'s key is `words[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
}

impl OrderKeys {
    fn new<'a>(atoms: impl IntoIterator<Item = &'a GroundAtom> + Clone, syms: &Symbols) -> Self {
        // Calls `f` on every symbol of `t`; returns `t`'s key length.
        fn visit(t: &GroundTerm, f: &mut impl FnMut(Sym)) -> usize {
            match t {
                GroundTerm::Int(_) => 2,
                GroundTerm::Const(s) => {
                    f(*s);
                    1
                }
                GroundTerm::Func(s, args) => {
                    f(*s);
                    2 + args.iter().map(|a| visit(a, f)).sum::<usize>()
                }
            }
        }
        fn encode(t: &GroundTerm, rank: &FastMap<Sym, u32>, out: &mut Vec<u64>) {
            match t {
                GroundTerm::Int(i) => out.extend([INT, (*i as u64) ^ (1 << 63)]),
                GroundTerm::Const(s) => out.push(CONST | u64::from(rank[s])),
                GroundTerm::Func(s, args) => {
                    out.push(FUNC | u64::from(rank[s]));
                    args.iter().for_each(|a| encode(a, rank, out));
                    out.push(FUNC_END);
                }
            }
        }

        let mut rank: FastMap<Sym, u32> = FastMap::default();
        let mut distinct: Vec<Sym> = Vec::new();
        let mut atom_count = 0;
        let mut word_count = 0;
        for atom in atoms.clone() {
            let mut note = |s: Sym| {
                rank.entry(s).or_insert_with(|| {
                    distinct.push(s);
                    0
                });
            };
            note(atom.pred);
            word_count += 1 + atom.args.iter().map(|a| visit(a, &mut note)).sum::<usize>();
            atom_count += 1;
        }
        syms.sort_by_name(&mut distinct);
        for (r, s) in distinct.iter().enumerate() {
            rank.insert(*s, r as u32);
        }

        let mut words = Vec::with_capacity(word_count);
        let mut bounds = Vec::with_capacity(atom_count + 1);
        bounds.push(0);
        for atom in atoms {
            words.push((u64::from(rank[&atom.pred]) << 1) | u64::from(atom.strong_neg));
            atom.args.iter().for_each(|a| encode(a, &rank, &mut words));
            bounds.push(u32::try_from(words.len()).expect("answer set too large to order"));
        }
        OrderKeys { words, bounds }
    }

    /// Number of atoms keyed.
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn key(&self, i: usize) -> &[u64] {
        &self.words[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// Structural comparison of two ground atoms in the answer-set order,
/// resolving each symbol at most once through `cache`. The order's
/// definition, written out term by term: the test oracle [`OrderKeys`] must
/// agree with (and that itself coincides with `sort_key`'s string order on
/// names free of C0 control characters).
#[cfg(test)]
fn atom_cmp_cached(
    a: &GroundAtom,
    b: &GroundAtom,
    syms: &Symbols,
    cache: &mut FastMap<Sym, Box<str>>,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b {
        return Ordering::Equal;
    }
    fn name_cmp(s: Sym, t: Sym, syms: &Symbols, cache: &mut FastMap<Sym, Box<str>>) -> Ordering {
        if s == t {
            return Ordering::Equal;
        }
        cache.entry(s).or_insert_with(|| Box::from(&*syms.resolve(s)));
        cache.entry(t).or_insert_with(|| Box::from(&*syms.resolve(t)));
        cache[&s].cmp(&cache[&t])
    }
    fn term_cmp(
        x: &GroundTerm,
        y: &GroundTerm,
        syms: &Symbols,
        cache: &mut FastMap<Sym, Box<str>>,
    ) -> Ordering {
        // Tags mirror sort_key: int ('a') < const ('b') < func ('c').
        let tag = |t: &GroundTerm| match t {
            GroundTerm::Int(_) => 0u8,
            GroundTerm::Const(_) => 1,
            GroundTerm::Func(..) => 2,
        };
        match (x, y) {
            (GroundTerm::Int(i), GroundTerm::Int(j)) => i.cmp(j),
            (GroundTerm::Const(s), GroundTerm::Const(t)) => name_cmp(*s, *t, syms, cache),
            (GroundTerm::Func(f, fa), GroundTerm::Func(g, ga)) => name_cmp(*f, *g, syms, cache)
                .then_with(|| {
                    for (xa, ya) in fa.iter().zip(ga.iter()) {
                        let o = term_cmp(xa, ya, syms, cache);
                        if o != Ordering::Equal {
                            return o;
                        }
                    }
                    fa.len().cmp(&ga.len())
                }),
            _ => tag(x).cmp(&tag(y)),
        }
    }
    name_cmp(a.pred, b.pred, syms, cache).then_with(|| a.strong_neg.cmp(&b.strong_neg)).then_with(
        || {
            for (x, y) in a.args.iter().zip(b.args.iter()) {
                let o = term_cmp(x, y, syms, cache);
                if o != Ordering::Equal {
                    return o;
                }
            }
            a.args.len().cmp(&b.args.len())
        },
    )
}

/// Injective, name-based sort key for a ground atom. Equal keys imply equal
/// atoms (type tags disambiguate e.g. the integer `3` from a constant `"3"`),
/// so ordering by this key is deterministic across runs regardless of symbol
/// interning order. Test-only: it pins the historical key order the
/// structural comparator matches on control-character-free names.
#[cfg(test)]
fn sort_key(atom: &GroundAtom, syms: &Symbols, cache: &mut FastMap<Sym, Box<str>>) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(32);
    // Name first, polarity second: mirrors `ground_atom_cmp` so e.g. `-p`
    // still sorts before `q`.
    key.push_str(resolve_cached(atom.pred, syms, cache));
    key.push('\u{1f}');
    key.push(if atom.strong_neg { '-' } else { '+' });
    for arg in atom.args.iter() {
        key.push('\u{1f}');
        term_key(arg, syms, cache, &mut key);
    }
    return key;

    fn resolve_cached<'c>(
        s: Sym,
        syms: &Symbols,
        cache: &'c mut FastMap<Sym, Box<str>>,
    ) -> &'c str {
        cache.entry(s).or_insert_with(|| Box::from(&*syms.resolve(s)))
    }

    fn term_key(
        t: &GroundTerm,
        syms: &Symbols,
        cache: &mut FastMap<Sym, Box<str>>,
        out: &mut String,
    ) {
        match t {
            // Zero-padded fixed width keeps integer order lexicographic;
            // the leading tag keeps types apart ('a' < 'b' < 'c' mirrors
            // int < const < func of `ground_term_cmp`).
            GroundTerm::Int(i) => {
                let biased = (*i as i128) - (i64::MIN as i128); // non-negative
                let _ = write!(out, "a{biased:039}");
            }
            GroundTerm::Const(s) => {
                out.push('b');
                let resolved = resolve_cached(*s, syms, cache);
                out.push_str(resolved);
            }
            GroundTerm::Func(f, args) => {
                out.push('c');
                let resolved = resolve_cached(*f, syms, cache);
                out.push_str(resolved);
                for a in args.iter() {
                    out.push('\u{1e}');
                    term_key(a, syms, cache, out);
                }
                out.push('\u{1d}');
            }
        }
    }
}

/// Display adapter for [`AnswerSet`].
pub struct AnswerSetDisplay<'a> {
    ans: &'a AnswerSet,
    syms: &'a Symbols,
}

impl fmt::Display for AnswerSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.ans.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", a.display(self.syms))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ga(syms: &Symbols, name: &str, arg: &str) -> GroundAtom {
        GroundAtom::new(syms.intern(name), vec![GroundTerm::Const(syms.intern(arg))])
    }

    #[test]
    fn new_sorts_and_dedupes() {
        let syms = Symbols::new();
        let ans = AnswerSet::new(
            vec![ga(&syms, "b", "x"), ga(&syms, "a", "x"), ga(&syms, "b", "x")],
            &syms,
        );
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.display(&syms).to_string(), "{a(x) b(x)}");
    }

    #[test]
    fn intersection_size_counts_common_atoms() {
        let syms = Symbols::new();
        let a = AnswerSet::new(vec![ga(&syms, "p", "1"), ga(&syms, "q", "1")], &syms);
        let b = AnswerSet::new(vec![ga(&syms, "q", "1"), ga(&syms, "r", "1")], &syms);
        assert_eq!(a.intersection_size(&b), 1);
        assert_eq!(b.intersection_size(&a), 1);
        assert_eq!(a.intersection_size(&a), 2);
    }

    #[test]
    fn project_keeps_selected_predicates() {
        let syms = Symbols::new();
        let ans = AnswerSet::new(vec![ga(&syms, "keep", "1"), ga(&syms, "drop", "1")], &syms);
        let keep = syms.intern("keep");
        let projected = ans.project(&syms, |p| p.name == keep);
        assert_eq!(projected.len(), 1);
        assert!(projected.contains(&ga(&syms, "keep", "1")));
    }

    #[test]
    fn union_merges() {
        let syms = Symbols::new();
        let a = AnswerSet::new(vec![ga(&syms, "p", "1")], &syms);
        let b = AnswerSet::new(vec![ga(&syms, "q", "1"), ga(&syms, "p", "1")], &syms);
        let u = a.union(&b, &syms);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn structural_comparator_matches_sort_key_order() {
        // The structural oracle must agree with the historical string-key
        // order on names free of C0 characters; any disagreement with the
        // integer keys shows up as a mis-sorted or mis-deduplicated union.
        let syms = Symbols::new();
        let f = syms.intern("f");
        let mixed = |name: &str, args: Vec<GroundTerm>| GroundAtom::new(syms.intern(name), args);
        let atoms = vec![
            mixed("p", vec![GroundTerm::Int(-3)]),
            mixed("p", vec![GroundTerm::Int(20)]),
            mixed("p", vec![GroundTerm::Const(syms.intern("20"))]),
            mixed("p", vec![GroundTerm::Int(1), GroundTerm::Int(2)]),
            mixed("p", vec![GroundTerm::Func(f, Box::new([GroundTerm::Int(1)]))]),
            mixed(
                "p",
                vec![GroundTerm::Func(f, Box::new([GroundTerm::Int(1), GroundTerm::Int(3)]))],
            ),
            mixed("pq", vec![GroundTerm::Int(0)]),
            GroundAtom { strong_neg: true, ..mixed("p", vec![GroundTerm::Int(20)]) },
        ];
        let mut cache = FastMap::default();
        let sorted_by_key = {
            let mut v = atoms.clone();
            v.sort_by_cached_key(|a| sort_key(a, &syms, &mut cache));
            v
        };
        let mut cache2 = FastMap::default();
        let sorted_structurally = {
            let mut v = atoms.clone();
            v.sort_by(|a, b| atom_cmp_cached(a, b, &syms, &mut cache2));
            v
        };
        assert_eq!(sorted_by_key, sorted_structurally, "total orders must agree");
        // And through the public API: unions of slices must equal the fold.
        let a = AnswerSet::new(atoms[..5].to_vec(), &syms);
        let b = AnswerSet::new(atoms[3..].to_vec(), &syms);
        let c = AnswerSet::new(vec![atoms[0].clone(), atoms[7].clone()], &syms);
        let many = AnswerSet::union_many(&syms, &[&a, &b, &c]);
        let folded = a.union(&b, &syms).union(&c, &syms);
        assert_eq!(many, folded);
    }

    #[test]
    fn union_many_matches_pairwise_fold() {
        let syms = Symbols::new();
        let sets = [
            AnswerSet::new(vec![ga(&syms, "p", "x"), ga(&syms, "q", "y")], &syms),
            AnswerSet::new(vec![ga(&syms, "q", "y"), ga(&syms, "a", "z")], &syms),
            AnswerSet::new(vec![], &syms),
            AnswerSet::new(vec![ga(&syms, "p", "w"), ga(&syms, "p", "x")], &syms),
        ];
        let refs: Vec<&AnswerSet> = sets.iter().collect();
        let many = AnswerSet::union_many(&syms, &refs);
        let folded = sets.iter().fold(AnswerSet::default(), |acc, s| acc.union(s, &syms));
        assert_eq!(many, folded, "k-way merge must equal the pairwise fold byte for byte");
        assert_eq!(many.display(&syms).to_string(), folded.display(&syms).to_string());
        assert!(AnswerSet::union_many(&syms, &[]).is_empty());
        assert_eq!(AnswerSet::union_many(&syms, &refs[..1]), sets[0]);
    }

    /// A ground term over [`NAMES`], before interning.
    #[derive(Clone, Debug)]
    enum TermSpec {
        Int(i64),
        Const(usize),
        Func(usize, Vec<TermSpec>),
    }

    /// Names that share prefixes, hold C0 characters (below the `\u{1f}`
    /// separators of `sort_key`) or are empty.
    const NAMES: [&str; 9] = ["a", "ab", "a\u{1}", "a\u{1f}b", "b", "", "\u{0}", "ab\u{2}", "p"];

    fn term_spec() -> impl Strategy<Value = TermSpec> {
        let int = prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(i64::MIN + 1),
            Just(0i64),
            -3i64..3,
            any::<i64>(),
        ];
        let leaf =
            prop_oneof![int.prop_map(TermSpec::Int), (0..NAMES.len()).prop_map(TermSpec::Const)];
        leaf.prop_recursive(3, 12, 3, |inner| {
            (0..NAMES.len(), prop::collection::vec(inner, 0..3))
                .prop_map(|(f, args)| TermSpec::Func(f, args))
        })
    }

    /// `(name, strong negation, arguments)` of arity 0–3.
    type AtomSpec = (usize, bool, Vec<TermSpec>);

    fn atom_specs() -> impl Strategy<Value = Vec<AtomSpec>> {
        let atom = (0..NAMES.len(), any::<bool>(), prop::collection::vec(term_spec(), 0..4));
        // Append a prefix of the atoms again, so duplicates are common.
        (prop::collection::vec(atom, 0..40), 0usize..12).prop_map(|(mut atoms, dups)| {
            atoms.extend_from_within(..dups.min(atoms.len()));
            atoms
        })
    }

    fn build(syms: &Symbols, specs: &[AtomSpec]) -> Vec<GroundAtom> {
        fn term(syms: &Symbols, t: &TermSpec) -> GroundTerm {
            match t {
                TermSpec::Int(i) => GroundTerm::Int(*i),
                TermSpec::Const(c) => GroundTerm::Const(syms.intern(NAMES[*c])),
                TermSpec::Func(f, args) => GroundTerm::Func(
                    syms.intern(NAMES[*f]),
                    args.iter().map(|a| term(syms, a)).collect(),
                ),
            }
        }
        specs
            .iter()
            .map(|(p, neg, args)| GroundAtom {
                pred: syms.intern(NAMES[*p]),
                args: args.iter().map(|a| term(syms, a)).collect(),
                strong_neg: *neg,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn new_equals_the_structural_sort_plus_dedup(specs in atom_specs()) {
            // Intern in reverse so symbol ids disagree with name order.
            let syms = Symbols::new();
            for name in NAMES.iter().rev() {
                syms.intern(name);
            }
            let atoms = build(&syms, &specs);
            let mut oracle = atoms.clone();
            let mut cache = FastMap::default();
            oracle.sort_by(|a, b| atom_cmp_cached(a, b, &syms, &mut cache));
            oracle.dedup();
            prop_assert_eq!(AnswerSet::new(atoms, &syms), AnswerSet { atoms: oracle });
        }

        #[test]
        fn union_many_equals_the_pairwise_union_fold(
            specs in atom_specs(),
            cuts in prop::collection::vec(0usize..50, 0..5),
        ) {
            let syms = Symbols::new();
            let atoms = build(&syms, &specs);
            // Overlapping slices of one pool, so the sets share atoms.
            let sets: Vec<AnswerSet> = cuts
                .iter()
                .map(|&c| {
                    let lo = c.min(atoms.len());
                    let hi = (lo + 15).min(atoms.len());
                    AnswerSet::new(atoms[lo / 2..hi].to_vec(), &syms)
                })
                .collect();
            let refs: Vec<&AnswerSet> = sets.iter().collect();
            let folded = sets.iter().fold(AnswerSet::default(), |acc, s| acc.union(s, &syms));
            prop_assert_eq!(AnswerSet::union_many(&syms, &refs), folded.clone());
            let all: Vec<GroundAtom> = sets.iter().flat_map(|s| s.atoms.clone()).collect();
            prop_assert_eq!(folded, AnswerSet::new(all, &syms));
        }
    }
}
