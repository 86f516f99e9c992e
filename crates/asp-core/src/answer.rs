//! Answer sets (stable models) and projections over them.
//!
//! **The atom order.** An answer set keeps its atoms sorted by one total
//! order: predicate name, then polarity (`p` before `-p`), then arguments
//! left to right with int < const < func, integers by value, constants by
//! name, function terms by name then arguments, and a shorter argument list
//! before any longer one it is a prefix of. Names compare as strings, so
//! the order does not depend on interning order.
//!
//! **How it is computed.** The [`Symbols`] store keeps one rank per symbol
//! in name order and hands out a shared snapshot of it; a batch extends the
//! snapshot only when it holds a symbol interned since, so a window that
//! interns nothing compares no names. Every atom then becomes an integer
//! key whose order is the atom order, and sorting and merging compare keys
//! only. Almost every batch *packs*: its atoms have arity at most 2 over
//! constants and integers, and the snapshot's size and the batch's integer
//! span are small enough for one `u64` per atom — the predicate word
//! `rank << 1 | strong_neg`, then one field per argument slot, a missing
//! argument padded with 0. Any other batch (function terms, wider arity,
//! integers spread too far) is keyed by a variable-length word encoding
//! (`OrderKeys`) instead.

use crate::atom::{GroundAtom, Predicate};
#[cfg(test)]
use crate::symbol::{FastMap, Sym};
use crate::symbol::{FastSet, Symbols};
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
        // Equal keys mean identical atoms, so unstable sorts are exact.
        match Keys::new(&atoms, syms) {
            Keys::Packed(mut keyed) => {
                keyed.sort_unstable_by_key(|a| a.0);
                permute(&mut atoms, &mut keyed, |(_, i)| i);
            }
            Keys::Words(keys) => {
                let mut order: Vec<u32> = (0..atoms.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| keys.key(a as usize).cmp(keys.key(b as usize)));
                drop(keys);
                permute(&mut atoms, &mut order, |i| i);
            }
        }
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
    /// A filtered sorted set is still sorted and duplicate-free, so this
    /// needs no ordering and `_syms` goes unused.
    pub fn project(&self, _syms: &Symbols, keep: impl Fn(&Predicate) -> bool) -> AnswerSet {
        AnswerSet { atoms: self.atoms.iter().filter(|a| keep(&a.predicate())).cloned().collect() }
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
        let keys = Keys::new(self.atoms.iter().chain(&other.atoms), syms);
        let atoms = match &keys {
            Keys::Packed(k) => merge(&[self, other], |i| k[i].0),
            Keys::Words(k) => merge(&[self, other], |i| k.key(i)),
        };
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
        let keys = Keys::new(sets.iter().flat_map(|s| &s.atoms), syms);
        let atoms = match &keys {
            Keys::Packed(k) => merge(sets, |i| k[i].0),
            Keys::Words(k) => merge(sets, |i| k.key(i)),
        };
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

/// Merges sorted, duplicate-free `sets` into one, dropping duplicates;
/// `key(i)` is the key of the `i`-th atom of the sets laid end to end.
fn merge<K: Ord>(sets: &[&AnswerSet], key: impl Fn(usize) -> K) -> Vec<GroundAtom> {
    // Set i's atoms are keys `starts[i]..ends[i]`; `heads[i]` is its next
    // unmerged one.
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
        // Linear minimum over the k heads: k is the partition count, which
        // is small; a heap would cost more than it saves.
        let mut best: Option<(usize, K)> = None;
        for i in 0..sets.len() {
            if heads[i] < ends[i] {
                let k = key(heads[i]);
                if best.as_ref().is_none_or(|(_, min)| k < *min) {
                    best = Some((i, k));
                }
            }
        }
        let Some((b, min)) = best else { break };
        atoms.push(sets[b].atoms[heads[b] - starts[b]].clone());
        // Advancing every head equal to the minimum deduplicates.
        for (head, &end) in heads.iter_mut().zip(&ends) {
            while *head < end && key(*head) == min {
                *head += 1;
            }
        }
    }
    atoms
}

/// Reorders `items` in place, cycle by cycle, so that `items[k]` becomes
/// the old `items[*index(&mut order[k])]`; those indexes are consumed as
/// the visited marks.
fn permute<T, O>(items: &mut [T], order: &mut [O], index: impl Fn(&mut O) -> &mut u32) {
    for start in 0..items.len() {
        let mut k = start;
        while *index(&mut order[k]) as usize != k {
            let src = *index(&mut order[k]) as usize;
            *index(&mut order[k]) = k as u32;
            if src == start {
                break;
            }
            items.swap(k, src);
            k = src;
        }
    }
}

/// What one pass over a batch finds: whether every atom is flat (arity at
/// most 2, no function terms), how many symbols a rank snapshot must cover
/// to rank them all, and the least and greatest integer argument.
#[derive(Debug, PartialEq)]
struct Survey {
    flat: bool,
    covering: usize,
    ints: Option<(i64, i64)>,
}

fn survey<'a>(atoms: impl IntoIterator<Item = &'a GroundAtom>) -> Survey {
    fn max_sym(t: &GroundTerm) -> u32 {
        match t {
            GroundTerm::Int(_) => 0,
            GroundTerm::Const(s) => s.0,
            GroundTerm::Func(s, args) => args.iter().map(max_sym).fold(s.0, u32::max),
        }
    }
    let mut survey = Survey { flat: true, covering: 0, ints: None };
    for atom in atoms {
        survey.flat &= atom.args.len() <= 2;
        for arg in atom.args.iter() {
            match arg {
                GroundTerm::Int(i) => {
                    let (lo, hi) = survey.ints.get_or_insert((*i, *i));
                    (*lo, *hi) = ((*lo).min(*i), (*hi).max(*i));
                }
                GroundTerm::Const(_) => {}
                GroundTerm::Func(..) => survey.flat = false,
            }
        }
        let max = atom.args.iter().map(max_sym).fold(atom.pred.0, u32::max);
        survey.covering = survey.covering.max(max as usize + 1);
    }
    survey
}

/// How a batch of flat atoms packs into one `u64` key per atom: the
/// predicate word `rank << 1 | strong_neg` in the top bits, then one
/// `arg_bits`-wide field per argument slot. A field is 0 for a missing
/// argument, `1 + (i - int_min)` for an integer and `const_base + rank` for
/// a constant, so fields order as the atom order orders arguments, and
/// padding with 0 sorts `p(1)` before `p(1,2)` and both before `p(5)`.
#[derive(Clone, Copy)]
struct Packing {
    int_min: i64,
    const_base: u64,
    arg_bits: u32,
}

impl Packing {
    /// The packing of a flat batch whose integers span `ints`, under a rank
    /// snapshot of `ranked` symbols; `None` when a key would need more than
    /// 64 bits.
    fn fit(ints: Option<(i64, i64)>, ranked: usize) -> Option<Packing> {
        let bits = |x: u64| u64::BITS - x.leading_zeros();
        let (int_min, span) = match ints {
            Some((lo, hi)) => (lo, u64::try_from(i128::from(hi) - i128::from(lo)).ok()?),
            None => (0, 0),
        };
        // Integers take fields 1..=span + 1; constants follow.
        let const_base = span.checked_add(2)?;
        let arg_bits = bits(const_base.checked_add(ranked as u64)?);
        let pred_bits = bits(ranked as u64) + 1;
        (pred_bits + 2 * arg_bits <= u64::BITS).then_some(Packing { int_min, const_base, arg_bits })
    }

    fn key(self, atom: &GroundAtom, ranks: &[u32]) -> u64 {
        let mut key = (u64::from(ranks[atom.pred.0 as usize]) << 1) | u64::from(atom.strong_neg);
        for slot in 0..2 {
            let field = match atom.args.get(slot) {
                None => 0,
                Some(GroundTerm::Int(i)) => i.wrapping_sub(self.int_min) as u64 + 1,
                Some(GroundTerm::Const(s)) => self.const_base + u64::from(ranks[s.0 as usize]),
                Some(GroundTerm::Func(..)) => unreachable!("flat atoms hold no function terms"),
            };
            key = (key << self.arg_bits) | field;
        }
        key
    }
}

/// The keys of a batch of atoms: one packed word each when the batch packs
/// (see [`Packing`]), variable-length otherwise.
enum Keys {
    /// Each key beside its atom's index in the batch, so [`AnswerSet::new`]
    /// sorts the keys themselves rather than indexes into them.
    Packed(Vec<(u64, u32)>),
    Words(OrderKeys),
}

impl Keys {
    fn new<'a>(atoms: impl IntoIterator<Item = &'a GroundAtom> + Clone, syms: &Symbols) -> Self {
        let survey = survey(atoms.clone());
        let ranks = syms.name_ranks(survey.covering);
        match survey.flat.then(|| Packing::fit(survey.ints, ranks.len())).flatten() {
            Some(packing) => Keys::Packed(
                atoms.into_iter().zip(0..).map(|(a, i)| (packing.key(a, &ranks), i)).collect(),
            ),
            None => Keys::Words(OrderKeys::new(atoms, &ranks)),
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

/// Variable-length integer sort keys for a batch of atoms that does not
/// pack: comparing two atoms' keys as `u64` slices (lexicographically, a
/// prefix first) gives their answer-set order, and equal keys mean equal
/// atoms.
///
/// A key is the word `rank(predicate) << 1 | strong_neg` followed by each
/// argument's words (see [`INT`]), ranks taken from a snapshot of the
/// store's name order.
struct OrderKeys {
    words: Vec<u64>,
    /// Atom `i`'s key is `words[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
}

impl OrderKeys {
    fn new<'a>(atoms: impl IntoIterator<Item = &'a GroundAtom> + Clone, ranks: &[u32]) -> Self {
        fn len(t: &GroundTerm) -> usize {
            match t {
                GroundTerm::Int(_) => 2,
                GroundTerm::Const(_) => 1,
                GroundTerm::Func(_, args) => 2 + args.iter().map(len).sum::<usize>(),
            }
        }
        fn encode(t: &GroundTerm, ranks: &[u32], out: &mut Vec<u64>) {
            match t {
                GroundTerm::Int(i) => out.extend([INT, (*i as u64) ^ (1 << 63)]),
                GroundTerm::Const(s) => out.push(CONST | u64::from(ranks[s.0 as usize])),
                GroundTerm::Func(s, args) => {
                    out.push(FUNC | u64::from(ranks[s.0 as usize]));
                    args.iter().for_each(|a| encode(a, ranks, out));
                    out.push(FUNC_END);
                }
            }
        }

        let (mut atom_count, mut word_count) = (0, 0);
        for atom in atoms.clone() {
            word_count += 1 + atom.args.iter().map(len).sum::<usize>();
            atom_count += 1;
        }
        let mut words = Vec::with_capacity(word_count);
        let mut bounds = Vec::with_capacity(atom_count + 1);
        bounds.push(0);
        for atom in atoms {
            words.push((u64::from(ranks[atom.pred.0 as usize]) << 1) | u64::from(atom.strong_neg));
            atom.args.iter().for_each(|a| encode(a, ranks, &mut words));
            bounds.push(u32::try_from(words.len()).expect("answer set too large to order"));
        }
        OrderKeys { words, bounds }
    }

    fn key(&self, i: usize) -> &[u64] {
        &self.words[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// Structural comparison of two ground atoms in the answer-set order,
/// resolving each symbol at most once through `cache`. The order's
/// definition, written out term by term: the test oracle both key paths
/// ([`Packing`] and [`OrderKeys`]) must agree with (and that itself
/// coincides with `sort_key`'s string order on names free of C0 control
/// characters).
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
    fn a_shorter_atom_sorts_by_its_arguments_not_its_arity() {
        let syms = Symbols::new();
        let p = syms.intern("p");
        let ints =
            |xs: &[i64]| GroundAtom::new(p, xs.iter().map(|&i| GroundTerm::Int(i)).collect());
        let ans = AnswerSet::new(vec![ints(&[5]), ints(&[1, 2]), ints(&[1]), ints(&[])], &syms);
        assert_eq!(ans.display(&syms).to_string(), "{p p(1) p(1,2) p(5)}");
        let short = AnswerSet::new(vec![ints(&[5])], &syms);
        let long = AnswerSet::new(vec![ints(&[1, 2])], &syms);
        assert_eq!(
            short.union(&long, &syms),
            AnswerSet::new(vec![ints(&[1, 2]), ints(&[5])], &syms)
        );
    }

    #[test]
    fn batches_pack_only_when_their_keys_fit_one_word() {
        let syms = Symbols::new();
        let (p, c) = (syms.intern("p"), GroundTerm::Const(syms.intern("c")));
        let atom = |args: Vec<GroundTerm>| GroundAtom::new(p, args);
        let ints = |xs: &[i64]| atom(xs.iter().map(|&i| GroundTerm::Int(i)).collect());
        let flat = |a: GroundAtom| survey([&a]).flat;
        assert!(flat(atom(vec![])));
        assert!(flat(atom(vec![GroundTerm::Int(i64::MIN), c.clone()])));
        assert!(!flat(atom(vec![c.clone(), c.clone(), c.clone()])));
        assert!(!flat(atom(vec![GroundTerm::Func(p, Box::new([]))])));
        let batch = [ints(&[7, -2]), atom(vec![c.clone()]), ints(&[3])];
        assert_eq!(survey(&batch), Survey { flat: true, covering: 2, ints: Some((-2, 7)) });
        assert_eq!(survey([]), Survey { flat: true, covering: 0, ints: None });

        // One ranked symbol: a 2-bit predicate word leaves 31 bits per
        // argument, enough for integers spanning up to 2^31 - 4.
        let fits = |ints, ranked| Packing::fit(Some(ints), ranked).is_some();
        assert!(fits((0, (1 << 31) - 4), 1));
        assert!(!fits((0, (1 << 31) - 3), 1));
        assert!(!fits((-(1 << 60), (1 << 60) - 1), 1));
        assert!(!fits((i64::MIN, i64::MAX), 1), "a span of 2^64 - 1 must not overflow");
        assert!(Packing::fit(None, 1 << 20).is_some());

        assert!(matches!(Keys::new(&batch, &syms), Keys::Packed(_)));
        let wide = [ints(&[-(1 << 60)]), ints(&[1 << 60])];
        assert!(matches!(Keys::new(&wide, &syms), Keys::Words(_)));
        let nested = [atom(vec![GroundTerm::Func(p, Box::new([GroundTerm::Int(1)]))])];
        assert!(matches!(Keys::new(&nested, &syms), Keys::Words(_)));
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

    /// A ground term over a name list, before interning.
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

    /// `(name, strong negation, arguments)`.
    type AtomSpec = (usize, bool, Vec<TermSpec>);

    /// Appends a prefix of the atoms again, so duplicates are common.
    fn with_duplicates(
        atom: impl Strategy<Value = AtomSpec>,
    ) -> impl Strategy<Value = Vec<AtomSpec>> {
        (prop::collection::vec(atom, 0..40), 0usize..12).prop_map(|(mut atoms, dups)| {
            atoms.extend_from_within(..dups.min(atoms.len()));
            atoms
        })
    }

    /// Atoms of arity 0–3 with function terms: mostly the general keys.
    fn atom_specs() -> impl Strategy<Value = Vec<AtomSpec>> {
        with_duplicates((0..NAMES.len(), any::<bool>(), prop::collection::vec(term_spec(), 0..4)))
    }

    /// Flat atoms of arity 0–2 mixed under two predicates: mostly batches
    /// that pack. About one integer in 50 is spread far enough — ±2^30,
    /// the edges ±2^60 and 2^60 - 1, or beyond — to drop its batch to the
    /// variable-length keys.
    fn flat_atom_specs() -> impl Strategy<Value = Vec<AtomSpec>> {
        let int = (0u32..200, -3i64..3, -1000i64..1000, -(1i64 << 30)..(1 << 30)).prop_map(
            |(pick, small, medium, wide)| match pick {
                0 => -(1 << 60),
                1 => (1 << 60) - 1,
                2 => 1 << 60,
                3 => i64::MIN,
                4..=7 => wide,
                8..=40 => medium,
                _ => small,
            },
        );
        let arg =
            prop_oneof![int.prop_map(TermSpec::Int), (0..NAMES.len()).prop_map(TermSpec::Const)];
        with_duplicates((7usize..9, any::<bool>(), prop::collection::vec(arg, 0..3)))
    }

    /// Builds the atoms, name index `i` standing for `names[i % names.len()]`.
    fn build(syms: &Symbols, names: &[&str], specs: &[AtomSpec]) -> Vec<GroundAtom> {
        fn term(syms: &Symbols, names: &[&str], t: &TermSpec) -> GroundTerm {
            match t {
                TermSpec::Int(i) => GroundTerm::Int(*i),
                TermSpec::Const(c) => GroundTerm::Const(syms.intern(names[c % names.len()])),
                TermSpec::Func(f, args) => GroundTerm::Func(
                    syms.intern(names[f % names.len()]),
                    args.iter().map(|a| term(syms, names, a)).collect(),
                ),
            }
        }
        specs
            .iter()
            .map(|(p, neg, args)| GroundAtom {
                pred: syms.intern(names[p % names.len()]),
                args: args.iter().map(|a| term(syms, names, a)).collect(),
                strong_neg: *neg,
            })
            .collect()
    }

    /// The atoms sorted by the structural comparator and deduplicated.
    fn oracle(syms: &Symbols, atoms: &[GroundAtom]) -> AnswerSet {
        let mut sorted = atoms.to_vec();
        let mut cache = FastMap::default();
        sorted.sort_by(|a, b| atom_cmp_cached(a, b, syms, &mut cache));
        sorted.dedup();
        AnswerSet { atoms: sorted }
    }

    fn check_new(specs: &[AtomSpec]) -> Result<(), TestCaseError> {
        // Intern in reverse so symbol ids disagree with name order.
        let syms = Symbols::new();
        for name in NAMES.iter().rev() {
            syms.intern(name);
        }
        let atoms = build(&syms, &NAMES, specs);
        prop_assert_eq!(AnswerSet::new(atoms.clone(), &syms), oracle(&syms, &atoms));
        Ok(())
    }

    fn check_union_many(specs: &[AtomSpec], cuts: &[usize]) -> Result<(), TestCaseError> {
        let syms = Symbols::new();
        let atoms = build(&syms, &NAMES, specs);
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
        Ok(())
    }

    /// Names interned in this order, a few more before each set is built:
    /// each batch sorts some before, between and after the names interned
    /// before it.
    const INTERN_ORDER: [&str; 12] =
        ["m", "p", "mb", "a", "z", "ma", "n", "\u{0}", "zz", "mab", "", "pa"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn new_equals_the_structural_sort_plus_dedup(specs in atom_specs()) {
            check_new(&specs)?;
        }

        #[test]
        fn new_equals_the_structural_sort_plus_dedup_on_flat_atoms(specs in flat_atom_specs()) {
            check_new(&specs)?;
        }

        #[test]
        fn union_many_equals_the_pairwise_union_fold(
            specs in atom_specs(),
            cuts in prop::collection::vec(0usize..50, 0..5),
        ) {
            check_union_many(&specs, &cuts)?;
        }

        #[test]
        fn union_many_equals_the_pairwise_union_fold_on_flat_atoms(
            specs in flat_atom_specs(),
            cuts in prop::collection::vec(0usize..50, 0..5),
        ) {
            check_union_many(&specs, &cuts)?;
        }

        #[test]
        fn unions_stay_exact_while_names_are_interned_between_sets(
            sets in prop::collection::vec(prop_oneof![flat_atom_specs(), atom_specs()], 1..5),
        ) {
            let syms = Symbols::new();
            let mut built = Vec::new();
            let mut all = Vec::new();
            for (k, specs) in sets.iter().enumerate() {
                // Set k sees the first 3 + 3k names, the newest interned
                // first (in reverse name order for some), then its atoms.
                let names = &INTERN_ORDER[..(3 + 3 * k).min(INTERN_ORDER.len())];
                for name in names.iter().rev() {
                    syms.intern(name);
                }
                let atoms = build(&syms, names, specs);
                let set = AnswerSet::new(atoms.clone(), &syms);
                prop_assert_eq!(&set, &oracle(&syms, &atoms));
                all.extend(atoms);
                built.push(set);
            }
            let refs: Vec<&AnswerSet> = built.iter().collect();
            let folded = built.iter().fold(AnswerSet::default(), |acc, s| acc.union(s, &syms));
            prop_assert_eq!(AnswerSet::union_many(&syms, &refs), folded.clone());
            prop_assert_eq!(folded, oracle(&syms, &all));
        }

        #[test]
        fn project_equals_new_over_the_filtered_atoms(
            specs in prop_oneof![flat_atom_specs(), atom_specs()],
            keep_mask in any::<u16>(),
        ) {
            let syms = Symbols::new();
            let atoms = build(&syms, &NAMES, &specs);
            let keep = |p: &Predicate| {
                let name = syms.resolve(p.name);
                let i = NAMES.iter().position(|n| **n == *name).unwrap();
                keep_mask & (1 << i) != 0
            };
            let filtered: Vec<GroundAtom> =
                atoms.iter().filter(|a| keep(&a.predicate())).cloned().collect();
            prop_assert_eq!(
                AnswerSet::new(atoms, &syms).project(&syms, keep),
                AnswerSet::new(filtered, &syms)
            );
        }
    }
}
