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
//!
//! **How a union is computed.** A sorted set holds each predicate name and
//! polarity in one *run* of consecutive atoms (arities interleave inside
//! it: `p(1) < p(1,2) < p(5)`). A union first finds every set's runs in
//! one pass and orders them by (name rank, polarity), reading the rank
//! snapshot once per run. Under dependency partitioning the sets hold
//! almost disjoint predicates, so most runs belong to one set alone and are
//! laid into the union whole, with no key. Only the runs of a predicate
//! several sets share are keyed, in one batch over those runs, and merged
//! k ways. A set may be handed over owned
//! ([`AnswerSet::union_parts`]); its atoms are then moved into the union,
//! and a borrowed set's are cloned. An atom holds up to two arguments
//! inline ([`Args`](crate::Args)), so that clone is a copy of the atom's
//! bytes and allocates nothing; only an atom with a function term or more
//! than two arguments takes a heap box with it.

use crate::atom::{GroundAtom, Predicate};
#[cfg(test)]
use crate::symbol::{FastMap, Sym};
use crate::symbol::{FastSet, Symbols};
use crate::term::GroundTerm;
use std::borrow::Cow;
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

    /// Union of two answer sets (used by the combining handler): the
    /// [`AnswerSet::union_many`] of the pair.
    pub fn union(&self, other: &AnswerSet, syms: &Symbols) -> AnswerSet {
        AnswerSet::union_many(syms, &[self, other])
    }

    /// Union of many answer sets, cloning their atoms — the combining
    /// handler's fast path when every partition has a single answer set.
    ///
    /// Equivalent to folding [`AnswerSet::union`] pairwise and to
    /// [`AnswerSet::new`] over all the atoms (the proptests pin both down);
    /// see [`AnswerSet::union_parts`] for how it is computed.
    pub fn union_many(syms: &Symbols, sets: &[&AnswerSet]) -> AnswerSet {
        AnswerSet::union_parts(syms, sets.iter().map(|s| Cow::Borrowed(*s)).collect())
    }

    /// Union of answer sets each borrowed or owned: a borrowed set's atoms
    /// are cloned into the union, an owned set's are moved.
    ///
    /// The union is laid out run by run (see the module docs): a predicate
    /// run no other set holds is copied whole, and only the runs of the
    /// predicates several sets share are merged on integer keys.
    pub fn union_parts(syms: &Symbols, parts: Vec<Cow<'_, AnswerSet>>) -> AnswerSet {
        if parts.len() <= 1 {
            return parts.into_iter().next().map(Cow::into_owned).unwrap_or_default();
        }
        let mut runs = Vec::new();
        let mut covering = 0;
        for (set, part) in parts.iter().enumerate() {
            let atoms = part.atoms();
            let mut start = 0;
            while let Some(first) = atoms.get(start) {
                let len = atoms[start..]
                    .iter()
                    .position(|a| a.pred != first.pred || a.strong_neg != first.strong_neg)
                    .unwrap_or(atoms.len() - start);
                runs.push(Run { order: 0, set, start, len });
                covering = covering.max(first.pred.0 as usize + 1);
                start += len;
            }
        }
        let ranks = syms.name_ranks(covering);
        for run in &mut runs {
            let first = &parts[run.set].atoms[run.start];
            run.order =
                (u64::from(ranks[first.pred.0 as usize]) << 1) | u64::from(first.strong_neg);
        }
        runs.sort_unstable_by_key(|r| (r.order, r.set));

        // One batch of keys over the runs of shared predicates, laid end to
        // end in run order; a run held by one set needs none.
        let shared: Vec<&[GroundAtom]> = (runs.chunk_by(|a, b| a.order == b.order))
            .filter(|group| group.len() > 1)
            .flatten()
            .map(|r| &parts[r.set].atoms[r.start..r.start + r.len])
            .collect();
        let keys = Keys::new(shared.iter().flat_map(|run| run.iter()), syms);

        let mut atoms = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        let mut sources: Vec<Source> = parts.into_iter().map(Source::from).collect();
        match &keys {
            Keys::Packed(k) => lay_out(&runs, &mut sources, &mut atoms, |i| k[i].0),
            Keys::Words(k) => lay_out(&runs, &mut sources, &mut atoms, |i| k.key(i)),
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

/// A maximal stretch of one set's atoms with one predicate name and
/// polarity. Arities share a run: `p(1) < p(1,2) < p(5)` interleave.
struct Run {
    /// `rank(name) << 1 | strong_neg`: runs in this order lay out the union.
    order: u64,
    set: usize,
    start: usize,
    len: usize,
}

/// Where the atoms of one set come from, in the set's order: cloned from a
/// borrowed set, moved out of an owned one. Every atom is taken or skipped
/// exactly once, in order, because a set's runs are laid out in its order.
enum Source<'a> {
    Borrowed(std::slice::Iter<'a, GroundAtom>),
    Owned(std::vec::IntoIter<GroundAtom>),
}

impl<'a> From<Cow<'a, AnswerSet>> for Source<'a> {
    fn from(part: Cow<'a, AnswerSet>) -> Self {
        match part {
            Cow::Borrowed(set) => Source::Borrowed(set.atoms.iter()),
            Cow::Owned(set) => Source::Owned(set.atoms.into_iter()),
        }
    }
}

impl Source<'_> {
    fn take_run(&mut self, len: usize, out: &mut Vec<GroundAtom>) {
        match self {
            Source::Borrowed(it) => out.extend(it.by_ref().take(len).cloned()),
            Source::Owned(it) => out.extend(it.by_ref().take(len)),
        }
    }

    fn take(&mut self) -> GroundAtom {
        match self {
            Source::Borrowed(it) => it.next().cloned(),
            Source::Owned(it) => it.next(),
        }
        .expect("a run lies inside its set")
    }

    fn skip(&mut self) {
        match self {
            Source::Borrowed(it) => drop(it.next()),
            Source::Owned(it) => drop(it.next()),
        }
    }
}

/// Lays the runs, sorted by [`Run::order`], into `out`: a run no other set
/// holds whole, and the runs of a shared predicate merged k ways, dropping
/// duplicates. `key(i)` is the key of the `i`-th atom of the shared runs
/// laid end to end.
fn lay_out<K: Ord + Copy>(
    runs: &[Run],
    sources: &mut [Source],
    out: &mut Vec<GroundAtom>,
    key: impl Fn(usize) -> K,
) {
    /// A shared run's next unmerged atom: its index among the shared runs'
    /// keys, the run's end there, its set and its key (`None` once merged).
    struct Head<K> {
        at: usize,
        end: usize,
        set: usize,
        key: Option<K>,
    }
    let mut offset = 0;
    let mut heads = Vec::new();
    for group in runs.chunk_by(|a, b| a.order == b.order) {
        if let [run] = group {
            sources[run.set].take_run(run.len, out);
            continue;
        }
        heads.clear();
        for run in group {
            heads.push(Head {
                at: offset,
                end: offset + run.len,
                set: run.set,
                key: Some(key(offset)),
            });
            offset += run.len;
        }
        // Linear minimum over the heads: a group holds at most one run per
        // set, which is few; a heap would cost more.
        while let Some(min) = heads.iter().filter_map(|h| h.key).min() {
            // Equal keys are equal atoms: take the first, skip the others.
            let mut taken = false;
            for head in heads.iter_mut().filter(|h| h.key == Some(min)) {
                if taken {
                    sources[head.set].skip();
                } else {
                    out.push(sources[head.set].take());
                    taken = true;
                }
                head.at += 1;
                head.key = (head.at < head.end).then(|| key(head.at));
            }
        }
    }
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
        assert!(!flat(atom(vec![GroundTerm::Func(p, Box::default())])));
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
        let nested = [atom(vec![GroundTerm::Func(p, Box::new(vec![GroundTerm::Int(1)]))])];
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
            mixed("p", vec![GroundTerm::Func(f, Box::new(vec![GroundTerm::Int(1)]))]),
            mixed(
                "p",
                vec![GroundTerm::Func(f, Box::new(vec![GroundTerm::Int(1), GroundTerm::Int(3)]))],
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

    #[test]
    fn unions_lay_private_runs_whole_and_merge_shared_ones() {
        let syms = Symbols::new();
        let (p, q, r) = (syms.intern("p"), syms.intern("q"), syms.intern("r"));
        let ints = |pred, neg, xs: &[i64]| GroundAtom {
            pred,
            args: xs.iter().map(|&i| GroundTerm::Int(i)).collect(),
            strong_neg: neg,
        };
        // `p` is shared at two arities and both polarities, `q` and `r` are
        // each held by one set.
        let a = vec![
            ints(p, false, &[1]),
            ints(p, false, &[5]),
            ints(p, true, &[2]),
            ints(r, false, &[]),
        ];
        let b = vec![
            ints(p, false, &[1, 2]),
            ints(p, false, &[5]),
            ints(p, true, &[1]),
            ints(q, false, &[3]),
        ];
        let sets = [AnswerSet::new(a.clone(), &syms), AnswerSet::new(b.clone(), &syms)];
        let want = AnswerSet::new(a.into_iter().chain(b).collect(), &syms);
        assert_eq!(want.display(&syms).to_string(), "{p(1) p(1,2) p(5) -p(1) -p(2) q(3) r}");
        assert_eq!(sets[0].union(&sets[1], &syms), want);
        let owned = sets.iter().cloned().map(Cow::Owned).collect();
        assert_eq!(AnswerSet::union_parts(&syms, owned), want);
        assert_eq!(AnswerSet::union_parts(&syms, vec![Cow::Owned(sets[0].clone())]), sets[0]);
        assert!(AnswerSet::union_parts(&syms, Vec::new()).is_empty());
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
                    Box::new(args.iter().map(|a| term(syms, names, a)).collect()),
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

    /// Names of the predicates every set may hold, and of one predicate per
    /// set that only that set holds (sorting first, last and in between).
    const SHARED: [&str; 2] = ["p", "q"];
    const OWN: [&str; 5] = ["zo", "ao", "mo", "\u{0}o", "pa"];

    /// Builds set `k` of `sets` after interning the names it adds: its own
    /// predicate, the shared ones and a few more of [`INTERN_ORDER`]. About
    /// a third of its atoms go under its own predicate, the rest under a
    /// shared one; arities and polarities come from the specs. The union of
    /// the sets, borrowed, owned or mixed, must equal [`AnswerSet::new`] over
    /// all their atoms: a sort, which merges nothing.
    fn check_union_by_runs(sets: &[Vec<AtomSpec>]) -> Result<(), TestCaseError> {
        let syms = Symbols::new();
        let mut built = Vec::new();
        let mut all = Vec::new();
        for (k, specs) in sets.iter().enumerate() {
            let names: Vec<&str> = [OWN[k], SHARED[0], SHARED[1]]
                .into_iter()
                .chain(INTERN_ORDER[..(3 + 3 * k).min(INTERN_ORDER.len())].iter().copied())
                .collect();
            for name in names.iter().rev() {
                syms.intern(name);
            }
            let specs: Vec<AtomSpec> = (specs.iter().enumerate())
                .map(|(j, (p, neg, args))| {
                    let pick = p + j;
                    (if pick % 3 == 0 { 0 } else { 1 + pick % 2 }, *neg, args.clone())
                })
                .collect();
            let atoms = build(&syms, &names, &specs);
            all.extend(atoms.iter().cloned());
            built.push(AnswerSet::new(atoms, &syms));
        }
        let want = AnswerSet::new(all, &syms);
        let refs: Vec<&AnswerSet> = built.iter().collect();
        prop_assert_eq!(&AnswerSet::union_many(&syms, &refs), &want);
        let owned = built.iter().cloned().map(Cow::Owned).collect();
        prop_assert_eq!(&AnswerSet::union_parts(&syms, owned), &want);
        let mixed = (built.iter().enumerate())
            .map(|(i, s)| if i % 2 == 0 { Cow::Owned(s.clone()) } else { Cow::Borrowed(s) })
            .collect();
        prop_assert_eq!(&AnswerSet::union_parts(&syms, mixed), &want);
        Ok(())
    }

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
        fn unions_by_runs_equal_one_sort_of_all_atoms(
            sets in prop::collection::vec(atom_specs(), 1..=OWN.len()),
        ) {
            check_union_by_runs(&sets)?;
        }

        #[test]
        fn unions_by_runs_equal_one_sort_of_all_atoms_on_flat_atoms(
            sets in prop::collection::vec(flat_atom_specs(), 1..=OWN.len()),
        ) {
            check_union_by_runs(&sets)?;
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
