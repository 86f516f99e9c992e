//! Atoms and predicates, non-ground and ground.

use crate::symbol::{Sym, Symbols};
use crate::term::{ground_term_cmp, GroundTerm, Term};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A predicate identified by name, arity and polarity.
///
/// Strong (classical) negation `-p` is modelled as a separate predicate with
/// `strong_neg = true`; the grounder emits the consistency constraints
/// `:- p(t̄), -p(t̄)` that relate the two polarities.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Predicate {
    /// Interned predicate name.
    pub name: Sym,
    /// Number of arguments.
    pub arity: u32,
    /// True for the strongly negated polarity `-p`.
    pub strong_neg: bool,
}

impl Predicate {
    /// A positive predicate.
    pub fn new(name: Sym, arity: u32) -> Self {
        Predicate { name, arity, strong_neg: false }
    }

    /// Renders `name/arity` (with a leading `-` for strong negation).
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> PredicateDisplay<'a> {
        PredicateDisplay { pred: self, syms }
    }
}

/// Display adapter for [`Predicate`].
pub struct PredicateDisplay<'a> {
    pred: &'a Predicate,
    syms: &'a Symbols,
}

impl fmt::Display for PredicateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pred.strong_neg {
            write!(f, "-")?;
        }
        write!(f, "{}/{}", self.syms.resolve(self.pred.name), self.pred.arity)
    }
}

/// A possibly non-ground atom `p(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Interned predicate name.
    pub pred: Sym,
    /// Argument terms.
    pub args: Vec<Term>,
    /// True for the strongly negated polarity `-p(...)`.
    pub strong_neg: bool,
}

impl Atom {
    /// A positive atom.
    pub fn new(pred: Sym, args: Vec<Term>) -> Self {
        Atom { pred, args, strong_neg: false }
    }

    /// The atom's predicate.
    pub fn predicate(&self) -> Predicate {
        Predicate { name: self.pred, arity: self.args.len() as u32, strong_neg: self.strong_neg }
    }

    /// True when all arguments are ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collects the variables of all arguments into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Sym>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }

    /// Renders the atom against a symbol store.
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> AtomDisplay<'a> {
        AtomDisplay { atom: self, syms }
    }
}

/// Display adapter for [`Atom`].
pub struct AtomDisplay<'a> {
    atom: &'a Atom,
    syms: &'a Symbols,
}

impl fmt::Display for AtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atom.strong_neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.syms.resolve(self.atom.pred))?;
        if !self.atom.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.atom.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", a.display(self.syms))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The arguments of a [`GroundAtom`]: up to two terms inline, longer lists
/// in one heap box.
///
/// Every RDF fact has arity 1 or 2, and so has every atom of the paper's
/// programs, so a fact is made, moved, cloned and dropped without the
/// allocator. `Args` derefs to `[GroundTerm]`, and equality, hashing and
/// `Debug` go through that slice: an `Args` hashes exactly as the
/// `Box<[GroundTerm]>` it replaced, so no hash-map order, and no output
/// built from one, depends on where the terms live.
///
/// **Layout.** The four cases share the 32 bytes of two inline terms: the
/// tag values a [`GroundTerm`] never takes mark the empty, one-term and
/// boxed cases, whose data sits after the first term's tag. That keeps a
/// [`GroundAtom`] at 40 bytes, and needs the 16-byte term.
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    Zero,
    One(GroundTerm),
    Two([GroundTerm; 2]),
    /// Three terms or more; shorter lists are always inline.
    Many(Box<[GroundTerm]>),
}

impl Args {
    /// One inline term.
    pub fn one(a: GroundTerm) -> Self {
        Args(Repr::One(a))
    }

    /// Two inline terms.
    pub fn two(a: GroundTerm, b: GroundTerm) -> Self {
        Args(Repr::Two([a, b]))
    }
}

impl Deref for Args {
    type Target = [GroundTerm];

    #[inline]
    fn deref(&self) -> &[GroundTerm] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(a) => std::slice::from_ref(a),
            Repr::Two(ab) => ab,
            Repr::Many(all) => all,
        }
    }
}

impl DerefMut for Args {
    #[inline]
    fn deref_mut(&mut self) -> &mut [GroundTerm] {
        match &mut self.0 {
            Repr::Zero => &mut [],
            Repr::One(a) => std::slice::from_mut(a),
            Repr::Two(ab) => ab,
            Repr::Many(all) => all,
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl Hash for Args {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<GroundTerm>> for Args {
    fn from(v: Vec<GroundTerm>) -> Self {
        if v.len() > 2 {
            Args(Repr::Many(v.into_boxed_slice()))
        } else {
            v.into_iter().collect()
        }
    }
}

impl From<Box<[GroundTerm]>> for Args {
    fn from(b: Box<[GroundTerm]>) -> Self {
        if b.len() > 2 {
            Args(Repr::Many(b))
        } else {
            b.into_vec().into_iter().collect()
        }
    }
}

impl From<&[GroundTerm]> for Args {
    fn from(s: &[GroundTerm]) -> Self {
        if s.len() > 2 {
            Args(Repr::Many(s.into()))
        } else {
            s.iter().cloned().collect()
        }
    }
}

impl FromIterator<GroundTerm> for Args {
    /// Collects without a heap box when the iterator yields at most two
    /// terms.
    fn from_iter<I: IntoIterator<Item = GroundTerm>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(a) = iter.next() else { return Args(Repr::Zero) };
        let Some(b) = iter.next() else { return Args::one(a) };
        let Some(c) = iter.next() else { return Args::two(a, b) };
        let mut all = Vec::with_capacity(3 + iter.size_hint().0);
        all.extend([a, b, c]);
        all.extend(iter);
        Args(Repr::Many(all.into_boxed_slice()))
    }
}

/// A ground atom `p(c1, ..., cn)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundAtom {
    /// Interned predicate name.
    pub pred: Sym,
    /// Ground argument terms, inline up to two (see [`Args`]).
    pub args: Args,
    /// True for the strongly negated polarity.
    pub strong_neg: bool,
}

// Pinned on 64-bit targets: an atom is copied, not allocated, and its size
// is what a window's facts and models weigh (40 bytes with the layout of
// `Args`; 48 leaves room for a compiler that packs the enum less tightly).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<GroundAtom>() <= 48);

impl GroundAtom {
    /// A positive ground atom.
    pub fn new(pred: Sym, args: Vec<GroundTerm>) -> Self {
        GroundAtom { pred, args: args.into(), strong_neg: false }
    }

    /// The atom's predicate.
    pub fn predicate(&self) -> Predicate {
        Predicate { name: self.pred, arity: self.args.len() as u32, strong_neg: self.strong_neg }
    }

    /// Lifts the ground atom into the non-ground [`Atom`] space.
    pub fn to_atom(&self) -> Atom {
        Atom {
            pred: self.pred,
            args: self.args.iter().map(GroundTerm::to_term).collect(),
            strong_neg: self.strong_neg,
        }
    }

    /// Renders the atom against a symbol store.
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> GroundAtomDisplay<'a> {
        GroundAtomDisplay { atom: self, syms }
    }
}

/// Name-based total order on ground atoms for deterministic output.
pub fn ground_atom_cmp(syms: &Symbols, a: &GroundAtom, b: &GroundAtom) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    syms.resolve(a.pred)
        .cmp(&syms.resolve(b.pred))
        .then_with(|| a.strong_neg.cmp(&b.strong_neg))
        .then_with(|| a.args.len().cmp(&b.args.len()))
        .then_with(|| {
            for (x, y) in a.args.iter().zip(b.args.iter()) {
                let ord = ground_term_cmp(syms, x, y);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        })
}

/// Display adapter for [`GroundAtom`].
pub struct GroundAtomDisplay<'a> {
    atom: &'a GroundAtom,
    syms: &'a Symbols,
}

impl fmt::Display for GroundAtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atom.strong_neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.syms.resolve(self.atom.pred))?;
        if !self.atom.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.atom.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", a.display(self.syms))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::FastHasher;
    use proptest::prelude::*;

    #[test]
    fn predicate_identity_includes_arity_and_polarity() {
        let syms = Symbols::new();
        let p = syms.intern("p");
        let p1 = Predicate::new(p, 1);
        let p2 = Predicate::new(p, 2);
        let np1 = Predicate { name: p, arity: 1, strong_neg: true };
        assert_ne!(p1, p2);
        assert_ne!(p1, np1);
        assert_eq!(np1.display(&syms).to_string(), "-p/1");
    }

    #[test]
    fn atom_display_matches_asp_syntax() {
        let syms = Symbols::new();
        let a = Atom::new(
            syms.intern("average_speed"),
            vec![Term::Var(syms.intern("X")), Term::Int(10)],
        );
        assert_eq!(a.display(&syms).to_string(), "average_speed(X,10)");
        let zero_ary = Atom::new(syms.intern("go"), vec![]);
        assert_eq!(zero_ary.display(&syms).to_string(), "go");
    }

    #[test]
    fn ground_atom_roundtrips_through_atom() {
        let syms = Symbols::new();
        let g = GroundAtom::new(
            syms.intern("car_location"),
            vec![GroundTerm::Const(syms.intern("car1")), GroundTerm::Const(syms.intern("dangan"))],
        );
        let a = g.to_atom();
        assert!(a.is_ground());
        assert_eq!(a.display(&syms).to_string(), "car_location(car1,dangan)");
    }

    #[test]
    fn ground_atom_ordering_is_stable() {
        let syms = Symbols::new();
        let b = GroundAtom::new(syms.intern("zz"), vec![]);
        let a = GroundAtom::new(syms.intern("aa"), vec![GroundTerm::Int(1)]);
        assert_eq!(ground_atom_cmp(&syms, &a, &b), std::cmp::Ordering::Less);
        let a2 = GroundAtom::new(syms.intern("aa"), vec![GroundTerm::Int(2)]);
        assert_eq!(ground_atom_cmp(&syms, &a, &a2), std::cmp::Ordering::Less);
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FastHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Constants, integers and compound terms nested up to two deep, over
    /// small domains so that lists often repeat.
    fn ground_term() -> impl Strategy<Value = GroundTerm> {
        let leaf = prop_oneof![
            (0u32..3).prop_map(|s| GroundTerm::Const(Sym(s))),
            (-2i64..2).prop_map(GroundTerm::Int)
        ];
        leaf.prop_recursive(2, 12, 3, |inner| {
            (0u32..2, prop::collection::vec(inner, 0..3))
                .prop_map(|(f, args)| GroundTerm::Func(Sym(f), Box::new(args)))
        })
    }

    fn checked_args(v: &[GroundTerm], other: &[GroundTerm]) -> Result<(), TestCaseError> {
        let built = [
            Args::from(v.to_vec()),
            Args::from(v),
            Args::from(v.to_vec().into_boxed_slice()),
            v.iter().cloned().collect(),
        ];
        let twin = Args::from(other);
        for args in &built {
            prop_assert_eq!(&**args, v);
            prop_assert_eq!(args.len(), v.len());
            prop_assert_eq!(hash_of(args), hash_of(v));
            prop_assert_eq!(args, &built[0]);
            prop_assert_eq!(*args == twin, v == other);
            prop_assert_eq!(format!("{args:?}"), format!("{v:?}"));
            let atom = GroundAtom { pred: Sym(7), args: args.clone(), strong_neg: true };
            prop_assert_eq!(hash_of(&atom), hash_of(&(Sym(7), v, true)));
        }
        for mut args in built {
            let mut want = v.to_vec();
            if let (Some(last), Some(w)) = (args.last_mut(), want.last_mut()) {
                *last = GroundTerm::Int(99);
                *w = GroundTerm::Int(99);
            }
            prop_assert_eq!(&*args, &want[..]);
            prop_assert_eq!(hash_of(&args), hash_of(&want[..]));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lengths 0–4 cross the inline/boxed boundary between 2 and 3.
        #[test]
        fn args_behave_as_their_slice(
            v in prop::collection::vec(ground_term(), 0..5),
            w in prop::collection::vec(ground_term(), 0..5),
            same in any::<bool>(),
        ) {
            let other = if same { v.clone() } else { w };
            checked_args(&v, &other)?;
        }
    }

    #[test]
    fn args_at_the_inline_boundary() {
        let f = GroundTerm::Func(Sym(0), Box::new(vec![GroundTerm::Int(1), GroundTerm::Int(2)]));
        let terms = [GroundTerm::Int(1), GroundTerm::Const(Sym(2)), f];
        for n in 0..=terms.len() {
            checked_args(&terms[..n], &terms[..n]).unwrap();
            checked_args(&terms[..n], &terms[..n.saturating_sub(1)]).unwrap();
        }
        assert_eq!(*Args::one(terms[0].clone()), terms[..1]);
        assert_eq!(*Args::two(terms[0].clone(), terms[1].clone()), terms[..2]);
        assert_eq!(*Args::from(vec![]), []);
    }
}
