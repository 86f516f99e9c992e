//! Terms of the ASP language: non-ground [`Term`]s appearing in rules and
//! fully evaluated [`GroundTerm`]s appearing in ground atoms.

use crate::error::AspError;
use crate::symbol::{Sym, Symbols};
use std::fmt;

/// Binary arithmetic operators usable inside terms (e.g. `X + 1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Integer division `/`.
    Div,
    /// Modulo `\`.
    Mod,
}

impl ArithOp {
    /// Applies the operator to two integers, failing on division by zero.
    pub fn apply(self, lhs: i64, rhs: i64) -> Result<i64, AspError> {
        match self {
            ArithOp::Add => Ok(lhs.wrapping_add(rhs)),
            ArithOp::Sub => Ok(lhs.wrapping_sub(rhs)),
            ArithOp::Mul => Ok(lhs.wrapping_mul(rhs)),
            ArithOp::Div => {
                lhs.checked_div(rhs).ok_or_else(|| AspError::Eval("division by zero".into()))
            }
            ArithOp::Mod => {
                lhs.checked_rem(rhs).ok_or_else(|| AspError::Eval("modulo by zero".into()))
            }
        }
    }

    /// The concrete syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "\\",
        }
    }
}

/// A possibly non-ground term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A symbolic constant such as `newcastle`.
    Const(Sym),
    /// An integer constant such as `20`.
    Int(i64),
    /// A variable such as `X`.
    Var(Sym),
    /// A compound term such as `loc(X, 3)`.
    Func(Sym, Vec<Term>),
    /// An arithmetic expression such as `Y + 1`, evaluated during grounding.
    BinOp(ArithOp, Box<Term>, Box<Term>),
    /// An integer interval `lo..hi` (inclusive). The parser expands rules
    /// containing intervals into one rule per combination, so intervals
    /// never reach the grounder.
    Interval(i64, i64),
}

impl Term {
    /// True when the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Const(_) | Term::Int(_) | Term::Interval(..) => true,
            Term::Var(_) => false,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
            Term::BinOp(_, l, r) => l.is_ground() && r.is_ground(),
        }
    }

    /// Collects the variables occurring in the term into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Sym>) {
        match self {
            Term::Const(_) | Term::Int(_) | Term::Interval(..) => {}
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Func(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::BinOp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// Renders the term against a symbol store.
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> TermDisplay<'a> {
        TermDisplay { term: self, syms }
    }
}

/// A fully evaluated term: arithmetic is already folded to integers.
///
/// **Layout.** A term is 16 bytes: a tag and a [`Sym`] share the first
/// word, an `i64` or a pointer fills the second. `Func` holds its arguments
/// behind a *thin* pointer (`Box<Vec<_>>`, one word) rather than a
/// `Box<[_]>` (two words), which would make every term 24 bytes, and every
/// [`GroundAtom`](crate::GroundAtom) with it, for the sake of compound
/// terms that the stream workloads never build. A `Vec` orders and hashes
/// as its slice, so the derived `Ord` and `Hash` are those of the boxed
/// slice.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum GroundTerm {
    /// A symbolic constant.
    Const(Sym),
    /// An integer.
    Int(i64),
    /// A compound term with ground arguments.
    Func(Sym, Box<Vec<GroundTerm>>),
}

// Pinned on 64-bit targets: a wider term widens every ground atom.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<GroundTerm>() == 16);

impl GroundTerm {
    /// Lifts the ground term back into the non-ground [`Term`] space.
    pub fn to_term(&self) -> Term {
        match self {
            GroundTerm::Const(s) => Term::Const(*s),
            GroundTerm::Int(i) => Term::Int(*i),
            GroundTerm::Func(f, args) => {
                Term::Func(*f, args.iter().map(GroundTerm::to_term).collect())
            }
        }
    }

    /// Integer value, if the term is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            GroundTerm::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Renders the term against a symbol store.
    pub fn display<'a>(&'a self, syms: &'a Symbols) -> GroundTermDisplay<'a> {
        GroundTermDisplay { term: self, syms }
    }
}

/// Total order on ground terms used for deterministic answer-set printing:
/// integers sort before constants, constants before functions; symbols are
/// compared by name so output does not depend on interning order.
pub fn ground_term_cmp(syms: &Symbols, a: &GroundTerm, b: &GroundTerm) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (GroundTerm::Int(x), GroundTerm::Int(y)) => x.cmp(y),
        (GroundTerm::Int(_), _) => Ordering::Less,
        (_, GroundTerm::Int(_)) => Ordering::Greater,
        (GroundTerm::Const(x), GroundTerm::Const(y)) => syms.resolve(*x).cmp(&syms.resolve(*y)),
        (GroundTerm::Const(_), _) => Ordering::Less,
        (_, GroundTerm::Const(_)) => Ordering::Greater,
        (GroundTerm::Func(f, fa), GroundTerm::Func(g, ga)) => {
            syms.resolve(*f).cmp(&syms.resolve(*g)).then_with(|| fa.len().cmp(&ga.len())).then_with(
                || {
                    for (x, y) in fa.iter().zip(ga.iter()) {
                        let ord = ground_term_cmp(syms, x, y);
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    Ordering::Equal
                },
            )
        }
    }
}

/// Display adapter for [`Term`].
pub struct TermDisplay<'a> {
    term: &'a Term,
    syms: &'a Symbols,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Const(s) => write!(f, "{}", self.syms.resolve(*s)),
            Term::Int(i) => write!(f, "{i}"),
            Term::Var(v) => write!(f, "{}", self.syms.resolve(*v)),
            Term::Func(name, args) => {
                write!(f, "{}(", self.syms.resolve(*name))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", a.display(self.syms))?;
                }
                write!(f, ")")
            }
            Term::BinOp(op, l, r) => {
                write!(f, "({}{}{})", l.display(self.syms), op.symbol(), r.display(self.syms))
            }
            Term::Interval(lo, hi) => write!(f, "{lo}..{hi}"),
        }
    }
}

/// Display adapter for [`GroundTerm`].
pub struct GroundTermDisplay<'a> {
    term: &'a GroundTerm,
    syms: &'a Symbols,
}

impl fmt::Display for GroundTermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            GroundTerm::Const(s) => write!(f, "{}", self.syms.resolve(*s)),
            GroundTerm::Int(i) => write!(f, "{i}"),
            GroundTerm::Func(name, args) => {
                write!(f, "{}(", self.syms.resolve(*name))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", a.display(self.syms))?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops_apply() {
        assert_eq!(ArithOp::Add.apply(2, 3).unwrap(), 5);
        assert_eq!(ArithOp::Sub.apply(2, 3).unwrap(), -1);
        assert_eq!(ArithOp::Mul.apply(2, 3).unwrap(), 6);
        assert_eq!(ArithOp::Div.apply(7, 2).unwrap(), 3);
        assert_eq!(ArithOp::Mod.apply(7, 2).unwrap(), 1);
        assert!(ArithOp::Div.apply(1, 0).is_err());
        assert!(ArithOp::Mod.apply(1, 0).is_err());
    }

    #[test]
    fn groundness_check() {
        let syms = Symbols::new();
        let x = Term::Var(syms.intern("X"));
        let c = Term::Const(syms.intern("c"));
        assert!(!x.is_ground());
        assert!(c.is_ground());
        assert!(!Term::Func(syms.intern("f"), vec![c.clone(), x.clone()]).is_ground());
        assert!(Term::Func(syms.intern("f"), vec![c.clone()]).is_ground());
        assert!(!Term::BinOp(ArithOp::Add, Box::new(x), Box::new(Term::Int(1))).is_ground());
    }

    #[test]
    fn collect_vars_dedupes() {
        let syms = Symbols::new();
        let x = syms.intern("X");
        let t = Term::Func(syms.intern("f"), vec![Term::Var(x), Term::Var(x)]);
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec![x]);
    }

    #[test]
    fn ground_term_order_is_name_based() {
        let syms = Symbols::new();
        // Intern in reverse lexicographic order to make sure comparison uses
        // names rather than symbol ids.
        let b = GroundTerm::Const(syms.intern("zzz"));
        let a = GroundTerm::Const(syms.intern("aaa"));
        assert_eq!(ground_term_cmp(&syms, &a, &b), std::cmp::Ordering::Less);
        let i = GroundTerm::Int(5);
        assert_eq!(ground_term_cmp(&syms, &i, &a), std::cmp::Ordering::Less);
    }

    #[test]
    fn display_roundtrip_shapes() {
        let syms = Symbols::new();
        let t = Term::Func(syms.intern("loc"), vec![Term::Var(syms.intern("X")), Term::Int(3)]);
        assert_eq!(t.display(&syms).to_string(), "loc(X,3)");
        let g = GroundTerm::Func(
            syms.intern("loc"),
            Box::new(vec![GroundTerm::Const(syms.intern("dangan")), GroundTerm::Int(3)]),
        );
        assert_eq!(g.display(&syms).to_string(), "loc(dangan,3)");
    }
}
