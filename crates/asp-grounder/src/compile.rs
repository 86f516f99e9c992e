//! Rule compilation: variable slot allocation, safety analysis and greedy
//! join ordering into executable [`Step`] plans.

use asp_core::{
    ArithOp, AspError, Atom, BodyLiteral, CmpOp, FastMap, GroundTerm, Predicate, Rule, Sym,
    Symbols, Term,
};

/// A term compiled against a rule's variable slots.
#[derive(Clone, Debug, PartialEq)]
pub enum CTerm {
    /// Symbolic constant.
    Const(Sym),
    /// Integer.
    Int(i64),
    /// Variable slot.
    Var(u32),
    /// Compound term.
    Func(Sym, Box<[CTerm]>),
    /// Arithmetic expression (operands must be bound integers at eval time).
    BinOp(ArithOp, Box<CTerm>, Box<CTerm>),
}

impl CTerm {
    /// True when every variable slot in the term is bound.
    pub(crate) fn bound_under(&self, bound: &[bool]) -> bool {
        match self {
            CTerm::Const(_) | CTerm::Int(_) => true,
            CTerm::Var(s) => bound[*s as usize],
            CTerm::Func(_, args) => args.iter().all(|a| a.bound_under(bound)),
            CTerm::BinOp(_, l, r) => l.bound_under(bound) && r.bound_under(bound),
        }
    }

    /// Marks variables occurring in non-arithmetic positions as bound
    /// (structural matching binds them).
    pub(crate) fn mark_bindable(&self, bound: &mut [bool]) {
        match self {
            CTerm::Const(_) | CTerm::Int(_) => {}
            CTerm::Var(s) => bound[*s as usize] = true,
            CTerm::Func(_, args) => {
                for a in args.iter() {
                    a.mark_bindable(bound);
                }
            }
            // Arithmetic cannot be inverted: matching `p(X+1)` requires X to
            // be bound already, so it binds nothing.
            CTerm::BinOp(..) => {}
        }
    }

    /// True when arithmetic subterms only use already-bound variables, i.e.
    /// the term is matchable.
    pub(crate) fn matchable_under(&self, bound: &[bool]) -> bool {
        match self {
            CTerm::Const(_) | CTerm::Int(_) | CTerm::Var(_) => true,
            CTerm::Func(_, args) => args.iter().all(|a| a.matchable_under(bound)),
            CTerm::BinOp(..) => self.bound_under(bound),
        }
    }

    /// Evaluates a fully bound term to a ground term.
    pub fn eval(&self, subst: &[Option<GroundTerm>]) -> Result<GroundTerm, AspError> {
        match self {
            CTerm::Const(s) => Ok(GroundTerm::Const(*s)),
            CTerm::Int(i) => Ok(GroundTerm::Int(*i)),
            CTerm::Var(s) => subst[*s as usize]
                .clone()
                .ok_or_else(|| AspError::Internal("unbound variable at evaluation".into())),
            CTerm::Func(f, args) => {
                let mut out = Vec::with_capacity(args.len());
                for a in args.iter() {
                    out.push(a.eval(subst)?);
                }
                Ok(GroundTerm::Func(*f, out.into()))
            }
            CTerm::BinOp(op, l, r) => {
                let lv = l.eval(subst)?;
                let rv = r.eval(subst)?;
                match (lv, rv) {
                    (GroundTerm::Int(a), GroundTerm::Int(b)) => {
                        Ok(GroundTerm::Int(op.apply(a, b)?))
                    }
                    _ => Err(AspError::Eval("arithmetic on non-integer terms".into())),
                }
            }
        }
    }
}

/// A compiled atom.
#[derive(Clone, Debug)]
pub struct CAtom {
    /// Predicate (name, arity, strong-negation polarity).
    pub pred: Predicate,
    /// Compiled argument terms.
    pub args: Box<[CTerm]>,
}

/// Where a `Match` step reads its tuples from in the semi-naive fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The full, final relation (non-recursive predicate).
    Full,
    /// Only the previous round's newly derived tuples.
    Delta,
    /// Everything derived so far (recursive predicate, non-designated).
    Live,
}

/// One step of an executable rule plan.
#[derive(Clone, Debug)]
pub enum Step {
    /// Join against a relation.
    Match {
        /// The atom to match.
        atom: CAtom,
        /// `static_bound[i]` = argument `i` is fully bound when this step
        /// runs (so it participates in the index key).
        static_bound: Box<[bool]>,
        /// Tuple source for semi-naive evaluation.
        source: Source,
    },
    /// Check a fully bound comparison.
    Compare {
        /// Left operand.
        lhs: CTerm,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: CTerm,
    },
    /// Bind a variable to a computed value (`X = expr`).
    Bind {
        /// Target slot.
        slot: u32,
        /// Bound expression.
        expr: CTerm,
    },
    /// Test a fully bound default-negated atom. Grounding passes it
    /// through (the possible set over-approximates; simplification resolves
    /// negation afterwards); perfect-model evaluation blocks when the atom
    /// is in the final lower component.
    NegCheck {
        /// The negated atom.
        atom: CAtom,
    },
}

/// A rule compiled for instantiation.
#[derive(Debug)]
pub struct CompiledRule {
    /// Index of the source rule in the program.
    pub rule_idx: usize,
    /// Compiled head atoms.
    pub heads: Vec<CAtom>,
    /// True for a choice head.
    pub choice: bool,
    /// Compiled body literals, original order (used to build plan variants).
    pub body: Vec<CLit>,
    /// The generic plan (no forced-first literal).
    pub plan: Vec<Step>,
    /// Number of variable slots.
    pub var_count: u32,
    /// Slot index -> variable name (for error messages).
    pub var_names: Vec<Sym>,
}

/// A compiled body literal.
#[derive(Clone, Debug)]
pub enum CLit {
    /// Positive atom.
    Pos(CAtom),
    /// Default-negated atom.
    Neg(CAtom),
    /// Comparison.
    Cmp(CTerm, CmpOp, CTerm),
}

impl CompiledRule {
    /// Indices into `body` of positive literals whose predicate satisfies
    /// `is_recursive`.
    pub fn recursive_literals(&self, is_recursive: impl Fn(Predicate) -> bool) -> Vec<usize> {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l {
                CLit::Pos(a) if is_recursive(a.pred) => Some(i),
                _ => None,
            })
            .collect()
    }
}

/// Compiles `rule` (at `rule_idx` in its program), performing the safety
/// check. `syms` is needed only to render error messages.
pub fn compile_rule(
    syms: &Symbols,
    rule: &Rule,
    rule_idx: usize,
) -> Result<CompiledRule, AspError> {
    // Intervals are a parser-level feature (expanded there); reject any that
    // arrive via a hand-built AST instead of panicking deep in compilation.
    fn has_interval(t: &Term) -> bool {
        match t {
            Term::Interval(..) => true,
            Term::Func(_, args) => args.iter().any(has_interval),
            Term::BinOp(_, l, r) => has_interval(l) || has_interval(r),
            _ => false,
        }
    }
    let mut all_terms = rule.head.atoms().iter().flat_map(|a| a.args.iter());
    if all_terms.any(has_interval)
        || rule.body.iter().any(|l| match l {
            asp_core::BodyLiteral::Atom { atom, .. } => atom.args.iter().any(has_interval),
            asp_core::BodyLiteral::Comparison { lhs, rhs, .. } => {
                has_interval(lhs) || has_interval(rhs)
            }
        })
    {
        return Err(AspError::Eval(format!(
            "interval terms must be expanded before grounding: {}",
            rule.display(syms)
        )));
    }

    struct SlotAlloc {
        slots: FastMap<Sym, u32>,
        names: Vec<Sym>,
    }
    impl SlotAlloc {
        fn slot(&mut self, v: Sym) -> u32 {
            if let Some(&s) = self.slots.get(&v) {
                return s;
            }
            let s = self.names.len() as u32;
            self.names.push(v);
            self.slots.insert(v, s);
            s
        }
        fn cterm(&mut self, t: &Term) -> CTerm {
            match t {
                Term::Const(s) => CTerm::Const(*s),
                Term::Int(i) => CTerm::Int(*i),
                Term::Var(v) => CTerm::Var(self.slot(*v)),
                Term::Func(f, args) => {
                    CTerm::Func(*f, args.iter().map(|a| self.cterm(a)).collect())
                }
                Term::BinOp(op, l, r) => {
                    CTerm::BinOp(*op, Box::new(self.cterm(l)), Box::new(self.cterm(r)))
                }
                // Guarded against in compile_rule before allocation starts.
                Term::Interval(..) => unreachable!("intervals are expanded by the parser"),
            }
        }
        fn catom(&mut self, a: &Atom) -> CAtom {
            CAtom { pred: a.predicate(), args: a.args.iter().map(|t| self.cterm(t)).collect() }
        }
    }

    let mut alloc = SlotAlloc { slots: FastMap::default(), names: Vec::new() };
    let heads: Vec<CAtom> = rule.head.atoms().iter().map(|a| alloc.catom(a)).collect();
    let body: Vec<CLit> = rule
        .body
        .iter()
        .map(|l| match l {
            BodyLiteral::Atom { atom, negated: false } => CLit::Pos(alloc.catom(atom)),
            BodyLiteral::Atom { atom, negated: true } => CLit::Neg(alloc.catom(atom)),
            BodyLiteral::Comparison { lhs, op, rhs } => {
                CLit::Cmp(alloc.cterm(lhs), *op, alloc.cterm(rhs))
            }
        })
        .collect();

    let var_names = alloc.names;
    let var_count = var_names.len() as u32;
    let choice = matches!(rule.head, asp_core::Head::Choice(_));
    let plan = make_plan(&body, var_count, None).map_err(|slot| AspError::UnsafeRule {
        rule: rule.display(syms).to_string(),
        variable: syms.resolve(var_names[slot as usize]).to_string(),
    })?;

    // Safety: every head variable must be bound by the body plan.
    let mut bound = vec![false; var_count as usize];
    apply_plan_bindings(&plan, &mut bound);
    for h in &heads {
        for arg in h.args.iter() {
            if let Some(slot) = first_unbound(arg, &bound) {
                return Err(AspError::UnsafeRule {
                    rule: rule.display(syms).to_string(),
                    variable: syms.resolve(var_names[slot as usize]).to_string(),
                });
            }
        }
    }

    Ok(CompiledRule { rule_idx, heads, choice, body, plan, var_count, var_names })
}

fn apply_plan_bindings(plan: &[Step], bound: &mut [bool]) {
    for step in plan {
        match step {
            Step::Match { atom, .. } => {
                for a in atom.args.iter() {
                    a.mark_bindable(bound);
                }
            }
            Step::Bind { slot, .. } => bound[*slot as usize] = true,
            Step::Compare { .. } | Step::NegCheck { .. } => {}
        }
    }
}

pub(crate) fn first_unbound(t: &CTerm, bound: &[bool]) -> Option<u32> {
    match t {
        CTerm::Const(_) | CTerm::Int(_) => None,
        CTerm::Var(s) => (!bound[*s as usize]).then_some(*s),
        CTerm::Func(_, args) => args.iter().find_map(|a| first_unbound(a, bound)),
        CTerm::BinOp(_, l, r) => first_unbound(l, bound).or_else(|| first_unbound(r, bound)),
    }
}

/// Builds an executable plan for `body`, optionally forcing body literal
/// `forced_first` (which must be a positive atom) to be matched first — the
/// semi-naive delta designation. Fails with the slot of an unbindable
/// variable when the body is unsafe.
///
/// This is the syntactic default: the greedy state machine lives in
/// [`crate::planner::plan`], and this entry point runs it with
/// [`crate::planner::SyntacticCost`], which reproduces the original
/// maximize-bound-args heuristic exactly. Cost-based callers pass a
/// [`crate::stats::RelationStats`] instead.
pub fn make_plan(
    body: &[CLit],
    var_count: u32,
    forced_first: Option<usize>,
) -> Result<Vec<Step>, u32> {
    crate::planner::plan(body, var_count, forced_first, &crate::planner::SyntacticCost)
}

/// Compares two ground terms for a builtin comparison. Equality is
/// structural; ordered comparisons require integers on both sides.
pub fn compare(lhs: &GroundTerm, op: CmpOp, rhs: &GroundTerm) -> Result<bool, AspError> {
    match op {
        CmpOp::Eq => Ok(lhs == rhs),
        CmpOp::Neq => Ok(lhs != rhs),
        _ => match (lhs, rhs) {
            (GroundTerm::Int(a), GroundTerm::Int(b)) => Ok(op.eval(a.cmp(b))),
            _ => Err(AspError::Eval("ordered comparison requires integer operands".into())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_rule;

    fn compiled(src: &str) -> (Symbols, CompiledRule) {
        let syms = Symbols::new();
        let rule = parse_rule(&syms, src).unwrap();
        let c = compile_rule(&syms, &rule, 0).unwrap();
        (syms, c)
    }

    #[test]
    fn plan_orders_comparison_after_binding_match() {
        let (_s, c) = compiled("very_slow_speed(X) :- average_speed(X,Y), Y < 20.");
        assert_eq!(c.plan.len(), 2);
        assert!(matches!(c.plan[0], Step::Match { .. }));
        assert!(matches!(c.plan[1], Step::Compare { .. }));
    }

    #[test]
    fn plan_defers_negation_until_bound() {
        let (_s, c) =
            compiled("traffic_jam(X) :- not traffic_light(X), very_slow_speed(X), many_cars(X).");
        assert!(matches!(c.plan[0], Step::Match { .. }));
        assert!(matches!(c.plan[2], Step::NegCheck { .. }));
    }

    #[test]
    fn eq_binds_variables() {
        let (_s, c) = compiled("p(Z) :- q(X), Z = X + 1.");
        assert!(c.plan.iter().any(|s| matches!(s, Step::Bind { .. })));
    }

    #[test]
    fn unsafe_head_variable_is_rejected() {
        let syms = Symbols::new();
        let rule = parse_rule(&syms, "p(Y) :- q(X).").unwrap();
        let err = compile_rule(&syms, &rule, 0).unwrap_err();
        assert!(
            matches!(err, AspError::UnsafeRule { ref variable, .. } if variable == "Y"),
            "{err}"
        );
    }

    #[test]
    fn unsafe_negated_variable_is_rejected() {
        let syms = Symbols::new();
        let rule = parse_rule(&syms, "p :- not q(X).").unwrap();
        assert!(compile_rule(&syms, &rule, 0).is_err());
    }

    #[test]
    fn unsafe_comparison_variable_is_rejected() {
        let syms = Symbols::new();
        let rule = parse_rule(&syms, "p :- q(X), X < Y.").unwrap();
        assert!(compile_rule(&syms, &rule, 0).is_err());
    }

    #[test]
    fn second_literal_keys_on_join_variable() {
        let (_s, c) = compiled("h(X) :- a(X), b(X).");
        match &c.plan[1] {
            Step::Match { static_bound, .. } => assert_eq!(&static_bound[..], &[true]),
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn forced_first_literal_leads_plan() {
        let (_s, c) = compiled("h(X) :- a(X), b(X).");
        let plan = make_plan(&c.body, c.var_count, Some(1)).unwrap();
        match &plan[0] {
            Step::Match { atom, .. } => {
                assert_eq!(atom.pred.arity, 1);
                // Literal 1 is b/1.
                match &c.body[1] {
                    CLit::Pos(b) => assert_eq!(atom.pred, b.pred),
                    _ => unreachable!(),
                }
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn compare_semantics() {
        let syms = Symbols::new();
        let a = GroundTerm::Const(syms.intern("a"));
        let b = GroundTerm::Const(syms.intern("b"));
        assert!(compare(&a, CmpOp::Neq, &b).unwrap());
        assert!(compare(&a, CmpOp::Eq, &a).unwrap());
        assert!(compare(&GroundTerm::Int(1), CmpOp::Lt, &GroundTerm::Int(2)).unwrap());
        assert!(compare(&a, CmpOp::Lt, &b).is_err());
    }

    #[test]
    fn cterm_eval_folds_arithmetic() {
        let (_s, c) = compiled("p(Z) :- q(X), Z = 2 * X + 1.");
        let bind = c.plan.iter().find_map(|s| match s {
            Step::Bind { expr, .. } => Some(expr.clone()),
            _ => None,
        });
        let expr = bind.expect("plan must contain a bind");
        // q's X is slot... find it by evaluating with X = 5.
        let mut subst = vec![None; c.var_count as usize];
        for slot in 0..c.var_count {
            subst[slot as usize] = Some(GroundTerm::Int(5));
        }
        assert_eq!(expr.eval(&subst).unwrap(), GroundTerm::Int(11));
    }
}
