//! Cost-based join ordering: the greedy state machine behind every rule
//! plan, parameterized by a [`CostSource`].
//!
//! [`plan`] walks the rule body exactly like the original
//! [`crate::compile::make_plan`] heuristic did — eager comparisons and
//! binds, fully bound negation last, an optional forced-first literal for
//! semi-naive delta designation — but picks the next positive literal by
//! *estimated cost* instead of bound-argument count. Two cost sources
//! exist:
//!
//! * [`SyntacticCost`] — `-(bound argument count)`: reproduces the
//!   original heuristic bit for bit (strictly-smaller-wins over an
//!   ascending scan is exactly max-score with earliest-index tie-break),
//!   so planner-off behavior is unchanged by construction;
//! * [`crate::stats::RelationStats`] — `cardinality / Π distinct(bound
//!   positions)`, the classic textbook join-size estimate: a literal's
//!   cost is how many tuples the match is expected to enumerate given the
//!   variables already bound.
//!
//! Plan order changes join evaluation *order*, never the derived set: the
//! set of variables bound after running a plan depends only on which
//! literals it contains, and both grounding paths dedup emissions on
//! `(rule, full bindings)`. The planner-on/off identity property tests
//! enforce this end to end.

use crate::compile::{first_unbound, CAtom, CLit, CTerm, Source, Step};
use crate::stats::RelationStats;
use asp_core::{CmpOp, Predicate};

/// A cost model for the greedy planner: estimates how expensive matching
/// `atom` next would be, given which variable slots are currently bound.
/// Lower is cheaper; exact ties keep source order.
pub trait CostSource {
    /// Estimated cost of matching `atom` with the given bound-slot mask.
    /// Must be finite (never NaN) so the strict `<` comparison in [`plan`]
    /// stays a total order over candidates.
    fn cost(&self, atom: &CAtom, bound: &[bool]) -> f64;
}

/// The original syntactic heuristic expressed as a cost: minus the number
/// of bound arguments, so "most bound args first, source order on ties"
/// falls out of the generic minimum-cost selection unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyntacticCost;

impl CostSource for SyntacticCost {
    fn cost(&self, atom: &CAtom, bound: &[bool]) -> f64 {
        -(atom.args.iter().filter(|a| a.bound_under(bound)).count() as f64)
    }
}

/// Selectivity credited per bound argument of a predicate the stats have
/// never observed: unknown relations are costed pessimistically at one
/// past the largest known cardinality, discounted by this factor per bound
/// argument — so unknowns order among themselves like the syntactic
/// heuristic, and after relations the stats actually know.
const BOUND_FACTOR: f64 = 8.0;

impl CostSource for RelationStats {
    fn cost(&self, atom: &CAtom, bound: &[bool]) -> f64 {
        let bound_args = atom.args.iter().filter(|a| a.bound_under(bound)).count();
        match self.cardinality(atom.pred) {
            Some(card) => {
                let mut divisor = 1.0;
                for (pos, arg) in atom.args.iter().enumerate() {
                    if arg.bound_under(bound) {
                        divisor *= self.distinct(atom.pred, pos).max(1) as f64;
                    }
                }
                card as f64 / divisor
            }
            None => (1.0 + self.max_cardinality() as f64) / BOUND_FACTOR.powi(bound_args as i32),
        }
    }
}

/// Builds an executable plan for `body`, optionally forcing body literal
/// `forced_first` (which must be a positive atom) to be matched first —
/// the semi-naive delta designation. Positive literals are appended
/// greedily cheapest-first per `cost`; comparisons and binds stay eager
/// and fully bound negation stays last, so safety and stratification
/// semantics are identical for every cost source. Fails with the slot of
/// an unbindable variable when the body is unsafe (a verdict independent
/// of the cost source: the bound-variable set after a plan depends only on
/// which literals were used, so greedy selection in any order completes
/// whenever some order does).
pub fn plan(
    body: &[CLit],
    var_count: u32,
    forced_first: Option<usize>,
    cost: &dyn CostSource,
) -> Result<Vec<Step>, u32> {
    let n = body.len();
    let mut used = vec![false; n];
    let mut bound = vec![false; var_count as usize];
    let mut plan: Vec<Step> = Vec::with_capacity(n);

    let push_match = |i: usize,
                      used: &mut Vec<bool>,
                      bound: &mut Vec<bool>,
                      plan: &mut Vec<Step>| {
        let CLit::Pos(atom) = &body[i] else { unreachable!("match step on non-positive literal") };
        let static_bound: Box<[bool]> = atom.args.iter().map(|a| a.bound_under(bound)).collect();
        for a in atom.args.iter() {
            a.mark_bindable(bound);
        }
        plan.push(Step::Match { atom: atom.clone(), static_bound, source: Source::Full });
        used[i] = true;
    };

    if let Some(f) = forced_first {
        push_match(f, &mut used, &mut bound, &mut plan);
    }

    while used.iter().any(|u| !u) {
        // 1. Cheap deterministic steps first: bound comparisons and binds.
        let mut progressed = false;
        for i in 0..n {
            if used[i] {
                continue;
            }
            if let CLit::Cmp(lhs, op, rhs) = &body[i] {
                let lb = lhs.bound_under(&bound);
                let rb = rhs.bound_under(&bound);
                if lb && rb {
                    plan.push(Step::Compare { lhs: lhs.clone(), op: *op, rhs: rhs.clone() });
                    used[i] = true;
                    progressed = true;
                } else if *op == CmpOp::Eq {
                    // `X = expr` / `expr = X` with exactly one unbound var.
                    let bind = match (lhs, rhs, lb, rb) {
                        (CTerm::Var(s), e, false, true) => Some((*s, e.clone())),
                        (e, CTerm::Var(s), true, false) => Some((*s, e.clone())),
                        _ => None,
                    };
                    if let Some((slot, expr)) = bind {
                        plan.push(Step::Bind { slot, expr });
                        bound[slot as usize] = true;
                        used[i] = true;
                        progressed = true;
                    }
                }
            }
        }
        if progressed {
            continue;
        }

        // 2. Cheapest runnable positive match next; strict `<` over an
        //    ascending scan keeps source order on exact ties.
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if used[i] {
                continue;
            }
            if let CLit::Pos(atom) = &body[i] {
                if !atom.args.iter().all(|a| a.matchable_under(&bound)) {
                    continue;
                }
                let c = cost.cost(atom, &bound);
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, i));
                }
            }
        }
        if let Some((_, i)) = best {
            push_match(i, &mut used, &mut bound, &mut plan);
            continue;
        }

        // 3. Fully bound negative literals.
        let mut neg_done = false;
        for i in 0..n {
            if used[i] {
                continue;
            }
            if let CLit::Neg(atom) = &body[i] {
                if atom.args.iter().all(|a| a.bound_under(&bound)) {
                    plan.push(Step::NegCheck { atom: atom.clone() });
                    used[i] = true;
                    neg_done = true;
                }
            }
        }
        if neg_done {
            continue;
        }

        // 4. Stuck: report the first unbound variable of an unused literal.
        for i in 0..n {
            if used[i] {
                continue;
            }
            let slot = match &body[i] {
                CLit::Pos(a) | CLit::Neg(a) => a.args.iter().find_map(|t| first_unbound(t, &bound)),
                CLit::Cmp(l, _, r) => first_unbound(l, &bound).or_else(|| first_unbound(r, &bound)),
            };
            if let Some(slot) = slot {
                return Err(slot);
            }
        }
        unreachable!("stuck plan with no unbound variable");
    }
    Ok(plan)
}

/// The relation-visit order of a plan: two plans with equal signatures join
/// the same relations in the same order (used to count `plans_reordered` —
/// how many active plans differ from the syntactic heuristic's choice).
pub fn match_signature(plan: &[Step]) -> Vec<Predicate> {
    plan.iter()
        .filter_map(|s| match s {
            Step::Match { atom, .. } => Some(atom.pred),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_rule, make_plan, CompiledRule};
    use asp_core::{GroundAtom, GroundTerm, Symbols};
    use asp_parser::parse_rule;

    fn compiled(src: &str) -> (Symbols, CompiledRule) {
        let syms = Symbols::new();
        let rule = parse_rule(&syms, src).unwrap();
        let c = compile_rule(&syms, &rule, 0).unwrap();
        (syms, c)
    }

    fn fill(facts: &mut Vec<GroundAtom>, syms: &Symbols, name: &str, tuples: &[&[i64]]) {
        facts.extend(tuples.iter().map(|t| {
            GroundAtom::new(syms.intern(name), t.iter().map(|&a| GroundTerm::Int(a)).collect())
        }));
    }

    /// Statistics of one fact window, built as scratch grounding builds them.
    fn rebased(facts: &[GroundAtom]) -> RelationStats {
        let mut stats = RelationStats::new();
        stats.rebase(facts);
        stats
    }

    fn pred_names(syms: &Symbols, plan: &[Step]) -> Vec<String> {
        match_signature(plan).iter().map(|p| syms.resolve(p.name).to_string()).collect()
    }

    #[test]
    fn cheapest_relation_leads_the_join() {
        let (syms, c) = compiled("h(X,Y) :- big(X,Z), small(Z,Y).");
        let mut facts = Vec::new();
        let big: Vec<Vec<i64>> = (0..50).map(|i| vec![i, i % 10]).collect();
        let big_refs: Vec<&[i64]> = big.iter().map(Vec::as_slice).collect();
        fill(&mut facts, &syms, "big", &big_refs);
        fill(&mut facts, &syms, "small", &[&[1, 7], &[2, 8]]);
        let stats = rebased(&facts);
        let plan = plan(&c.body, c.var_count, None, &stats).unwrap();
        assert_eq!(pred_names(&syms, &plan), vec!["small", "big"], "2 tuples beat 50");
        // The syntactic heuristic would have kept source order here.
        let syntactic = make_plan(&c.body, c.var_count, None).unwrap();
        assert_eq!(pred_names(&syms, &syntactic), vec!["big", "small"]);
        assert_ne!(match_signature(&plan), match_signature(&syntactic));
    }

    #[test]
    fn bound_positions_divide_by_distinct_counts() {
        // After watch(X) binds X, src(X,Z) with 50 tuples over 50 distinct
        // X values estimates at 1 tuple — cheaper than dst with 20 tuples
        // and nothing bound.
        let (syms, c) = compiled("h(X,Y) :- watch(X), dst(W,Y), src(X,W).");
        let mut facts = Vec::new();
        fill(&mut facts, &syms, "watch", &[&[1], &[2]]);
        let src: Vec<Vec<i64>> = (0..50).map(|i| vec![i, i + 100]).collect();
        let src_refs: Vec<&[i64]> = src.iter().map(Vec::as_slice).collect();
        fill(&mut facts, &syms, "src", &src_refs);
        let dst: Vec<Vec<i64>> = (0..20).map(|i| vec![i + 100, i]).collect();
        let dst_refs: Vec<&[i64]> = dst.iter().map(Vec::as_slice).collect();
        fill(&mut facts, &syms, "dst", &dst_refs);
        let stats = rebased(&facts);
        let plan = plan(&c.body, c.var_count, None, &stats).unwrap();
        assert_eq!(pred_names(&syms, &plan), vec!["watch", "src", "dst"]);
    }

    #[test]
    fn equal_estimates_reproduce_source_order() {
        let (syms, c) = compiled("h(X,Y) :- a(X), b(Y), c(X,Y).");
        let mut facts = Vec::new();
        fill(&mut facts, &syms, "a", &[&[1], &[2], &[3]]);
        fill(&mut facts, &syms, "b", &[&[4], &[5], &[6]]);
        let cs: Vec<Vec<i64>> = (0..9).map(|i| vec![i % 3 + 1, i / 3 + 4]).collect();
        let c_refs: Vec<&[i64]> = cs.iter().map(Vec::as_slice).collect();
        fill(&mut facts, &syms, "c", &c_refs);
        let stats = rebased(&facts);
        let plan = plan(&c.body, c.var_count, None, &stats).unwrap();
        // First pick: a and b tie at cost 3, a wins by source order. After X
        // is bound, b (3 tuples) ties with c (9 / 3 distinct X values): b
        // wins by source order again.
        assert_eq!(pred_names(&syms, &plan), vec!["a", "b", "c"]);
    }

    #[test]
    fn unknown_predicates_cost_more_than_any_known_relation() {
        // `derived` never appears in the stats (an IDB predicate during
        // scratch grounding): it must not jump ahead of known relations.
        let (syms, c) = compiled("h(X) :- derived(X), known(X).");
        let mut facts = Vec::new();
        fill(&mut facts, &syms, "known", &[&[1], &[2], &[3], &[4]]);
        let stats = rebased(&facts);
        let plan = plan(&c.body, c.var_count, None, &stats).unwrap();
        assert_eq!(pred_names(&syms, &plan), vec!["known", "derived"]);
    }

    #[test]
    fn forced_first_and_safety_are_cost_independent() {
        let (syms, c) = compiled("h(X) :- a(X), b(X).");
        let stats = RelationStats::new();
        let p = plan(&c.body, c.var_count, Some(1), &stats).unwrap();
        assert_eq!(pred_names(&syms, &p), vec!["b", "a"], "the forced literal stays first");
        // An unsafe body fails identically under any cost source.
        let syms2 = Symbols::new();
        let rule = parse_rule(&syms2, "p :- q(X), X < Y.").unwrap();
        assert!(compile_rule(&syms2, &rule, 0).is_err());
    }

    #[test]
    fn negation_and_comparisons_keep_their_phases() {
        let (syms, c) = compiled("h(X) :- not blocked(X), obs(X,Y), Y < 20, tiny(X).");
        let mut facts = Vec::new();
        let obs: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i]).collect();
        let obs_refs: Vec<&[i64]> = obs.iter().map(Vec::as_slice).collect();
        fill(&mut facts, &syms, "obs", &obs_refs);
        fill(&mut facts, &syms, "tiny", &[&[1]]);
        let stats = rebased(&facts);
        let plan = plan(&c.body, c.var_count, None, &stats).unwrap();
        assert_eq!(pred_names(&syms, &plan), vec!["tiny", "obs"]);
        assert!(
            matches!(plan.last(), Some(Step::NegCheck { .. })),
            "fully bound negation stays last regardless of cost"
        );
        assert!(plan.iter().any(|s| matches!(s, Step::Compare { .. })));
        let cmp_pos = plan.iter().position(|s| matches!(s, Step::Compare { .. })).unwrap();
        let obs_pos = plan
            .iter()
            .position(|s| matches!(s, Step::Match { atom, .. } if &*syms.resolve(atom.pred.name) == "obs"))
            .unwrap();
        assert!(cmp_pos > obs_pos, "the comparison runs as soon as Y is bound");
    }
}
