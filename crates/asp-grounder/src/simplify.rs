//! Post-grounding simplification: the certain/possible analysis that turns
//! proto rules into the final ground program, mirroring what production
//! grounders (gringo, DLV) do after instantiation.
//!
//! * an atom is **possible** when it occurs in some relation (facts plus any
//!   rule head instance) — the over-approximation of what can be true;
//! * an atom is **certain** when it is derivable through rules whose positive
//!   body is certain and whose default-negated atoms are not even possible —
//!   such atoms hold in every stable model.
//!
//! Simplifications applied, each standard and model-preserving:
//! * `not b` with `b` not possible → literal deleted (vacuously true);
//! * `not b` with `b` certain → rule deleted (can never fire);
//! * positive `b` with `b` certain → literal deleted (already supported);
//! * single-head rule whose head is certain → rule replaced by the fact;
//! * multi-head rule with a certain head → rule deleted (already satisfied).

use crate::relation::Relation;
use asp_core::{AtomId, FastMap, FastSet, GroundAtom, GroundProgram, GroundRule, Predicate};

/// A ground rule instance before simplification, over concrete atoms.
#[derive(Clone, Debug)]
pub struct ProtoRule {
    /// Head atoms (empty = constraint).
    pub heads: Vec<GroundAtom>,
    /// Positive body.
    pub pos: Vec<GroundAtom>,
    /// Default-negated body.
    pub neg: Vec<GroundAtom>,
}

/// Runs the certain/possible simplification and builds the final
/// [`GroundProgram`].
pub fn finalize(relations: &FastMap<Predicate, Relation>, proto: Vec<ProtoRule>) -> GroundProgram {
    let possible = |a: &GroundAtom| -> bool {
        relations.get(&a.predicate()).is_some_and(|r| r.contains(&a.args))
    };
    // 1. Vacuously true negative literals (atom not possible) are dropped:
    //    compute the surviving negative body per rule.
    let kept_neg: Vec<Vec<&GroundAtom>> =
        proto.iter().map(|rule| rule.neg.iter().filter(|a| possible(a)).collect()).collect();

    // 2. Certain fixpoint with counting.
    let mut certain_ids: FastMap<GroundAtom, usize> = FastMap::default();
    let mut certain_list: Vec<GroundAtom> = Vec::new();
    let mark_certain = |a: &GroundAtom,
                        list: &mut Vec<GroundAtom>,
                        ids: &mut FastMap<GroundAtom, usize>|
     -> bool {
        if ids.contains_key(a) {
            return false;
        }
        ids.insert(a.clone(), list.len());
        list.push(a.clone());
        true
    };

    // watchers[atom] = indices of eligible rules waiting on it.
    let mut watchers: FastMap<GroundAtom, Vec<usize>> = FastMap::default();
    let mut remaining: Vec<usize> = vec![usize::MAX; proto.len()];
    let mut queue: Vec<GroundAtom> = Vec::new();
    for (ri, rule) in proto.iter().enumerate() {
        if rule.heads.len() != 1 || !kept_neg[ri].is_empty() {
            continue;
        }
        remaining[ri] = rule.pos.len();
        if rule.pos.is_empty() {
            if mark_certain(&rule.heads[0], &mut certain_list, &mut certain_ids) {
                queue.push(rule.heads[0].clone());
            }
        } else {
            for p in &rule.pos {
                watchers.entry(p.clone()).or_default().push(ri);
            }
        }
    }
    while let Some(atom) = queue.pop() {
        let Some(rules) = watchers.get(&atom) else { continue };
        // Count each occurrence: a rule may repeat an atom in its body.
        for &ri in rules.clone().iter() {
            let dups = proto[ri].pos.iter().filter(|p| **p == atom).count();
            remaining[ri] = remaining[ri].saturating_sub(dups);
            if remaining[ri] == 0 {
                remaining[ri] = usize::MAX; // fire once
                let head = proto[ri].heads[0].clone();
                if mark_certain(&head, &mut certain_list, &mut certain_ids) {
                    queue.push(head);
                }
            }
        }
    }
    let certain = |a: &GroundAtom| certain_ids.contains_key(a);

    // 3. Build the final program.
    let mut out = GroundProgram::default();
    let mut emitted: FastSet<GroundRule> = FastSet::default();
    for fact in &certain_list {
        let id: AtomId = out.atoms.intern(fact.clone());
        let rule = GroundRule::fact(id);
        if emitted.insert(rule.clone()) {
            out.rules.push(rule);
        }
    }
    for (ri, rule) in proto.iter().enumerate() {
        if kept_neg[ri].iter().any(|a| certain(a)) {
            continue; // can never fire
        }
        if !rule.heads.is_empty() && rule.heads.iter().any(certain) {
            continue; // already satisfied (single head: emitted as a fact)
        }
        let head: Vec<AtomId> = rule.heads.iter().map(|a| out.atoms.intern(a.clone())).collect();
        let pos: Vec<AtomId> =
            rule.pos.iter().filter(|a| !certain(a)).map(|a| out.atoms.intern(a.clone())).collect();
        let neg: Vec<AtomId> =
            kept_neg[ri].iter().map(|a| out.atoms.intern((*a).clone())).collect();
        let ground = GroundRule { head, pos, neg };
        if emitted.insert(ground.clone()) {
            out.rules.push(ground);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::{GroundTerm, Symbols};

    fn atom(syms: &Symbols, name: &str, arg: i64) -> GroundAtom {
        GroundAtom::new(syms.intern(name), vec![GroundTerm::Int(arg)])
    }

    fn relations_for(atoms: &[GroundAtom]) -> FastMap<Predicate, Relation> {
        let mut rels: FastMap<Predicate, Relation> = FastMap::default();
        for a in atoms {
            rels.entry(a.predicate()).or_default().insert(a.args.clone());
        }
        rels
    }

    #[test]
    fn impossible_negatives_are_dropped() {
        let syms = Symbols::new();
        let f = atom(&syms, "f", 1);
        let h = atom(&syms, "h", 1);
        let ghost = atom(&syms, "ghost", 1);
        let rels = relations_for(&[f.clone(), h.clone()]);
        let proto = vec![
            ProtoRule { heads: vec![f.clone()], pos: vec![], neg: vec![] },
            ProtoRule { heads: vec![h.clone()], pos: vec![f.clone()], neg: vec![ghost] },
        ];
        let gp = finalize(&rels, proto);
        // Both f and h become certain facts; no residual rules.
        assert_eq!(gp.rules.len(), 2);
        assert!(gp.rules.iter().all(|r| r.is_fact()));
    }

    #[test]
    fn certain_negative_kills_rule() {
        let syms = Symbols::new();
        let f = atom(&syms, "f", 1);
        let h = atom(&syms, "h", 1);
        let rels = relations_for(&[f.clone(), h.clone()]);
        let proto = vec![
            ProtoRule { heads: vec![f.clone()], pos: vec![], neg: vec![] },
            ProtoRule { heads: vec![h.clone()], pos: vec![], neg: vec![f.clone()] },
        ];
        let gp = finalize(&rels, proto);
        assert_eq!(gp.rules.len(), 1, "h :- not f must be deleted");
        assert!(gp.rules[0].is_fact());
        assert_eq!(gp.atoms.resolve(gp.rules[0].head[0]), &f);
    }

    #[test]
    fn non_certain_chains_stay_as_rules() {
        let syms = Symbols::new();
        let a = atom(&syms, "a", 1);
        let b = atom(&syms, "b", 1);
        let rels = relations_for(&[a.clone(), b.clone()]);
        // a :- not b.  b :- not a.  Classic even loop: nothing certain.
        let proto = vec![
            ProtoRule { heads: vec![a.clone()], pos: vec![], neg: vec![b.clone()] },
            ProtoRule { heads: vec![b.clone()], pos: vec![], neg: vec![a.clone()] },
        ];
        let gp = finalize(&rels, proto);
        assert_eq!(gp.rules.len(), 2);
        assert!(gp.rules.iter().all(|r| !r.is_fact()));
    }

    #[test]
    fn certain_positive_literals_are_removed() {
        let syms = Symbols::new();
        let f = atom(&syms, "f", 1);
        let g = atom(&syms, "g", 1);
        let h = atom(&syms, "h", 1);
        let rels = relations_for(&[f.clone(), g.clone(), h.clone()]);
        // f. g :- not h_ghost (possible h blocks certainty of g).
        // h :- f, g.   f certain => literal dropped; g not certain => kept.
        let proto = vec![
            ProtoRule { heads: vec![f.clone()], pos: vec![], neg: vec![] },
            ProtoRule { heads: vec![g.clone()], pos: vec![], neg: vec![h.clone()] },
            ProtoRule { heads: vec![h.clone()], pos: vec![f.clone(), g.clone()], neg: vec![] },
        ];
        let gp = finalize(&rels, proto);
        let rule = gp
            .rules
            .iter()
            .find(|r| !r.is_fact() && !r.head.is_empty() && gp.atoms.resolve(r.head[0]) == &h)
            .expect("h rule kept");
        assert_eq!(rule.pos.len(), 1, "certain f dropped, g kept");
    }

    #[test]
    fn empty_constraint_survives_as_unsat_marker() {
        let syms = Symbols::new();
        let f = atom(&syms, "f", 1);
        let rels = relations_for(std::slice::from_ref(&f));
        let proto = vec![
            ProtoRule { heads: vec![f.clone()], pos: vec![], neg: vec![] },
            ProtoRule { heads: vec![], pos: vec![f.clone()], neg: vec![] },
        ];
        let gp = finalize(&rels, proto);
        let constraint = gp.rules.iter().find(|r| r.is_constraint()).expect("constraint kept");
        assert!(constraint.pos.is_empty(), "certain positive literal removed -> empty constraint");
    }
}
