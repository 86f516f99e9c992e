//! Conflict-driven stable-model solver for ground ASP programs — the
//! drop-in substitute for the Clingo 4.3 solving phase that the paper's
//! StreamRule reasoner invokes.
//!
//! The reasoners call it only for programs with choice, disjunction or a
//! negative cycle. A stratified program has one answer set per window,
//! which [`Grounder::perfect_model`](asp_grounder::Grounder::perfect_model)
//! evaluates bottom-up without CNF or search; [`solve_ground`] still accepts
//! such programs and returns the same answer.
//!
//! Pipeline: [`translate`] builds Clark-completion clauses (shifting
//! head-cycle-free disjunction), the CDCL [`engine`] enumerates completion
//! models, and [`stability`] rejects unfounded (non-stable) models by
//! learning loop clauses on the fly. Tight programs skip the stability check
//! entirely.

#![warn(missing_docs)]

pub mod clause;
pub mod engine;
pub mod heap;
pub mod lit;
pub mod stability;
pub mod translate;

use asp_core::{AnswerSet, AspError, AtomId, GroundAtom, GroundProgram, Program, Symbols};
use asp_grounder::{is_internal_predicate, Grounder};
use engine::{Engine, EngineConfig, SearchOutcome};
use lit::{LBool, Lit, Var};

/// Solver configuration.
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    /// Maximum number of answer sets to enumerate; 0 means all.
    pub max_models: usize,
    /// Engine tunables (restarts, learnt-clause budget).
    pub engine: EngineConfig,
}

/// Statistics of one solve call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Ground atoms in the input program.
    pub atoms: usize,
    /// Solver variables (atoms + bodies).
    pub vars: usize,
    /// Completion clauses generated.
    pub clauses: usize,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL propagations.
    pub propagations: u64,
    /// Restarts.
    pub restarts: u64,
    /// Total-assignment stability checks performed.
    pub stability_checks: u64,
    /// Completion models rejected as unstable.
    pub unstable_models: u64,
}

/// Result of one solve call.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The enumerated answer sets (internal auxiliary atoms filtered out).
    pub answer_sets: Vec<AnswerSet>,
    /// Statistics.
    pub stats: SolveStats,
}

impl SolveResult {
    /// True when at least one answer set exists.
    pub fn satisfiable(&self) -> bool {
        !self.answer_sets.is_empty()
    }
}

/// Solves a ground program.
pub fn solve_ground(
    syms: &Symbols,
    gp: &GroundProgram,
    cfg: &SolverConfig,
) -> Result<SolveResult, AspError> {
    let tr = translate::translate(syms, gp)?;
    let mut stats = SolveStats {
        atoms: tr.n_atoms,
        vars: tr.n_vars,
        clauses: tr.clauses.len(),
        ..Default::default()
    };
    let mut result = SolveResult { answer_sets: Vec::new(), stats };
    if tr.trivially_unsat {
        return Ok(result);
    }

    let mut eng = Engine::new(tr.n_vars, cfg.engine.clone());
    let mut ok = true;
    for c in &tr.clauses {
        if !eng.add_clause(c.clone()) {
            ok = false;
            break;
        }
    }

    while ok && eng.is_ok() {
        match eng.run_until_model() {
            SearchOutcome::Exhausted => break,
            SearchOutcome::Model => {
                if !tr.tight {
                    stats.stability_checks += 1;
                    let loops = stability::check_stability(&tr.rules, tr.n_atoms, |v| eng.value(v));
                    if !loops.is_empty() {
                        stats.unstable_models += 1;
                        eng.backtrack(0);
                        for clause in loops {
                            if !eng.add_clause(clause) {
                                ok = false;
                                break;
                            }
                        }
                        continue;
                    }
                }
                // Extract the answer set (drop internal choice auxiliaries).
                let mut atoms: Vec<GroundAtom> = Vec::new();
                let mut blocking: Vec<Lit> = Vec::with_capacity(tr.n_atoms);
                for i in 0..tr.n_atoms {
                    let v = Var(i as u32);
                    let val = eng.value(v);
                    blocking.push(if val == LBool::True { Lit::neg(v) } else { Lit::pos(v) });
                    if val == LBool::True {
                        let atom = gp.atoms.resolve(AtomId(i as u32));
                        if !is_internal_predicate(syms, atom.pred) {
                            atoms.push(atom.clone());
                        }
                    }
                }
                result.answer_sets.push(AnswerSet::new(atoms, syms));
                if cfg.max_models != 0 && result.answer_sets.len() >= cfg.max_models {
                    break;
                }
                eng.backtrack(0);
                if !eng.add_clause(blocking) {
                    break;
                }
            }
        }
    }

    stats.conflicts = eng.stats.conflicts;
    stats.decisions = eng.stats.decisions;
    stats.propagations = eng.stats.propagations;
    stats.restarts = eng.stats.restarts;
    result.stats = stats;
    Ok(result)
}

/// Grounds and solves a non-ground program against `facts` in one call.
pub fn solve(
    syms: &Symbols,
    program: &Program,
    facts: &[GroundAtom],
    cfg: &SolverConfig,
) -> Result<SolveResult, AspError> {
    let grounder = Grounder::new(syms, program)?;
    let gp = grounder.ground(facts)?;
    solve_ground(syms, &gp, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    fn answer_sets(src: &str) -> Vec<Vec<String>> {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let res = solve(&syms, &program, &[], &SolverConfig::default()).unwrap();
        let mut sets: Vec<Vec<String>> = res
            .answer_sets
            .iter()
            .map(|a| a.atoms().iter().map(|x| x.display(&syms).to_string()).collect())
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn facts_and_chains() {
        assert_eq!(answer_sets("p. q :- p."), vec![vec!["p".to_string(), "q".to_string()]]);
    }

    #[test]
    fn even_negation_loop_has_two_models() {
        let sets = answer_sets("a :- not b. b :- not a.");
        assert_eq!(sets, vec![vec!["a".to_string()], vec!["b".to_string()]]);
    }

    #[test]
    fn constraint_prunes_models() {
        let sets = answer_sets("a :- not b. b :- not a. :- b.");
        assert_eq!(sets, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn odd_loop_is_unsat() {
        assert!(answer_sets("p :- not p.").is_empty());
    }

    #[test]
    fn choice_rule_enumerates_subsets() {
        let sets = answer_sets("{a}.");
        assert_eq!(sets, vec![vec![], vec!["a".to_string()]]);
        let sets = answer_sets("{a; b}.");
        assert_eq!(sets.len(), 4);
    }

    #[test]
    fn disjunction_splits() {
        let sets = answer_sets("a | b.");
        assert_eq!(sets, vec![vec!["a".to_string()], vec!["b".to_string()]]);
    }

    #[test]
    fn disjunction_respects_minimality_via_shifting() {
        // a | b.  a :- b.   Only {a} is a minimal model.
        let sets = answer_sets("a | b. a :- b.");
        assert_eq!(sets, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn unfounded_loop_rejected() {
        // Without c, {a, b} would be a completion model but is unfounded.
        let sets = answer_sets("a :- b. b :- a. a :- c. {c}.");
        assert_eq!(sets, vec![vec![], vec!["a".to_string(), "b".to_string(), "c".to_string()]]);
    }

    #[test]
    fn positive_loop_without_support_is_empty_model() {
        let sets = answer_sets("a :- b. b :- a.");
        assert_eq!(sets, vec![Vec::<String>::new()]);
    }

    #[test]
    fn strong_negation_conflict_is_unsat() {
        assert!(answer_sets("p. -p.").is_empty());
    }

    #[test]
    fn strong_negation_without_conflict() {
        let sets = answer_sets("-p. q :- -p.");
        assert_eq!(sets, vec![vec!["-p".to_string(), "q".to_string()]]);
    }

    #[test]
    fn max_models_limits_enumeration() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "{a; b; c}.").unwrap();
        let res =
            solve(&syms, &program, &[], &SolverConfig { max_models: 3, ..Default::default() })
                .unwrap();
        assert_eq!(res.answer_sets.len(), 3);
    }

    #[test]
    fn empty_program_has_empty_model() {
        let sets = answer_sets("");
        assert_eq!(sets, vec![Vec::<String>::new()]);
    }

    #[test]
    fn grounding_plus_solving_with_variables() {
        let sets = answer_sets("p(1). p(2). q(X) :- p(X), not r(X). r(1).");
        assert_eq!(sets.len(), 1);
        assert!(sets[0].contains(&"q(2)".to_string()));
        assert!(!sets[0].contains(&"q(1)".to_string()));
    }

    #[test]
    fn stats_are_populated() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "{a}. b :- a.").unwrap();
        let res = solve(&syms, &program, &[], &SolverConfig::default()).unwrap();
        assert!(res.stats.vars > 0);
        assert!(res.stats.clauses > 0);
        assert_eq!(res.answer_sets.len(), 2);
    }

    #[test]
    fn deterministic_enumeration_order() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "{a; b}.").unwrap();
        let r1 = solve(&syms, &program, &[], &SolverConfig::default()).unwrap();
        let r2 = solve(&syms, &program, &[], &SolverConfig::default()).unwrap();
        let render = |r: &SolveResult| {
            r.answer_sets.iter().map(|a| a.display(&syms).to_string()).collect::<Vec<_>>()
        };
        assert_eq!(render(&r1), render(&r2));
    }
}
