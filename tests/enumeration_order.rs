//! Golden of CDCL's answer-set *enumeration order* on a fixed choice
//! program. Grounding hands the solver its rules in the order the join
//! probes yield tuples, and the solver's search follows that order, so any
//! change to relation storage or probe order that reorders proto rules
//! shows up here as a reordered sequence — even when the set of answers is
//! unchanged. Each answer set also renders in `AnswerSet`'s atom order, so
//! the golden pins that order too.
//!
//! To bless an intentional change:
//!
//! ```text
//! BLESS_GOLDENS=1 cargo test --test enumeration_order
//! ```

use stream_reasoner::asp_core::GroundTerm;
use stream_reasoner::prelude::*;

const GOLDEN: &str = "tests/goldens/choice_enumeration.txt";

// Choices over joined input facts (bound-pattern probes on `conflict` and
// `weight`), a plain `{a;b;c}` choice with a constraint, stratified
// negation over the chosen atoms, and strong negation.
const PROGRAM: &str = r#"
    { pick(X) } :- item(X).
    :- pick(X), pick(Y), conflict(X,Y).
    { a; b; c }.
    :- a, b.
    heavy(X) :- pick(X), weight(X,W), W > 5.
    light(X) :- item(X), not pick(X), not a.
    -free(X) :- pick(X), c.
"#;

fn facts(syms: &Symbols) -> Vec<GroundAtom> {
    let atom = |name: &str, args: &[i64]| {
        GroundAtom::new(syms.intern(name), args.iter().map(|&v| GroundTerm::Int(v)).collect())
    };
    let mut facts: Vec<GroundAtom> = (1..=4).map(|i| atom("item", &[i])).collect();
    facts.extend([[1, 2], [2, 3], [3, 4]].iter().map(|p| atom("conflict", p)));
    facts.extend([[1, 3], [2, 7], [3, 9], [4, 1]].iter().map(|p| atom("weight", p)));
    facts
}

#[test]
fn choice_program_enumerates_in_its_golden_order() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM).unwrap();
    let result = solve(&syms, &program, &facts(&syms), &SolverConfig::default()).unwrap();
    let actual: String =
        result.answer_sets.iter().map(|a| format!("{}\n", a.display(&syms))).collect();
    assert!(result.answer_sets.len() > 8, "the program branches: {actual}");
    if std::env::var_os("BLESS_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden {GOLDEN}: {e}\nbless with: BLESS_GOLDENS=1 cargo test --test enumeration_order")
    });
    assert_eq!(expected, actual, "answer-set enumeration order drifted from {GOLDEN}");
}
