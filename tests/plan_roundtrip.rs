//! Property tests for the analysis pipeline on randomly generated
//! join-style programs: it always yields a valid plan covering every input.

use proptest::prelude::*;
use stream_reasoner::prelude::*;

/// Random "star-join" programs: each rule joins 1–3 input predicates from a
/// pool; the analysis must always produce a valid plan covering all inputs.
fn program_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (prop::collection::btree_set(0u8..10, 1..=3), 0u8..4, any::<bool>()),
        1..8,
    )
    .prop_map(|rules| {
        let mut src = String::new();
        for (ri, (inputs, head, negate_last)) in rules.into_iter().enumerate() {
            let inputs: Vec<u8> = inputs.into_iter().collect();
            let mut body: Vec<String> = inputs.iter().map(|i| format!("in{i}(X)")).collect();
            if negate_last && body.len() > 1 {
                let last = body.pop().unwrap();
                body.push(format!("not {last}"));
            }
            src.push_str(&format!("h{head}_{ri}(X) :- {}.\n", body.join(", ")));
        }
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn analysis_always_yields_a_valid_covering_plan(src in program_strategy()) {
        let syms = Symbols::new();
        let program = parse_program(&syms, &src).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
                .unwrap();
        prop_assert!(analysis.plan.validate().is_ok());
        // Every input predicate has at least one community.
        for p in &analysis.inpre {
            let name = syms.resolve(p.name);
            prop_assert!(
                analysis.plan.communities_of(&name).is_some(),
                "{name} missing from plan\nprogram:\n{src}"
            );
        }
        // Disconnected graphs use connected components, which co-locate every
        // join by construction — the check must pass. The Louvain path
        // duplicates boundary sets only *pairwise* (the paper's procedure),
        // which can in principle leave a ≥3-community join uncovered; the
        // verify_plan diagnostic exists precisely to surface that, so a
        // violation is only acceptable on that path.
        use stream_reasoner::sr_core::DecompositionMethod;
        let violations = analysis.verify_plan(&syms);
        if analysis.decomposition.method != DecompositionMethod::Louvain {
            prop_assert!(violations.is_empty(), "{violations:?}\nprogram:\n{src}");
        }
    }
}
