//! Differential test for the reasoners' stratified path: `SingleReasoner`
//! answers a stratified program with the grounder's bottom-up perfect model
//! (`Grounder::perfect_model`), never the CDCL solver, so its answers must
//! equal `solve_ground(grounder.ground(facts))` byte for byte — including
//! unsatisfiable windows, where both give no answer set.
//!
//! Random programs follow the layered shape of `asp-solver`'s `vs_naive`
//! suite (positive bodies up to the head's own layer, so same-layer
//! recursion; negation strictly below), over binary predicates so bodies
//! join, plus one strong-negated head and one integrity constraint. Fixed
//! cases run the paper's P, P′ and `assets/large_traffic.lp` over generated
//! windows.

use proptest::prelude::*;
use stream_reasoner::asp_grounder::Grounder;
use stream_reasoner::prelude::*;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");
const LARGE_TRAFFIC: &str = include_str!("../assets/large_traffic.lp");
/// P′'s extra rule (the paper's r7): it couples the two communities of P.
const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

const LAYERS: u8 = 3;
const PREDS_PER_LAYER: u8 = 2;
const CONSTS: u8 = 3;
/// Argument patterns; the first two bind both head variables.
const PATTERNS: [&str; 4] = ["X,Y", "Y,X", "X,Z", "Z,Y"];

/// A binary atom `l{layer}p{idx}(PATTERNS[args])`.
#[derive(Clone, Debug)]
struct Lit {
    layer: u8,
    idx: u8,
    args: u8,
}

impl Lit {
    fn render(&self) -> String {
        format!("l{}p{}({})", self.layer, self.idx, PATTERNS[self.args as usize])
    }
}

#[derive(Clone, Debug)]
struct RuleSpec {
    head_layer: u8,
    head_idx: u8,
    /// The first positive literal; generated rules draw its pattern from
    /// the two that bind both `X` and `Y`.
    first: Lit,
    pos: Vec<Lit>,
    neg: Vec<Lit>,
}

impl RuleSpec {
    fn render(&self, head: &str) -> String {
        let mut body = vec![self.first.render()];
        body.extend(self.pos.iter().map(Lit::render));
        body.extend(self.neg.iter().map(|l| format!("not {}", l.render())));
        format!("{head}(X,Y) :- {}.\n", body.join(", "))
    }
}

#[derive(Clone, Debug)]
struct ProgramSpec {
    rules: Vec<RuleSpec>,
    /// Its head is the strong negation `-l{L}p{I}` of a layered predicate.
    strong: RuleSpec,
    /// `:- first, pos..., not neg` — the negated atom is the strong-negated
    /// predicate when the flag is set.
    constraint: (Lit, Vec<Lit>, Option<(Lit, bool)>),
    /// Fact windows: `(layer-0 predicate, subject, object)` triples.
    windows: Vec<Vec<(u8, u8, u8)>>,
}

fn lit(max_layer: u8, patterns: u8) -> impl Strategy<Value = Lit> {
    (0..=max_layer, 0..PREDS_PER_LAYER, 0..patterns).prop_map(|(layer, idx, args)| Lit {
        layer,
        idx,
        args,
    })
}

fn rule() -> impl Strategy<Value = RuleSpec> {
    (1u8..LAYERS, 0..PREDS_PER_LAYER).prop_flat_map(|(head_layer, head_idx)| {
        (
            lit(head_layer, 2),
            prop::collection::vec(lit(head_layer, 4), 0..2),
            prop::collection::vec(lit(head_layer - 1, 2), 0..2),
        )
            .prop_map(move |(first, pos, neg)| RuleSpec {
                head_layer,
                head_idx,
                first,
                pos,
                neg,
            })
    })
}

fn spec() -> impl Strategy<Value = ProgramSpec> {
    let top = LAYERS - 1;
    let constraint = (
        lit(top, 2),
        prop::collection::vec(lit(top, 4), 0..2),
        prop::option::weighted(0.7, (lit(top, 2), any::<bool>())),
    );
    let window = prop::collection::vec((0..PREDS_PER_LAYER, 0..CONSTS, 0..CONSTS), 0..10);
    (prop::collection::vec(rule(), 1..6), rule(), constraint, prop::collection::vec(window, 1..5))
        .prop_map(|(rules, strong, constraint, windows)| ProgramSpec {
            rules,
            strong,
            constraint,
            windows,
        })
}

fn build_source(spec: &ProgramSpec) -> String {
    let mut out = String::new();
    for r in &spec.rules {
        out.push_str(&r.render(&format!("l{}p{}", r.head_layer, r.head_idx)));
    }
    let strong_name = format!("-l{}p{}", spec.strong.head_layer, spec.strong.head_idx);
    out.push_str(&spec.strong.render(&strong_name));
    let (first, pos, neg) = &spec.constraint;
    let mut body = vec![first.render()];
    body.extend(pos.iter().map(Lit::render));
    if let Some((l, strong)) = neg {
        body.push(if *strong {
            format!("not {strong_name}({})", PATTERNS[l.args as usize])
        } else {
            format!("not {}", l.render())
        });
    }
    out.push_str(&format!(":- {}.\n", body.join(", ")));
    out
}

fn window_triples(items: &[(u8, u8, u8)]) -> Vec<Triple> {
    items
        .iter()
        .map(|(p, s, o)| {
            Triple::new(
                Node::iri(&format!("k{s}")),
                Node::iri(&format!("l0p{p}")),
                Node::iri(&format!("k{o}")),
            )
        })
        .collect()
}

/// The reasoner under test next to the reference pipeline it must match.
struct Harness {
    syms: Symbols,
    reasoner: SingleReasoner,
    grounder: Grounder,
    format: FormatProcessor,
}

impl Harness {
    fn new(src: &str) -> Self {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let grounder = Grounder::new(&syms, &program).unwrap();
        assert!(grounder.is_stratified(), "test programs are stratified:\n{src}");
        let reasoner = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let format = FormatProcessor::new(&syms, &FormatConfig::from_program(&syms, &program));
        Harness { syms, reasoner, grounder, format }
    }

    /// `(reasoner answers, solver answers)`, rendered one set per entry.
    fn answers(&mut self, window: &Window) -> (Vec<String>, Vec<String>) {
        let out = self.reasoner.process(window).unwrap();
        assert_eq!(out.solve_stats.vars, 0, "a stratified window reached the solver");
        let facts = self.format.window_to_facts(&window.items);
        let ground = self.grounder.ground(&facts).unwrap();
        let reference =
            solve_ground(&self.syms, &ground, &SolverConfig::default()).unwrap().answer_sets;
        let render = |sets: &[AnswerSet]| -> Vec<String> {
            sets.iter().map(|a| a.display(&self.syms).to_string()).collect()
        };
        (render(&out.answers), render(&reference))
    }

    fn assert_matches(&mut self, window: &Window, label: &str) -> bool {
        let (actual, expected) = self.answers(window);
        assert_eq!(actual, expected, "{label}, window {}", window.id);
        !actual.is_empty()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn perfect_model_matches_the_solver_on_random_stratified_programs(s in spec()) {
        let src = build_source(&s);
        let mut h = Harness::new(&src);
        for (id, items) in s.windows.iter().enumerate() {
            let window = Window::new(id as u64, window_triples(items));
            let (actual, expected) = h.answers(&window);
            prop_assert_eq!(actual, expected, "program:\n{}\nwindow: {:?}", src, items);
        }
    }
}

/// The generator's space reaches both unsatisfiable outcomes and negation
/// against a recursive lower stratum.
#[test]
fn fixed_program_covers_constraints_strong_negation_and_recursion() {
    let lit = |layer, idx, args| Lit { layer, idx, args };
    let rule =
        |head_layer, head_idx, first, pos, neg| RuleSpec { head_layer, head_idx, first, pos, neg };
    let s = ProgramSpec {
        rules: vec![
            // l1p0 is the transitive closure of l0p0.
            rule(1, 0, lit(0, 0, 0), vec![], vec![]),
            rule(1, 0, lit(0, 0, 2), vec![lit(1, 0, 3)], vec![]),
            // l2p0: pairs of l0p1 not connected by l1p0.
            rule(2, 0, lit(0, 1, 0), vec![], vec![lit(1, 0, 0)]),
        ],
        // -l2p1 (X,Y): reversed l0p1 pairs.
        strong: rule(2, 1, lit(0, 1, 1), vec![], vec![]),
        // :- l2p0(X,Y), l2p0(Y,X).
        constraint: (lit(2, 0, 0), vec![lit(2, 0, 1)], None),
        windows: Vec::new(),
    };
    let src = format!("{}l2p1(X,Y) :- l0p1(X,Y), l1p0(X,Y).\n", build_source(&s));
    let mut h = Harness::new(&src);
    let window = |id, items: &[(u8, u8, u8)]| Window::new(id, window_triples(items));
    // 0→1→2→3 closes to 0→3 only in a semi-naive delta round, and that
    // blocks l2p0(k0,k3).
    let sat = window(0, &[(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 0, 3)]);
    assert!(h.assert_matches(&sat, "recursion below negation"));
    let rendered = h.answers(&sat).0.concat();
    assert!(rendered.contains("l1p0(k0,k3)") && !rendered.contains("l2p0(k0,k3)"), "{rendered}");
    // l2p0 both ways fires the constraint.
    let violated = window(1, &[(1, 0, 1), (1, 1, 0)]);
    assert!(!h.assert_matches(&violated, "constraint"));
    // l0p1(k0,k1) with l1p0(k0,k1) derives l2p1(k0,k1); l0p1(k1,k0) derives
    // -l2p1(k0,k1): the strong-negation conflict.
    let conflict = window(2, &[(0, 0, 1), (1, 0, 1), (1, 1, 0)]);
    assert!(!h.assert_matches(&conflict, "strong negation"));
}

#[test]
fn paper_programs_match_the_solver_on_paper_windows() {
    let p_prime = format!("{PROGRAM_P}{RULE_R7}");
    for (label, src) in
        [("P", PROGRAM_P), ("P'", p_prime.as_str()), ("LARGE_TRAFFIC", LARGE_TRAFFIC)]
    {
        let mut h = Harness::new(src);
        let mut id = 0;
        for kind in [GeneratorKind::Correlated, GeneratorKind::CorrelatedSparse] {
            let mut generator = paper_generator(kind, 7 + id);
            for _ in 0..2 {
                let window = Window::new(id, generator.window(1_500));
                assert!(
                    h.assert_matches(&window, label),
                    "{label}: no constraints, so satisfiable"
                );
                id += 1;
            }
        }
    }
}

/// `paper_generator` only emits P's predicates; a bursty stream over all of
/// LARGE_TRAFFIC's inputs also fires its weather, bus and breakdown rules.
#[test]
fn large_traffic_matches_the_solver_over_all_its_inputs() {
    let mut h = Harness::new(LARGE_TRAFFIC);
    let syms = Symbols::new();
    let program = parse_program(&syms, LARGE_TRAFFIC).unwrap();
    let inputs: Vec<String> =
        program.edb_predicates().iter().map(|p| syms.resolve(p.name).to_string()).collect();
    let mut generator = BurstyGenerator::new(vec![inputs], 1, 40, 11);
    for id in 0..3 {
        let window = Window::new(id, generator.window(1_500));
        assert!(h.assert_matches(&window, "LARGE_TRAFFIC"));
    }
}
