//! The StreamRule **data format processor**: translation between RDF triples
//! (the stream query processor's output) and ASP facts (the solver's input),
//! and back from answer atoms to RDF. The paper charges this transformation
//! time to reasoning latency, so the processor is allocation-conscious and
//! its cost is measured by the reasoners.
//!
//! Stream sources share names: the generator and the `.nt` reader hand out
//! one `Arc<str>` per distinct IRI or literal text, so a window of thousands
//! of nodes holds a few thousand distinct texts at most. The processor
//! therefore translates each *text allocation* once. Its memo is keyed by
//! the address of a node's `Arc<str>`; a hit reads no string bytes, a miss
//! derives the local name (or parses the literal) and interns it.
//!
//! * **Soundness.** Every entry holds a clone of the `Arc` it was keyed by,
//!   so while the entry lives its address cannot be freed and reused for
//!   other text.
//! * **Bound.** An entry is inserted only when something besides the node
//!   holds the text (`Arc::strong_count > 1`): a name table, another node
//!   or another window, so it can come back. After each call, a memo with
//!   more entries than the call had nodes (three per triple) is cleared, so
//!   it never pins more than a constant multiple of the last window.

use crate::model::{local_name, Node, Triple};
use asp_core::{
    Args, AspError, FastMap, FastSet, GroundAtom, GroundTerm, Predicate, Program, Sym, Symbols,
};
use std::sync::Arc;

/// Configuration of the data format processor. IRIs always become their
/// local name (`...#newcastle` → constant `newcastle`), which matches how
/// programs like Listing 1 name their constants.
#[derive(Clone, Debug, Default)]
pub struct FormatConfig {
    /// Predicates translated as unary `p(s)` (object ignored), e.g.
    /// `traffic_light/1`. Everything else becomes binary `p(s, o)`.
    pub unary_predicates: Vec<String>,
}

impl FormatConfig {
    /// Derives the unary-predicate list from a program's input signature:
    /// every input predicate of arity 1 keeps only the subject.
    pub fn from_input_signature(syms: &Symbols, inpre: &[Predicate]) -> Self {
        let unary = inpre
            .iter()
            .filter(|p| p.arity == 1 && !p.strong_neg)
            .map(|p| syms.resolve(p.name).to_string())
            .collect();
        FormatConfig { unary_predicates: unary }
    }

    /// Derives the configuration from a program, using its EDB predicates as
    /// the input signature.
    pub fn from_program(syms: &Symbols, program: &Program) -> Self {
        Self::from_input_signature(syms, &program.edb_predicates())
    }
}

/// Bidirectional triple ↔ fact translator bound to a symbol store.
///
/// Triple → fact translation goes through two identity memos (see the
/// module docs): IRIs by the address of their text to the symbol of their
/// local name, literals by the address of their text to their term. Each
/// entry keeps its text alive, and the memos are cleared after any call
/// that leaves them holding more entries than the call translated nodes.
#[derive(Debug)]
pub struct FormatProcessor {
    syms: Symbols,
    unary: FastSet<Sym>,
    /// IRI text address → (the text, the symbol of its local name).
    iris: FastMap<usize, (Arc<str>, Sym)>,
    /// Literal text address → (the text, its term: `Int` when numeric).
    literals: FastMap<usize, (Arc<str>, GroundTerm)>,
}

impl FormatProcessor {
    /// Builds a processor.
    pub fn new(syms: &Symbols, config: &FormatConfig) -> Self {
        let unary = config.unary_predicates.iter().map(|n| syms.intern(n)).collect();
        FormatProcessor {
            syms: syms.clone(),
            unary,
            iris: FastMap::default(),
            literals: FastMap::default(),
        }
    }

    /// Translates one triple into an ASP fact.
    pub fn triple_to_fact(&mut self, t: &Triple) -> GroundAtom {
        let fact = self.fact(t);
        self.bound(1);
        fact
    }

    /// Translates a window of triples into facts, in the order given: a
    /// whole window (`&window.items`) or the items of a partition, borrowed
    /// through its indices (`idx.iter().map(|&i| &items[i as usize])`).
    /// The memos are bounded once per call, by the number of triples.
    pub fn window_to_facts<'t, I>(&mut self, triples: I) -> Vec<GroundAtom>
    where
        I: IntoIterator<Item = &'t Triple>,
        I::IntoIter: ExactSizeIterator,
    {
        let triples = triples.into_iter();
        let n = triples.len();
        let facts = triples.map(|t| self.fact(t)).collect();
        self.bound(n);
        facts
    }

    /// Translates an answer atom back to a triple. Supports arities 1
    /// (object becomes the literal `"true"`) and 2; other arities are
    /// reported as errors per DESIGN.md.
    pub fn fact_to_triple(&mut self, atom: &GroundAtom) -> Result<Triple, AspError> {
        let p = Node::iri(&self.syms.resolve(atom.pred));
        match atom.args.len() {
            1 => Ok(Triple::new(self.term_to_node(&atom.args[0]), p, Node::literal("true"))),
            2 => Ok(Triple::new(
                self.term_to_node(&atom.args[0]),
                p,
                self.term_to_node(&atom.args[1]),
            )),
            n => Err(AspError::Internal(format!(
                "cannot express arity-{n} atom {} as a triple",
                atom.display(&self.syms)
            ))),
        }
    }

    fn fact(&mut self, t: &Triple) -> GroundAtom {
        let pred = match &t.p {
            Node::Iri(text) => self.iri_sym(text),
            // A non-IRI predicate is named by its text, as `predicate_name`
            // names it.
            other => self.syms.intern(other.local_name()),
        };
        let subject = self.node_to_term(&t.s);
        if self.unary.contains(&pred) {
            GroundAtom { pred, args: Args::one(subject), strong_neg: false }
        } else {
            let object = self.node_to_term(&t.o);
            GroundAtom { pred, args: Args::two(subject, object), strong_neg: false }
        }
    }

    fn node_to_term(&mut self, n: &Node) -> GroundTerm {
        match n {
            Node::Int(i) => GroundTerm::Int(*i),
            Node::Iri(text) => GroundTerm::Const(self.iri_sym(text)),
            Node::Literal(text) => self.literal_term(text),
        }
    }

    /// The symbol of the local name of the IRI `text`.
    fn iri_sym(&mut self, text: &Arc<str>) -> Sym {
        if let Some((_, sym)) = self.iris.get(&address(text)) {
            return *sym;
        }
        let sym = self.syms.intern(local_name(text));
        if Arc::strong_count(text) > 1 {
            self.iris.insert(address(text), (Arc::clone(text), sym));
        }
        sym
    }

    /// The term of the literal `text`: numeric literals become integers so
    /// comparisons like `Y < 20` fire; everything else is a constant.
    fn literal_term(&mut self, text: &Arc<str>) -> GroundTerm {
        if let Some((_, term)) = self.literals.get(&address(text)) {
            return term.clone();
        }
        let term = match text.parse::<i64>() {
            Ok(v) => GroundTerm::Int(v),
            Err(_) => GroundTerm::Const(self.syms.intern(text)),
        };
        if Arc::strong_count(text) > 1 {
            self.literals.insert(address(text), (Arc::clone(text), term.clone()));
        }
        term
    }

    /// Clears the memos when they hold more entries than a call over
    /// `triples` items translated nodes.
    fn bound(&mut self, triples: usize) {
        if self.iris.len() + self.literals.len() > 3 * triples {
            self.iris.clear();
            self.literals.clear();
        }
    }

    fn term_to_node(&self, t: &GroundTerm) -> Node {
        match t {
            GroundTerm::Int(i) => Node::Int(*i),
            GroundTerm::Const(s) => Node::iri(&self.syms.resolve(*s)),
            GroundTerm::Func(..) => Node::literal(&format!("{}", t.display(&self.syms))),
        }
    }
}

/// The address of a node's text: the memo key.
fn address(text: &Arc<str>) -> usize {
    Arc::as_ptr(text).cast::<u8>() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn processor(unary: &[&str]) -> (Symbols, FormatProcessor) {
        let syms = Symbols::new();
        let config =
            FormatConfig { unary_predicates: unary.iter().map(|s| s.to_string()).collect() };
        let p = FormatProcessor::new(&syms, &config);
        (syms, p)
    }

    #[test]
    fn binary_translation() {
        let (syms, mut p) = processor(&[]);
        let t = Triple::new(
            Node::iri("http://t#newcastle"),
            Node::iri("http://t#average_speed"),
            Node::Int(10),
        );
        let fact = p.triple_to_fact(&t);
        assert_eq!(fact.display(&syms).to_string(), "average_speed(newcastle,10)");
    }

    #[test]
    fn unary_translation_drops_object() {
        let (syms, mut p) = processor(&["traffic_light"]);
        let t = Triple::new(
            Node::iri("http://t#newcastle"),
            Node::iri("http://t#traffic_light"),
            Node::Int(1),
        );
        let fact = p.triple_to_fact(&t);
        assert_eq!(fact.display(&syms).to_string(), "traffic_light(newcastle)");
    }

    #[test]
    fn numeric_literals_become_integers() {
        let (syms, mut p) = processor(&[]);
        let t = Triple::new(Node::iri("s"), Node::iri("p"), Node::literal("42"));
        let fact = p.triple_to_fact(&t);
        assert_eq!(fact.display(&syms).to_string(), "p(s,42)");
    }

    #[test]
    fn string_literals_become_constants() {
        let (syms, mut p) = processor(&[]);
        let t = Triple::new(Node::iri("car1"), Node::iri("car_in_smoke"), Node::literal("high"));
        let fact = p.triple_to_fact(&t);
        assert_eq!(fact.display(&syms).to_string(), "car_in_smoke(car1,high)");
    }

    #[test]
    fn fact_roundtrips_to_triple() {
        let (_syms, mut p) = processor(&[]);
        let t = Triple::new(Node::iri("dangan"), Node::iri("give_notification"), Node::Int(1));
        let fact = p.triple_to_fact(&t);
        let back = p.fact_to_triple(&fact).unwrap();
        assert_eq!(back.predicate_name(), "give_notification");
        assert_eq!(back.s.local_name(), "dangan");
    }

    #[test]
    fn unary_fact_to_triple() {
        let (_syms, mut p) = processor(&["traffic_light"]);
        let t = Triple::new(Node::iri("x"), Node::iri("traffic_light"), Node::Int(1));
        let fact = p.triple_to_fact(&t);
        let back = p.fact_to_triple(&fact).unwrap();
        assert_eq!(back.o, Node::literal("true"));
    }

    #[test]
    fn high_arity_fact_is_an_error() {
        let (syms, mut p) = processor(&[]);
        let atom = GroundAtom::new(
            syms.intern("p"),
            vec![GroundTerm::Int(1), GroundTerm::Int(2), GroundTerm::Int(3)],
        );
        assert!(p.fact_to_triple(&atom).is_err());
    }

    /// The texts memo windows are built from: IRIs with and without a
    /// namespace, a unary predicate, numeric and non-numeric literals.
    const TEXTS: [&str; 7] =
        ["http://t#newcastle", "http://t#speed", "light", "42", "-7", "high", "urn:x#"];

    /// Where a node's `Arc<str>` comes from.
    #[derive(Clone, Copy, Debug)]
    enum Source {
        /// One table held for the whole run, as the generator's.
        Table,
        /// One table per window, dropped with it.
        Window,
        /// A fresh allocation per node.
        Fresh,
    }

    /// `(kind, text, source)`: kind 0 is an IRI, 1 a literal, 2 an integer.
    type NodeSpec = (u8, usize, Source);

    fn source() -> impl Strategy<Value = Source> {
        prop_oneof![Just(Source::Table), Just(Source::Window), Just(Source::Fresh)]
    }

    fn node_spec() -> impl Strategy<Value = NodeSpec> {
        (0u8..3, 0..TEXTS.len(), source())
    }

    fn build_node(spec: NodeSpec, table: &[Arc<str>], window: &[Arc<str>]) -> Node {
        let (kind, text, source) = spec;
        let text = match source {
            Source::Table => Arc::clone(&table[text]),
            Source::Window => Arc::clone(&window[text]),
            Source::Fresh => Arc::from(TEXTS[text]),
        };
        match kind {
            0 => Node::Iri(text),
            1 => Node::Literal(text),
            _ => Node::Int(text.len() as i64),
        }
    }

    fn texts() -> Vec<Arc<str>> {
        TEXTS.iter().map(|t| Arc::from(*t)).collect()
    }

    /// What a processor that has never seen `t` translates it to.
    fn fresh_fact(syms: &Symbols, t: &Triple) -> GroundAtom {
        let config = FormatConfig { unary_predicates: vec!["light".into()] };
        FormatProcessor::new(syms, &config).triple_to_fact(t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each window is translated whole and then through an index list
        /// that repeats and reorders its items, as a partition borrows them.
        #[test]
        fn memo_translation_equals_fresh_translation(
            windows in prop::collection::vec(
                (
                    prop::collection::vec(
                        (node_spec(), (0..TEXTS.len(), source()), node_spec()),
                        0..24,
                    ),
                    prop::collection::vec(0usize..64, 0..32),
                ),
                1..6,
            )
        ) {
            let syms = Symbols::new();
            let config = FormatConfig { unary_predicates: vec!["light".into()] };
            let mut memo = FormatProcessor::new(&syms, &config);
            let table = texts();
            for (specs, picks) in windows {
                let local = texts();
                let items: Vec<Triple> = specs
                    .iter()
                    .map(|&(s, (p, p_src), o)| {
                        // Predicates are IRIs; their source still varies.
                        let p = build_node((0, p, p_src), &table, &local);
                        Triple::new(build_node(s, &table, &local), p, build_node(o, &table, &local))
                    })
                    .collect();
                let expected: Vec<GroundAtom> = items.iter().map(|t| fresh_fact(&syms, t)).collect();
                prop_assert_eq!(memo.window_to_facts(&items), expected);
                if items.is_empty() {
                    continue;
                }
                let idx: Vec<usize> = picks.iter().map(|p| p % items.len()).collect();
                let indexed = memo.window_to_facts(idx.iter().map(|&i| &items[i]));
                let gathered: Vec<Triple> = idx.iter().map(|&i| items[i].clone()).collect();
                let fresh = FormatProcessor::new(&syms, &config).window_to_facts(&gathered);
                prop_assert_eq!(indexed, fresh);
            }
        }
    }

    #[test]
    fn reused_addresses_translate_correctly() {
        let syms = Symbols::new();
        let mut p = FormatProcessor::new(&syms, &FormatConfig::default());
        let window_of = |names: &[Arc<str>]| -> Vec<Triple> {
            names
                .windows(2)
                .map(|w| {
                    Triple::new(
                        Node::Iri(w[0].clone()),
                        Node::Iri(w[1].clone()),
                        Node::Literal(w[0].clone()),
                    )
                })
                .collect()
        };
        for round in 0..20 {
            // Names of equal length each round, so the allocator is likely
            // to hand out the addresses it just got back.
            let names: Vec<Arc<str>> =
                (0..8).map(|i| Arc::from(format!("http://t#n{round:02}_{i}").as_str())).collect();
            let window = window_of(&names);
            let expected: Vec<GroundAtom> = window.iter().map(|t| fresh_fact(&syms, t)).collect();
            assert_eq!(p.window_to_facts(&window), expected, "round {round}");
            drop((window, names));
            if round % 2 == 1 {
                // An empty call clears the memo, which releases its texts.
                assert!(p.window_to_facts(&[]).is_empty());
                assert_eq!(p.iris.len() + p.literals.len(), 0);
            }
        }
    }

    #[test]
    fn memo_stays_within_three_entries_per_item() {
        let syms = Symbols::new();
        let mut p = FormatProcessor::new(&syms, &FormatConfig::default());
        let mut retained: Vec<Arc<str>> = Vec::new();
        for w in 0..50 {
            let items: Vec<Triple> = (0..10)
                .map(|i| {
                    let mut name = |role: &str| {
                        let text: Arc<str> = Arc::from(format!("http://t#{role}{w}_{i}").as_str());
                        retained.push(Arc::clone(&text));
                        text
                    };
                    Triple::new(
                        Node::Iri(name("s")),
                        Node::Iri(name("p")),
                        Node::Literal(name("o")),
                    )
                })
                .collect();
            p.window_to_facts(&items);
            assert!(p.iris.len() + p.literals.len() <= 3 * items.len(), "window {w}");
            // A partition's call is bounded by its index count, not the
            // window's length.
            let idx = [w % 10, (w + 3) % 10, w % 10];
            p.window_to_facts(idx.iter().map(|&i| &items[i]));
            assert!(p.iris.len() + p.literals.len() <= 3 * idx.len(), "window {w}, indexed");
        }
        // Texts only the window holds cannot come back: nothing is kept.
        let mut q = FormatProcessor::new(&syms, &FormatConfig::default());
        let once: Vec<Triple> = (0..10)
            .map(|i| {
                Triple::new(
                    Node::iri(&format!("s{i}")),
                    Node::iri(&format!("p{i}")),
                    Node::literal(&format!("o{i}")),
                )
            })
            .collect();
        q.window_to_facts(&once);
        assert_eq!(q.iris.len() + q.literals.len(), 0);
    }

    #[test]
    fn config_from_program_marks_unary_inputs() {
        let syms = Symbols::new();
        let program =
            asp_parser::parse_program(&syms, "jam(X) :- slow(X), many(X,Y), not light(X).")
                .unwrap();
        let cfg = FormatConfig::from_program(&syms, &program);
        assert!(cfg.unary_predicates.contains(&"slow".to_string()));
        assert!(cfg.unary_predicates.contains(&"light".to_string()));
        assert!(!cfg.unary_predicates.contains(&"many".to_string()));
    }
}
