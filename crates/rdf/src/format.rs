//! The StreamRule **data format processor**: translation between RDF triples
//! (the stream query processor's output) and ASP facts (the solver's input),
//! and back from answer atoms to RDF. The paper charges this transformation
//! time to reasoning latency, so the processor is allocation-conscious and
//! its cost is measured by the reasoners.

use crate::model::{local_name, Node, Triple};
use asp_core::{AspError, FastMap, GroundAtom, GroundTerm, Predicate, Program, Symbols};

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
#[derive(Debug)]
pub struct FormatProcessor {
    syms: Symbols,
    unary: asp_core::FastSet<asp_core::Sym>,
    /// Per-predicate-name symbol cache, keyed by the borrowed name hash.
    cache: FastMap<String, asp_core::Sym>,
}

impl FormatProcessor {
    /// Builds a processor.
    pub fn new(syms: &Symbols, config: &FormatConfig) -> Self {
        let unary = config.unary_predicates.iter().map(|n| syms.intern(n)).collect();
        FormatProcessor { syms: syms.clone(), unary, cache: FastMap::default() }
    }

    /// Translates one triple into an ASP fact.
    pub fn triple_to_fact(&mut self, t: &Triple) -> GroundAtom {
        let pred = self.intern_cached(t.predicate_name());
        let subject = self.node_to_term(&t.s);
        if self.unary.contains(&pred) {
            GroundAtom { pred, args: vec![subject].into(), strong_neg: false }
        } else {
            let object = self.node_to_term(&t.o);
            GroundAtom { pred, args: vec![subject, object].into(), strong_neg: false }
        }
    }

    /// Translates a window of triples into facts.
    pub fn window_to_facts(&mut self, triples: &[Triple]) -> Vec<GroundAtom> {
        triples.iter().map(|t| self.triple_to_fact(t)).collect()
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

    fn node_to_term(&mut self, n: &Node) -> GroundTerm {
        match n {
            Node::Int(i) => GroundTerm::Int(*i),
            Node::Iri(full) => GroundTerm::Const(self.intern_cached(local_name(full))),
            Node::Literal(s) => {
                // Numeric literals become integers so comparisons like
                // `Y < 20` fire; everything else is a constant.
                if let Ok(v) = s.parse::<i64>() {
                    GroundTerm::Int(v)
                } else {
                    GroundTerm::Const(self.intern_cached(s))
                }
            }
        }
    }

    fn term_to_node(&self, t: &GroundTerm) -> Node {
        match t {
            GroundTerm::Int(i) => Node::Int(*i),
            GroundTerm::Const(s) => Node::iri(&self.syms.resolve(*s)),
            GroundTerm::Func(..) => Node::literal(&format!("{}", t.display(&self.syms))),
        }
    }

    fn intern_cached(&mut self, name: &str) -> asp_core::Sym {
        if let Some(s) = self.cache.get(name) {
            return *s;
        }
        let s = self.syms.intern(name);
        self.cache.insert(name.to_string(), s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
