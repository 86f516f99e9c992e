//! The **extended dependency graph** `G_P = 〈N_P, E_P〉` of Definition 1:
//! nodes are all predicates of the program; `E_P1` holds undirected edges
//! between predicates co-occurring in a rule body (plus self-loops for
//! default-negated body predicates), `E_P2` holds directed edges from body
//! predicates to head predicates.

use asp_core::{BodyLiteral, FastMap, Predicate, Program, Symbols};
use sr_graph::{DiGraph, UnGraph};

/// The extended dependency graph of a program.
#[derive(Debug)]
pub struct ExtendedDepGraph {
    /// Node index → predicate.
    pub nodes: Vec<Predicate>,
    /// Predicate → node index.
    pub index: FastMap<Predicate, usize>,
    /// `E_P1`: undirected body-co-occurrence edges (self-loops allowed).
    pub ep1: UnGraph,
    /// `E_P2`: directed body→head edges.
    pub ep2: DiGraph,
}

impl ExtendedDepGraph {
    /// Builds `G_P` per Definition 1.
    pub fn build(program: &Program) -> Self {
        let nodes: Vec<Predicate> = program.predicates();
        let index: FastMap<Predicate, usize> =
            nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut ep1 = UnGraph::new(nodes.len());
        let mut ep2 = DiGraph::new(nodes.len());

        for rule in &program.rules {
            // Body predicates in occurrence order (positive and negative
            // alike; comparisons carry no predicate).
            let body_preds: Vec<(usize, bool)> = rule
                .body
                .iter()
                .filter_map(|l| match l {
                    BodyLiteral::Atom { atom, negated } => {
                        Some((index[&atom.predicate()], *negated))
                    }
                    BodyLiteral::Comparison { .. } => None,
                })
                .collect();

            // E_P1: every unordered pair of distinct body occurrences. Two
            // occurrences of the same predicate join its own atoms, which is
            // a self-loop.
            for i in 0..body_preds.len() {
                for j in (i + 1)..body_preds.len() {
                    ep1.add_edge(body_preds[i].0, body_preds[j].0, 1.0);
                }
            }
            // Self-loops for default-negated body predicates.
            for &(p, negated) in &body_preds {
                if negated {
                    ep1.add_edge(p, p, 1.0);
                }
            }
            // E_P2: body → each head atom.
            for head_atom in rule.head.atoms() {
                let h = index[&head_atom.predicate()];
                for &(b, _) in &body_preds {
                    ep2.add_edge(b, h);
                }
            }
        }
        ExtendedDepGraph { nodes, index, ep1, ep2 }
    }

    /// Node index of `p`, if the predicate occurs in the program.
    pub fn node_of(&self, p: Predicate) -> Option<usize> {
        self.index.get(&p).copied()
    }

    /// Renders the graph in Graphviz DOT (solid undirected `E_P1` edges,
    /// dashed directed `E_P2` edges) — handy for eyeballing Figures 2–5.
    pub fn to_dot(&self, syms: &Symbols) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph extended {\n");
        for (i, p) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  n{} [label=\"{}\"];", i, syms.resolve(p.name));
        }
        for (u, v, _) in self.ep1.edges() {
            let _ = writeln!(out, "  n{u} -> n{v} [dir=none];");
        }
        for u in 0..self.nodes.len() {
            for &v in self.ep2.successors(u) {
                let _ = writeln!(out, "  n{u} -> n{v} [style=dashed];");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    /// The paper's Listing 1 (program P).
    pub const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

    fn build(src: &str) -> (Symbols, ExtendedDepGraph) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let g = ExtendedDepGraph::build(&program);
        (syms, g)
    }

    fn node(syms: &Symbols, g: &ExtendedDepGraph, name: &str, arity: u32) -> usize {
        g.node_of(Predicate::new(syms.get(name).unwrap(), arity)).unwrap()
    }

    #[test]
    fn figure_2_shape_for_program_p() {
        let (syms, g) = build(PROGRAM_P);
        assert_eq!(g.nodes.len(), 11);

        let vss = node(&syms, &g, "very_slow_speed", 1);
        let mc = node(&syms, &g, "many_cars", 1);
        let tl = node(&syms, &g, "traffic_light", 1);
        let avg = node(&syms, &g, "average_speed", 2);
        let jam = node(&syms, &g, "traffic_jam", 1);
        let smoke = node(&syms, &g, "car_in_smoke", 2);
        let speed = node(&syms, &g, "car_speed", 2);
        let loc = node(&syms, &g, "car_location", 2);
        let fire = node(&syms, &g, "car_fire", 1);
        let notify = node(&syms, &g, "give_notification", 1);

        // r3 body: very_slow_speed, many_cars, not traffic_light — pairwise
        // E_P1 edges and a traffic_light self-loop.
        assert!(g.ep1.has_edge(vss, mc));
        assert!(g.ep1.has_edge(vss, tl));
        assert!(g.ep1.has_edge(mc, tl));
        assert!(g.ep1.has_self_loop(tl));
        assert!(!g.ep1.has_self_loop(vss));

        // r4 body triangle.
        assert!(g.ep1.has_edge(smoke, speed));
        assert!(g.ep1.has_edge(smoke, loc));
        assert!(g.ep1.has_edge(speed, loc));

        // E_P2 arrows.
        assert!(g.ep2.has_edge(avg, vss));
        assert!(g.ep2.has_edge(vss, jam));
        assert!(g.ep2.has_edge(tl, jam));
        assert!(g.ep2.has_edge(loc, fire));
        assert!(g.ep2.has_edge(jam, notify));
        assert!(g.ep2.has_edge(fire, notify));
        assert!(!g.ep2.has_edge(vss, notify));

        // average_speed joins nothing in its body (single atom + builtin).
        assert_eq!(g.ep1.neighbors(avg).count(), 0);
    }

    #[test]
    fn single_literal_bodies_produce_no_ep1_edges() {
        let (_s, g) = build("h(X) :- e(X).");
        assert_eq!(g.ep1.edge_count(), 0);
        assert_eq!(g.ep2.edge_count(), 1);
    }

    #[test]
    fn repeated_predicate_in_body_yields_self_loop() {
        let (syms, g) = build("conn(X,Y) :- edge(X,Z), edge(Z,Y).");
        let e = node(&syms, &g, "edge", 2);
        assert!(g.ep1.has_self_loop(e));
    }

    #[test]
    fn disjunctive_heads_get_body_edges() {
        let (syms, g) = build("a(X) | b(X) :- c(X).");
        let c = node(&syms, &g, "c", 1);
        let a = node(&syms, &g, "a", 1);
        let b = node(&syms, &g, "b", 1);
        assert!(g.ep2.has_edge(c, a));
        assert!(g.ep2.has_edge(c, b));
    }

    #[test]
    fn dot_output_mentions_predicates() {
        let (syms, g) = build(PROGRAM_P);
        let dot = g.to_dot(&syms);
        assert!(dot.contains("traffic_jam"));
        assert!(dot.contains("dir=none"));
        assert!(dot.contains("style=dashed"));
    }
}
