//! The **input dependency graph** `G_P^{inpre(P)}` of Definition 2: an
//! undirected graph over the input predicates connecting those that can
//! jointly fire rules.
//!
//! Implementation note (see DESIGN.md): condition (ii) is realised through
//! reverse reachability — for every `E_P1` edge `(u, v)`, every input
//! predicate with a directed `E_P2` path to `u` is connected to every input
//! predicate with a path to `v`. Reflexive paths make condition (i) the
//! special case `p = u, q = v`, and self-loop inheritance (condition iii)
//! falls out of `u = v` edges with the path generalised from the paper's
//! single edge — a superset that never changes connected components.

use crate::extended::ExtendedDepGraph;
use asp_core::{AspError, FastMap, Predicate, Symbols};
use sr_graph::UnGraph;

/// The input dependency graph over `inpre(P)`.
#[derive(Debug)]
pub struct InputDepGraph {
    /// Node index → input predicate.
    pub nodes: Vec<Predicate>,
    /// Input predicate → node index.
    pub index: FastMap<Predicate, usize>,
    /// The undirected dependency edges (self-loops allowed).
    pub graph: UnGraph,
}

impl InputDepGraph {
    /// Builds the graph from the extended graph and the input signature.
    /// `weighted` keeps `E_P1` multiplicities as edge weights; the paper's
    /// graphs are unweighted (every edge weight 1), which is the default in
    /// [`crate::config::AnalysisConfig`].
    pub fn build(
        extended: &ExtendedDepGraph,
        inpre: &[Predicate],
        weighted: bool,
    ) -> Result<Self, AspError> {
        let nodes: Vec<Predicate> = inpre.to_vec();
        let index: FastMap<Predicate, usize> =
            nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        if index.len() != nodes.len() {
            return Err(AspError::Internal("duplicate predicate in inpre(P)".into()));
        }

        // Map input predicates onto extended-graph nodes; unknown inputs
        // (not occurring in the program) become isolated nodes.
        let ext_ids: Vec<Option<usize>> = nodes.iter().map(|p| extended.node_of(*p)).collect();
        let sources: Vec<usize> = ext_ids.iter().flatten().copied().collect();
        let source_of_input: Vec<Option<usize>> = {
            // position of each input in `sources`
            let mut pos = 0usize;
            ext_ids
                .iter()
                .map(|e| {
                    e.map(|_| {
                        let p = pos;
                        pos += 1;
                        p
                    })
                })
                .collect()
        };

        // reach[v][k] = sources[k] reaches extended node v (reflexively).
        let reach = extended.ep2.reverse_reachability(&sources);

        let mut graph = UnGraph::new(nodes.len());
        for (u, v, w) in extended.ep1.edges() {
            let weight = if weighted { w } else { 1.0 };
            let ins = |ext_node: usize| -> Vec<usize> {
                source_of_input
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Some(si) if reach[ext_node][*si] => Some(i),
                        _ => None,
                    })
                    .collect()
            };
            let ins_u = ins(u);
            let ins_v = ins(v);
            // Dedup unordered pairs within this edge: when both endpoints
            // reach both predicates the pair would otherwise count twice.
            let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(ins_u.len() * ins_v.len());
            for &p in &ins_u {
                for &q in &ins_v {
                    pairs.push((p.min(q), p.max(q)));
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            for (a, b) in pairs {
                if weighted || !graph.has_edge(a, b) {
                    graph.add_edge(a, b, weight);
                }
            }
        }
        Ok(InputDepGraph { nodes, index, graph })
    }

    /// Definition 3: two input predicates depend on each other iff they are
    /// adjacent here.
    pub fn depend(&self, p: Predicate, q: Predicate) -> bool {
        match (self.index.get(&p), self.index.get(&q)) {
            (Some(&a), Some(&b)) => self.graph.has_edge(a, b),
            _ => false,
        }
    }

    /// Renders the graph in Graphviz DOT.
    pub fn to_dot(&self, syms: &Symbols) -> String {
        use std::fmt::Write;
        let mut out = String::from("graph input_dependency {\n");
        for (i, p) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  n{} [label=\"{}\"];", i, syms.resolve(p.name));
        }
        for (u, v, _) in self.graph.edges() {
            let _ = writeln!(out, "  n{u} -- n{v};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    /// Listing 1 (program P).
    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

    /// P' = P + r7 (Section II-B).
    const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

    fn build(src: &str) -> (Symbols, InputDepGraph) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let inpre = program.edb_predicates();
        let g = InputDepGraph::build(&extended, &inpre, false).unwrap();
        (syms, g)
    }

    fn idx(syms: &Symbols, g: &InputDepGraph, name: &str, arity: u32) -> usize {
        g.index[&Predicate::new(syms.get(name).unwrap(), arity)]
    }

    #[test]
    fn figure_3_program_p() {
        let (syms, g) = build(PROGRAM_P);
        assert_eq!(g.nodes.len(), 6);
        let avg = idx(&syms, &g, "average_speed", 2);
        let num = idx(&syms, &g, "car_number", 2);
        let tl = idx(&syms, &g, "traffic_light", 1);
        let smoke = idx(&syms, &g, "car_in_smoke", 2);
        let speed = idx(&syms, &g, "car_speed", 2);
        let loc = idx(&syms, &g, "car_location", 2);

        // Left triangle (via condition ii through r3).
        assert!(g.graph.has_edge(avg, num));
        assert!(g.graph.has_edge(avg, tl));
        assert!(g.graph.has_edge(num, tl));
        // traffic_light self-loop (negated in r3).
        assert!(g.graph.has_self_loop(tl));
        // Right triangle (condition i through r4).
        assert!(g.graph.has_edge(smoke, speed));
        assert!(g.graph.has_edge(smoke, loc));
        assert!(g.graph.has_edge(speed, loc));
        // The two sides are NOT connected (Figure 3 has two components).
        assert!(!g.graph.has_edge(avg, smoke));
        assert!(!g.graph.has_edge(num, loc));
        assert_eq!(sr_graph::connected_components(&g.graph).len(), 2);
    }

    #[test]
    fn figure_4_program_p_prime_is_connected() {
        let (syms, g) = build(&format!("{PROGRAM_P}{RULE_R7}"));
        let num = idx(&syms, &g, "car_number", 2);
        let smoke = idx(&syms, &g, "car_in_smoke", 2);
        let speed = idx(&syms, &g, "car_speed", 2);
        let loc = idx(&syms, &g, "car_location", 2);
        // r7 joins car_fire with many_cars: car_number now depends on the
        // fire-side inputs.
        assert!(g.graph.has_edge(num, smoke));
        assert!(g.graph.has_edge(num, speed));
        assert!(g.graph.has_edge(num, loc));
        assert!(sr_graph::is_connected(&g.graph));
    }

    #[test]
    fn definition_3_depend_api() {
        let (syms, g) = build(PROGRAM_P);
        let avg = Predicate::new(syms.get("average_speed").unwrap(), 2);
        let tl = Predicate::new(syms.get("traffic_light").unwrap(), 1);
        let smoke = Predicate::new(syms.get("car_in_smoke").unwrap(), 2);
        assert!(g.depend(avg, tl));
        assert!(!g.depend(avg, smoke));
    }

    #[test]
    fn inputs_in_one_body_are_directly_connected() {
        let (syms, g) = build("h(X) :- a(X), b(X).");
        let a = idx(&syms, &g, "a", 1);
        let b = idx(&syms, &g, "b", 1);
        assert!(g.graph.has_edge(a, b));
    }

    #[test]
    fn chained_derivation_connects_transitively() {
        // a feeds m1, b feeds m2 through two levels; m-levels join in r.
        let (syms, g) = build(
            "m1(X) :- a(X). m2(X) :- b(X). t1(X) :- m1(X). t2(X) :- m2(X). r(X) :- t1(X), t2(X).",
        );
        let a = idx(&syms, &g, "a", 1);
        let b = idx(&syms, &g, "b", 1);
        assert!(g.graph.has_edge(a, b));
    }

    #[test]
    fn independent_rules_stay_disconnected() {
        let (syms, g) = build("h1(X) :- a(X). h2(X) :- b(X).");
        let a = idx(&syms, &g, "a", 1);
        let b = idx(&syms, &g, "b", 1);
        assert!(!g.graph.has_edge(a, b));
        assert_eq!(sr_graph::connected_components(&g.graph).len(), 2);
    }

    #[test]
    fn condition_iii_self_loop_inheritance() {
        // e feeds d; d is negated (self-loop on d); e must inherit one.
        let (syms, g) = build("d(X) :- e(X). h(X) :- c(X), not d(X).");
        let e = idx(&syms, &g, "e", 1);
        assert!(g.graph.has_self_loop(e));
    }

    #[test]
    fn idb_input_predicates_are_supported() {
        // The paper allows inpre to contain IDB predicates.
        let syms = Symbols::new();
        let program =
            parse_program(&syms, "mid(X) :- raw(X). top(X) :- mid(X), other(X).").unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let mid = Predicate::new(syms.get("mid").unwrap(), 1);
        let other = Predicate::new(syms.get("other").unwrap(), 1);
        let g = InputDepGraph::build(&extended, &[mid, other], false).unwrap();
        assert!(g.depend(mid, other));
    }

    #[test]
    fn unknown_input_predicates_are_isolated() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "h(X) :- a(X).").unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let a = Predicate::new(syms.get("a").unwrap(), 1);
        let ghost = Predicate::new(syms.intern("ghost"), 1);
        let g = InputDepGraph::build(&extended, &[a, ghost], false).unwrap();
        assert_eq!(g.graph.neighbors(g.index[&ghost]).count(), 0);
    }

    #[test]
    fn weighted_mode_accumulates_multiplicity() {
        let syms = Symbols::new();
        let src = "h1(X) :- a(X), b(X). h2(X) :- a(X), b(X).";
        let program = parse_program(&syms, src).unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let inpre = program.edb_predicates();
        let unweighted = InputDepGraph::build(&extended, &inpre, false).unwrap();
        let weighted = InputDepGraph::build(&extended, &inpre, true).unwrap();
        let a = unweighted.index[&Predicate::new(syms.get("a").unwrap(), 1)];
        let b = unweighted.index[&Predicate::new(syms.get("b").unwrap(), 1)];
        assert_eq!(unweighted.graph.edge_weight(a, b), Some(1.0));
        assert_eq!(weighted.graph.edge_weight(a, b), Some(2.0));
    }
}
