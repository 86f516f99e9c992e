//! The **decomposing process** (Section II-B): turn the input dependency
//! graph into a partitioning plan.
//!
//! * If the graph is disconnected, its connected components are the
//!   communities and no duplication is needed.
//! * Otherwise run Louvain modularity (resolution 1.0 by default), then for
//!   every pair of adjacent communities duplicate the smaller boundary
//!   (`exnodes`) set into the other community.

use crate::config::{AnalysisConfig, DuplicationPolicy};
use crate::input_graph::InputDepGraph;
use crate::plan::PartitioningPlan;
use asp_core::{FastMap, Symbols};
use sr_graph::{connected_components, louvain};

/// How the communities were obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionMethod {
    /// The graph was disconnected: natural connected components.
    Components,
    /// The graph was connected: Louvain + duplication.
    Louvain,
    /// Louvain found a single community: no split possible.
    Single,
}

/// Result of the decomposing process.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `membership[node]` = sorted community ids (≥1; >1 for duplicated
    /// nodes).
    pub membership: Vec<Vec<u32>>,
    /// Number of communities.
    pub communities: usize,
    /// Node indices that were duplicated, with the communities they were
    /// copied *into*.
    pub duplicated: Vec<(usize, Vec<u32>)>,
    /// How the split was obtained.
    pub method: DecompositionMethod,
}

/// Runs the decomposing process on `g`.
pub fn decompose(g: &InputDepGraph, syms: &Symbols, config: &AnalysisConfig) -> Decomposition {
    let n = g.graph.node_count();
    if n == 0 {
        return Decomposition {
            membership: Vec::new(),
            communities: 0,
            duplicated: Vec::new(),
            method: DecompositionMethod::Single,
        };
    }

    let comps = connected_components(&g.graph);
    if comps.len() > 1 {
        let mut membership = vec![Vec::new(); n];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                membership[v] = vec![ci as u32];
            }
        }
        return Decomposition {
            membership,
            communities: comps.len(),
            duplicated: Vec::new(),
            method: DecompositionMethod::Components,
        };
    }

    // Step 1: modularity communities.
    let result = louvain(&g.graph, config.resolution);
    if result.communities.len() <= 1 {
        return Decomposition {
            membership: vec![vec![0]; n],
            communities: 1,
            duplicated: Vec::new(),
            method: DecompositionMethod::Single,
        };
    }
    let assignment = &result.assignment;
    let k = result.communities.len();
    let mut membership: Vec<Vec<u32>> = assignment.iter().map(|&c| vec![c as u32]).collect();
    let mut duplicated: FastMap<usize, Vec<u32>> = FastMap::default();

    // Steps 2–3 for every pair of adjacent communities.
    for c1 in 0..k {
        for c2 in (c1 + 1)..k {
            // exnodes(C1): nodes of C1 with an edge into C2 (and vice versa).
            let mut ex1: Vec<usize> = Vec::new();
            let mut ex2: Vec<usize> = Vec::new();
            for (u, v, _) in g.graph.edges() {
                if u == v {
                    continue;
                }
                let (cu, cv) = (assignment[u], assignment[v]);
                if cu == c1 && cv == c2 {
                    push_unique(&mut ex1, u);
                    push_unique(&mut ex2, v);
                } else if cu == c2 && cv == c1 {
                    push_unique(&mut ex2, u);
                    push_unique(&mut ex1, v);
                }
            }
            if ex1.is_empty() && ex2.is_empty() {
                continue; // not adjacent
            }
            // Choose the set to duplicate.
            let dup_first = match &config.duplication {
                DuplicationPolicy::SmallerSet => ex1.len() <= ex2.len(),
                DuplicationPolicy::FewerInstances(freqs) => {
                    let cost = |nodes: &[usize]| -> f64 {
                        nodes
                            .iter()
                            .map(|&v| {
                                let name = syms.resolve(g.nodes[v].name);
                                freqs
                                    .iter()
                                    .find(|(p, _)| p.as_str() == &*name)
                                    .map_or(1.0, |(_, f)| *f)
                            })
                            .sum()
                    };
                    let (a, b) = (cost(&ex1), cost(&ex2));
                    if a == b {
                        ex1.len() <= ex2.len()
                    } else {
                        a < b
                    }
                }
            };
            let (to_dup, target) = if dup_first { (&ex1, c2 as u32) } else { (&ex2, c1 as u32) };
            for &v in to_dup {
                if !membership[v].contains(&target) {
                    membership[v].push(target);
                    duplicated.entry(v).or_default().push(target);
                }
            }
        }
    }

    for m in membership.iter_mut() {
        m.sort_unstable();
    }
    let mut duplicated: Vec<(usize, Vec<u32>)> = duplicated
        .into_iter()
        .map(|(v, mut cs)| {
            cs.sort_unstable();
            (v, cs)
        })
        .collect();
    duplicated.sort_by_key(|(v, _)| *v);

    Decomposition { membership, communities: k, duplicated, method: DecompositionMethod::Louvain }
}

/// Builds the partitioning plan (predicate names → communities) from a
/// decomposition. Predicates sharing a name (different arities) merge their
/// memberships, since the run-time handler only sees names.
pub fn to_plan(g: &InputDepGraph, d: &Decomposition, syms: &Symbols) -> PartitioningPlan {
    let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
    for (v, cs) in d.membership.iter().enumerate() {
        let name = syms.resolve(g.nodes[v].name).to_string();
        let entry = membership.entry(name).or_default();
        for &c in cs {
            if !entry.contains(&c) {
                entry.push(c);
            }
        }
    }
    for cs in membership.values_mut() {
        cs.sort_unstable();
    }
    PartitioningPlan { communities: d.communities.max(1), membership }
}

fn push_unique(v: &mut Vec<usize>, x: usize) {
    if !v.contains(&x) {
        v.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ExtendedDepGraph;
    use asp_parser::parse_program;

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");
    const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

    fn analyzed(src: &str) -> (Symbols, InputDepGraph, Decomposition) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let inpre = program.edb_predicates();
        let g = InputDepGraph::build(&extended, &inpre, false).unwrap();
        let d = decompose(&g, &syms, &AnalysisConfig::default());
        (syms, g, d)
    }

    #[test]
    fn program_p_splits_into_two_components_without_duplication() {
        let (syms, g, d) = analyzed(PROGRAM_P);
        assert_eq!(d.method, DecompositionMethod::Components);
        assert_eq!(d.communities, 2);
        assert!(d.duplicated.is_empty());
        let plan = to_plan(&g, &d, &syms);
        assert_eq!(plan.communities, 2);
        // The paper's Example: {average_speed, traffic_light, car_number}
        // and {car_in_smoke, car_speed, car_location}.
        let c_of = |name: &str| plan.communities_of(name).unwrap().to_vec();
        assert_eq!(c_of("average_speed"), c_of("traffic_light"));
        assert_eq!(c_of("average_speed"), c_of("car_number"));
        assert_eq!(c_of("car_in_smoke"), c_of("car_speed"));
        assert_eq!(c_of("car_in_smoke"), c_of("car_location"));
        assert_ne!(c_of("average_speed"), c_of("car_in_smoke"));
    }

    #[test]
    fn program_p_prime_duplicates_car_number() {
        // Example 3 / Figure 5.
        let (syms, g, d) = analyzed(&format!("{PROGRAM_P}{RULE_R7}"));
        assert_eq!(d.method, DecompositionMethod::Louvain);
        assert_eq!(d.communities, 2);
        let plan = to_plan(&g, &d, &syms);
        assert_eq!(plan.duplicated(), vec!["car_number"]);
        assert_eq!(plan.communities_of("car_number").unwrap().len(), 2);
        // Everyone else stays single-homed.
        for p in ["average_speed", "traffic_light", "car_in_smoke", "car_speed", "car_location"] {
            assert_eq!(plan.communities_of(p).unwrap().len(), 1, "{p} must not be duplicated");
        }
    }

    #[test]
    fn clique_collapses_to_single_partition() {
        // One rule joining all three inputs: Louvain cannot split a triangle
        // at resolution 1.
        let (_syms, _g, d) = analyzed("h(X) :- a(X), b(X), c(X).");
        assert_eq!(d.method, DecompositionMethod::Single);
        assert_eq!(d.communities, 1);
    }

    #[test]
    fn frequency_aware_policy_flips_choice() {
        let syms = Symbols::new();
        let program = parse_program(&syms, &format!("{PROGRAM_P}{RULE_R7}")).unwrap();
        let extended = ExtendedDepGraph::build(&program);
        let inpre = program.edb_predicates();
        let g = InputDepGraph::build(&extended, &inpre, false).unwrap();
        // Make car_number outrageously expensive to duplicate: the policy
        // should duplicate the fire-side exnodes instead.
        let cfg = AnalysisConfig {
            duplication: DuplicationPolicy::FewerInstances(vec![
                ("car_number".to_string(), 1000.0),
                ("car_in_smoke".to_string(), 0.1),
                ("car_speed".to_string(), 0.1),
                ("car_location".to_string(), 0.1),
            ]),
            ..Default::default()
        };
        let d = decompose(&g, &syms, &cfg);
        let plan = to_plan(&g, &d, &syms);
        assert!(!plan.duplicated().contains(&"car_number"));
        assert!(!plan.duplicated().is_empty());
    }

    #[test]
    fn plan_covers_all_input_predicates() {
        let (syms, g, d) = analyzed(PROGRAM_P);
        let plan = to_plan(&g, &d, &syms);
        for p in &g.nodes {
            let name = syms.resolve(p.name);
            assert!(plan.communities_of(&name).is_some(), "{name} missing from plan");
        }
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn empty_graph_yields_empty_decomposition() {
        let (_syms, _g, d) = analyzed("a :- b."); // b is the only input, 1 node
        assert_eq!(d.communities, 1);
    }
}
