//! Design-time entry point: program → extended graph → input dependency
//! graph → decomposition → partitioning plan (the left column of Figure 6),
//! plus the plan sanity check sketched as "towards a proof of correctness"
//! in the paper's future work.

use crate::config::AnalysisConfig;
use crate::decompose::{decompose, to_plan, Decomposition};
use crate::extended::ExtendedDepGraph;
use crate::input_graph::InputDepGraph;
use crate::plan::PartitioningPlan;
use asp_core::{AspError, Predicate, Program, Symbols};

/// The full design-time analysis artifact.
#[derive(Debug)]
pub struct DependencyAnalysis {
    /// Definition 1.
    pub extended: ExtendedDepGraph,
    /// Definition 2.
    pub input_graph: InputDepGraph,
    /// Section II-B decomposing process output.
    pub decomposition: Decomposition,
    /// The run-time partitioning plan.
    pub plan: PartitioningPlan,
    /// The input signature used.
    pub inpre: Vec<Predicate>,
}

impl DependencyAnalysis {
    /// Runs the analysis. `inpre` defaults to the program's EDB predicates.
    pub fn analyze(
        syms: &Symbols,
        program: &Program,
        inpre: Option<Vec<Predicate>>,
        config: &AnalysisConfig,
    ) -> Result<Self, AspError> {
        let inpre = inpre.unwrap_or_else(|| program.edb_predicates());
        let extended = ExtendedDepGraph::build(program);
        let input_graph = InputDepGraph::build(&extended, &inpre, config.weighted_edges)?;
        let decomposition = decompose(&input_graph, syms, config);
        let plan = to_plan(&input_graph, &decomposition, syms);
        Ok(DependencyAnalysis { extended, input_graph, decomposition, plan, inpre })
    }

    /// Sufficient-condition check for answer preservation: for every `E_P1`
    /// edge `(u, v)` — a pair of predicates joined by some rule body — all
    /// input predicates feeding `u` and `v` must share at least one
    /// community, otherwise that rule can mis-fire across partitions.
    /// Returns human-readable violations (empty = plan passes the check).
    pub fn verify_plan(&self, syms: &Symbols) -> Vec<String> {
        let sources: Vec<usize> =
            self.input_graph.nodes.iter().filter_map(|p| self.extended.node_of(*p)).collect();
        let src_preds: Vec<Predicate> = self
            .input_graph
            .nodes
            .iter()
            .copied()
            .filter(|p| self.extended.node_of(*p).is_some())
            .collect();
        let reach = self.extended.ep2.reverse_reachability(&sources);
        let mut violations = Vec::new();
        for (u, v, _) in self.extended.ep1.edges() {
            // All inputs feeding this joined pair.
            let feeders: Vec<&Predicate> = src_preds
                .iter()
                .enumerate()
                .filter(|(k, _)| reach[u][*k] || reach[v][*k])
                .map(|(_, p)| p)
                .collect();
            if feeders.len() < 2 {
                continue;
            }
            // Is there a community containing them all?
            let mut shared: Option<Vec<u32>> = None;
            for p in &feeders {
                let name = syms.resolve(p.name);
                let cs = self.plan.communities_of(&name).map(<[u32]>::to_vec).unwrap_or_default();
                shared = Some(match shared {
                    None => cs,
                    Some(prev) => prev.into_iter().filter(|c| cs.contains(c)).collect(),
                });
            }
            if shared.is_none_or(|s| s.is_empty()) {
                let names: Vec<String> =
                    feeders.iter().map(|p| syms.resolve(p.name).to_string()).collect();
                violations.push(format!(
                    "inputs {{{}}} feed the joined pair ({}, {}) but share no community",
                    names.join(", "),
                    syms.resolve(self.extended.nodes[u].name),
                    syms.resolve(self.extended.nodes[v].name),
                ));
            }
        }
        violations.sort();
        violations.dedup();
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");
    const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

    fn analyze(src: &str) -> (Symbols, DependencyAnalysis) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let a =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        (syms, a)
    }

    #[test]
    fn program_p_plan_verifies() {
        let (syms, a) = analyze(PROGRAM_P);
        assert_eq!(a.plan.communities, 2);
        assert!(a.verify_plan(&syms).is_empty(), "{:?}", a.verify_plan(&syms));
    }

    #[test]
    fn program_p_prime_plan_verifies_thanks_to_duplication() {
        let (syms, a) = analyze(&format!("{PROGRAM_P}{RULE_R7}"));
        assert_eq!(a.plan.duplicated(), vec!["car_number"]);
        assert!(a.verify_plan(&syms).is_empty(), "{:?}", a.verify_plan(&syms));
    }

    #[test]
    fn broken_plan_is_flagged() {
        let (syms, mut a) = analyze(PROGRAM_P);
        // Sabotage: separate traffic_light from the speed/count community.
        a.plan.membership.insert("traffic_light".into(), vec![1]);
        let violations = a.verify_plan(&syms);
        assert!(!violations.is_empty());
        assert!(violations.iter().any(|v| v.contains("traffic_light")), "{violations:?}");
    }

    #[test]
    fn default_inpre_is_edb() {
        let (_syms, a) = analyze(PROGRAM_P);
        assert_eq!(a.inpre.len(), 6);
    }
}
