//! The paper's rule sets: program P (Listing 1) and P' (P + r7).

/// Listing 1: the traffic-event detection program P.
pub const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

/// Rule r7 of Section II-B, which connects the two halves of the input
/// dependency graph.
pub const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

/// Program P' = P ∪ {r7}.
pub fn program_p_prime() -> String {
    format!("{PROGRAM_P}{RULE_R7}")
}

/// A larger smart-city rule set (the paper's future work asks for "more
/// experiments on different rule sets"): 17 rules over 13 input predicates
/// spanning traffic flow, vehicle emergencies, weather and public transport.
/// Its input dependency graph decomposes into four communities, exercising
/// partitioning degrees beyond the paper's two.
pub const LARGE_TRAFFIC: &str = include_str!("../../../assets/large_traffic.lp");

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::Symbols;
    use asp_parser::parse_program;
    use sr_core::{AnalysisConfig, DependencyAnalysis};

    #[test]
    fn programs_parse() {
        let syms = Symbols::new();
        assert_eq!(parse_program(&syms, PROGRAM_P).unwrap().rules.len(), 6);
        assert_eq!(parse_program(&syms, &program_p_prime()).unwrap().rules.len(), 7);
        assert_eq!(parse_program(&syms, LARGE_TRAFFIC).unwrap().rules.len(), 17);
    }

    #[test]
    fn large_traffic_decomposes_into_four_communities() {
        let syms = Symbols::new();
        let program = parse_program(&syms, LARGE_TRAFFIC).unwrap();
        let a =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        assert_eq!(a.inpre.len(), 13);
        // traffic | vehicles∪weather (joined by close_road) | fog | bus.
        assert_eq!(a.plan.communities, 4);
        assert!(a.plan.duplicated().is_empty(), "components need no duplication");
        assert!(a.verify_plan(&syms).is_empty());
        // bus_line joins itself in bus_bunching's body: self-loop expected.
        let bus_line = a
            .input_graph
            .nodes
            .iter()
            .position(|p| &*syms.resolve(p.name) == "bus_line")
            .expect("bus_line is an input");
        assert!(a.input_graph.graph.has_self_loop(bus_line));
    }

    #[test]
    fn large_traffic_pr_dep_is_exact() {
        use asp_solver::SolverConfig;
        use sr_core::{
            window_accuracy, ParallelMode, ParallelReasoner, PlanPartitioner, Projection,
            ReasonerConfig, SingleReasoner, UnknownPredicate,
        };
        use sr_stream::{FaithfulGenerator, Window, WorkloadGenerator};
        use std::sync::Arc;

        let syms = Symbols::new();
        let program = parse_program(&syms, LARGE_TRAFFIC).unwrap();
        let a =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let names: Vec<String> = a.inpre.iter().map(|p| syms.resolve(p.name).to_string()).collect();
        let mut generator = FaithfulGenerator::new(names, 9);
        let window = Window::new(0, generator.window(2_000));

        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let base = r.process(&window).unwrap();
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&a.inpre),
            Arc::new(PlanPartitioner::new(a.plan.clone(), UnknownPredicate::Partition0)),
            ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() },
        )
        .unwrap();
        let par = pr.process(&window).unwrap();
        let acc = window_accuracy(&syms, &base.answers, &par.answers, &Projection::All);
        assert_eq!(acc, 1.0);
    }
}
