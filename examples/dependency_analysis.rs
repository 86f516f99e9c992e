//! Reproduces the paper's Figures 2–5 textually: the extended dependency
//! graph of program P, the input dependency graphs of P and P', and the
//! decomposing process that duplicates `car_number` for P'.
//!
//! Run with: `cargo run --release --example dependency_analysis`
//! Pass `--dot` to print Graphviz DOT instead of the summary.

use stream_reasoner::prelude::*;
use stream_reasoner::sr_core::decompose::DecompositionMethod;

const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

const RULE_R7: &str = "traffic_jam(X) :- car_fire(X), many_cars(X).\n";

fn describe(title: &str, src: &str, dot: bool) -> Result<(), Box<dyn std::error::Error>> {
    let syms = Symbols::new();
    let program = parse_program(&syms, src)?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;

    println!("==== {title} ====");
    if dot {
        println!("-- extended dependency graph (Figure 2) --");
        print!("{}", analysis.extended.to_dot(&syms));
        println!("-- input dependency graph (Figures 3/4) --");
        print!("{}", analysis.input_graph.to_dot(&syms));
        return Ok(());
    }

    println!("predicates: {}", analysis.extended.nodes.len());
    println!(
        "E_P1 edges: {}   E_P2 edges: {}",
        analysis.extended.ep1.edge_count(),
        analysis.extended.ep2.edge_count()
    );

    println!("input dependency graph over {} input predicates:", analysis.input_graph.nodes.len());
    for (u, v, _) in analysis.input_graph.graph.edges() {
        let pu = syms.resolve(analysis.input_graph.nodes[u].name);
        let pv = syms.resolve(analysis.input_graph.nodes[v].name);
        if u == v {
            println!("  {pu} -- {pu}   (self-loop)");
        } else {
            println!("  {pu} -- {pv}");
        }
    }

    let method = match analysis.decomposition.method {
        DecompositionMethod::Components => "connected components (graph was disconnected)",
        DecompositionMethod::Louvain => "Louvain modularity + duplication (graph was connected)",
        DecompositionMethod::Single => "single community (no split possible)",
    };
    println!("decomposing process: {method}");
    println!("partitioning plan:");
    for c in 0..analysis.plan.communities as u32 {
        println!("  community {c}: {}", analysis.plan.community_members(c).join(", "));
    }
    let dup = analysis.plan.duplicated();
    if dup.is_empty() {
        println!("  duplicated predicates: none");
    } else {
        println!("  duplicated predicates: {}", dup.join(", "));
    }
    let violations = analysis.verify_plan(&syms);
    if violations.is_empty() {
        println!("  join-coverage check: PASS");
    } else {
        for v in violations {
            println!("  join-coverage check: VIOLATION {v}");
        }
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dot = std::env::args().any(|a| a == "--dot");
    describe("Program P (Listing 1; Figures 2 and 3)", PROGRAM_P, dot)?;
    describe("Program P' = P + r7 (Figures 4 and 5)", &format!("{PROGRAM_P}{RULE_R7}"), dot)?;
    Ok(())
}
