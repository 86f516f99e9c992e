//! Regenerates the paper's evaluation: Figures 7–10, the §IV headline
//! claims, and the ablations beyond the paper.
//!
//! ```text
//! cargo run --release -p sr-bench --bin repro -- all        # everything
//! cargo run --release -p sr-bench --bin repro -- fig7       # one figure
//! cargo run --release -p sr-bench --bin repro -- all --quick
//! cargo run --release -p sr-bench --bin repro -- claims
//! cargo run --release -p sr-bench --bin repro -- ablations
//! ```
//!
//! CSVs are written to `results/`.

use sr_bench::{
    csv, program_p_prime, run, table, ExperimentConfig, ExperimentResult, Measure, Series,
    PROGRAM_P,
};
use sr_core::{AnalysisConfig, DependencyAnalysis, DuplicationPolicy, ParallelMode};
use sr_stream::GeneratorKind;
use std::path::Path;

const USAGE: &str = "\
repro — regenerate the paper's evaluation (Figures 7-10, claims, ablations)

usage: repro [all|fig7|fig8|fig9|fig10|claims|ablations] [--quick]
       repro --smoke
       repro --help

  all          every figure, the Section IV claims and the ablations (default)
  figN         one figure's grid and CSV (written to results/)
  claims       the Section IV headline claims on the measured grids
  ablations    partitioning ablations beyond the paper
  --quick      small grid (2 window sizes, 2 reps) instead of the paper grid
  --smoke      seconds-fast end-to-end pipeline check, no files written

End-to-end throughput and latency of the paper's workloads are measured by
the repository's benchmark (BENCHMARK.json, benchmark/README.md).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");
    if !matches!(what, "all" | "fig7" | "fig8" | "fig9" | "fig10" | "claims" | "ablations") {
        eprintln!("repro: unknown experiment `{what}`\n\n{USAGE}");
        std::process::exit(2);
    }

    std::fs::create_dir_all("results").expect("create results dir");

    let mut p_result: Option<ExperimentResult> = None;
    let mut pp_result: Option<ExperimentResult> = None;

    if matches!(what, "all" | "fig7" | "fig8" | "claims") {
        p_result = Some(experiment(PROGRAM_P, "P", quick));
    }
    if matches!(what, "all" | "fig9" | "fig10" | "claims") {
        pp_result = Some(experiment(&program_p_prime(), "P'", quick));
    }

    if matches!(what, "all" | "fig7") {
        figure(
            p_result.as_ref().unwrap(),
            "fig7",
            "Figure 7: reasoning latency (program P), ms",
            Measure::LatencyMs,
        );
    }
    if matches!(what, "all" | "fig8") {
        figure(
            p_result.as_ref().unwrap(),
            "fig8",
            "Figure 8: accuracy (program P)",
            Measure::Accuracy,
        );
    }
    if matches!(what, "all" | "fig9") {
        figure(
            pp_result.as_ref().unwrap(),
            "fig9",
            "Figure 9: reasoning latency (program P'), ms",
            Measure::LatencyMs,
        );
    }
    if matches!(what, "all" | "fig10") {
        figure(
            pp_result.as_ref().unwrap(),
            "fig10",
            "Figure 10: accuracy (program P')",
            Measure::Accuracy,
        );
    }
    if matches!(what, "all" | "claims") {
        claims(p_result.as_ref().unwrap(), pp_result.as_ref().unwrap());
    }
    if matches!(what, "all" | "ablations") {
        ablations(quick);
    }
}

/// CI fast path: drives the full measurement pipeline (parse → analyze →
/// partition → parallel reasoning → combine → report) on a tiny grid so the
/// harness itself can never silently rot, without paper-scale runtimes.
fn smoke() {
    let cfg = ExperimentConfig {
        window_sizes: vec![200, 500],
        reps: 1,
        warmup: 0,
        random_ks: vec![2],
        ..ExperimentConfig::quick(PROGRAM_P, GeneratorKind::CorrelatedSparse)
    };
    let result = run(&cfg).expect("smoke experiment");
    print!("{}", table(&result, Measure::LatencyMs, true));
    print!("{}", table(&result, Measure::Accuracy, true));
    println!(
        "smoke ok: {} window sizes x {} series measured",
        result.window_sizes.len(),
        result.series.len()
    );
}

fn experiment(program: &str, name: &str, quick: bool) -> ExperimentResult {
    eprintln!(
        ">>> running experiment grid for program {name} ({})",
        if quick { "quick" } else { "paper" }
    );
    let cfg = if quick {
        ExperimentConfig::quick(program, GeneratorKind::CorrelatedSparse)
    } else {
        ExperimentConfig::paper(program, GeneratorKind::CorrelatedSparse)
    };
    run(&cfg).expect("experiment run")
}

fn figure(result: &ExperimentResult, id: &str, title: &str, measure: Measure) {
    println!("\n== {title} ==");
    print!("{}", table(result, measure, true));
    if !result.duplicated_predicates.is_empty() {
        println!(
            "duplicated predicates: {:?} ({:.1}% of window instances duplicated)",
            result.duplicated_predicates,
            result.duplication_ratio * 100.0
        );
    }
    let path = format!("results/{id}.csv");
    std::fs::write(Path::new(&path), csv(result)).expect("write csv");
    println!("[csv written to {path}]");
}

/// The §IV headline claims, checked on the measured grids.
fn claims(p: &ExperimentResult, pp: &ExperimentResult) {
    println!("\n== Paper claims (Section IV) vs measured ==");
    let last = *p.window_sizes.last().unwrap();

    let r = p.cell(last, &Series::R).median_latency();
    let dep = p.cell(last, &Series::PrDep).median_latency();
    println!(
        "claim: PR_Dep cuts ~50% of R's latency (P, {last} items): R {r:.2} ms, PR_Dep {dep:.2} ms -> {:.0}% of R",
        dep / r * 100.0
    );

    let acc_dep = p.cell(last, &Series::PrDep).mean_accuracy();
    println!("claim: PR_Dep accuracy is maintained (P): measured {acc_dep:.3} (expected 1.000)");

    let acc_k2 = p.cell(last, &Series::PrRan(2)).mean_accuracy();
    let acc_k5 = p.cell(last, &Series::PrRan(5)).mean_accuracy();
    println!(
        "claim: random partitioning decreases accuracy sharply (P): k2 {acc_k2:.3}, k5 {acc_k5:.3}"
    );

    let lat_k2 = p.cell(last, &Series::PrRan(2)).median_latency();
    println!(
        "claim: PR_Dep and PR_Ran_k2 latencies are close (P): PR_Dep {dep:.2} ms vs k2 {lat_k2:.2} ms"
    );

    let dep_pp = pp.cell(last, &Series::PrDep).median_latency();
    println!(
        "claim: duplication increases PR_Dep latency up to 30% (P' vs P): {dep:.2} -> {dep_pp:.2} ms (+{:.0}%)",
        (dep_pp / dep - 1.0) * 100.0
    );
    println!(
        "claim: ~25% of instances duplicated (P'): measured {:.1}% (uniform predicate mix puts car_number at ~1/6)",
        pp.duplication_ratio * 100.0
    );
    let acc_dep_pp = pp.cell(last, &Series::PrDep).mean_accuracy();
    println!("claim: accuracy for P' same as for P (PR_Dep): measured {acc_dep_pp:.3}");
}

/// Ablations beyond the paper (DESIGN.md §6).
fn ablations(quick: bool) {
    use asp_core::Symbols;
    use asp_parser::parse_program;

    println!("\n== Ablation: Louvain resolution sweep (program P') ==");
    let syms = Symbols::new();
    let program = parse_program(&syms, &program_p_prime()).unwrap();
    for resolution in [0.5, 1.0, 2.0, 4.0] {
        let cfg = AnalysisConfig { resolution, ..Default::default() };
        let a = DependencyAnalysis::analyze(&syms, &program, None, &cfg).unwrap();
        println!(
            "  resolution {resolution:>4}: {} communities, duplicated {:?}, verify: {}",
            a.plan.communities,
            a.plan.duplicated(),
            if a.verify_plan(&syms).is_empty() { "PASS" } else { "VIOLATIONS" }
        );
    }

    println!("\n== Ablation: duplication policy (program P') ==");
    for (name, policy) in [
        ("SmallerSet (paper)", DuplicationPolicy::SmallerSet),
        (
            "FewerInstances (car_number expensive)",
            DuplicationPolicy::FewerInstances(vec![
                ("car_number".into(), 10.0),
                ("car_in_smoke".into(), 0.5),
                ("car_speed".into(), 0.5),
                ("car_location".into(), 0.5),
            ]),
        ),
    ] {
        let cfg = AnalysisConfig { duplication: policy, ..Default::default() };
        let a = DependencyAnalysis::analyze(&syms, &program, None, &cfg).unwrap();
        println!("  {name}: duplicated {:?}", a.plan.duplicated());
    }

    println!("\n== Ablation: threads vs sequential PR_Dep (program P) ==");
    let sizes = if quick { vec![5_000] } else { vec![10_000, 40_000] };
    for mode in [ParallelMode::Threads, ParallelMode::Sequential] {
        let cfg = ExperimentConfig {
            window_sizes: sizes.clone(),
            reps: if quick { 1 } else { 3 },
            random_ks: vec![],
            mode,
            ..ExperimentConfig::paper(PROGRAM_P, GeneratorKind::Correlated)
        };
        let result = run(&cfg).expect("ablation run");
        for &s in &sizes {
            println!(
                "  {mode:?} window {s}: PR_Dep {:.2} ms (R {:.2} ms)",
                result.cell(s, &Series::PrDep).median_latency(),
                result.cell(s, &Series::R).median_latency()
            );
        }
    }

    println!("\n== Ablation: larger rule set (17 rules, 13 inputs, 4 communities) ==");
    {
        use asp_solver::SolverConfig;
        use sr_core::{
            duration_ms, ParallelReasoner, PlanPartitioner, ReasonerConfig, SingleReasoner,
            UnknownPredicate,
        };
        use sr_stream::{FaithfulGenerator, Window, WorkloadGenerator};
        use std::sync::Arc;
        use std::time::Instant;

        let program = parse_program(&syms, sr_bench::programs::LARGE_TRAFFIC).unwrap();
        let a =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        println!(
            "  communities: {}, duplicated: {:?}, verify: {}",
            a.plan.communities,
            a.plan.duplicated(),
            if a.verify_plan(&syms).is_empty() { "PASS" } else { "VIOLATIONS" }
        );
        let names: Vec<String> = a.inpre.iter().map(|p| syms.resolve(p.name).to_string()).collect();
        let mut generator = FaithfulGenerator::new(names, 4242);
        let size = if quick { 5_000 } else { 20_000 };
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let mut pr = ParallelReasoner::new(
            &syms,
            &program,
            Some(&a.inpre),
            Arc::new(PlanPartitioner::new(a.plan.clone(), UnknownPredicate::Partition0)),
            ReasonerConfig::default(),
        )
        .unwrap();
        let mut r_ms = Vec::new();
        let mut pr_ms = Vec::new();
        for rep in 0..4u64 {
            let window = Window::new(rep, generator.window(size));
            let t0 = Instant::now();
            r.process(&window).unwrap();
            let t1 = Instant::now();
            pr.process(&window).unwrap();
            if rep > 0 {
                r_ms.push(duration_ms(t1 - t0));
                pr_ms.push(duration_ms(t1.elapsed()));
            }
        }
        let med = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        println!(
            "  window {size}: R {:.2} ms, PR_Dep(4 communities) {:.2} ms",
            med(r_ms),
            med(pr_ms)
        );
    }

    println!("\n== Ablation: generator mode (program P, accuracy of PR_Ran_k2) ==");
    for kind in
        [GeneratorKind::Faithful, GeneratorKind::Correlated, GeneratorKind::CorrelatedSparse]
    {
        let cfg = ExperimentConfig {
            window_sizes: if quick { vec![5_000] } else { vec![20_000] },
            reps: if quick { 1 } else { 3 },
            random_ks: vec![2],
            ..ExperimentConfig::paper(PROGRAM_P, kind)
        };
        let result = run(&cfg).expect("ablation run");
        let s = result.window_sizes[0];
        println!(
            "  {kind:?}: PR_Ran_k2 accuracy {:.3}, PR_Dep accuracy {:.3}",
            result.cell(s, &Series::PrRan(2)).mean_accuracy(),
            result.cell(s, &Series::PrDep).mean_accuracy()
        );
    }
}
