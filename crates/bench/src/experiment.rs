//! Experiment grid runner behind the `repro` and `diag` binaries: builds
//! the reasoners once, streams synthetic windows through
//! them, and collects latency/accuracy per (window size, series) cell.

use asp_core::{AspError, Program, Symbols};
use asp_solver::SolverConfig;
use sr_core::{
    partition_pool, window_accuracy, AnalysisConfig, DependencyAnalysis, ExecCtx, ParallelMode,
    ParallelReasoner, PlanPartitioner, Projection, RandomPartitioner, ReasonerConfig,
    ReasonerOutput, SingleReasoner, UnknownPredicate,
};
use sr_stream::{paper_generator, GeneratorKind, Window};
use std::sync::Arc;

/// One series of the paper's plots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Series {
    /// The single reasoner.
    R,
    /// Dependency-partitioned parallel reasoner.
    PrDep,
    /// Random k-way partitioned parallel reasoner.
    PrRan(usize),
}

impl Series {
    /// The label used in the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Series::R => "R".to_string(),
            Series::PrDep => "PR_Dep".to_string(),
            Series::PrRan(k) => format!("PR_Ran_k{k}"),
        }
    }
}

/// Experiment definition.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// ASP source of the program under test.
    pub program: String,
    /// Workload generator mode.
    pub generator: GeneratorKind,
    /// Window sizes (items) to sweep.
    pub window_sizes: Vec<usize>,
    /// Measured repetitions per cell.
    pub reps: usize,
    /// Unmeasured warm-up windows per cell.
    pub warmup: usize,
    /// Workload seed.
    pub seed: u64,
    /// `k` values for the random baseline.
    pub random_ks: Vec<usize>,
    /// PR scheduling mode.
    pub mode: ParallelMode,
    /// Accuracy projection: predicate names to keep (the paper's reasoner
    /// returns *solutions*, i.e. detected events); `None` keeps every
    /// derived (non-input) atom.
    pub projection_predicates: Option<Vec<String>>,
}

impl ExperimentConfig {
    /// The paper's grid: windows 5k..40k step 5k, `k ∈ {2,3,4,5}`.
    pub fn paper(program: &str, generator: GeneratorKind) -> Self {
        ExperimentConfig {
            program: program.to_string(),
            generator,
            window_sizes: (1..=8).map(|i| i * 5_000).collect(),
            reps: 5,
            warmup: 2,
            seed: 2017,
            random_ks: vec![2, 3, 4, 5],
            mode: ParallelMode::Threads,
            projection_predicates: Some(
                ["traffic_jam", "car_fire", "give_notification"].map(str::to_string).to_vec(),
            ),
        }
    }

    /// A smoke-test grid for CI / `--quick`.
    pub fn quick(program: &str, generator: GeneratorKind) -> Self {
        ExperimentConfig {
            window_sizes: vec![2_000, 5_000],
            reps: 2,
            warmup: 1,
            ..Self::paper(program, generator)
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// Latency samples (ms).
    pub latency_ms: Vec<f64>,
    /// Accuracy samples vs `R` on the same window.
    pub accuracy: Vec<f64>,
}

impl Cell {
    /// Mean latency in ms.
    pub fn mean_latency(&self) -> f64 {
        mean(&self.latency_ms)
    }

    /// Median latency in ms — robust against scheduler noise on small
    /// shared machines, and what the tables report.
    pub fn median_latency(&self) -> f64 {
        median(&self.latency_ms)
    }

    /// Mean accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        mean(&self.accuracy)
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Result grid: `cells[size_idx][series_idx]`.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The sizes swept.
    pub window_sizes: Vec<usize>,
    /// Series order.
    pub series: Vec<Series>,
    /// The cells.
    pub cells: Vec<Vec<Cell>>,
    /// Fraction of window items duplicated by the dependency plan (0 when no
    /// predicate is duplicated) — the paper reports ≈25% for P'.
    pub duplication_ratio: f64,
    /// Duplicated predicate names from the plan.
    pub duplicated_predicates: Vec<String>,
}

impl ExperimentResult {
    /// The cell for a series at a window size.
    pub fn cell(&self, size: usize, series: &Series) -> &Cell {
        let si = self.window_sizes.iter().position(|&s| s == size).expect("size in grid");
        let ci = self.series.iter().position(|s| s == series).expect("series in grid");
        &self.cells[si][ci]
    }
}

/// A fully built experiment bench: reasoners constructed once (design time),
/// windows streamed through (run time).
pub struct ExperimentBench {
    /// Shared symbol store.
    pub syms: Symbols,
    /// Parsed program.
    pub program: Program,
    /// The design-time analysis (plan, graphs).
    pub analysis: DependencyAnalysis,
    /// Reference reasoner R.
    pub r: SingleReasoner,
    /// PR with the dependency plan.
    pub pr_dep: ParallelReasoner,
    /// PR with random partitioning per k.
    pub pr_ran: Vec<(usize, ParallelReasoner)>,
    projection: Projection,
}

impl ExperimentBench {
    /// Builds all reasoners for `config`.
    pub fn build(config: &ExperimentConfig) -> Result<Self, AspError> {
        let syms = Symbols::new();
        let program = asp_parser::parse_program(&syms, &config.program)?;
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
        let reasoner_cfg = ReasonerConfig { mode: config.mode, ..Default::default() };
        let r = SingleReasoner::new(&syms, &program, None, SolverConfig::default())?;
        let dep_partitioner: Arc<dyn sr_core::Partitioner> =
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
        // Threads mode: PR_Dep and every PR_Ran_k share one warm worker
        // pool (the `Arc` clone in `build_pr`), sized for the widest
        // partitioning in the sweep; Sequential mode needs no pool.
        let workers =
            config.random_ks.iter().copied().chain([analysis.plan.communities]).max().unwrap_or(1);
        let ctx = ExecCtx { pool: partition_pool(&reasoner_cfg, workers)?, ..Default::default() };
        let build_pr = |partitioner: Arc<dyn sr_core::Partitioner>| {
            ParallelReasoner::with_ctx(
                &syms,
                &program,
                Some(&analysis.inpre),
                partitioner,
                reasoner_cfg.clone(),
                ctx.clone(),
            )
        };
        let pr_dep = build_pr(dep_partitioner)?;
        let mut pr_ran = Vec::new();
        for &k in &config.random_ks {
            pr_ran
                .push((k, build_pr(Arc::new(RandomPartitioner::new(k, config.seed ^ k as u64)))?));
        }
        let projection = match &config.projection_predicates {
            None => Projection::derived(&analysis.inpre),
            Some(names) => {
                let keep: asp_core::FastSet<asp_core::Predicate> = program
                    .predicates()
                    .into_iter()
                    .filter(|p| {
                        let name = syms.resolve(p.name);
                        names.iter().any(|n| n.as_str() == &*name)
                    })
                    .collect();
                Projection::Keep(keep)
            }
        };
        Ok(ExperimentBench { syms, program, analysis, r, pr_dep, pr_ran, projection })
    }

    /// Accuracy of `candidate` against `reference` under the experiment's
    /// derived-atom projection.
    pub fn accuracy(&self, reference: &ReasonerOutput, candidate: &ReasonerOutput) -> f64 {
        window_accuracy(&self.syms, &reference.answers, &candidate.answers, &self.projection)
    }
}

/// Runs the full grid.
pub fn run(config: &ExperimentConfig) -> Result<ExperimentResult, AspError> {
    let mut bench = ExperimentBench::build(config)?;
    let mut series = vec![Series::R, Series::PrDep];
    series.extend(config.random_ks.iter().map(|&k| Series::PrRan(k)));

    let duplicated: Vec<String> =
        bench.analysis.plan.duplicated().iter().map(|s| s.to_string()).collect();

    let mut cells: Vec<Vec<Cell>> = Vec::with_capacity(config.window_sizes.len());
    let mut dup_ratio_acc = Vec::new();
    for (size_idx, &size) in config.window_sizes.iter().enumerate() {
        let mut generator = paper_generator(config.generator, config.seed + size as u64);
        let mut row: Vec<Cell> = vec![Cell::default(); series.len()];
        for rep in 0..(config.warmup + config.reps) {
            let window = Window::new((size_idx * 1000 + rep) as u64, generator.window(size));
            let measured = rep >= config.warmup;

            let out_r = bench.r.process(&window)?;
            if measured {
                row[0].latency_ms.push(ms(&out_r));
                row[0].accuracy.push(1.0);
            }

            let out_dep = bench.pr_dep.process(&window)?;
            if measured {
                row[1].latency_ms.push(ms(&out_dep));
                row[1].accuracy.push(bench.accuracy(&out_r, &out_dep));
                let total: usize = out_dep.partition_sizes.iter().sum();
                dup_ratio_acc.push((total as f64 - window.len() as f64) / window.len() as f64);
            }

            for ki in 0..bench.pr_ran.len() {
                let out = bench.pr_ran[ki].1.process(&window)?;
                if measured {
                    row[2 + ki].latency_ms.push(ms(&out));
                    row[2 + ki].accuracy.push(bench.accuracy(&out_r, &out));
                }
            }
        }
        cells.push(row);
    }

    Ok(ExperimentResult {
        window_sizes: config.window_sizes.clone(),
        series,
        cells,
        duplication_ratio: mean(&dup_ratio_acc),
        duplicated_predicates: duplicated,
    })
}

fn ms(out: &ReasonerOutput) -> f64 {
    out.timing.total.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{program_p_prime, PROGRAM_P};

    #[test]
    fn quick_grid_runs_and_prdep_is_exact() {
        let mut cfg = ExperimentConfig::quick(PROGRAM_P, GeneratorKind::Correlated);
        cfg.window_sizes = vec![500];
        cfg.reps = 1;
        cfg.random_ks = vec![2];
        let result = run(&cfg).unwrap();
        assert_eq!(result.series.len(), 3);
        let dep = result.cell(500, &Series::PrDep);
        assert_eq!(dep.mean_accuracy(), 1.0, "dependency partitioning must stay exact");
        assert!(dep.mean_latency() > 0.0);
        assert!(result.duplicated_predicates.is_empty());
    }

    #[test]
    fn p_prime_reports_duplication() {
        let mut cfg = ExperimentConfig::quick(&program_p_prime(), GeneratorKind::Correlated);
        cfg.window_sizes = vec![600];
        cfg.reps = 1;
        cfg.random_ks = vec![];
        let result = run(&cfg).unwrap();
        assert_eq!(result.duplicated_predicates, vec!["car_number".to_string()]);
        // car_number is 1 of 6 uniform predicates: ≈ 1/6 ≈ 17% of instances
        // duplicated in expectation (the paper reports 25% on its data).
        assert!(result.duplication_ratio > 0.05, "{}", result.duplication_ratio);
        assert!(result.duplication_ratio < 0.35, "{}", result.duplication_ratio);
    }

    #[test]
    fn series_labels_match_paper_legends() {
        assert_eq!(Series::R.label(), "R");
        assert_eq!(Series::PrDep.label(), "PR_Dep");
        assert_eq!(Series::PrRan(3).label(), "PR_Ran_k3");
    }
}
