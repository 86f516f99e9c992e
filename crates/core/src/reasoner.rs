//! The reasoner `R` of StreamRule: data-format processor + ASP grounder,
//! plus the stable-model solver for programs that need one. A stratified
//! program (every program the paper streams) has exactly one answer set per
//! window, its perfect model, which the grounder evaluates bottom-up
//! ([`Grounder::perfect_model`]); only programs with choice, disjunction or
//! a negative cycle are grounded and handed to CDCL. Its latency includes
//! the RDF→ASP transformation time, as the paper insists ("performance of
//! the reasoning subprocess should be measured by not only the processing
//! time of the solver but also the time required for data
//! transformation").

use asp_core::{AnswerSet, AspError, Predicate, Program, Symbols};
use asp_grounder::Grounder;
use asp_solver::{solve_ground, SolveStats, SolverConfig};
use sr_rdf::{FormatConfig, FormatProcessor, Triple};
use sr_stream::Window;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// End-to-end reasoning latency (what Figures 7/9 plot).
    pub total: Duration,
    /// Partitioning handler time (zero for `R`).
    pub partition: Duration,
    /// RDF→ASP transformation (critical path over workers for PR).
    pub transform: Duration,
    /// Grounding, or perfect-model evaluation for a stratified program
    /// (critical path over workers for PR).
    pub ground: Duration,
    /// CDCL solving, non-stratified programs only (critical path over
    /// workers for PR).
    pub solve: Duration,
    /// Combining handler time (zero for `R`).
    pub combine: Duration,
}

/// Output of a reasoner for one window.
#[derive(Clone, Debug, Default)]
pub struct ReasonerOutput {
    /// The answer sets (combined, for PR).
    pub answers: Vec<AnswerSet>,
    /// Timing breakdown.
    pub timing: Timing,
    /// Sub-window sizes (singleton for `R`).
    pub partition_sizes: Vec<usize>,
    /// Partitions that had no answer set.
    pub unsat_partitions: usize,
    /// Solver statistics aggregated over partitions (all zero when no
    /// partition needed the solver).
    pub solve_stats: SolveStats,
}

/// A pluggable reasoning backend: anything that can turn a window into
/// answer sets. Implemented by [`SingleReasoner`] (the paper's `R`) and by
/// the one partitioned executor,
/// [`IncrementalReasoner`](crate::incremental::IncrementalReasoner) (the
/// extended architecture's `PR`, also named
/// [`ParallelReasoner`](crate::parallel::ParallelReasoner)); the
/// [`StreamEngine`](crate::engine::StreamEngine) is generic over it.
pub trait Reasoner: Send {
    /// A short label for reports (`"R"`, `"PR"`, ...).
    fn name(&self) -> &'static str;

    /// Number of sub-windows the backend splits each window into.
    fn partitions(&self) -> usize {
        1
    }

    /// Processes one window end to end.
    fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError>;

    /// Attempts to restore a usable state after `process` panicked (lane
    /// supervision calls this before retrying the next window). Returns
    /// `true` when the backend is safe to keep using; the default `false`
    /// tells the supervisor to stop driving this instance.
    fn recover(&mut self) -> bool {
        false
    }
}

impl Reasoner for SingleReasoner {
    fn name(&self) -> &'static str {
        "R"
    }

    fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        SingleReasoner::process(self, window)
    }

    fn recover(&mut self) -> bool {
        // Stateless across windows: every `process` grounds from scratch.
        true
    }
}

/// The single (non-parallel) reasoner `R`.
#[derive(Debug)]
pub struct SingleReasoner {
    syms: Symbols,
    grounder: Grounder,
    format: FormatProcessor,
    solver: SolverConfig,
}

impl SingleReasoner {
    /// Builds `R` for `program`. `inpre` defaults to the EDB predicates; it
    /// drives the triple→fact arity mapping.
    pub fn new(
        syms: &Symbols,
        program: &Program,
        inpre: Option<&[Predicate]>,
        solver: SolverConfig,
    ) -> Result<Self, AspError> {
        let edb;
        let inpre = match inpre {
            Some(i) => i,
            None => {
                edb = program.edb_predicates();
                &edb
            }
        };
        let format_cfg = FormatConfig::from_input_signature(syms, inpre);
        Ok(SingleReasoner {
            syms: syms.clone(),
            grounder: Grounder::new(syms, program)?,
            format: FormatProcessor::new(syms, &format_cfg),
            solver,
        })
    }

    /// The symbol store.
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// Enables or disables cost-based join planning in the grounder (see
    /// [`asp_grounder::planner`]). Answer sets are identical either way —
    /// only the join evaluation order inside grounding changes.
    pub fn set_cost_planning(&mut self, enabled: bool) {
        self.grounder.set_cost_planning(enabled);
    }

    /// Planner counters `(replans, plans_reordered, stats_generation)` from
    /// the grounder's plan cache; `None` when cost planning is off.
    pub fn planner_counters(&self) -> Option<(u64, u64, u64)> {
        self.grounder.planner_counters()
    }

    /// Processes a window end to end.
    pub fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        // Spans recorded by the phases below attribute to this window.
        let _trace_ctx = sr_obs::tracer().is_enabled().then(|| {
            sr_obs::ctx_scope(sr_obs::TraceCtx { window_id: window.id, ..sr_obs::current_ctx() })
        });
        let start = Instant::now();
        let (answers, timing, stats) = self.process_items(&window.items)?;
        let mut timing = timing;
        timing.total = start.elapsed();
        Ok(ReasonerOutput {
            unsat_partitions: usize::from(answers.is_empty()),
            answers,
            timing,
            partition_sizes: vec![window.len()],
            solve_stats: stats,
        })
    }

    /// Transform → perfect model, or transform → ground → solve when the
    /// program is not stratified, for a bag of triples; used directly by
    /// the parallel reasoner's workers.
    pub fn process_items(
        &mut self,
        items: &[Triple],
    ) -> Result<(Vec<AnswerSet>, Timing, SolveStats), AspError> {
        let t0 = Instant::now();
        let facts = {
            let _span = sr_obs::span(sr_obs::Stage::Windowing);
            self.format.window_to_facts(items)
        };
        let transform = t0.elapsed();

        let t1 = Instant::now();
        if self.grounder.is_stratified() {
            let answers = {
                let _span = sr_obs::span(sr_obs::Stage::Ground);
                let model = self.grounder.perfect_model(facts)?;
                model.map(|atoms| AnswerSet::new(atoms, &self.syms)).into_iter().collect()
            };
            let timing = Timing {
                total: t0.elapsed(),
                transform,
                ground: t1.elapsed(),
                ..Default::default()
            };
            return Ok((answers, timing, SolveStats::default()));
        }
        let ground = {
            let _span = sr_obs::span(sr_obs::Stage::Ground);
            self.grounder.ground(&facts)?
        };
        let ground_time = t1.elapsed();

        let t2 = Instant::now();
        let result = {
            let _span = sr_obs::span(sr_obs::Stage::Solve);
            solve_ground(&self.syms, &ground, &self.solver)?
        };
        let solve_time = t2.elapsed();

        let timing = Timing {
            total: t0.elapsed(),
            transform,
            ground: ground_time,
            solve: solve_time,
            ..Default::default()
        };
        Ok((result.answer_sets, timing, result.stats))
    }
}

/// Merges two solver-stat records (used when aggregating partitions).
pub fn merge_stats(a: SolveStats, b: SolveStats) -> SolveStats {
    SolveStats {
        atoms: a.atoms + b.atoms,
        vars: a.vars + b.vars,
        clauses: a.clauses + b.clauses,
        conflicts: a.conflicts + b.conflicts,
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        restarts: a.restarts + b.restarts,
        stability_checks: a.stability_checks + b.stability_checks,
        unstable_models: a.unstable_models + b.unstable_models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;
    use sr_rdf::Node;

    const PROGRAM_P: &str = r#"
        very_slow_speed(X) :- average_speed(X,Y), Y < 20.
        many_cars(X) :- car_number(X,Y), Y > 40.
        traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
        car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
        give_notification(X) :- traffic_jam(X).
        give_notification(X) :- car_fire(X).
    "#;

    fn motivating_window() -> Window {
        let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
        Window::new(
            0,
            vec![
                t("newcastle", "average_speed", Node::Int(10)),
                t("newcastle", "car_number", Node::Int(55)),
                t("newcastle", "traffic_light", Node::Int(1)),
                t("car1", "car_in_smoke", Node::literal("high")),
                t("car1", "car_speed", Node::Int(0)),
                t("car1", "car_location", Node::iri("dangan")),
            ],
        )
    }

    #[test]
    fn motivating_example_answers() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let out = r.process(&motivating_window()).unwrap();
        assert_eq!(out.answers.len(), 1, "program P is deterministic");
        let rendered = out.answers[0].display(&syms).to_string();
        assert!(rendered.contains("car_fire(dangan)"));
        assert!(rendered.contains("give_notification(dangan)"));
        assert!(!rendered.contains("traffic_jam"), "light blocks the jam: {rendered}");
        assert!(!rendered.contains("give_notification(newcastle)"));
    }

    #[test]
    fn timing_breakdown_is_recorded() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let out = r.process(&motivating_window()).unwrap();
        assert!(out.timing.total >= out.timing.transform);
        assert!(out.timing.total >= out.timing.ground + out.timing.solve);
        assert_eq!(out.partition_sizes, vec![6]);
        assert_eq!(out.unsat_partitions, 0);
    }

    #[test]
    fn reasoner_is_reusable_across_windows() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let o1 = r.process(&motivating_window()).unwrap();
        let o2 = r.process(&motivating_window()).unwrap();
        assert_eq!(o1.answers, o2.answers);
    }

    #[test]
    fn negative_cycle_still_reaches_the_solver() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "a :- not b. b :- not a.").unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let out = r.process(&Window::new(0, vec![])).unwrap();
        let mut rendered: Vec<String> =
            out.answers.iter().map(|a| a.display(&syms).to_string()).collect();
        rendered.sort();
        assert_eq!(rendered, vec!["{a}", "{b}"]);
        assert!(out.solve_stats.vars > 0, "CDCL ran: {:?}", out.solve_stats);
    }

    #[test]
    fn empty_window_yields_empty_answer() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
        let out = r.process(&Window::new(0, vec![])).unwrap();
        assert_eq!(out.answers.len(), 1);
        assert!(out.answers[0].is_empty());
    }
}
