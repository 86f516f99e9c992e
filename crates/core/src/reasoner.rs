//! The reasoner `R` of StreamRule: data-format processor + ASP grounder,
//! plus the stable-model solver for programs that need one. A stratified
//! program (every program the paper streams) has exactly one answer set per
//! window, its perfect model, which the grounder evaluates bottom-up
//! ([`Grounder::perfect_model`]); only programs with choice, disjunction or
//! a negative cycle are grounded and handed to CDCL.
//!
//! A reasoner keeps no clock. Its latency is the wall clock its caller
//! measures around [`Reasoner::process`], which includes the RDF→ASP
//! transformation time, as the paper insists ("performance of the reasoning
//! subprocess should be measured by not only the processing time of the
//! solver but also the time required for data transformation"). The
//! per-stage breakdown comes from the `sr_obs` spans each stage records
//! (`Windowing`, `Ground`, `Solve`; `Partition`, `CacheLookup` and `Combine`
//! for PR) while the tracer is on.

use crate::poison::lock_recover;
use asp_core::{AnswerSet, AspError, Predicate, Program, Symbols};
use asp_grounder::Grounder;
use asp_solver::{solve_ground, SolveStats, SolverConfig};
use sr_rdf::{FormatConfig, FormatProcessor, Triple};
use sr_stream::Window;
use std::sync::{Arc, Mutex};

/// Output of a reasoner for one window.
#[derive(Clone, Debug, Default)]
pub struct ReasonerOutput {
    /// The answer sets (combined, for PR).
    pub answers: Vec<AnswerSet>,
    /// Sub-window sizes (singleton for `R`).
    pub partition_sizes: Vec<usize>,
    /// Solver statistics aggregated over partitions (all zero when no
    /// partition needed the solver).
    pub solve_stats: SolveStats,
}

/// A pluggable reasoning backend: anything that can turn a window into an
/// output, answer sets by default. Implemented by [`SingleReasoner`] (the
/// paper's `R`), by the one partitioned executor,
/// [`IncrementalReasoner`](crate::incremental::IncrementalReasoner) (`PR`),
/// and by the [`MultiTenantEngine`](crate::multi_tenant::MultiTenantEngine)
/// (one output per tenant); the
/// [`StreamEngine`](crate::engine::StreamEngine) runs any of them.
pub trait Reasoner<O = ReasonerOutput>: Send {
    /// Processes one window end to end.
    fn process(&mut self, window: &Window) -> Result<O, AspError>;
}

/// Engine lanes that hold clones of one `Arc` take turns on its reasoner.
/// With several lanes it still serves one window at a time, the lock wait
/// counts into each lane's busy time, and windows may reach it out of
/// order, so a reasoner that reuses the previous window's work recomputes
/// instead; a one-lane engine has none of these costs.
impl<O, R: Reasoner<O>> Reasoner<O> for Arc<Mutex<R>> {
    fn process(&mut self, window: &Window) -> Result<O, AspError> {
        lock_recover(self).process(window)
    }
}

impl Reasoner for SingleReasoner {
    fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        SingleReasoner::process(self, window)
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

    /// Processes a window end to end.
    pub fn process(&mut self, window: &Window) -> Result<ReasonerOutput, AspError> {
        // Spans recorded by the phases below attribute to this window.
        let _trace_ctx = sr_obs::tracer().is_enabled().then(|| {
            sr_obs::ctx_scope(sr_obs::TraceCtx { window_id: window.id, ..sr_obs::current_ctx() })
        });
        let (answers, solve_stats) = self.process_items(&window.items)?;
        Ok(ReasonerOutput { answers, partition_sizes: vec![window.len()], solve_stats })
    }

    /// Transform → perfect model, or transform → ground → solve when the
    /// program is not stratified, for a bag of triples: a whole window's
    /// (`&window.items`), or a partition's, borrowed from its window through
    /// the partition's indices (`idx.iter().map(|&i| &items[i as usize])`),
    /// as the partitioned reasoner's jobs pass them.
    pub fn process_items<'t, I>(
        &mut self,
        items: I,
    ) -> Result<(Vec<AnswerSet>, SolveStats), AspError>
    where
        I: IntoIterator<Item = &'t Triple>,
        I::IntoIter: ExactSizeIterator,
    {
        let facts = {
            let _span = sr_obs::span(sr_obs::Stage::Windowing);
            self.format.window_to_facts(items)
        };
        if self.grounder.is_stratified() {
            let _span = sr_obs::span(sr_obs::Stage::Ground);
            let model = self.grounder.perfect_model(facts)?;
            let answers =
                model.map(|atoms| AnswerSet::new(atoms, &self.syms)).into_iter().collect();
            return Ok((answers, SolveStats::default()));
        }
        let ground = {
            let _span = sr_obs::span(sr_obs::Stage::Ground);
            self.grounder.ground(&facts)?
        };
        let _span = sr_obs::span(sr_obs::Stage::Solve);
        let result = solve_ground(&self.syms, &ground, &self.solver)?;
        Ok((result.answer_sets, result.stats))
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

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

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
        assert_eq!(out.partition_sizes, vec![6], "R reasons over one sub-window");
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
