//! # stream-reasoner
//!
//! Scalable non-monotonic stream reasoning via **input dependency analysis**
//! — a from-scratch Rust reproduction of Pham, Mileo & Ali (ICDE 2017),
//! including every substrate the paper relies on:
//!
//! * a full ASP engine ([`asp_parser`], [`asp_grounder`], [`asp_solver`])
//!   standing in for Clingo 4.3;
//! * an RDF triple model and the StreamRule data format processor
//!   ([`sr_rdf`]);
//! * stream windows, the predicate-filter query processor and the paper's
//!   synthetic workload generators ([`sr_stream`]);
//! * graph algorithms, Louvain modularity included ([`sr_graph`]);
//! * engine-wide observability ([`sr_obs`]): a metrics registry with a
//!   Prometheus text endpoint, log-bucketed latency histograms and
//!   per-window stage tracing exportable as Chrome trace-event JSON;
//! * the paper's contribution itself ([`sr_core`]): extended/input
//!   dependency graphs, the decomposing process, the partitioning plan,
//!   Algorithm 1, the parallel reasoner PR and the accuracy metric.
//!
//! ## Quickstart
//!
//! ```
//! use stream_reasoner::prelude::*;
//!
//! let syms = Symbols::new();
//! let program = parse_program(&syms, "
//!     jam(X) :- slow(X), busy(X), not light(X).
//! ").unwrap();
//!
//! // Design time: analyze dependencies, build the partitioning plan.
//! let analysis = DependencyAnalysis::analyze(
//!     &syms, &program, None, &AnalysisConfig::default()).unwrap();
//! assert_eq!(analysis.plan.communities, 1); // one joined rule = one community
//! ```
//!
//! See `examples/` for end-to-end pipelines, `crates/bench` for the harness
//! regenerating the paper's Figures 7-10, and `BENCHMARK.json` /
//! `benchmark/` for the end-to-end benchmark.

pub use asp_core;
pub use asp_grounder;
pub use asp_parser;
pub use asp_solver;
pub use sr_core;
pub use sr_graph;
pub use sr_obs;
pub use sr_rdf;
pub use sr_stream;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use asp_core::{AnswerSet, AspError, Atom, GroundAtom, Predicate, Program, Symbols};
    pub use asp_parser::{parse_program, parse_rule};
    pub use asp_solver::{solve, solve_ground, SolveResult, SolverConfig};
    pub use sr_core::{
        answer_accuracy, duration_ms, fault, partition_pool, program_fingerprint, window_accuracy,
        AdmissionPolicy, AdmissionSnapshot, AdmitError, AnalysisConfig, CacheCounters,
        CombinePolicy, DedupSnapshot, DependencyAnalysis, DominatingTerm, DuplicationPolicy,
        EngineConfig, EngineOutput, EngineReport, EngineStats, ExecCtx, FailureSnapshot, FaultPlan,
        FaultSite, IncrementalReasoner, IncrementalSnapshot, LatencyStats, MultiTenantEngine,
        ParallelMode, ParallelReasoner, Partitioner, PartitioningPlan, PlanPartitioner,
        ProgramBounds, Projection, RandomPartitioner, Reasoner, ReasonerConfig, ReasonerOutput,
        SingleReasoner, StreamEngine, TenantLatency, TenantOutput, TenantPartitioner,
        UnknownPredicate, WindowSpec,
    };
    pub use sr_rdf::{FormatConfig, FormatProcessor, Node, Triple};
    pub use sr_stream::{
        paper_generator, BurstyGenerator, ChurnStream, CorrelatedGenerator, FaithfulGenerator,
        GeneratorKind, QueryProcessor, SlidingWindower, StreamItem, TupleWindower, Window,
        WindowDelta, Windower, WorkloadGenerator, PAPER_PREDICATES,
    };
}
