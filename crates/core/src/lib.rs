//! The paper's primary contribution: **input dependency analysis** for
//! partitioning the input windows of a non-monotonic stream reasoner, and
//! the **extended StreamRule** architecture that exploits it (partitioning
//! handler, parallel reasoners, combining handler, accuracy metric).
//!
//! Design-time: [`DependencyAnalysis::analyze`] builds the extended
//! dependency graph (Definition 1), the input dependency graph
//! (Definition 2) and the partitioning plan (Section II-B decomposing
//! process). Run-time: [`ParallelReasoner`] applies Algorithm 1 per window
//! and combines per-partition answer sets; [`accuracy`] implements the
//! evaluation metric of Section III.

#![warn(missing_docs)]

pub mod accuracy;
pub mod admission;
pub mod analysis;
pub mod combine;
pub mod config;
pub mod decompose;
pub mod engine;
pub mod exec;
pub mod extended;
pub mod fault;
pub mod incremental;
pub mod input_graph;
pub mod metrics;
pub mod multi_tenant;
pub mod partition;
pub mod plan;
pub mod poison;
pub mod reasoner;

pub use accuracy::{answer_accuracy, window_accuracy, Projection};
// Re-export the grounding-level bound types so downstream crates (bench,
// CLI) can consume [`admission::ProgramBounds`] without depending on
// asp-grounder directly.
pub use admission::{
    AdmissionPolicy, AdmissionSnapshot, AdmitError, DominatingTerm, PartitionBound, ProgramBounds,
    WindowSpec,
};
pub use analysis::DependencyAnalysis;
pub use asp_grounder::analysis::{DeltaStateBound, DeltaStateSize, EvalStratum, MemoryBound};
pub use combine::combine;
pub use config::{
    AnalysisConfig, CombinePolicy, DuplicationPolicy, ParallelMode, ReasonerConfig,
    UnknownPredicate,
};
pub use decompose::{decompose, to_plan, Decomposition, DecompositionMethod};
pub use engine::{
    EngineConfig, EngineOutput, EngineReport, EngineStats, LaneOccupancy, StreamEngine,
};
pub use exec::{partition_pool, BatchHandle, ExecCtx, Job, JobOutcome, JobPanicked, WorkerPool};
pub use extended::ExtendedDepGraph;
pub use fault::{FaultPlan, FaultRule, FaultSite};
pub use incremental::{
    fingerprint_items, program_fingerprint, IncrementalReasoner, ParallelReasoner, PartitionCache,
};
pub use input_graph::InputDepGraph;
pub use metrics::{
    duration_ms, CacheCounters, DedupSnapshot, FailureCounters, FailureSnapshot,
    IncrementalSnapshot, LatencyStats, TenantLatency,
};
pub use multi_tenant::{MultiTenantEngine, ProgramEntry, TenantOutput, TenantPartitioner};
pub use partition::{Partitioner, PlanPartitioner, RandomPartitioner};
pub use plan::PartitioningPlan;
pub use poison::{lock_recover, poison_recoveries};
pub use reasoner::{Reasoner, ReasonerOutput, SingleReasoner};
