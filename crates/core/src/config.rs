//! Configuration knobs for the dependency analysis and the reasoners.

use crate::fault::FaultPlan;
use std::sync::Arc;

/// How to break ties (and optionally weigh costs) when choosing which
/// boundary node set to duplicate in the decomposing process.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum DuplicationPolicy {
    /// The paper's rule: duplicate the smaller `exnodes` set; ties go to the
    /// community with the smaller id (the paper is silent on ties).
    #[default]
    SmallerSet,
    /// Cost-aware ablation: duplicate the set with the smaller *expected
    /// instance count*, using per-predicate stream frequencies (predicate
    /// name → relative frequency). Falls back to set size when a frequency
    /// is unknown.
    FewerInstances(Vec<(String, f64)>),
}

/// Configuration of the design-time dependency analysis.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Louvain resolution (the paper uses 1.0, footnote 8).
    pub resolution: f64,
    /// Keep `E_P1` multiplicities as edge weights (extension; the paper's
    /// graphs are unweighted).
    pub weighted_edges: bool,
    /// Duplication tie-breaking policy.
    pub duplication: DuplicationPolicy,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            resolution: 1.0,
            weighted_edges: false,
            duplication: DuplicationPolicy::SmallerSet,
        }
    }
}

/// Where window items whose predicate is absent from the partitioning plan
/// go (e.g. stream noise that slipped past the query processor). One
/// routing exists; the type stays only because the benchmark's measured
/// surface names it when it builds a [`PlanPartitioner`](crate::PlanPartitioner).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UnknownPredicate {
    /// Route to partition 0 (they cannot fire any rule anyway).
    #[default]
    Partition0,
}

/// How the parallel reasoner schedules its partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Each dirty partition runs as one job, on its community's own copy of
    /// the reasoner (the paper's Figure 6): the thread that processes the
    /// window runs jobs itself and forks a thread for another only while a
    /// permit is free; [`ReasonerConfig::workers`] is the bound.
    #[default]
    Threads,
    /// Process partitions sequentially in the caller thread — the
    /// chunk-processing regime of \[12\], also handy for deterministic tests.
    Sequential,
}

/// Combining-handler semantics when a partition has no answer set. One
/// semantics exists; the type stays only because the benchmark's measured
/// surface names it when it calls [`combine`](crate::combine::combine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CombinePolicy {
    /// Paper-literal: `Ans(W) = { ⋃ ans_i : ans_i ∈ Ans(W_i) }` — an
    /// unsatisfiable partition empties the combined answer.
    #[default]
    Strict,
}

/// Configuration of the parallel reasoner PR. Four behaviours are fixed:
/// every community reasoner enumerates all of its answer sets, items whose
/// predicate the plan does not name go to partition 0, the combining
/// handler returns the whole product of the partitions' answers, and every
/// grounder joins rule bodies in its one syntactic order
/// ([`asp_grounder::compile::make_plan`]).
#[derive(Clone, Debug)]
pub struct ReasonerConfig {
    /// Read by no reasoner: every reasoner enumerates all answer sets of
    /// every partition and combines their whole product, so PR answers as R
    /// does. Kept for the measured surface, which passes the default to
    /// [`combine`](crate::combine::combine).
    pub max_combined: usize,
    /// Scheduling mode.
    pub mode: ParallelMode,
    /// How many threads of a stand-alone partitioned reasoner, a
    /// [`MultiTenantEngine`](crate::multi_tenant::MultiTenantEngine) or a
    /// partitioned [`StreamEngine`](crate::engine::StreamEngine) reason at
    /// once (Threads mode only), counting the threads that call them (an
    /// engine lane, a multi-tenant engine's caller) as well as their forks.
    /// `0` sizes it from the work: one thread per partition of the reasoner
    /// (of the first admitted program for a multi-tenant engine; per
    /// partition per lane for a stream engine).
    /// [`ExecCtx::with_bound`](crate::exec::ExecCtx::with_bound) is the one
    /// place that reads it.
    pub workers: usize,
    /// Read by nothing; kept for the measured surface, which still sets it.
    /// Every partitioned reasoner reuses the communities a window's delta
    /// leaves untouched, and recomputes every partition of a window without
    /// a delta ([`crate::incremental`]).
    pub incremental: bool,
    /// Read by nothing. Kept for the measured surface, which still sets it;
    /// incremental reasoning keeps one answer per community and has no
    /// cache to size.
    pub cache_capacity: usize,
    /// Kept for the measured surface. A partitioned reasoner with this set
    /// serves its dirty partitions on its own thread, exactly as
    /// [`ParallelMode::Sequential`] does, and forks nothing.
    /// Each dirty partition is evaluated from scratch; no grounding is
    /// maintained across windows. The single reasoner ignores it.
    pub delta_ground: bool,
    /// The fault plan every component built from this config injects
    /// ([`crate::fault`]): every partition job, on the caller or on a fork,
    /// the reuse check, and a partitioned engine's `submit`.
    /// `None`, the default, injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            max_combined: 64,
            mode: ParallelMode::Threads,
            workers: 0,
            incremental: false,
            cache_capacity: 256,
            delta_ground: false,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let a = AnalysisConfig::default();
        assert_eq!(a.resolution, 1.0);
        assert!(!a.weighted_edges);
        assert_eq!(a.duplication, DuplicationPolicy::SmallerSet);
        let r = ReasonerConfig::default();
        assert_eq!(r.mode, ParallelMode::Threads);
    }
}
