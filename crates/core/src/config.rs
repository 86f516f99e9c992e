//! Configuration knobs for the dependency analysis and the reasoners.

use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How to break ties (and optionally weigh costs) when choosing which
/// boundary node set to duplicate in the decomposing process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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

/// What to do with window items whose predicate is absent from the
/// partitioning plan (e.g. stream noise that slipped past the query
/// processor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum UnknownPredicate {
    /// Route to partition 0 (they cannot fire any rule anyway).
    #[default]
    Partition0,
    /// Drop the item.
    Drop,
    /// Copy into every partition.
    Broadcast,
}

/// How the parallel reasoner schedules its partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ParallelMode {
    /// Each dirty partition runs as one job, on its community's own copy of
    /// the reasoner, on a worker pool shared by the windows in flight (the
    /// paper's Figure 6); [`ReasonerConfig::workers`] says how the pool is
    /// sized.
    #[default]
    Threads,
    /// Process partitions sequentially in the caller thread — the
    /// chunk-processing regime of \[12\], also handy for deterministic tests.
    Sequential,
}

/// Combining-handler semantics when a partition has no answer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CombinePolicy {
    /// Paper-literal: `Ans(W) = { ⋃ ans_i : ans_i ∈ Ans(W_i) }` — an
    /// unsatisfiable partition empties the combined answer.
    #[default]
    Strict,
    /// Treat an unsatisfiable partition as contributing the empty answer set
    /// (its items are simply lost), which is often the pragmatic choice.
    SkipUnsat,
}

/// Configuration of the parallel reasoner PR.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReasonerConfig {
    /// Cap on enumerated answer sets per (sub-)window; 0 = all.
    pub max_models: usize,
    /// Cap on combined answer sets produced by the combining handler.
    pub max_combined: usize,
    /// Scheduling mode.
    pub mode: ParallelMode,
    /// Worker threads of the pool a stand-alone partitioned reasoner or a
    /// [`ProgramRegistry`](crate::registry::ProgramRegistry) builds (Threads
    /// mode only); `0` sizes it to one worker per partition of the reasoner
    /// (of the registry's first admitted program). A partitioned
    /// [`StreamEngine`](crate::engine::StreamEngine) ignores it and sizes its
    /// pool `partitions × in_flight`.
    pub workers: usize,
    /// Unknown-predicate routing.
    pub unknown: UnknownPredicate,
    /// Combining semantics.
    pub combine: CombinePolicy,
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
    /// [`ParallelMode::Sequential`] does, instead of on the worker pool.
    /// Each dirty partition is evaluated from scratch; no grounding is
    /// maintained across windows. The single reasoner ignores it.
    pub delta_ground: bool,
    /// Cost-based join planning in the grounder ([`asp_grounder::planner`]):
    /// order rule-body joins by estimated cost from live relation
    /// statistics instead of the syntactic bound-args heuristic, replanning
    /// lazily when cardinalities drift. Applies to every partition a
    /// reasoner grounds or evaluates. Output is identical either way — only
    /// join evaluation order changes.
    pub cost_planning: bool,
    /// The fault plan every component built from this config injects
    /// ([`crate::fault`]): every partition job, pooled or on the caller
    /// thread, the reuse check, and a partitioned engine's `submit`.
    /// `None`, the default, injects nothing. Not serialized.
    #[serde(skip)]
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            max_models: 0,
            max_combined: 64,
            mode: ParallelMode::Threads,
            workers: 0,
            unknown: UnknownPredicate::Partition0,
            combine: CombinePolicy::Strict,
            incremental: false,
            cache_capacity: 256,
            delta_ground: false,
            cost_planning: false,
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
        assert_eq!(r.combine, CombinePolicy::Strict);
    }
}
