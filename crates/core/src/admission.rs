//! Admission-time static analysis: per-partition memory bounds, a
//! whole-program [`MemoryBound`] with a machine-readable dominating term,
//! and an [`AdmissionPolicy`] that rejects over-budget programs before they
//! ever see a window.
//!
//! This is the runtime half of the RTLola-style analysis pass: the
//! grounding-level arithmetic lives in [`asp_grounder::analysis`]
//! (extents, evaluation order, delta-state bounds); this module applies it
//! **per partition** of the paper's partitioning plan — each parallel
//! reasoner runs the whole program against its community's sub-window, so
//! a partition's input extents are the window capacity restricted to the
//! community's member predicates — and sums the partitions into the
//! program bound an [`AdmissionPolicy`] budget is checked against.
//!
//! The admission bound is **worst-case**: live `RelationStats` never
//! tighten it (they may tighten the advisory report, but a budget decision
//! taken on a transiently small store would be a lie).

use crate::analysis::DependencyAnalysis;
use crate::metrics::json_string;
use crate::plan::PartitioningPlan;
use asp_core::{AspError, Program, Symbols};
use asp_grounder::analysis::{grounding_bounds, DeltaStateBound, EvalStratum, MemoryBound};
use std::fmt;

/// The window-capacity model the bounds are computed against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Maximum items one window can hold (tuple/sliding size; for time
    /// windows, the caller's rate × width estimate).
    pub capacity: u64,
    /// Slide in items for overlapping windows (`None` = tumbling). Reported
    /// with the bound; overlap does not change it.
    pub slide: Option<u64>,
}

impl WindowSpec {
    /// A tumbling window of `capacity` items.
    pub fn tuple(capacity: u64) -> Self {
        WindowSpec { capacity, slide: None }
    }

    /// A sliding window: `capacity` items, sliding by `slide`.
    pub fn sliding(capacity: u64, slide: u64) -> Self {
        WindowSpec { capacity, slide: Some(slide) }
    }
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec::tuple(2048)
    }
}

/// The machine-readable explanation of what dominates a bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DominatingTerm {
    /// Partition (community id) the term lives in.
    pub partition: u32,
    /// Which state component dominates: `rule_instantiations`,
    /// `relation_slots`, `support_atoms` or `input_facts`.
    pub component: &'static str,
    /// Human-readable detail (e.g. the dominating rule's head).
    pub detail: String,
    /// The term's cell count.
    pub cells: MemoryBound,
}

impl fmt::Display for DominatingTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in partition {} ({}): {} cells",
            self.component, self.partition, self.detail, self.cells
        )
    }
}

/// One partition's share of the program bound.
#[derive(Clone, Debug)]
pub struct PartitionBound {
    /// Community id.
    pub community: u32,
    /// Input predicates routed to this partition, sorted.
    pub members: Vec<String>,
    /// Worst-case ground-program size (rule instantiations).
    pub ground_instantiations: MemoryBound,
    /// Worst-case grounding state, component by component.
    pub state: DeltaStateBound,
    /// Per-predicate extents `(name/arity, input, total)` in program order.
    pub extents: Vec<(String, u64, MemoryBound)>,
    /// The partition's dominating term.
    pub dominating: DominatingTerm,
}

/// The whole-program analysis artifact: per-partition bounds, the summed
/// total, the evaluation order and the dominating term.
#[derive(Clone, Debug)]
pub struct ProgramBounds {
    /// The window model the bounds were computed against.
    pub window: WindowSpec,
    /// Per-partition bounds, community order.
    pub partitions: Vec<PartitionBound>,
    /// Stratified evaluation order (dependencies first; identical across
    /// partitions — every partition runs the same rule set).
    pub order: Vec<EvalStratum>,
    /// True when no dependency cycle runs through default negation.
    pub stratified: bool,
    /// Σ over partitions of the state-cell bound: the admission bound.
    pub total_cells: MemoryBound,
    /// The largest single term across all partitions.
    pub dominating: DominatingTerm,
}

/// Renders a [`MemoryBound`] as a JSON value: a number, or the string
/// `"unbounded"`.
fn bound_json(b: MemoryBound) -> String {
    match b {
        MemoryBound::Bounded(n) => n.to_string(),
        MemoryBound::Unbounded => "\"unbounded\"".to_string(),
    }
}

fn dominating_json(d: &DominatingTerm) -> String {
    format!(
        "{{\"partition\": {}, \"component\": {}, \"detail\": {}, \"cells\": {}}}",
        d.partition,
        json_string(d.component),
        json_string(&d.detail),
        bound_json(d.cells)
    )
}

impl ProgramBounds {
    /// Computes the program bounds for `analysis`'s partitioning plan under
    /// `window`. Every partition sees the whole rule set but only its
    /// community's input predicates at full window capacity (a duplicated
    /// predicate counts fully in every community holding it — that is what
    /// duplication costs).
    pub fn analyze(
        syms: &Symbols,
        program: &Program,
        analysis: &DependencyAnalysis,
        window: &WindowSpec,
    ) -> ProgramBounds {
        Self::from_plan(syms, program, &analysis.plan, &analysis.inpre, window)
    }

    /// [`ProgramBounds::analyze`] against an explicit plan + input
    /// signature (for callers that do not retain the analysis artifact).
    pub fn from_plan(
        syms: &Symbols,
        program: &Program,
        plan: &PartitioningPlan,
        inpre: &[asp_core::Predicate],
        window: &WindowSpec,
    ) -> ProgramBounds {
        let communities = plan.communities.max(1) as u32;
        let mut partitions = Vec::with_capacity(communities as usize);
        let mut order = Vec::new();
        let mut stratified = true;
        for c in 0..communities {
            let members: Vec<String> =
                plan.community_members(c).into_iter().map(str::to_string).collect();
            let input_extent = |p: &asp_core::Predicate| -> Option<u64> {
                if !inpre.contains(p) {
                    return None;
                }
                let name = syms.resolve(p.name);
                let routed_here = match plan.communities_of(&name) {
                    Some(cs) => cs.contains(&c),
                    // Inputs the plan does not know are routed by the
                    // UnknownPredicate policy; partition 0 is the default
                    // and the conservative home for the bound.
                    None => c == 0,
                };
                Some(if routed_here { window.capacity } else { 0 })
            };
            let gb = grounding_bounds(syms, program, window.capacity, &input_extent, None);
            if c == 0 {
                order = gb.order.clone();
                stratified = gb.stratified;
            }
            let dominating = partition_dominating(c, &gb);
            partitions.push(PartitionBound {
                community: c,
                members,
                ground_instantiations: gb.instantiation_bound,
                state: gb.state,
                extents: gb
                    .extents
                    .iter()
                    .map(|e| (format!("{}/{}", e.name, e.arity), e.input, e.extent))
                    .collect(),
                dominating,
            });
        }
        let total_cells =
            partitions.iter().fold(MemoryBound::Bounded(0), |acc, p| acc + p.state.total_cells);
        let dominating = partitions
            .iter()
            .map(|p| p.dominating.clone())
            .max_by(|a, b| cmp_bound(a.cells, b.cells))
            .unwrap_or(DominatingTerm {
                partition: 0,
                component: "input_facts",
                detail: "empty program".to_string(),
                cells: MemoryBound::Bounded(0),
            });
        ProgramBounds { window: *window, partitions, order, stratified, total_cells, dominating }
    }

    /// The uniform-partitioning bound for the random `k`-way baseline:
    /// content is not routed by predicate, so *every* partition must be
    /// assumed to receive the full window — the program bound is `k` times
    /// the single-partition bound.
    pub fn uniform(
        syms: &Symbols,
        program: &Program,
        inpre: &[asp_core::Predicate],
        k: usize,
        window: &WindowSpec,
    ) -> ProgramBounds {
        let names: Vec<String> = inpre.iter().map(|p| syms.resolve(p.name).to_string()).collect();
        let plan = PartitioningPlan::single(names);
        let single = Self::from_plan(syms, program, &plan, inpre, window);
        let mut partitions = Vec::with_capacity(k.max(1));
        for c in 0..k.max(1) as u32 {
            let mut p = single.partitions[0].clone();
            p.community = c;
            p.dominating.partition = c;
            partitions.push(p);
        }
        let total_cells =
            partitions.iter().fold(MemoryBound::Bounded(0), |acc, p| acc + p.state.total_cells);
        let dominating = partitions[0].dominating.clone();
        ProgramBounds {
            window: *window,
            partitions,
            order: single.order,
            stratified: single.stratified,
            total_cells,
            dominating,
        }
    }

    /// Deterministic machine-readable report (the `streamrule analyze
    /// --json` payload and the golden-diff format): no timing, no paths,
    /// fixed key order.
    pub fn report_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"window_capacity\": {},\n", self.window.capacity));
        if let Some(slide) = self.window.slide {
            s.push_str(&format!("  \"slide\": {slide},\n"));
        }
        s.push_str(&format!("  \"partitions\": {},\n", self.partitions.len()));
        s.push_str(&format!("  \"stratified\": {},\n", self.stratified));
        s.push_str("  \"evaluation_order\": [\n");
        let strata: Vec<String> = self
            .order
            .iter()
            .map(|st| {
                let preds: Vec<String> = st.predicates.iter().map(|p| format!("\"{p}\"")).collect();
                format!(
                    "    {{\"predicates\": [{}], \"recursive\": {}, \"negation_cycle\": {}}}",
                    preds.join(", "),
                    st.recursive,
                    st.negation_cycle
                )
            })
            .collect();
        s.push_str(&strata.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str("  \"partition_bounds\": [\n");
        let parts: Vec<String> = self
            .partitions
            .iter()
            .map(|p| {
                let members: Vec<String> =
                    p.members.iter().map(|m| format!("\"{m}\"")).collect();
                let extents: Vec<String> = p
                    .extents
                    .iter()
                    .map(|(name, input, extent)| {
                        format!(
                            "        {{\"predicate\": \"{name}\", \"input\": {input}, \"extent\": {}}}",
                            bound_json(*extent)
                        )
                    })
                    .collect();
                format!(
                    "    {{\n      \"community\": {},\n      \"members\": [{}],\n      \
                     \"ground_instantiations\": {},\n      \"input_facts\": {},\n      \
                     \"instantiation_slots\": {},\n      \"support_atoms\": {},\n      \
                     \"relation_slots\": {},\n      \"state_cells\": {},\n      \
                     \"dominating\": {},\n      \"extents\": [\n{}\n      ]\n    }}",
                    p.community,
                    members.join(", "),
                    bound_json(p.ground_instantiations),
                    bound_json(p.state.input_facts),
                    bound_json(p.state.instantiation_slots),
                    bound_json(p.state.support_atoms),
                    bound_json(p.state.relation_slots),
                    bound_json(p.state.total_cells),
                    dominating_json(&p.dominating),
                    extents.join(",\n")
                )
            })
            .collect();
        s.push_str(&parts.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str(&format!("  \"total_cells\": {},\n", bound_json(self.total_cells)));
        s.push_str(&format!("  \"dominating\": {}\n", dominating_json(&self.dominating)));
        s.push_str("}\n");
        s
    }

    /// Human-readable bound report for the CLI.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "memory bound @ window capacity {} ({} partition{}):\n",
            self.window.capacity,
            self.partitions.len(),
            if self.partitions.len() == 1 { "" } else { "s" }
        ));
        for p in &self.partitions {
            s.push_str(&format!(
                "  partition {}: ground ≤ {} instantiations, state ≤ {} cells  \
                 (inputs: {})\n",
                p.community,
                p.ground_instantiations,
                p.state.total_cells,
                if p.members.is_empty() { "-".to_string() } else { p.members.join(", ") }
            ));
        }
        s.push_str(&format!("  total: {} cells\n", self.total_cells));
        s.push_str(&format!("  dominating term: {}\n", self.dominating));
        s.push_str(&format!(
            "  evaluation order ({}stratified): {}\n",
            if self.stratified { "" } else { "NOT " },
            self.order
                .iter()
                .map(|st| {
                    let tag = if st.negation_cycle {
                        "!"
                    } else if st.recursive {
                        "*"
                    } else {
                        ""
                    };
                    format!("{{{}}}{tag}", st.predicates.join(", "))
                })
                .collect::<Vec<_>>()
                .join(" → ")
        ));
        s
    }
}

fn cmp_bound(a: MemoryBound, b: MemoryBound) -> std::cmp::Ordering {
    match (a, b) {
        (MemoryBound::Unbounded, MemoryBound::Unbounded) => std::cmp::Ordering::Equal,
        (MemoryBound::Unbounded, _) => std::cmp::Ordering::Greater,
        (_, MemoryBound::Unbounded) => std::cmp::Ordering::Less,
        (MemoryBound::Bounded(x), MemoryBound::Bounded(y)) => x.cmp(&y),
    }
}

fn partition_dominating(
    community: u32,
    gb: &asp_grounder::analysis::GroundingBounds,
) -> DominatingTerm {
    let rule_detail = gb
        .dominating_rule()
        .map(|r| match &r.head {
            Some(h) => format!("rule {} deriving {h}", r.index),
            None => format!("constraint {}", r.index),
        })
        .unwrap_or_else(|| "no rules".to_string());
    let candidates = [
        ("rule_instantiations", rule_detail, gb.state.instantiation_slots),
        ("relation_slots", "tuple slots incl. tombstones".to_string(), gb.state.relation_slots),
        ("support_atoms", "possible-set support counters".to_string(), gb.state.support_atoms),
        ("input_facts", "window fact multiset".to_string(), gb.state.input_facts),
    ];
    let (component, detail, cells) =
        candidates.into_iter().max_by(|a, b| cmp_bound(a.2, b.2)).expect("four candidates");
    DominatingTerm { partition: community, component, detail, cells }
}

/// The admission policy checked by
/// [`MultiTenantEngine::admit`](crate::multi_tenant::MultiTenantEngine::admit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// The window-capacity model bounds are computed against.
    pub window: WindowSpec,
    /// Maximum whole-program state cells; `None` admits everything.
    pub budget_cells: Option<u64>,
}

impl AdmissionPolicy {
    /// A policy with `budget` cells and the given window model, rejecting
    /// over-budget programs.
    pub fn with_budget(window: WindowSpec, budget: u64) -> Self {
        AdmissionPolicy { window, budget_cells: Some(budget) }
    }
}

/// Structured admission failure.
#[derive(Debug)]
pub enum AdmitError {
    /// The tenant id is already admitted.
    DuplicateTenant {
        /// The offending tenant id.
        tenant: String,
    },
    /// The program failed to parse or analyze.
    Program(AspError),
    /// The static bound exceeds the policy budget.
    OverBudget {
        /// The whole-program bound that blew the budget.
        bound: MemoryBound,
        /// The configured budget in cells.
        budget: u64,
        /// What dominates the bound (machine-readable).
        dominating: DominatingTerm,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::DuplicateTenant { tenant } => {
                write!(f, "tenant '{tenant}' is already admitted")
            }
            AdmitError::Program(e) => write!(f, "program rejected: {e}"),
            AdmitError::OverBudget { bound, budget, dominating } => write!(
                f,
                "admission bound {bound} cells exceeds budget {budget}; dominating term: {dominating}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

impl From<AspError> for AdmitError {
    fn from(e: AspError) -> Self {
        AdmitError::Program(e)
    }
}

impl From<AdmitError> for AspError {
    /// Callers speaking only `AspError` (benches, `?`-threading pipelines)
    /// still get the structured message; a program error unwraps to its
    /// original form.
    fn from(e: AdmitError) -> Self {
        match e {
            AdmitError::Program(inner) => inner,
            other => AspError::Internal(other.to_string()),
        }
    }
}

/// Counters for the admission section of
/// [`EngineStats`](crate::engine::EngineStats). Omitted from stats when no
/// policy is configured and nothing was ever rejected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Configured budget, when any.
    pub budget_cells: Option<u64>,
    /// Successful admissions (attaches included).
    pub admitted: u64,
    /// Refused admissions (any [`AdmitError`]).
    pub rejected: u64,
}

impl AdmissionSnapshot {
    /// Hand-rolled JSON object (the workspace has no serializer).
    pub fn to_json(&self) -> String {
        let budget = match self.budget_cells {
            Some(b) => format!("\"budget_cells\": {b}, "),
            None => String::new(),
        };
        format!("{{{budget}\"admitted\": {}, \"rejected\": {}}}", self.admitted, self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use asp_parser::parse_program;

    const PROGRAM_P: &str = r#"
        very_slow_speed(X) :- average_speed(X,Y), Y < 20.
        many_cars(X) :- car_number(X,Y), Y > 40.
        traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
        car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
        give_notification(X) :- traffic_jam(X).
        give_notification(X) :- car_fire(X).
    "#;

    fn bounds(capacity: u64) -> (Symbols, ProgramBounds) {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
        let b = ProgramBounds::analyze(
            &syms,
            &program,
            &analysis,
            &WindowSpec::sliding(capacity, capacity / 4),
        );
        (syms, b)
    }

    #[test]
    fn program_p_bounds_two_partitions() {
        let (_syms, b) = bounds(400);
        assert_eq!(b.partitions.len(), 2, "the paper program decomposes into 2 communities");
        assert!(b.stratified);
        assert!(b.total_cells.cells().unwrap() > 0);
        // Each partition's bound must be no larger than the unpartitioned
        // single-community bound (fewer inputs at full capacity).
        for p in &b.partitions {
            assert!(cmp_bound(p.state.total_cells, b.total_cells) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn report_json_is_deterministic_and_parseable_shape() {
        let (_syms, a) = bounds(400);
        let (_syms2, b) = bounds(400);
        assert_eq!(a.report_json(), b.report_json(), "two runs render identically");
        let json = a.report_json();
        for key in [
            "\"window_capacity\": 400",
            "\"slide\": 100",
            "\"partitions\": 2",
            "\"evaluation_order\"",
            "\"partition_bounds\"",
            "\"total_cells\"",
            "\"dominating\"",
            "\"component\"",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
        assert!(a.render_text().contains("dominating term"));
    }

    #[test]
    fn uniform_bound_scales_with_k() {
        let syms = Symbols::new();
        let program = parse_program(&syms, PROGRAM_P).unwrap();
        let inpre = program.edb_predicates();
        let w = WindowSpec::tuple(100);
        let one = ProgramBounds::uniform(&syms, &program, &inpre, 1, &w);
        let four = ProgramBounds::uniform(&syms, &program, &inpre, 4, &w);
        assert_eq!(four.partitions.len(), 4);
        assert_eq!(
            four.total_cells.cells().unwrap(),
            4 * one.total_cells.cells().unwrap(),
            "random partitioning must assume the full window everywhere"
        );
    }

    #[test]
    fn admit_error_display_names_the_dominating_term() {
        let (_syms, b) = bounds(400);
        let err = AdmitError::OverBudget {
            bound: b.total_cells,
            budget: 10,
            dominating: b.dominating.clone(),
        };
        let msg = err.to_string();
        assert!(msg.contains("exceeds budget 10"), "{msg}");
        assert!(msg.contains(b.dominating.component), "{msg}");
        assert!(msg.contains("partition"), "{msg}");
    }

    #[test]
    fn admission_snapshot_json_omits_unset_budget() {
        let none = AdmissionSnapshot::default();
        assert!(!none.to_json().contains("budget_cells"), "{}", none.to_json());
        let some = AdmissionSnapshot { budget_cells: Some(64), admitted: 2, ..none };
        assert!(some.to_json().contains("\"budget_cells\": 64"), "{}", some.to_json());
        assert!(some.to_json().contains("\"admitted\": 2"), "{}", some.to_json());
    }
}
