//! Static memory-bound and evaluation-order analysis.
//!
//! Computed from the rule set and a window-capacity model **before any
//! window is processed** (the RTLola move: per-stream space requirements
//! and a worst-case memory bound read off the dependency graph ahead of
//! execution). The bound counts *cells* — ground atoms, relation tuple
//! slots and rule instantiations — not bytes, so it is stable across
//! allocator and layout changes while still ordering programs by state
//! footprint.
//!
//! Soundness model (what [`grounding_bounds`] promises):
//!
//! * every **input** predicate's extent is capped by the window capacity
//!   the caller supplies (a window with `n` items can assert at most `n`
//!   facts of any one predicate);
//! * a **non-recursive derived** predicate's extent is the sum over its
//!   rules of the rule's instantiation bound (each instantiation derives
//!   at most one atom per head atom);
//! * a **rule's** instantiation bound is the product of the extents of its
//!   positive body atoms that carry variables (instantiations are keyed by
//!   variable bindings, and bindings come from joins over the positive
//!   body; ground atoms and negative/comparison literals never multiply);
//! * predicates on a **dependency cycle** fall back to the Herbrand bound
//!   `C^arity`, where `C` counts the constants nameable from the program
//!   text plus the window (each input fact contributes at most `arity`
//!   fresh constants);
//! * slot stores that tombstone and compact once dead slots outnumber live
//!   ones keep `slots ≤ 2 × live + 1`, which is where the tombstone-slack
//!   factor 2 comes from. The model was written for the maintained
//!   grounding that sliding windows once kept per partition; admission
//!   still budgets against it.
//!
//! Arithmetic saturates to [`MemoryBound::Unbounded`] on `u128` overflow
//! instead of wrapping: a bound too large to represent is reported as
//! unbounded, never as a small lie.

use asp_core::{FastMap, Predicate, Program, Symbols, Term};
use sr_graph::{tarjan_scc, DiGraph};
use std::fmt;

/// A worst-case space requirement in cells, or `Unbounded` when no finite
/// `u128` bound exists (overflow during bound arithmetic saturates here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryBound {
    /// At most this many cells.
    Bounded(u128),
    /// No finite bound representable.
    Unbounded,
}

impl MemoryBound {
    /// The cell count, or `None` for `Unbounded`.
    pub fn cells(self) -> Option<u128> {
        match self {
            MemoryBound::Bounded(n) => Some(n),
            MemoryBound::Unbounded => None,
        }
    }

    /// Saturating power.
    pub fn pow(self, exp: u32) -> MemoryBound {
        let mut acc = MemoryBound::Bounded(1);
        for _ in 0..exp {
            acc = acc * self;
        }
        acc
    }

    /// True when the bound exceeds `budget` cells (`Unbounded` always does).
    pub fn exceeds(self, budget: u64) -> bool {
        match self {
            MemoryBound::Bounded(n) => n > u128::from(budget),
            MemoryBound::Unbounded => true,
        }
    }
}

/// Saturating sum: overflow and `Unbounded` operands yield `Unbounded`.
impl std::ops::Add for MemoryBound {
    type Output = MemoryBound;

    fn add(self, other: MemoryBound) -> MemoryBound {
        match (self, other) {
            (MemoryBound::Bounded(a), MemoryBound::Bounded(b)) => match a.checked_add(b) {
                Some(s) => MemoryBound::Bounded(s),
                None => MemoryBound::Unbounded,
            },
            _ => MemoryBound::Unbounded,
        }
    }
}

/// Saturating product: overflow and `Unbounded` operands yield `Unbounded`.
impl std::ops::Mul for MemoryBound {
    type Output = MemoryBound;

    fn mul(self, other: MemoryBound) -> MemoryBound {
        match (self, other) {
            (MemoryBound::Bounded(a), MemoryBound::Bounded(b)) => match a.checked_mul(b) {
                Some(p) => MemoryBound::Bounded(p),
                None => MemoryBound::Unbounded,
            },
            _ => MemoryBound::Unbounded,
        }
    }
}

impl fmt::Display for MemoryBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryBound::Bounded(n) => write!(f, "{n}"),
            MemoryBound::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// One stratum of the evaluation order: a strongly connected component of
/// the predicate dependency graph. Strata are emitted dependencies-first;
/// evaluating them in order visits every body predicate before the heads
/// it feeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalStratum {
    /// Member predicate names, sorted.
    pub predicates: Vec<String>,
    /// True when the stratum is a genuine cycle (recursion).
    pub recursive: bool,
    /// True when a default-negated edge closes the cycle — the program is
    /// then not stratified and has no unique perfect model.
    pub negation_cycle: bool,
}

/// Worst-case extent (number of distinct ground atoms) of one predicate.
#[derive(Clone, Debug)]
pub struct PredicateExtent {
    /// Predicate name.
    pub name: String,
    /// Arity.
    pub arity: u32,
    /// The input (window-fed) share of the extent.
    pub input: u64,
    /// The derived share of the extent.
    pub derived: MemoryBound,
    /// Total extent: `input + derived`.
    pub extent: MemoryBound,
}

/// Worst-case instantiation count of one rule.
#[derive(Clone, Debug)]
pub struct RuleBound {
    /// Rule index in program order.
    pub index: usize,
    /// Head predicate name, or `None` for a constraint.
    pub head: Option<String>,
    /// Worst-case instantiations (product of positive-body extents).
    pub instantiations: MemoryBound,
}

/// Worst-case grounding state for one partition, component by component. All components are simultaneous
/// bounds on the post-`apply` state.
#[derive(Clone, Copy, Debug)]
pub struct DeltaStateBound {
    /// Asserted input facts (multiset size ≤ window capacity).
    pub input_facts: MemoryBound,
    /// Live rule instantiations (Σ rule bounds).
    pub live_instantiations: MemoryBound,
    /// Instantiation slots including tombstones (`≤ 2 × live + 1`).
    pub instantiation_slots: MemoryBound,
    /// Support-counter map entries (distinct possible-set atoms).
    pub support_atoms: MemoryBound,
    /// Relation tuple slots including tombstones across all predicates.
    pub relation_slots: MemoryBound,
    /// Sum of the four stores: the partition's state cells.
    pub total_cells: MemoryBound,
}

/// Observed state sizes — the measurable counterpart of
/// [`DeltaStateBound`], read with
/// [`DeltaGrounder::state_size`](crate::delta::DeltaGrounder::state_size)
/// (which holds input facts only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStateSize {
    /// Facts currently asserted (multiset size).
    pub input_facts: usize,
    /// Live rule instantiations.
    pub live_instantiations: usize,
    /// Instantiation slots including tombstones.
    pub instantiation_slots: usize,
    /// Support-counter map entries.
    pub support_atoms: usize,
    /// Relation tuple slots including tombstones.
    pub relation_slots: usize,
}

impl DeltaStateSize {
    /// Sum of the four stores, mirroring [`DeltaStateBound::total_cells`].
    pub fn total_cells(&self) -> u128 {
        self.input_facts as u128
            + self.instantiation_slots as u128
            + self.support_atoms as u128
            + self.relation_slots as u128
    }

    /// Component-wise maximum (peak tracking across windows).
    pub fn max(self, other: DeltaStateSize) -> DeltaStateSize {
        DeltaStateSize {
            input_facts: self.input_facts.max(other.input_facts),
            live_instantiations: self.live_instantiations.max(other.live_instantiations),
            instantiation_slots: self.instantiation_slots.max(other.instantiation_slots),
            support_atoms: self.support_atoms.max(other.support_atoms),
            relation_slots: self.relation_slots.max(other.relation_slots),
        }
    }

    /// True when every component respects `bound` (an `Unbounded`
    /// component is never violated).
    pub fn within(&self, bound: &DeltaStateBound) -> bool {
        let le = |obs: usize, b: MemoryBound| match b {
            MemoryBound::Bounded(n) => obs as u128 <= n,
            MemoryBound::Unbounded => true,
        };
        le(self.input_facts, bound.input_facts)
            && le(self.live_instantiations, bound.live_instantiations)
            && le(self.instantiation_slots, bound.instantiation_slots)
            && le(self.support_atoms, bound.support_atoms)
            && le(self.relation_slots, bound.relation_slots)
            && match bound.total_cells {
                MemoryBound::Bounded(n) => self.total_cells() <= n,
                MemoryBound::Unbounded => true,
            }
    }
}

/// The full grounding-level analysis artifact for one partition's view of
/// the program.
#[derive(Clone, Debug)]
pub struct GroundingBounds {
    /// Stratified evaluation order, dependencies first.
    pub order: Vec<EvalStratum>,
    /// Per-predicate worst-case extents, in program first-occurrence order.
    pub extents: Vec<PredicateExtent>,
    /// Per-rule worst-case instantiation counts, in program order.
    pub rule_bounds: Vec<RuleBound>,
    /// Σ rule bounds: the worst-case ground-program size.
    pub instantiation_bound: MemoryBound,
    /// The grounding-state bound assembled from the pieces above.
    pub state: DeltaStateBound,
    /// True when no cycle runs through default negation.
    pub stratified: bool,
}

impl GroundingBounds {
    /// The rule with the largest instantiation bound, if any rule has a
    /// nonzero bound.
    pub fn dominating_rule(&self) -> Option<&RuleBound> {
        self.rule_bounds.iter().max_by(|a, b| match (a.instantiations, b.instantiations) {
            (MemoryBound::Unbounded, MemoryBound::Unbounded) => std::cmp::Ordering::Equal,
            (MemoryBound::Unbounded, _) => std::cmp::Ordering::Greater,
            (_, MemoryBound::Unbounded) => std::cmp::Ordering::Less,
            (MemoryBound::Bounded(x), MemoryBound::Bounded(y)) => x.cmp(&y),
        })
    }
}

/// Counts the distinct constants (symbolic or integer) nameable from the
/// rule text: the program's share of the Herbrand universe.
fn program_constants(program: &Program) -> u64 {
    use std::collections::BTreeSet;
    let mut consts: BTreeSet<(u8, i64, u64)> = BTreeSet::new();
    fn walk(t: &Term, out: &mut BTreeSet<(u8, i64, u64)>) {
        match t {
            Term::Const(s) => {
                out.insert((0, 0, s.0 as u64));
            }
            Term::Int(i) => {
                out.insert((1, *i, 0));
            }
            Term::Var(_) => {}
            Term::Func(_, args) => {
                for a in args {
                    walk(a, out);
                }
            }
            Term::BinOp(_, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            // Intervals are expanded by the parser; count endpoints anyway.
            Term::Interval(lo, hi) => {
                out.insert((1, *lo, 0));
                out.insert((1, *hi, 0));
            }
        }
    }
    for rule in &program.rules {
        for a in rule.head.atoms() {
            for t in &a.args {
                walk(t, &mut consts);
            }
        }
        for l in &rule.body {
            if let Some((a, _)) = l.as_atom() {
                for t in &a.args {
                    walk(t, &mut consts);
                }
            }
        }
    }
    consts.len() as u64
}

/// Computes the worst-case grounding and delta-state bounds of `program`
/// under a window-capacity model.
///
/// * `window_capacity` — the largest number of items one window can route
///   to this partition (bounds the input-fact multiset and every input
///   predicate's extent).
/// * `input_extent(p)` — `Some(n)` caps predicate `p`'s window-fed extent
///   at `n` facts (`None` means `p` is derived-only). Callers model
///   partitioning here: a predicate routed to another partition gets
///   `Some(0)`.
pub fn grounding_bounds(
    syms: &Symbols,
    program: &Program,
    window_capacity: u64,
    input_extent: &dyn Fn(&Predicate) -> Option<u64>,
) -> GroundingBounds {
    let preds = program.predicates();
    let mut index: FastMap<Predicate, usize> = FastMap::default();
    for (i, p) in preds.iter().enumerate() {
        index.insert(*p, i);
    }

    // Predicate dependency graph: body → head, negation edges remembered.
    let mut graph = DiGraph::new(preds.len());
    let mut neg_edges: Vec<(usize, usize)> = Vec::new();
    for rule in &program.rules {
        for head in rule.head.atoms() {
            let h = index[&head.predicate()];
            for b in rule.pos_body() {
                graph.add_edge(index[&b.predicate()], h);
            }
            for b in rule.neg_body() {
                let u = index[&b.predicate()];
                graph.add_edge(u, h);
                neg_edges.push((u, h));
            }
        }
    }

    // Tarjan emits components in reverse topological order for body→head
    // edges; walking the result backwards visits dependencies first.
    let sccs = tarjan_scc(&graph);
    let mut scc_of = vec![0usize; preds.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &n in comp {
            scc_of[n] = ci;
        }
    }

    // Herbrand constant budget: program text + what the window can name.
    let herbrand_constants = {
        let mut c = MemoryBound::Bounded(u128::from(program_constants(program)));
        for p in &preds {
            if let Some(ext) = input_extent(p) {
                c = c + MemoryBound::Bounded(u128::from(ext.min(window_capacity)))
                    * MemoryBound::Bounded(u128::from(p.arity.max(1)));
            }
        }
        c
    };

    let input_of = |p: &Predicate| input_extent(p).unwrap_or(0).min(window_capacity);

    // Rule instantiation bound given the current extent table: product of
    // the positive body atoms that carry variables (bindings come only
    // from those joins).
    let rule_bound = |rule: &asp_core::Rule, extents: &[MemoryBound]| -> MemoryBound {
        let mut b = MemoryBound::Bounded(1);
        for atom in rule.pos_body() {
            if atom.is_ground() {
                continue;
            }
            b = b * extents[index[&atom.predicate()]];
        }
        b
    };

    // Extents, dependencies first. A cyclic component falls back to the
    // Herbrand bound; an acyclic one sums its rules' bounds.
    let mut extents: Vec<MemoryBound> =
        preds.iter().map(|p| MemoryBound::Bounded(u128::from(input_of(p)))).collect();
    let mut derived: Vec<MemoryBound> = vec![MemoryBound::Bounded(0); preds.len()];
    let mut order = Vec::with_capacity(sccs.len());
    for comp in sccs.iter().rev() {
        let recursive = comp.len() > 1 || graph.has_edge(comp[0], comp[0]);
        let negation_cycle = recursive
            && neg_edges
                .iter()
                .any(|(u, v)| scc_of[*u] == scc_of[comp[0]] && scc_of[*v] == scc_of[comp[0]]);
        for &n in comp {
            let pred = preds[n];
            let d = if recursive {
                herbrand_constants.pow(pred.arity)
            } else {
                let mut sum = MemoryBound::Bounded(0);
                for rule in &program.rules {
                    let copies = rule.head.atoms().iter().filter(|a| a.predicate() == pred).count();
                    if copies > 0 {
                        sum =
                            sum + rule_bound(rule, &extents) * MemoryBound::Bounded(copies as u128);
                    }
                }
                sum
            };
            derived[n] = d;
            extents[n] = extents[n] + d;
        }
        let mut names: Vec<String> =
            comp.iter().map(|&n| syms.resolve(preds[n].name).to_string()).collect();
        names.sort_unstable();
        order.push(EvalStratum { predicates: names, recursive, negation_cycle });
    }

    // Per-rule bounds with the final extent table.
    let mut rule_bounds = Vec::with_capacity(program.rules.len());
    let mut instantiation_bound = MemoryBound::Bounded(0);
    for (i, rule) in program.rules.iter().enumerate() {
        let b = rule_bound(rule, &extents);
        instantiation_bound = instantiation_bound + b;
        let head = rule.head.atoms().first().map(|a| syms.resolve(a.predicate().name).to_string());
        rule_bounds.push(RuleBound { index: i, head, instantiations: b });
    }

    // Delta-state assembly. Input atoms of *any* predicate (including ones
    // no rule mentions) are asserted into the fact store and support map,
    // so the window capacity — not the per-predicate sum — caps those.
    let cap = MemoryBound::Bounded(u128::from(window_capacity));
    let derived_sum = derived.iter().fold(MemoryBound::Bounded(0), |acc, d| acc + *d);
    let two = MemoryBound::Bounded(2);
    let live_tuples = cap + derived_sum;
    let state = DeltaStateBound {
        input_facts: cap,
        live_instantiations: instantiation_bound,
        instantiation_slots: instantiation_bound * two + MemoryBound::Bounded(1),
        support_atoms: live_tuples,
        relation_slots: live_tuples * two + MemoryBound::Bounded(preds.len() as u128 + 1),
        total_cells: MemoryBound::Bounded(0),
    };
    let state = DeltaStateBound {
        total_cells: state.input_facts
            + state.instantiation_slots
            + state.support_atoms
            + state.relation_slots,
        ..state
    };

    let extent_rows = preds
        .iter()
        .enumerate()
        .map(|(i, p)| PredicateExtent {
            name: syms.resolve(p.name).to_string(),
            arity: p.arity,
            input: input_of(p),
            derived: derived[i],
            extent: extents[i],
        })
        .collect();

    GroundingBounds {
        order,
        extents: extent_rows,
        rule_bounds,
        instantiation_bound,
        state,
        stratified: {
            let mut ok = true;
            for (u, v) in &neg_edges {
                if scc_of[*u] == scc_of[*v] {
                    ok = false;
                }
            }
            ok
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

    fn bounds(src: &str, capacity: u64) -> (Symbols, GroundingBounds) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let edb = program.edb_predicates();
        let b =
            grounding_bounds(&syms, &program, capacity, &|p| edb.contains(p).then_some(capacity));
        (syms, b)
    }

    #[test]
    fn acyclic_program_is_finitely_bounded() {
        let (_syms, b) = bounds(PROGRAM_P, 100);
        assert!(b.stratified);
        assert!(b.order.iter().all(|s| !s.recursive));
        let total = b.instantiation_bound.cells().unwrap();
        // Every rule's bound is a product of input and derived extents of
        // ≤100 each; just sanity-check finiteness and order.
        assert!(total > 0);
        assert!(b.state.total_cells.cells().is_some());
    }

    #[test]
    fn extents_cap_at_window_capacity_for_inputs() {
        let (_syms, b) = bounds(PROGRAM_P, 7);
        for row in &b.extents {
            if row.derived == MemoryBound::Bounded(0) {
                assert!(row.input <= 7, "{row:?}");
            }
        }
    }

    #[test]
    fn evaluation_order_is_dependencies_first() {
        let (_syms, b) = bounds(PROGRAM_P, 10);
        let pos = |name: &str| {
            b.order.iter().position(|s| s.predicates.iter().any(|p| p == name)).unwrap()
        };
        assert!(pos("average_speed") < pos("very_slow_speed"));
        assert!(pos("very_slow_speed") < pos("traffic_jam"));
        assert!(pos("traffic_jam") < pos("give_notification"));
    }

    #[test]
    fn recursion_falls_back_to_the_herbrand_bound() {
        let src = "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).\n";
        let (_syms, b) = bounds(src, 5);
        let reach = b.extents.iter().find(|e| e.name == "reach").unwrap();
        // C = 5 input facts × arity 2 = 10 constants; C^2 = 100.
        assert_eq!(reach.derived, MemoryBound::Bounded(100));
        assert!(b.order.iter().any(|s| s.recursive));
        assert!(b.stratified);
    }

    #[test]
    fn negation_cycle_is_flagged_unstratified() {
        let src = "a(X) :- base(X), not b(X).\nb(X) :- base(X), not a(X).\n";
        let (_syms, b) = bounds(src, 3);
        assert!(!b.stratified);
        assert!(b.order.iter().any(|s| s.negation_cycle));
    }

    #[test]
    fn overflow_saturates_to_unbounded() {
        // A 12-way self-join over a huge window overflows u128.
        let mut src = String::from("big(A0) :- ");
        let body: Vec<String> = (0..12).map(|i| format!("wide(A{i})")).collect();
        src.push_str(&body.join(", "));
        src.push_str(".\n");
        let (_syms, b) = bounds(&src, u64::MAX);
        assert_eq!(b.instantiation_bound, MemoryBound::Unbounded);
        assert_eq!(b.state.total_cells, MemoryBound::Unbounded);
        assert_eq!(b.state.total_cells.to_string(), "unbounded");
    }

    #[test]
    fn bound_arithmetic_is_saturating() {
        let top = MemoryBound::Bounded(u128::MAX);
        assert_eq!(top + MemoryBound::Bounded(1), MemoryBound::Unbounded);
        assert_eq!(top * MemoryBound::Bounded(2), MemoryBound::Unbounded);
        assert!(MemoryBound::Unbounded.exceeds(u64::MAX));
        assert!(!MemoryBound::Bounded(10).exceeds(10));
        assert!(MemoryBound::Bounded(11).exceeds(10));
    }
}
