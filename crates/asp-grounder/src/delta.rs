//! Delta-driven grounding: maintain the grounding of one fact multiset
//! across windows under assertion/retraction instead of re-running
//! [`Grounder::ground`] from scratch.
//!
//! The design follows counting-based incremental view maintenance (à la
//! Gupta/Mumick, used for Datalog materialization by DRed-style reasoners
//! and for stream reasoning in temporal Datalog by Ronca et al.):
//!
//! * every **rule instantiation** — a `(rule, full variable bindings)` pair,
//!   exactly the dedup key of the window grounder — is materialized once,
//!   with its ground positive body recorded;
//! * every atom of the possible-set carries a **support count**: how many
//!   copies of it sit in the current input multiset plus how many live
//!   instantiations emit it as a head;
//! * **assertion** runs seeded semi-naive instantiation: each newly present
//!   atom is pushed through the per-literal delta plans (the rule's join
//!   plan with that literal forced first), so only joins touching new atoms
//!   are re-evaluated;
//! * **retraction** decrements input counts and kills, transitively, every
//!   instantiation whose positive body lost an atom — counting makes this
//!   exact because supported programs are acyclic (below).
//!
//! [`DeltaGrounder::ground_program`] then re-runs the certain/possible
//! simplification over the maintained instantiations
//! ([`crate::simplify::finalize_refs`]) to produce a [`GroundProgram`] with
//! exactly the same rule set as a from-scratch grounding of the current
//! fact multiset.
//!
//! # Supported programs
//!
//! [`DeltaGrounder::supports`] gates the machinery to programs where the
//! maintenance is provably exact *and* the final answer set is unique, so
//! end-to-end output stays byte-identical to full recomputation:
//!
//! * single-head rules only (no disjunction, no choice heads), and
//! * an acyclic predicate dependency graph (no recursion, positive or
//!   through negation).
//!
//! Acyclicity makes support counting exact under retraction (no cyclic
//! self-support) and implies stratification, so the program has at most one
//! answer set — making answer output independent of the order in which the
//! ground rules are assembled. Callers fall back to [`Grounder::ground`]
//! for anything else.

use crate::compile::{compare, make_plan, CAtom, CLit, CompiledRule, Step};
use crate::instantiate::{unify_args, Grounder};
use crate::planner::match_signature;
use crate::relation::key_for;
use crate::simplify::{finalize_refs, ProtoRule};
use crate::stats::RelationStats;
use asp_core::{
    ground_atom_cmp, AspError, FastMap, FastSet, GroundAtom, GroundProgram, GroundTerm, Predicate,
};
use sr_graph::{scc_ids, DiGraph};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why an incremental [`DeltaGrounder::apply`] could not be completed. The
/// grounder state is left unusable in either case; callers must
/// [`DeltaGrounder::reset`] and rebuild from the full fact multiset (or
/// fall back to [`Grounder::ground`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A retracted fact was not present in the maintained multiset: the
    /// delta chain is broken (e.g. a missed window).
    SupportUnderflow,
    /// Evaluation failed mid-maintenance (arithmetic/comparison error).
    Eval(AspError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SupportUnderflow => {
                write!(f, "retracted fact not present in the maintained window")
            }
            DeltaError::Eval(e) => write!(f, "delta grounding evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<AspError> for DeltaError {
    fn from(e: AspError) -> Self {
        DeltaError::Eval(e)
    }
}

/// Tuple storage with removal: like [`crate::relation::Relation`] but slots
/// can be freed, with lazily filtered per-pattern indexes and wholesale
/// rebuild once dead slots outnumber live ones.
#[derive(Debug, Default)]
struct DRel {
    slots: Vec<Option<Box<[GroundTerm]>>>,
    ids: FastMap<Box<[GroundTerm]>, u32>,
    indexes: FastMap<u64, FastMap<Box<[GroundTerm]>, Vec<u32>>>,
    dead: usize,
}

impl DRel {
    /// Inserts a tuple the caller knows to be absent.
    fn insert(&mut self, tuple: Box<[GroundTerm]>) {
        debug_assert!(!self.ids.contains_key(&tuple));
        let idx = u32::try_from(self.slots.len()).expect("delta relation overflow");
        for (&pattern, index) in self.indexes.iter_mut() {
            index.entry(key_for(&tuple, pattern)).or_default().push(idx);
        }
        self.ids.insert(tuple.clone(), idx);
        self.slots.push(Some(tuple));
    }

    /// Removes a tuple if present (slot is tombstoned; indexes are filtered
    /// lazily at lookup time).
    fn remove(&mut self, tuple: &[GroundTerm]) {
        if let Some(idx) = self.ids.remove(tuple) {
            self.slots[idx as usize] = None;
            self.dead += 1;
            if self.dead > self.ids.len() {
                self.rebuild();
            }
        }
    }

    fn rebuild(&mut self) {
        let live: Vec<Box<[GroundTerm]>> = self.slots.drain(..).flatten().collect();
        self.ids.clear();
        self.indexes.clear();
        self.dead = 0;
        for t in live {
            self.insert(t);
        }
    }

    /// Live tuple indices matching `key` under `pattern`, ascending.
    fn candidates(&mut self, pattern: u64, key: &[GroundTerm]) -> Vec<u32> {
        if pattern == 0 {
            return (0..self.slots.len() as u32)
                .filter(|&i| self.slots[i as usize].is_some())
                .collect();
        }
        if !self.indexes.contains_key(&pattern) {
            let mut index: FastMap<Box<[GroundTerm]>, Vec<u32>> = FastMap::default();
            for (i, tuple) in self.slots.iter().enumerate() {
                if let Some(tuple) = tuple {
                    index.entry(key_for(tuple, pattern)).or_default().push(i as u32);
                }
            }
            self.indexes.insert(pattern, index);
        }
        match self.indexes[&pattern].get(key) {
            Some(idxs) => {
                idxs.iter().copied().filter(|&i| self.slots[i as usize].is_some()).collect()
            }
            None => Vec::new(),
        }
    }

    #[inline]
    fn tuple(&self, idx: u32) -> &[GroundTerm] {
        self.slots[idx as usize].as_deref().expect("candidate slot is live")
    }
}

/// A seeded rule plan: `(compiled rule index, plan with one literal forced
/// first)`, shared between the per-predicate buckets it is registered in.
type SeededPlan = (u32, Arc<[Step]>);

/// Support counts of one possible-set atom.
#[derive(Clone, Copy, Debug, Default)]
struct Support {
    /// Copies of the atom in the current input multiset.
    input: u32,
    /// Live instantiations emitting the atom as their head.
    derived: u32,
}

/// One materialized rule instantiation.
#[derive(Debug)]
struct Inst {
    /// Compiled rule index (the dedup key's first half).
    rule: u32,
    /// Full variable bindings (the dedup key's second half).
    bindings: Box<[GroundTerm]>,
    /// The ground rule it contributes to the final program.
    proto: ProtoRule,
}

/// A stateful grounder maintaining the instantiation of one program against
/// an evolving fact multiset. See the module docs for the algorithm and the
/// supported-program gate.
#[derive(Debug)]
pub struct DeltaGrounder {
    grounder: Arc<Grounder>,
    /// Per-predicate delta plans: `(rule index, plan with one literal of
    /// this predicate forced first)`. `Arc`-shared because [`drain`]
    /// detaches a bucket from `&mut self` once per queued atom — a pointer
    /// bump, where cloning a `Vec` would allocate on the hottest
    /// maintenance path.
    ///
    /// [`drain`]: DeltaGrounder::drain
    seeded: FastMap<Predicate, Arc<[SeededPlan]>>,
    /// Rules with no positive body literal: instantiated once at reset,
    /// never retracted (they have no support to lose). `Arc`-shared for the
    /// same reason as `seeded` — [`DeltaGrounder::reset`] detaches it from
    /// `&mut self` with a pointer bump instead of a `Vec` clone.
    nullary: Arc<[SeededPlan]>,
    /// Head-first SCC rank per predicate (see [`topo_ranks`]); evaluating
    /// ranks high→low is stratum order.
    pred_rank: FastMap<Predicate, u32>,
    rels: FastMap<Predicate, DRel>,
    support: FastMap<GroundAtom, Support>,
    insts: Vec<Option<Inst>>,
    /// Live instantiation indices bucketed by head stratum (stale indices
    /// of killed instantiations are skipped lazily, swept on compaction):
    /// keeps [`DeltaGrounder::answer`] from re-bucketing per window.
    by_rank: Vec<Vec<u32>>,
    /// Instantiation indices of integrity constraints (no head).
    constraint_insts: Vec<u32>,
    inst_ids: FastMap<(u32, Box<[GroundTerm]>), u32>,
    /// atom -> instantiation indices with the atom in their positive body
    /// (dead indices are skipped lazily and swept on compaction).
    dependents: FastMap<GroundAtom, Vec<u32>>,
    /// Input atoms in first-seen order (drives fact emission order; may
    /// contain stale entries — atoms whose input count dropped back to
    /// zero, or duplicates from a retract/re-assert cycle — swept by
    /// [`DeltaGrounder::compact_fact_order`] once stale entries dominate,
    /// so churny streams don't grow it without bound).
    fact_order: Vec<GroundAtom>,
    /// Distinct atoms with `input > 0`: the live length of `fact_order`.
    live_input_atoms: usize,
    dead_insts: usize,
    /// Facts currently asserted (multiset size).
    input_facts: usize,
    /// Relation statistics for cost-based replanning of the seeded plans;
    /// `None` when cost planning is off. Maintained incrementally at the
    /// same three sites that mutate `rels` (fact assert, head emit, dead
    /// removal), so the counts always mirror the possible-set relations.
    stats: Option<RelationStats>,
    /// Stats generation the current `seeded` plans were built against.
    planned_gen: u64,
    /// Total seeded-plan rebuilds (bounded by generation bumps — the drift
    /// hysteresis in [`RelationStats`] prevents thrash under churn).
    replans: u64,
    /// Cumulative count of rebuilt plans whose relation-visit order differs
    /// from the syntactic heuristic's choice.
    plans_reordered: u64,
}

/// Predicate ranks in head-first SCC order (an edge body→head gives the
/// head a *smaller* rank, matching Tarjan's emission order in
/// [`Grounder::new`]); evaluating ranks high→low therefore processes
/// bodies before heads. `None` when the program is outside the supported
/// fragment: a choice or multi-head rule, or a dependency cycle (positive
/// or through negation).
fn topo_ranks(compiled: &[CompiledRule]) -> Option<(FastMap<Predicate, u32>, u32)> {
    if compiled.iter().any(|c| c.choice || c.heads.len() > 1) {
        return None;
    }
    let mut pred_ids: FastMap<Predicate, usize> = FastMap::default();
    let mut preds: Vec<Predicate> = Vec::new();
    let mut id_of = |p: Predicate, pred_ids: &mut FastMap<Predicate, usize>| {
        *pred_ids.entry(p).or_insert_with(|| {
            preds.push(p);
            preds.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for c in compiled {
        let Some(head) = c.heads.first() else { continue };
        let h = id_of(head.pred, &mut pred_ids);
        for lit in &c.body {
            if let CLit::Pos(a) | CLit::Neg(a) = lit {
                edges.push((id_of(a.pred, &mut pred_ids), h));
            }
        }
    }
    if edges.iter().any(|(u, v)| u == v) {
        return None; // self-loop
    }
    let n = preds.len();
    let mut graph = DiGraph::new(n);
    for (u, v) in &edges {
        graph.add_edge(*u, *v);
    }
    let sccs = scc_ids(&graph);
    let scc_count = sccs.iter().copied().max().map_or(0, |m| m + 1);
    if scc_count != n {
        return None; // a non-singleton SCC: recursion
    }
    let ranks = preds
        .iter()
        .enumerate()
        .map(|(pid, &p)| (p, sccs[pid] as u32))
        .collect::<FastMap<Predicate, u32>>();
    Some((ranks, scc_count as u32))
}

impl DeltaGrounder {
    /// True when `grounder`'s program is in the supported fragment:
    /// single-head rules and an acyclic predicate dependency graph (see the
    /// module docs for why both are required for exactness).
    pub fn supports(grounder: &Grounder) -> bool {
        topo_ranks(&grounder.compiled).is_some()
    }

    /// Builds a delta grounder over a compiled program, with an empty fact
    /// multiset. Fails when the program is outside the supported fragment
    /// or a delta plan cannot be built.
    pub fn new(grounder: Arc<Grounder>) -> Result<Self, AspError> {
        Self::with_cost_planning(grounder, false)
    }

    /// Like [`DeltaGrounder::new`], optionally enabling cost-based
    /// replanning of the seeded plans: relation statistics are maintained
    /// across windows and the plans are rebuilt (lazily, at the start of an
    /// [`DeltaGrounder::apply`]) whenever observed cardinalities drift past
    /// the hysteresis threshold of [`RelationStats`].
    pub fn with_cost_planning(
        grounder: Arc<Grounder>,
        cost_planning: bool,
    ) -> Result<Self, AspError> {
        let Some((pred_rank, rank_count)) = topo_ranks(&grounder.compiled) else {
            return Err(AspError::Internal(
                "delta grounding needs single-head rules and an acyclic dependency graph".into(),
            ));
        };
        let mut seeded: FastMap<Predicate, Vec<SeededPlan>> = FastMap::default();
        let mut nullary: Vec<SeededPlan> = Vec::new();
        for (idx, c) in grounder.compiled.iter().enumerate() {
            let pos_lits: Vec<usize> = c
                .body
                .iter()
                .enumerate()
                .filter_map(|(i, l)| matches!(l, CLit::Pos(_)).then_some(i))
                .collect();
            if pos_lits.is_empty() {
                nullary.push((idx as u32, c.plan.clone().into()));
                continue;
            }
            for &j in &pos_lits {
                let plan = make_plan(&c.body, c.var_count, Some(j)).map_err(|slot| {
                    AspError::UnsafeRule {
                        rule: format!("rule #{}", c.rule_idx),
                        variable: grounder.syms.resolve(c.var_names[slot as usize]).to_string(),
                    }
                })?;
                let CLit::Pos(a) = &c.body[j] else { unreachable!("pos_lits holds positives") };
                seeded.entry(a.pred).or_default().push((idx as u32, plan.into()));
            }
        }
        let mut dg = DeltaGrounder {
            grounder,
            seeded: seeded.into_iter().map(|(pred, plans)| (pred, plans.into())).collect(),
            nullary: nullary.into(),
            pred_rank,
            rels: FastMap::default(),
            support: FastMap::default(),
            insts: Vec::new(),
            by_rank: vec![Vec::new(); rank_count as usize],
            constraint_insts: Vec::new(),
            inst_ids: FastMap::default(),
            dependents: FastMap::default(),
            fact_order: Vec::new(),
            live_input_atoms: 0,
            dead_insts: 0,
            input_facts: 0,
            stats: cost_planning.then(RelationStats::new),
            planned_gen: 0,
            replans: 0,
            plans_reordered: 0,
        };
        dg.reset()?;
        Ok(dg)
    }

    /// True when cost-based seeded-plan replanning is enabled.
    pub fn cost_planning(&self) -> bool {
        self.stats.is_some()
    }

    /// Planner counters `(replans, plans_reordered, stats_generation)`;
    /// `None` when cost planning is off — callers must omit, never
    /// fabricate, the metrics in that case.
    pub fn planner_counters(&self) -> Option<(u64, u64, u64)> {
        self.stats.as_ref().map(|s| (self.replans, self.plans_reordered, s.generation()))
    }

    /// Rebuilds the seeded plans against the current statistics iff their
    /// generation moved since the last rebuild — at most one rebuild per
    /// generation bump, so the drift hysteresis bounds the replan rate.
    /// Body-free (`nullary`) plans have no joins to reorder and are left
    /// untouched.
    fn maybe_replan(&mut self) {
        let Some(stats) = &self.stats else { return };
        let generation = stats.generation();
        if generation == self.planned_gen {
            return;
        }
        self.planned_gen = generation;
        self.replans += 1;
        let _span = sr_obs::span(sr_obs::Stage::Plan);
        let grounder = Arc::clone(&self.grounder);
        let mut seeded: FastMap<Predicate, Vec<SeededPlan>> = FastMap::default();
        let mut reordered = 0u64;
        for (idx, c) in grounder.compiled.iter().enumerate() {
            for (j, l) in c.body.iter().enumerate() {
                let CLit::Pos(a) = l else { continue };
                // The body compiled, so planning cannot fail (safety is
                // order-independent); if it somehow does, keep the current
                // plans — they are correct for any statistics.
                let Ok(plan) = crate::planner::plan(&c.body, c.var_count, Some(j), stats) else {
                    debug_assert!(false, "replanning failed on a compiled rule");
                    return;
                };
                if let Ok(base) = make_plan(&c.body, c.var_count, Some(j)) {
                    if match_signature(&plan) != match_signature(&base) {
                        reordered += 1;
                    }
                }
                seeded.entry(a.pred).or_default().push((idx as u32, plan.into()));
            }
        }
        self.plans_reordered += reordered;
        self.seeded = seeded.into_iter().map(|(pred, plans)| (pred, plans.into())).collect();
    }

    /// The compiled program this grounder maintains.
    pub fn grounder(&self) -> &Arc<Grounder> {
        &self.grounder
    }

    /// Number of facts currently asserted (multiset size).
    pub fn input_facts(&self) -> usize {
        self.input_facts
    }

    /// Number of live rule instantiations currently materialized.
    pub fn instantiations(&self) -> usize {
        self.insts.len() - self.dead_insts
    }

    /// Observed sizes of the maintained stores, in the cell units of
    /// [`crate::analysis::DeltaStateBound`]. Slot counts include
    /// tombstones, so the amortized-compaction slack (`slots ≤ 2 × live`)
    /// is visible to bound-soundness checks.
    pub fn state_size(&self) -> crate::analysis::DeltaStateSize {
        crate::analysis::DeltaStateSize {
            input_facts: self.input_facts,
            live_instantiations: self.instantiations(),
            instantiation_slots: self.insts.len(),
            support_atoms: self.support.len(),
            relation_slots: self.rels.values().map(|r| r.slots.len()).sum(),
        }
    }

    /// Clears the maintained state back to the empty fact multiset
    /// (re-instantiating body-free rules).
    pub fn reset(&mut self) -> Result<(), AspError> {
        self.rels.clear();
        self.support.clear();
        self.insts.clear();
        for bucket in &mut self.by_rank {
            bucket.clear();
        }
        self.constraint_insts.clear();
        self.inst_ids.clear();
        self.dependents.clear();
        self.fact_order.clear();
        self.live_input_atoms = 0;
        self.dead_insts = 0;
        self.input_facts = 0;
        let to_asp = |e: DeltaError| match e {
            DeltaError::Eval(e) => e,
            DeltaError::SupportUnderflow => {
                AspError::Internal("underflow with no retractions".into())
            }
        };
        if let Some(stats) = &mut self.stats {
            stats.clear();
            // The current plans stay installed (any order is correct); sync
            // the generation so the clear alone doesn't force a replan.
            self.planned_gen = stats.generation();
        }
        let mut queue = VecDeque::new();
        let nullary = Arc::clone(&self.nullary);
        for &(rule, ref plan) in nullary.iter() {
            self.eval_plan(rule, plan, None, &mut queue).map_err(to_asp)?;
        }
        // Heads of body-free rules can feed other rules' bodies.
        self.drain(&mut queue).map_err(to_asp)
    }

    /// Applies one window delta: retracts `retracted` from and asserts
    /// `added` into the maintained fact multiset, updating instantiations
    /// incrementally. On error the state is inconsistent; the caller must
    /// [`DeltaGrounder::reset`] and rebuild.
    pub fn apply(
        &mut self,
        added: &[GroundAtom],
        retracted: &[GroundAtom],
    ) -> Result<(), DeltaError> {
        // Replan against the statistics of the previous window's end state
        // (if their generation moved) before touching this window's delta.
        self.maybe_replan();
        // Retract first: multiset(current) = multiset(base) - retracted + added.
        let mut dead: Vec<GroundAtom> = Vec::new();
        for f in retracted {
            let Some(s) = self.support.get_mut(f) else {
                return Err(DeltaError::SupportUnderflow);
            };
            if s.input == 0 {
                return Err(DeltaError::SupportUnderflow);
            }
            s.input -= 1;
            self.input_facts -= 1;
            if s.input == 0 {
                self.live_input_atoms -= 1;
                if s.derived == 0 {
                    dead.push(f.clone());
                }
            }
        }
        self.process_dead(dead);

        let mut queue = VecDeque::new();
        for f in added {
            let s = self.support.entry(f.clone()).or_default();
            let newly_present = s.input == 0 && s.derived == 0;
            let newly_input = s.input == 0;
            s.input += 1;
            self.input_facts += 1;
            if newly_input {
                self.fact_order.push(f.clone());
                self.live_input_atoms += 1;
            }
            if newly_present {
                self.rels.entry(f.predicate()).or_default().insert(f.args.clone());
                if let Some(stats) = &mut self.stats {
                    stats.insert(f.predicate(), &f.args);
                }
                queue.push_back(f.clone());
            }
        }
        if self.fact_order.len() > 64 && self.fact_order.len() > self.live_input_atoms * 2 {
            self.compact_fact_order();
        }
        self.drain(&mut queue)
    }

    /// Sweeps `fact_order` down to one entry per live input atom (amortized
    /// like [`DeltaGrounder::compact`]): first-seen order of the survivors
    /// is preserved, which is all [`DeltaGrounder::ground_program`] needs.
    fn compact_fact_order(&mut self) {
        let old = std::mem::take(&mut self.fact_order);
        let mut seen: FastSet<GroundAtom> = FastSet::default();
        for f in old {
            if self.support.get(&f).is_some_and(|s| s.input > 0) && seen.insert(f.clone()) {
                self.fact_order.push(f);
            }
        }
        debug_assert_eq!(self.fact_order.len(), self.live_input_atoms);
    }

    /// Fires the seeded delta plans for every queued newly-present atom
    /// until the instantiation fixpoint is reached.
    fn drain(&mut self, queue: &mut VecDeque<GroundAtom>) -> Result<(), DeltaError> {
        while let Some(atom) = queue.pop_front() {
            let Some(plans) = self.seeded.get(&atom.predicate()) else { continue };
            let plans = Arc::clone(plans);
            for (rule, plan) in plans.iter() {
                self.eval_plan(*rule, plan, Some(&atom), queue)?;
            }
        }
        Ok(())
    }

    /// Transitively kills instantiations supported by the atoms in `dead`
    /// (which just became absent), decrementing head supports as it goes.
    fn process_dead(&mut self, mut dead: Vec<GroundAtom>) {
        while let Some(atom) = dead.pop() {
            if let Some(rel) = self.rels.get_mut(&atom.predicate()) {
                rel.remove(&atom.args);
                if let Some(stats) = &mut self.stats {
                    stats.remove(atom.predicate(), &atom.args);
                }
            }
            self.support.remove(&atom);
            let Some(watchers) = self.dependents.remove(&atom) else { continue };
            for ii in watchers {
                let Some(inst) = self.insts[ii as usize].take() else { continue };
                self.inst_ids.remove(&(inst.rule, inst.bindings.clone()));
                self.dead_insts += 1;
                for h in &inst.proto.heads {
                    let Some(s) = self.support.get_mut(h) else { continue };
                    s.derived -= 1;
                    if s.input == 0 && s.derived == 0 {
                        dead.push(h.clone());
                    }
                }
            }
        }
        if self.dead_insts * 2 > self.insts.len() {
            self.compact();
        }
    }

    /// Rebuilds the instantiation store without dead slots (amortized; the
    /// dependents and stratum indexes are swept along).
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.insts);
        self.inst_ids.clear();
        self.dependents.clear();
        for bucket in &mut self.by_rank {
            bucket.clear();
        }
        self.constraint_insts.clear();
        self.dead_insts = 0;
        for inst in old.into_iter().flatten() {
            let idx = self.insts.len() as u32;
            self.inst_ids.insert((inst.rule, inst.bindings.clone()), idx);
            for p in &inst.proto.pos {
                self.dependents.entry(p.clone()).or_default().push(idx);
            }
            self.index_inst(idx, &inst);
            self.insts.push(Some(inst));
        }
    }

    /// Records an instantiation in the stratum index.
    fn index_inst(&mut self, idx: u32, inst: &Inst) {
        match inst.proto.heads.first() {
            Some(h) => self.by_rank[self.pred_rank[&h.predicate()] as usize].push(idx),
            None => self.constraint_insts.push(idx),
        }
    }

    /// Evaluates one plan. With `seed`, the first step (the forced-first
    /// literal) is unified directly against the seed atom instead of being
    /// joined against its relation.
    fn eval_plan(
        &mut self,
        rule_idx: u32,
        plan: &[Step],
        seed: Option<&GroundAtom>,
        queue: &mut VecDeque<GroundAtom>,
    ) -> Result<(), DeltaError> {
        let g = Arc::clone(&self.grounder);
        let rule = &g.compiled[rule_idx as usize];
        let mut subst: Vec<Option<GroundTerm>> = vec![None; rule.var_count as usize];
        let mut trail: Vec<u32> = Vec::new();
        match seed {
            Some(atom) => {
                let Some(Step::Match { atom: seed_atom, .. }) = plan.first() else {
                    unreachable!("seeded plans start with the forced literal");
                };
                debug_assert_eq!(seed_atom.pred, atom.predicate());
                if unify_args(&seed_atom.args, &atom.args, &mut subst, &mut trail)? {
                    self.step(rule_idx, rule, plan, 1, &mut subst, &mut trail, queue)?;
                }
            }
            None => self.step(rule_idx, rule, plan, 0, &mut subst, &mut trail, queue)?,
        }
        Ok(())
    }

    // KEEP IN SYNC with `Eval::step` (instantiate.rs): same plan-walk
    // semantics (Match pattern build, Compare/Bind backtracking) over `DRel`
    // storage with an undo trail. `NegCheck` always passes through here, as
    // in `Eval`'s ground mode; `Eval`'s model mode blocks on it instead. The
    // delta-on/off identity proptests catch divergence, but a semantic fix
    // here almost certainly belongs there too.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        rule_idx: u32,
        rule: &CompiledRule,
        plan: &[Step],
        idx: usize,
        subst: &mut [Option<GroundTerm>],
        trail: &mut Vec<u32>,
        queue: &mut VecDeque<GroundAtom>,
    ) -> Result<(), DeltaError> {
        let Some(step) = plan.get(idx) else {
            return self.emit(rule_idx, rule, subst, queue);
        };
        match step {
            Step::Match { atom, static_bound, .. } => {
                let mut pattern = 0u64;
                let mut keyvals: Vec<GroundTerm> = Vec::new();
                for (i, (arg, b)) in atom.args.iter().zip(static_bound.iter()).enumerate() {
                    if *b && i < 64 {
                        pattern |= 1 << i;
                        keyvals.push(arg.eval(subst)?);
                    }
                }
                let rel = self.rels.entry(atom.pred).or_default();
                let candidates = rel.candidates(pattern, &keyvals);
                for c in candidates {
                    // Clone the tuple: emitting may insert into this
                    // relation and move its backing storage.
                    let Some(rel) = self.rels.get(&atom.pred) else { break };
                    let tuple: Box<[GroundTerm]> = rel.tuple(c).into();
                    let mark = trail.len();
                    if unify_args(&atom.args, &tuple, subst, trail)? {
                        self.step(rule_idx, rule, plan, idx + 1, subst, trail, queue)?;
                    }
                    while trail.len() > mark {
                        let slot = trail.pop().expect("trail underflow");
                        subst[slot as usize] = None;
                    }
                }
                Ok(())
            }
            Step::Compare { lhs, op, rhs } => {
                let l = lhs.eval(subst)?;
                let r = rhs.eval(subst)?;
                if compare(&l, *op, &r)? {
                    self.step(rule_idx, rule, plan, idx + 1, subst, trail, queue)
                } else {
                    Ok(())
                }
            }
            Step::Bind { slot, expr } => {
                let v = expr.eval(subst)?;
                subst[*slot as usize] = Some(v);
                let result = self.step(rule_idx, rule, plan, idx + 1, subst, trail, queue);
                subst[*slot as usize] = None;
                result
            }
            Step::NegCheck { .. } => {
                // Possible-set semantics: default negation never blocks
                // here; the simplification pass handles it.
                self.step(rule_idx, rule, plan, idx + 1, subst, trail, queue)
            }
        }
    }

    fn emit(
        &mut self,
        rule_idx: u32,
        rule: &CompiledRule,
        subst: &mut [Option<GroundTerm>],
        queue: &mut VecDeque<GroundAtom>,
    ) -> Result<(), DeltaError> {
        // The dedup key matches the window grounder's `seen` exactly.
        let bindings: Box<[GroundTerm]> =
            subst.iter().map(|s| s.clone().unwrap_or(GroundTerm::Int(i64::MIN))).collect();
        if self.inst_ids.contains_key(&(rule_idx, bindings.clone())) {
            return Ok(());
        }

        let eval_atom = |a: &CAtom, subst: &[Option<GroundTerm>]| -> Result<GroundAtom, AspError> {
            let mut args = Vec::with_capacity(a.args.len());
            for t in a.args.iter() {
                args.push(t.eval(subst)?);
            }
            Ok(GroundAtom { pred: a.pred.name, args: args.into(), strong_neg: a.pred.strong_neg })
        };

        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for lit in &rule.body {
            match lit {
                CLit::Pos(a) => pos.push(eval_atom(a, subst)?),
                CLit::Neg(a) => neg.push(eval_atom(a, subst)?),
                CLit::Cmp(..) => {}
            }
        }
        let heads: Vec<GroundAtom> =
            rule.heads.iter().map(|h| eval_atom(h, subst)).collect::<Result<_, _>>()?;

        let idx = self.insts.len() as u32;
        for p in &pos {
            self.dependents.entry(p.clone()).or_default().push(idx);
        }
        self.inst_ids.insert((rule_idx, bindings.clone()), idx);
        for h in &heads {
            let s = self.support.entry(h.clone()).or_default();
            let newly_present = s.input == 0 && s.derived == 0;
            s.derived += 1;
            if newly_present {
                self.rels.entry(h.predicate()).or_default().insert(h.args.clone());
                if let Some(stats) = &mut self.stats {
                    stats.insert(h.predicate(), &h.args);
                }
                queue.push_back(h.clone());
            }
        }
        let inst = Inst { rule: rule_idx, bindings, proto: ProtoRule { heads, pos, neg } };
        self.index_inst(idx, &inst);
        self.insts.push(Some(inst));
        Ok(())
    }

    /// True when the atom is in the current possible-set (asserted as a fact
    /// or emitted by a live instantiation).
    fn is_present(&self, a: &GroundAtom) -> bool {
        self.support.contains_key(a)
    }

    /// Computes the unique answer set of the current fact multiset directly
    /// from the maintained instantiations — `None` means unsatisfiable (a
    /// constraint fires, or a strong-negation conflict).
    ///
    /// The supported fragment is stratified (acyclic, even through
    /// negation), so the unique stable model is the perfect model:
    /// evaluating predicates in stratum order, an atom holds iff it is an
    /// asserted fact or some live instantiation derives it with its
    /// positive body in and its negated body out of the model so far. This
    /// skips simplification, completion-clause translation and CDCL
    /// entirely — the maintained instantiations *are* the ground program —
    /// which is what makes delta grounding pay off end to end: by
    /// construction the result equals solving
    /// [`DeltaGrounder::ground_program`] (enforced by the identity tests).
    pub fn answer(&self) -> Option<Vec<GroundAtom>> {
        // Asserted facts hold unconditionally.
        let mut model: FastSet<&GroundAtom> = FastSet::default();
        for (atom, support) in &self.support {
            if support.input > 0 {
                model.insert(atom);
            }
        }

        // Stratum order: ranks are head-first, so evaluate back to front
        // (bodies before the heads that consume them). Buckets are
        // maintained incrementally; indices of killed instantiations are
        // skipped.
        for bucket in self.by_rank.iter().rev() {
            for &idx in bucket {
                let Some(inst) = &self.insts[idx as usize] else { continue };
                let head = &inst.proto.heads[0];
                if model.contains(head) {
                    continue;
                }
                if inst.proto.pos.iter().all(|a| model.contains(a))
                    && inst.proto.neg.iter().all(|a| !model.contains(a))
                {
                    model.insert(head);
                }
            }
        }

        // Strong-negation consistency: `p` and `-p` together are
        // unsatisfiable (the constraints the window grounder would emit).
        for atom in &model {
            if atom.strong_neg {
                let twin =
                    GroundAtom { pred: atom.pred, args: atom.args.clone(), strong_neg: false };
                if model.contains(&twin) {
                    return None;
                }
            }
        }

        // Integrity constraints over the final model.
        for &idx in &self.constraint_insts {
            let Some(c) = &self.insts[idx as usize] else { continue };
            if c.proto.pos.iter().all(|a| model.contains(a))
                && c.proto.neg.iter().all(|a| !model.contains(a))
            {
                return None;
            }
        }

        Some(model.into_iter().cloned().collect())
    }

    /// Builds the simplified ground program of the current fact multiset.
    /// The rule *set* equals a from-scratch [`Grounder::ground`] of the same
    /// facts; rule order may differ, which cannot affect answers in the
    /// supported (unique-answer-set) fragment.
    pub fn ground_program(&self) -> GroundProgram {
        // Fact protos, in first-assertion order, one per distinct live fact.
        let mut fact_protos: Vec<ProtoRule> = Vec::new();
        let mut seen: FastSet<&GroundAtom> = FastSet::default();
        for f in &self.fact_order {
            if self.support.get(f).is_some_and(|s| s.input > 0) && seen.insert(f) {
                fact_protos.push(ProtoRule {
                    heads: vec![f.clone()],
                    pos: Vec::new(),
                    neg: Vec::new(),
                });
            }
        }

        // Strong-negation consistency constraints, re-derived from the
        // current possible-set (cheap: scans the support map once).
        let mut strong: Vec<&GroundAtom> = self.support.keys().filter(|a| a.strong_neg).collect();
        strong.sort_by(|a, b| ground_atom_cmp(&self.grounder.syms, a, b));
        let mut sn_protos: Vec<ProtoRule> = Vec::new();
        for neg_atom in strong {
            let pos_atom =
                GroundAtom { pred: neg_atom.pred, args: neg_atom.args.clone(), strong_neg: false };
            if self.support.contains_key(&pos_atom) {
                sn_protos.push(ProtoRule {
                    heads: Vec::new(),
                    pos: vec![neg_atom.clone(), pos_atom],
                    neg: Vec::new(),
                });
            }
        }

        let refs: Vec<&ProtoRule> = fact_protos
            .iter()
            .chain(self.insts.iter().flatten().map(|i| &i.proto))
            .chain(sn_protos.iter())
            .collect();
        finalize_refs(&|a| self.is_present(a), &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::Symbols;
    use asp_parser::parse_program;

    const TRAFFIC: &str = r#"
        very_slow_speed(X) :- average_speed(X,Y), Y < 20.
        many_cars(X) :- car_number(X,Y), Y > 40.
        traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
        give_notification(X) :- traffic_jam(X).
    "#;

    fn atom(syms: &Symbols, name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::new(syms.intern(name), args.iter().map(|&a| GroundTerm::Int(a)).collect())
    }

    fn build(src: &str) -> (Symbols, Arc<Grounder>, DeltaGrounder) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
        let dg = DeltaGrounder::new(Arc::clone(&grounder)).unwrap();
        (syms, grounder, dg)
    }

    fn assert_matches_scratch(
        syms: &Symbols,
        grounder: &Grounder,
        dg: &DeltaGrounder,
        facts: &[GroundAtom],
    ) {
        let scratch = grounder.ground(facts).unwrap();
        let maintained = dg.ground_program();
        assert_eq!(
            maintained.canonical_form(syms),
            scratch.canonical_form(syms),
            "maintained grounding diverged from scratch over {} facts",
            facts.len()
        );
    }

    #[test]
    fn supports_gates_on_fragment() {
        let syms = Symbols::new();
        let ok = parse_program(&syms, TRAFFIC).unwrap();
        assert!(DeltaGrounder::supports(&Grounder::new(&syms, &ok).unwrap()));
        // Positive recursion.
        let rec =
            parse_program(&syms, "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).")
                .unwrap();
        assert!(!DeltaGrounder::supports(&Grounder::new(&syms, &rec).unwrap()));
        // Negation cycle (even loop).
        let loop_ = parse_program(&syms, "a :- not b. b :- not a.").unwrap();
        assert!(!DeltaGrounder::supports(&Grounder::new(&syms, &loop_).unwrap()));
        // Choice head.
        let choice = parse_program(&syms, "{a}.").unwrap();
        assert!(!DeltaGrounder::supports(&Grounder::new(&syms, &choice).unwrap()));
        // Disjunction.
        let disj = parse_program(&syms, "a | b :- c.").unwrap();
        assert!(!DeltaGrounder::supports(&Grounder::new(&syms, &disj).unwrap()));
    }

    #[test]
    fn additions_match_scratch_grounding() {
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let facts = vec![
            atom(&syms, "average_speed", &[1, 10]),
            atom(&syms, "car_number", &[1, 55]),
            atom(&syms, "traffic_light", &[2]),
        ];
        dg.apply(&facts, &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &facts);
        assert_eq!(dg.input_facts(), 3);
        assert!(dg.instantiations() >= 4, "speed, cars, jam, notification fired");
    }

    #[test]
    fn retraction_kills_derivation_chain() {
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let all = vec![atom(&syms, "average_speed", &[1, 10]), atom(&syms, "car_number", &[1, 55])];
        dg.apply(&all, &[]).unwrap();
        // Retract the speed reading: jam and notification must die.
        dg.apply(&[], &all[..1]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &all[1..]);
        // And re-asserting resurrects them.
        dg.apply(&all[..1], &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &all);
    }

    #[test]
    fn multiset_counts_retraction() {
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let f = atom(&syms, "average_speed", &[1, 10]);
        dg.apply(&[f.clone(), f.clone()], &[]).unwrap();
        dg.apply(&[], std::slice::from_ref(&f)).unwrap();
        // One copy retracted: the fact (and its derivation) is still live.
        assert_matches_scratch(&syms, &grounder, &dg, std::slice::from_ref(&f));
        dg.apply(&[], std::slice::from_ref(&f)).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[]);
        assert_eq!(dg.input_facts(), 0);
    }

    #[test]
    fn underflow_is_reported() {
        let (syms, _g, mut dg) = build(TRAFFIC);
        let f = atom(&syms, "average_speed", &[1, 10]);
        assert_eq!(
            dg.apply(&[], std::slice::from_ref(&f)),
            Err(DeltaError::SupportUnderflow),
            "retracting an absent fact must not be silently ignored"
        );
    }

    #[test]
    fn reset_restores_the_empty_grounding() {
        let (syms, grounder, mut dg) = build(TRAFFIC);
        dg.apply(&[atom(&syms, "average_speed", &[1, 10])], &[]).unwrap();
        dg.reset().unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[]);
        assert_eq!(dg.input_facts(), 0);
        assert_eq!(dg.instantiations(), 0);
    }

    #[test]
    fn body_free_rules_survive_reset_and_retraction() {
        let src = "base(1). p(X) :- q(X), base(X).";
        let (syms, grounder, mut dg) = build(src);
        let q = atom(&syms, "q", &[1]);
        dg.apply(std::slice::from_ref(&q), &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, std::slice::from_ref(&q));
        dg.apply(&[], std::slice::from_ref(&q)).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[]);
    }

    #[test]
    fn derived_atom_also_asserted_as_fact() {
        // very_slow_speed is derivable AND arrives as an input fact; its
        // presence must survive retraction of either support.
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let speed = atom(&syms, "average_speed", &[1, 10]);
        let derived = atom(&syms, "very_slow_speed", &[1]);
        dg.apply(&[speed.clone(), derived.clone()], &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[speed.clone(), derived.clone()]);
        dg.apply(&[], std::slice::from_ref(&speed)).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, std::slice::from_ref(&derived));
        dg.apply(&[], std::slice::from_ref(&derived)).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[]);
    }

    #[test]
    fn strong_negation_constraints_are_maintained() {
        let src = "ok(X) :- sensor(X), not -sensor(X).";
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
        let mut dg = DeltaGrounder::new(Arc::clone(&grounder)).unwrap();
        let pos = atom(&syms, "sensor", &[1]);
        let neg = GroundAtom { strong_neg: true, ..pos.clone() };
        dg.apply(&[pos.clone(), neg.clone()], &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &[pos.clone(), neg.clone()]);
        dg.apply(&[], std::slice::from_ref(&neg)).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, std::slice::from_ref(&pos));
    }

    #[test]
    fn churn_triggers_compaction_and_stays_exact() {
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let mut live: Vec<GroundAtom> = Vec::new();
        for round in 0..12i64 {
            let f = vec![
                atom(&syms, "average_speed", &[round, 5]),
                atom(&syms, "car_number", &[round, 50]),
            ];
            dg.apply(&f, &live).unwrap();
            live = f;
        }
        assert_matches_scratch(&syms, &grounder, &dg, &live);
    }

    #[test]
    fn fact_order_stays_bounded_under_churn() {
        // Retract/assert the whole window every round: without the sweep,
        // `fact_order` would hold one stale entry per round forever.
        let (syms, grounder, mut dg) = build(TRAFFIC);
        let per_round = 40usize;
        let mut live: Vec<GroundAtom> = Vec::new();
        for round in 0..50i64 {
            let f: Vec<GroundAtom> = (0..per_round as i64)
                .map(|i| atom(&syms, "average_speed", &[round * per_round as i64 + i, 5]))
                .collect();
            dg.apply(&f, &live).unwrap();
            live = f;
        }
        assert!(
            dg.fact_order.len() <= per_round * 2,
            "fact_order grew without bound: {} entries for {} live atoms",
            dg.fact_order.len(),
            per_round
        );
        assert_eq!(dg.live_input_atoms, per_round);
        assert_matches_scratch(&syms, &grounder, &dg, &live);
    }

    #[test]
    fn answer_is_the_perfect_model() {
        let (syms, _g, mut dg) = build(TRAFFIC);
        let light = atom(&syms, "traffic_light", &[1]);
        let facts = vec![
            atom(&syms, "average_speed", &[1, 10]),
            atom(&syms, "car_number", &[1, 55]),
            light.clone(),
        ];
        dg.apply(&facts, &[]).unwrap();
        let model = dg.answer().expect("satisfiable");
        let rendered: Vec<String> = model.iter().map(|a| a.display(&syms).to_string()).collect();
        assert!(rendered.contains(&"very_slow_speed(1)".to_string()));
        assert!(rendered.contains(&"many_cars(1)".to_string()));
        assert!(
            !rendered.iter().any(|a| a.starts_with("traffic_jam")),
            "the light blocks the jam: {rendered:?}"
        );
        // Retract the light: the jam (and the notification) fire.
        dg.apply(&[], std::slice::from_ref(&light)).unwrap();
        let model = dg.answer().expect("satisfiable");
        let rendered: Vec<String> = model.iter().map(|a| a.display(&syms).to_string()).collect();
        assert!(rendered.contains(&"traffic_jam(1)".to_string()), "{rendered:?}");
        assert!(rendered.contains(&"give_notification(1)".to_string()));
    }

    #[test]
    fn answer_reports_unsat_on_firing_constraint() {
        let (syms, _g, mut dg) = build("p(X) :- q(X). :- p(X), bad(X).");
        let q = atom(&syms, "q", &[1]);
        let bad = atom(&syms, "bad", &[1]);
        dg.apply(&[q.clone(), bad.clone()], &[]).unwrap();
        assert!(dg.answer().is_none(), "constraint fires");
        dg.apply(&[], std::slice::from_ref(&bad)).unwrap();
        assert!(dg.answer().is_some(), "retracting bad(1) restores satisfiability");
    }

    #[test]
    fn answer_reports_unsat_on_strong_negation_conflict() {
        let (syms, _g, mut dg) = build("ok(X) :- sensor(X).");
        let pos = atom(&syms, "sensor", &[1]);
        let neg = GroundAtom { strong_neg: true, ..pos.clone() };
        dg.apply(&[pos, neg], &[]).unwrap();
        assert!(dg.answer().is_none(), "p and -p conflict");
    }

    fn build_cost(src: &str) -> (Symbols, Arc<Grounder>, DeltaGrounder) {
        let syms = Symbols::new();
        let program = parse_program(&syms, src).unwrap();
        let grounder = Arc::new(Grounder::new(&syms, &program).unwrap());
        let dg = DeltaGrounder::with_cost_planning(Arc::clone(&grounder), true).unwrap();
        (syms, grounder, dg)
    }

    #[test]
    fn cost_planning_stays_identical_under_churn() {
        let (syms, grounder, mut dg) = build_cost(TRAFFIC);
        let mut live: Vec<GroundAtom> = Vec::new();
        for round in 0..12i64 {
            // Skew hard: many speed readings, one car count.
            let mut f: Vec<GroundAtom> =
                (0..20).map(|i| atom(&syms, "average_speed", &[round * 20 + i, 5])).collect();
            f.push(atom(&syms, "car_number", &[round * 20, 50]));
            dg.apply(&f, &live).unwrap();
            live = f;
            assert_matches_scratch(&syms, &grounder, &dg, &live);
        }
        let (replans, _reordered, generation) = dg.planner_counters().unwrap();
        assert!(replans >= 1, "a 20x-skewed stream must drift at least once");
        assert!(
            replans <= generation,
            "at most one rebuild per generation bump: {replans} replans, gen {generation}"
        );
    }

    #[test]
    fn replans_are_bounded_by_stats_drift() {
        let (syms, _g, mut dg) = build_cost(TRAFFIC);
        let f: Vec<GroundAtom> =
            (0..100i64).map(|i| atom(&syms, "average_speed", &[i, 5])).collect();
        dg.apply(&f, &[]).unwrap();
        dg.apply(&[], &[]).unwrap(); // pick up the growth's generation bump
        let (replans, ..) = dg.planner_counters().unwrap();
        for _ in 0..10 {
            dg.apply(&[], &[]).unwrap();
        }
        let (replans_after, ..) = dg.planner_counters().unwrap();
        assert_eq!(replans, replans_after, "stable windows must not replan");
        assert!(dg.cost_planning());
        let (_, _, dg_off) = build(TRAFFIC);
        assert!(dg_off.planner_counters().is_none(), "counters are omitted when off");
    }

    #[test]
    fn constraints_fire_and_retract() {
        let src = "p(X) :- q(X). :- p(X), bad(X).";
        let (syms, grounder, mut dg) = build(src);
        let facts = vec![atom(&syms, "q", &[1]), atom(&syms, "bad", &[1])];
        dg.apply(&facts, &[]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &facts);
        dg.apply(&[], &facts[1..]).unwrap();
        assert_matches_scratch(&syms, &grounder, &dg, &facts[..1]);
    }
}
