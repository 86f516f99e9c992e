//! The instantiation engine: component-ordered semi-naive evaluation
//! producing proto rules, following the two-phase grounding architecture of
//! DLV/clingo that the paper's reasoner relies on. The same evaluation, run
//! in model mode, computes the perfect model of a stratified program
//! directly ([`Grounder::perfect_model`]).

use crate::compile::{compare, compile_rule, make_plan, CAtom, CLit, CompiledRule, Source, Step};
use crate::planner::match_signature;
use crate::relation::Relation;
use crate::simplify::{finalize, ProtoRule};
use crate::stats::RelationStats;
use asp_core::{
    AspError, FastMap, FastSet, GroundAtom, GroundProgram, GroundTerm, Predicate, Program, Sym,
    Symbols,
};
use sr_graph::{scc_ids, DiGraph};
use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

/// Prefix marking internal complement atoms generated for choice heads.
pub const CHOICE_COMPLEMENT_PREFIX: &str = "\u{2}not_";

/// A reusable grounder: rule compilation, dependency components and plan
/// variants are computed once (design time); [`Grounder::ground`] then
/// instantiates per input window (run time).
#[derive(Debug)]
pub struct Grounder {
    pub(crate) syms: Symbols,
    pub(crate) compiled: Vec<CompiledRule>,
    components: Vec<Component>,
    constraint_ids: Vec<usize>,
    /// See [`Grounder::is_stratified`].
    stratified: bool,
    /// Cost-based plan cache, present when cost planning is enabled. Behind
    /// a mutex because grounding runs through `&self` (the grounder is
    /// shared via `Arc` across lanes); contention is negligible — the lock
    /// is taken once per `ground` call.
    planner: Option<Mutex<PlanCache>>,
}

#[derive(Debug)]
struct Component {
    preds: FastSet<Predicate>,
    rules: Vec<CompRule>,
}

#[derive(Debug)]
struct CompRule {
    compiled_idx: usize,
    round0: Vec<Step>,
    /// Body indexes of the recursive positive literals, aligned with
    /// `deltas` (kept so replanning can rebuild each delta variant).
    rec_lits: Vec<usize>,
    /// One delta plan per recursive positive literal.
    deltas: Vec<Vec<Step>>,
}

/// Replacement plans for one rule: its `round0` plan plus one delta plan per
/// recursive positive literal (aligned with `CompRule::rec_lits`).
type RulePlans = (Vec<Step>, Vec<Vec<Step>>);

/// Cost-planned alternatives to the syntactic plans, cached per stats
/// generation: `components[ci][ri]` holds the replacement `(round0, deltas)`
/// for `Grounder::components[ci].rules[ri]`, `constraints[k]` the plan for
/// `constraint_ids[k]`. Rebuilt lazily when the stats generation moves —
/// windows with stable cardinalities reuse plans without any planning work.
#[derive(Debug, Default)]
struct PlanCache {
    stats: RelationStats,
    /// Stats generation the cached plans were built against; `None` until
    /// the first replan.
    planned_gen: Option<u64>,
    components: Vec<Vec<RulePlans>>,
    constraints: Vec<Vec<Step>>,
    /// Total plan rebuilds (bounded by generation bumps, not by windows).
    replans: u64,
    /// Cumulative count of rebuilt plans whose relation-visit order differs
    /// from the syntactic heuristic's choice.
    reordered: u64,
}

/// Retags `Match` sources for steps over a component's own predicates:
/// recursive predicates read `Live` (everything derived so far), and the
/// designated first literal of a semi-naive delta plan reads `Delta`.
fn retag_plan(mut plan: Vec<Step>, preds: &FastSet<Predicate>, delta_first: bool) -> Vec<Step> {
    for (si, step) in plan.iter_mut().enumerate() {
        if let Step::Match { atom, source, .. } = step {
            if preds.contains(&atom.pred) {
                *source = if delta_first && si == 0 { Source::Delta } else { Source::Live };
            }
        }
    }
    plan
}

impl Grounder {
    /// Compiles `program`, checking safety of every rule.
    pub fn new(syms: &Symbols, program: &Program) -> Result<Self, AspError> {
        let mut compiled = Vec::with_capacity(program.rules.len());
        for (i, rule) in program.rules.iter().enumerate() {
            compiled.push(compile_rule(syms, rule, i)?);
        }

        // Predicate dependency graph: positive body -> head; heads of one
        // multi-head rule are tied together so they land in one SCC and get
        // instantiated jointly.
        let mut pred_ids: FastMap<Predicate, usize> = FastMap::default();
        let mut preds: Vec<Predicate> = Vec::new();
        let id_of =
            |p: Predicate, pred_ids: &mut FastMap<Predicate, usize>, preds: &mut Vec<Predicate>| {
                *pred_ids.entry(p).or_insert_with(|| {
                    preds.push(p);
                    preds.len() - 1
                })
            };
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for c in &compiled {
            let head_ids: Vec<usize> =
                c.heads.iter().map(|h| id_of(h.pred, &mut pred_ids, &mut preds)).collect();
            for w in head_ids.windows(2) {
                edges.push((w[0], w[1]));
                edges.push((w[1], w[0]));
            }
            for lit in &c.body {
                if let CLit::Pos(a) = lit {
                    let b = id_of(a.pred, &mut pred_ids, &mut preds);
                    for &h in &head_ids {
                        edges.push((b, h));
                    }
                }
                if let CLit::Neg(a) = lit {
                    // Negative edges also order components (the negated
                    // relation should be final before simplification), and
                    // they are harmless for the fixpoint.
                    let b = id_of(a.pred, &mut pred_ids, &mut preds);
                    for &h in &head_ids {
                        edges.push((b, h));
                    }
                }
            }
        }
        let mut graph = DiGraph::new(preds.len());
        for (u, v) in edges {
            graph.add_edge(u, v);
        }
        let scc_of = scc_ids(&graph);
        let scc_count = scc_of.iter().copied().max().map_or(0, |m| m + 1);

        let mut components: Vec<Component> = (0..scc_count)
            .map(|_| Component { preds: FastSet::default(), rules: Vec::new() })
            .collect();
        for (pid, &scc) in scc_of.iter().enumerate() {
            components[scc].preds.insert(preds[pid]);
        }

        // One answer set per window iff no rule can branch (choice or
        // disjunction) and every negated predicate lies in a component
        // strictly below its head's, so it is final before the head reads it.
        let stratified = compiled.iter().all(|c| {
            !c.choice
                && c.heads.len() <= 1
                && c.heads.first().is_none_or(|h| {
                    let scc = scc_of[pred_ids[&h.pred]];
                    c.body
                        .iter()
                        .all(|l| !matches!(l, CLit::Neg(a) if scc_of[pred_ids[&a.pred]] == scc))
                })
        });

        let mut constraint_ids = Vec::new();
        for (idx, c) in compiled.iter().enumerate() {
            if c.heads.is_empty() {
                constraint_ids.push(idx);
                continue;
            }
            let scc = scc_of[pred_ids[&c.heads[0].pred]];
            let comp = &mut components[scc];
            let is_rec = |p: Predicate| comp.preds.contains(&p);
            let rec_lits = c.recursive_literals(is_rec);
            let round0 = retag_plan(c.plan.clone(), &comp.preds, false);
            let mut deltas = Vec::with_capacity(rec_lits.len());
            for &lit in &rec_lits {
                let plan = make_plan(&c.body, c.var_count, Some(lit)).map_err(|slot| {
                    AspError::UnsafeRule {
                        rule: format!("rule #{}", c.rule_idx),
                        variable: syms.resolve(c.var_names[slot as usize]).to_string(),
                    }
                })?;
                deltas.push(retag_plan(plan, &comp.preds, true));
            }
            comp.rules.push(CompRule { compiled_idx: idx, round0, rec_lits, deltas });
        }

        Ok(Grounder {
            syms: syms.clone(),
            compiled,
            components,
            constraint_ids,
            stratified,
            planner: None,
        })
    }

    /// True when every window has at most one answer set, its perfect
    /// model, so [`Grounder::perfect_model`] applies: no choice rule, no
    /// disjunctive head, and no default-negated body predicate in its head's
    /// own dependency component (positive recursion is fine). Programs
    /// failing this need [`Grounder::ground`] plus a stable-model solver.
    pub fn is_stratified(&self) -> bool {
        self.stratified
    }

    /// Enables or disables cost-based join planning for scratch grounding.
    /// Must be called before the grounder is shared (`&mut self`); when
    /// enabled, each `ground` call rebases relation statistics from the fact
    /// window and lazily rebuilds plans when the stats generation moves.
    pub fn set_cost_planning(&mut self, enabled: bool) {
        if enabled == self.planner.is_some() {
            return;
        }
        self.planner = enabled.then(|| Mutex::new(PlanCache::default()));
    }

    /// True when cost-based join planning is enabled.
    pub fn cost_planning(&self) -> bool {
        self.planner.is_some()
    }

    /// Planner counters `(replans, plans_reordered, stats_generation)`;
    /// `None` when cost planning is off — callers must omit, never
    /// fabricate, the metrics in that case.
    pub fn planner_counters(&self) -> Option<(u64, u64, u64)> {
        self.planner.as_ref().map(|m| {
            let c = m.lock().unwrap_or_else(PoisonError::into_inner);
            (c.replans, c.reordered, c.stats.generation())
        })
    }

    /// Rebuilds every cached plan against the current statistics, falling
    /// back to the syntactic plan for any body the planner rejects (which
    /// cannot happen for rules that compiled — safety is order-independent —
    /// but is cheap insurance).
    fn replan(&self, cache: &mut PlanCache) {
        cache.replans += 1;
        cache.planned_gen = Some(cache.stats.generation());
        cache.components.clear();
        cache.constraints.clear();
        for comp in &self.components {
            let mut rules = Vec::with_capacity(comp.rules.len());
            for cr in &comp.rules {
                let c = &self.compiled[cr.compiled_idx];
                let round0 = match crate::planner::plan(&c.body, c.var_count, None, &cache.stats) {
                    Ok(p) => retag_plan(p, &comp.preds, false),
                    Err(_) => cr.round0.clone(),
                };
                if match_signature(&round0) != match_signature(&cr.round0) {
                    cache.reordered += 1;
                }
                let mut deltas = Vec::with_capacity(cr.deltas.len());
                for (k, &lit) in cr.rec_lits.iter().enumerate() {
                    let d =
                        match crate::planner::plan(&c.body, c.var_count, Some(lit), &cache.stats) {
                            Ok(p) => retag_plan(p, &comp.preds, true),
                            Err(_) => cr.deltas[k].clone(),
                        };
                    if match_signature(&d) != match_signature(&cr.deltas[k]) {
                        cache.reordered += 1;
                    }
                    deltas.push(d);
                }
                rules.push((round0, deltas));
            }
            cache.components.push(rules);
        }
        for &cidx in &self.constraint_ids {
            let c = &self.compiled[cidx];
            let p = match crate::planner::plan(&c.body, c.var_count, None, &cache.stats) {
                Ok(p) => p,
                Err(_) => c.plan.clone(),
            };
            if match_signature(&p) != match_signature(&c.plan) {
                cache.reordered += 1;
            }
            cache.constraints.push(p);
        }
    }

    /// Instantiates the program against `facts` (the input window plus any
    /// extensional data), producing a simplified ground program.
    pub fn ground(&self, facts: &[GroundAtom]) -> Result<GroundProgram, AspError> {
        let Evaluated { relations, proto, .. } = self.evaluate(facts.to_vec(), Mode::Ground)?;
        Ok(finalize(&relations, proto))
    }

    /// The unique answer set of a stratified program over `facts` — `None`
    /// when a constraint fires or an atom holds together with its strong
    /// negation (unsatisfiable). Internal predicates are left out, as the
    /// solver leaves them out of its answer sets.
    ///
    /// Components are evaluated bottom-up, each to its semi-naive fixpoint,
    /// with default negation tested against the already-final lower
    /// components: the least-fixed-point (perfect model) reading of a
    /// stratified program. No proto rules, simplification, completion
    /// clauses or CDCL search are involved; the result equals solving
    /// [`Grounder::ground`]'s program. Fails when the program is not
    /// [stratified](Grounder::is_stratified).
    ///
    /// Given the facts by value (a `Vec`), each fact's argument box moves
    /// into its relation and from there into the model; a borrowed slice is
    /// copied once first.
    pub fn perfect_model<'f>(
        &self,
        facts: impl Into<Cow<'f, [GroundAtom]>>,
    ) -> Result<Option<Vec<GroundAtom>>, AspError> {
        if !self.stratified {
            return Err(AspError::Internal(
                "perfect-model evaluation needs a stratified program without choice or \
                 disjunction"
                    .into(),
            ));
        }
        let Evaluated { relations, violated, .. } =
            self.evaluate(facts.into().into_owned(), Mode::Model)?;
        if violated {
            return Ok(None);
        }
        // `p` and `-p` together: the constraint `ground` would emit fires.
        for (pred, rel) in relations.iter().filter(|(p, _)| p.strong_neg) {
            let twin = Predicate { strong_neg: false, ..*pred };
            if relations.get(&twin).is_some_and(|pos| rel.tuples().iter().any(|t| pos.contains(t)))
            {
                return Ok(None);
            }
        }
        let mut model = Vec::with_capacity(relations.values().map(Relation::len).sum());
        for (pred, rel) in relations {
            if is_internal_predicate(&self.syms, pred.name) {
                continue;
            }
            model.extend(rel.into_tuples().into_iter().map(|args| GroundAtom {
                pred: pred.name,
                args,
                strong_neg: pred.strong_neg,
            }));
        }
        Ok(Some(model))
    }

    /// The evaluation `ground` and `perfect_model` share: rebase the cost
    /// planner, load the facts, run every component to its fixpoint
    /// (bodies before heads), then the integrity constraints.
    fn evaluate(&self, facts: Vec<GroundAtom>, mode: Mode) -> Result<Evaluated, AspError> {
        // Cost planning: rebase the statistics from this window's facts and
        // rebuild plans only when the generation moved (drift hysteresis in
        // `RelationStats` bounds the replan rate).
        let mut guard =
            self.planner.as_ref().map(|m| m.lock().unwrap_or_else(PoisonError::into_inner));
        if let Some(cache) = guard.as_deref_mut() {
            cache.stats.rebase(&facts);
            if cache.planned_gen != Some(cache.stats.generation()) {
                let _span = sr_obs::span(sr_obs::Stage::Plan);
                self.replan(cache);
            }
        }
        let planned = guard.as_deref();

        let mut ev = Eval {
            g: self,
            planned,
            mode,
            relations: FastMap::default(),
            proto: Vec::new(),
            violated: false,
            seen: FastSet::default(),
            delta: FastMap::default(),
            trail: Vec::new(),
            keys: Vec::new(),
            args: Vec::new(),
        };

        for f in facts {
            let rel = ev.relations.entry(f.predicate()).or_default();
            if let Some(id) = rel.insert(f.args) {
                if mode == Mode::Ground {
                    let fact = GroundAtom { args: rel.tuple(id).into(), ..f };
                    ev.proto.push(ProtoRule {
                        heads: vec![fact],
                        pos: Vec::new(),
                        neg: Vec::new(),
                    });
                }
            }
        }

        // Tarjan emits SCCs in reverse topological order (an edge body->head
        // puts the head's component first), so evaluate back-to-front: body
        // components before the components that consume them.
        for ci in (0..self.components.len()).rev() {
            ev.fixpoint(ci)?;
        }

        for (k, &cidx) in self.constraint_ids.iter().enumerate() {
            if ev.violated {
                break;
            }
            let rule = &self.compiled[cidx];
            let plan = planned.map_or(&rule.plan, |c| &c.constraints[k]);
            ev.eval_rule(rule, plan, cidx)?;
        }

        if mode == Mode::Ground {
            ev.strong_negation_constraints();
        }

        let Eval { relations, proto, violated, .. } = ev;
        Ok(Evaluated { relations, proto, violated })
    }

    /// The symbol store the grounder was built with.
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }
}

/// Convenience: compile and ground in one call.
pub fn ground_program(
    syms: &Symbols,
    program: &Program,
    facts: &[GroundAtom],
) -> Result<GroundProgram, AspError> {
    Grounder::new(syms, program)?.ground(facts)
}

/// What [`Eval`] computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// The possible set plus one proto rule per rule instance: default
    /// negation never blocks, simplification resolves it afterwards.
    Ground,
    /// The perfect model of a stratified program: default negation is
    /// tested against the final lower components, a rule instance only adds
    /// its head, and a matching constraint makes the window unsatisfiable.
    Model,
}

/// What one [`Eval`] run leaves behind.
struct Evaluated {
    /// Every derived relation: the possible set ([`Mode::Ground`]) or the
    /// model ([`Mode::Model`]).
    relations: FastMap<Predicate, Relation>,
    /// The proto rules ([`Mode::Ground`] only).
    proto: Vec<ProtoRule>,
    /// A constraint matched ([`Mode::Model`] only).
    violated: bool,
}

struct Eval<'g, 'p> {
    g: &'g Grounder,
    /// Cost-planned plan overrides, present when cost planning is enabled;
    /// indexes mirror the grounder's component / constraint layout.
    planned: Option<&'p PlanCache>,
    mode: Mode,
    relations: FastMap<Predicate, Relation>,
    proto: Vec<ProtoRule>,
    violated: bool,
    /// Instance dedup: (compiled rule index, full variable bindings).
    seen: FastSet<(u32, Box<[GroundTerm]>)>,
    delta: FastMap<Predicate, (u32, u32)>,
    trail: Vec<u32>,
    /// The bound values of every `Match` step on the current plan path,
    /// stacked: each step pushes its probe key and pops it when done.
    keys: Vec<GroundTerm>,
    /// Scratch for one atom's arguments (`NegCheck` tests, model-mode heads).
    args: Vec<GroundTerm>,
}

impl Eval<'_, '_> {
    fn fixpoint(&mut self, ci: usize) -> Result<(), AspError> {
        let comp = &self.g.components[ci];
        if comp.rules.is_empty() {
            return Ok(());
        }
        // Lengths before round 0: the delta for round 1 is what round 0 adds.
        let mut prev_len: FastMap<Predicate, u32> = FastMap::default();
        for p in &comp.preds {
            prev_len.insert(*p, self.relations.get(p).map_or(0, |r| r.len() as u32));
        }
        for (ri, cr) in comp.rules.iter().enumerate() {
            let rule = &self.g.compiled[cr.compiled_idx];
            let plan = self.planned.map_or(&cr.round0, |c| &c.components[ci][ri].0);
            self.eval_rule(rule, plan, cr.compiled_idx)?;
        }
        loop {
            // Compute deltas: tuples added since `prev_len`.
            let mut any = false;
            self.delta.clear();
            for p in &comp.preds {
                let cur = self.relations.get(p).map_or(0, |r| r.len() as u32);
                let lo = prev_len[p];
                if cur > lo {
                    any = true;
                }
                self.delta.insert(*p, (lo, cur));
                prev_len.insert(*p, cur);
            }
            if !any {
                break;
            }
            for (ri, cr) in comp.rules.iter().enumerate() {
                if cr.deltas.is_empty() {
                    continue;
                }
                let rule = &self.g.compiled[cr.compiled_idx];
                let deltas = self.planned.map_or(&cr.deltas, |c| &c.components[ci][ri].1);
                for dplan in deltas {
                    self.eval_rule(rule, dplan, cr.compiled_idx)?;
                }
            }
        }
        self.delta.clear();
        Ok(())
    }

    fn eval_rule(
        &mut self,
        rule: &CompiledRule,
        plan: &[Step],
        key: usize,
    ) -> Result<(), AspError> {
        let mut subst: Vec<Option<GroundTerm>> = vec![None; rule.var_count as usize];
        self.step(rule, plan, 0, &mut subst, key as u32)
    }

    // Both modes walk plans here; they differ only at `NegCheck` (blocks
    // in `Mode::Model`) and at `emit`.
    fn step(
        &mut self,
        rule: &CompiledRule,
        plan: &[Step],
        idx: usize,
        subst: &mut [Option<GroundTerm>],
        key: u32,
    ) -> Result<(), AspError> {
        let Some(step) = plan.get(idx) else {
            return self.emit(rule, subst, key);
        };
        match step {
            Step::Match { atom, static_bound, source } => {
                let base = self.keys.len();
                let mut pattern = 0u64;
                for (i, (arg, b)) in atom.args.iter().zip(static_bound.iter()).enumerate() {
                    if *b && i < 64 {
                        pattern |= 1 << i;
                        self.keys.push(arg.eval(subst)?);
                    }
                }
                let (lo, hi) = self.range(atom.pred, *source);
                let rel = self.relations.entry(atom.pred).or_default();
                let mut probe = rel.probe(pattern, &self.keys[base..], lo, hi);
                let mark = self.trail.len();
                loop {
                    // Unify against the stored tuple in place; the borrow
                    // ends before the recursive step, which may insert into
                    // this very relation (the probe ignores such tuples).
                    let rel = &self.relations[&atom.pred];
                    let mut matched = false;
                    while let Some(c) = rel.advance(&mut probe, &self.keys[base..]) {
                        if unify_args(&atom.args, rel.tuple(c), subst, &mut self.trail)? {
                            matched = true;
                            break;
                        }
                        undo(subst, &mut self.trail, mark);
                    }
                    if !matched {
                        break;
                    }
                    self.step(rule, plan, idx + 1, subst, key)?;
                    undo(subst, &mut self.trail, mark);
                }
                self.keys.truncate(base);
                Ok(())
            }
            Step::Compare { lhs, op, rhs } => {
                let l = lhs.eval(subst)?;
                let r = rhs.eval(subst)?;
                if compare(&l, *op, &r)? {
                    self.step(rule, plan, idx + 1, subst, key)
                } else {
                    Ok(())
                }
            }
            Step::Bind { slot, expr } => {
                let v = expr.eval(subst)?;
                subst[*slot as usize] = Some(v);
                let result = self.step(rule, plan, idx + 1, subst, key);
                subst[*slot as usize] = None;
                result
            }
            Step::NegCheck { atom } => {
                // Ground mode over-approximates the possible set: default
                // negation never blocks, simplification handles it. In model
                // mode the negated predicate lies in a lower, already final
                // component, so the test is exact.
                if self.mode == Mode::Model {
                    eval_args(&atom.args, subst, &mut self.args)?;
                    if self.relations.get(&atom.pred).is_some_and(|r| r.contains(&self.args)) {
                        return Ok(());
                    }
                }
                self.step(rule, plan, idx + 1, subst, key)
            }
        }
    }

    fn range(&self, pred: Predicate, source: Source) -> (u32, u32) {
        match source {
            Source::Delta => self.delta.get(&pred).copied().unwrap_or((0, 0)),
            Source::Full | Source::Live => {
                (0, self.relations.get(&pred).map_or(0, |r| r.len() as u32))
            }
        }
    }

    fn emit(
        &mut self,
        rule: &CompiledRule,
        subst: &mut [Option<GroundTerm>],
        key: u32,
    ) -> Result<(), AspError> {
        if self.mode == Mode::Model {
            // The body holds in the model: a constraint is violated, a rule
            // derives its (single) head. The relation deduplicates.
            if rule.heads.is_empty() {
                self.violated = true;
            }
            for h in &rule.heads {
                eval_args(&h.args, subst, &mut self.args)?;
                self.relations.entry(h.pred).or_default().insert_slice(&self.args);
            }
            return Ok(());
        }
        let bindings: Box<[GroundTerm]> =
            subst.iter().map(|s| s.clone().unwrap_or(GroundTerm::Int(i64::MIN))).collect();
        if !self.seen.insert((key, bindings)) {
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

        if rule.choice {
            for h in &heads {
                let comp = self.complement(h);
                self.insert_possible(h);
                self.insert_possible(&comp);
                let mut pos_a = pos.clone();
                let mut neg_a = neg.clone();
                neg_a.push(comp.clone());
                pos_a.shrink_to_fit();
                self.proto.push(ProtoRule { heads: vec![h.clone()], pos: pos_a, neg: neg_a });
                let mut neg_b = neg.clone();
                neg_b.push(h.clone());
                self.proto.push(ProtoRule { heads: vec![comp], pos: pos.clone(), neg: neg_b });
            }
        } else {
            for h in &heads {
                self.insert_possible(h);
            }
            self.proto.push(ProtoRule { heads, pos, neg });
        }
        Ok(())
    }

    fn insert_possible(&mut self, atom: &GroundAtom) {
        self.relations.entry(atom.predicate()).or_default().insert_slice(&atom.args);
    }

    fn complement(&self, atom: &GroundAtom) -> GroundAtom {
        let name = self.g.syms.resolve(atom.pred);
        let comp_name = format!("{CHOICE_COMPLEMENT_PREFIX}{name}");
        GroundAtom {
            pred: self.g.syms.intern(&comp_name),
            args: atom.args.clone(),
            strong_neg: atom.strong_neg,
        }
    }

    fn strong_negation_constraints(&mut self) {
        let strong_preds: Vec<Predicate> =
            self.relations.keys().filter(|p| p.strong_neg).copied().collect();
        for sp in strong_preds {
            let twin = Predicate { strong_neg: false, ..sp };
            let Some(pos_rel) = self.relations.get(&twin) else { continue };
            let tuples: Vec<Box<[GroundTerm]>> = self.relations[&sp]
                .tuples()
                .iter()
                .filter(|t| pos_rel.contains(t))
                .cloned()
                .collect();
            for t in tuples {
                let neg_atom = GroundAtom { pred: sp.name, args: t.clone(), strong_neg: true };
                let pos_atom = GroundAtom { pred: sp.name, args: t, strong_neg: false };
                self.proto.push(ProtoRule {
                    heads: Vec::new(),
                    pos: vec![neg_atom, pos_atom],
                    neg: Vec::new(),
                });
            }
        }
    }
}

/// Evaluates a compiled atom's argument terms into `out`.
fn eval_args(
    args: &[crate::compile::CTerm],
    subst: &[Option<GroundTerm>],
    out: &mut Vec<GroundTerm>,
) -> Result<(), AspError> {
    out.clear();
    for t in args {
        out.push(t.eval(subst)?);
    }
    Ok(())
}

/// Unbinds every variable bound since the trail was `mark` long.
fn undo(subst: &mut [Option<GroundTerm>], trail: &mut Vec<u32>, mark: usize) {
    for slot in trail.drain(mark..) {
        subst[slot as usize] = None;
    }
}

/// Unifies a compiled atom's argument terms against a ground tuple, binding
/// variables into `subst` and recording every fresh binding on `trail` (so
/// the caller can backtrack).
fn unify_args(
    args: &[crate::compile::CTerm],
    tuple: &[GroundTerm],
    subst: &mut [Option<GroundTerm>],
    trail: &mut Vec<u32>,
) -> Result<bool, AspError> {
    debug_assert_eq!(args.len(), tuple.len());
    for (a, g) in args.iter().zip(tuple.iter()) {
        if !unify(a, g, subst, trail)? {
            return Ok(false);
        }
    }
    Ok(true)
}

pub(crate) fn unify(
    t: &crate::compile::CTerm,
    g: &GroundTerm,
    subst: &mut [Option<GroundTerm>],
    trail: &mut Vec<u32>,
) -> Result<bool, AspError> {
    use crate::compile::CTerm;
    match t {
        CTerm::Const(s) => Ok(matches!(g, GroundTerm::Const(gs) if gs == s)),
        CTerm::Int(i) => Ok(matches!(g, GroundTerm::Int(gi) if gi == i)),
        CTerm::Var(slot) => {
            let si = *slot as usize;
            match &subst[si] {
                Some(v) => Ok(v == g),
                None => {
                    subst[si] = Some(g.clone());
                    trail.push(*slot);
                    Ok(true)
                }
            }
        }
        CTerm::Func(f, fargs) => match g {
            GroundTerm::Func(gf, gargs) if gf == f && gargs.len() == fargs.len() => {
                for (a, ga) in fargs.iter().zip(gargs.iter()) {
                    if !unify(a, ga, subst, trail)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        CTerm::BinOp(..) => {
            let v = t.eval(subst)?;
            Ok(v == *g)
        }
    }
}

/// Returns true when `sym` names an internal (generated) predicate that
/// should not surface in answer sets.
pub fn is_internal_predicate(syms: &Symbols, sym: Sym) -> bool {
    syms.resolve(sym).starts_with('\u{2}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_parser::parse_program;

    // Recursion + a wide constraint body, so replanning exercises round0,
    // delta and constraint plans alike.
    const REACH: &str = r#"
        reach(X,Y) :- edge(X,Y).
        reach(X,Z) :- reach(X,Y), edge(Y,Z).
        alarm(X) :- watch(X), reach(X,Y), bad(Y).
        :- alarm(X), muted(X).
    "#;

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");
    const LARGE_TRAFFIC: &str = include_str!("../../../assets/large_traffic.lp");

    fn grounder(syms: &Symbols, src: &str) -> Grounder {
        Grounder::new(syms, &parse_program(syms, src).unwrap()).unwrap()
    }

    fn facts(syms: &Symbols, n: i64) -> Vec<GroundAtom> {
        let mk = |name: &str, args: &[i64]| {
            GroundAtom::new(syms.intern(name), args.iter().map(|&a| GroundTerm::Int(a)).collect())
        };
        let mut out: Vec<GroundAtom> = (0..n).map(|i| mk("edge", &[i, i + 1])).collect();
        out.push(mk("watch", &[0]));
        out.push(mk("bad", &[n]));
        out
    }

    #[test]
    fn cost_planning_scratch_output_is_identical() {
        let syms = Symbols::new();
        let program = parse_program(&syms, REACH).unwrap();
        let baseline = Grounder::new(&syms, &program).unwrap();
        let mut planned = Grounder::new(&syms, &program).unwrap();
        planned.set_cost_planning(true);
        assert!(planned.cost_planning());
        assert!(baseline.planner_counters().is_none(), "counters omitted when off");
        for n in [3i64, 30] {
            let w = facts(&syms, n);
            assert_eq!(
                planned.ground(&w).unwrap().canonical_form(&syms),
                baseline.ground(&w).unwrap().canonical_form(&syms),
                "cost planning changed the derived set at n={n}"
            );
        }
    }

    #[test]
    fn scratch_replans_once_per_generation() {
        let syms = Symbols::new();
        let program = parse_program(&syms, REACH).unwrap();
        let mut g = Grounder::new(&syms, &program).unwrap();
        g.set_cost_planning(true);
        let w = facts(&syms, 30);
        g.ground(&w).unwrap();
        let (replans, _, generation) = g.planner_counters().unwrap();
        assert_eq!(replans, 1, "the first window plans exactly once");
        for _ in 0..5 {
            g.ground(&w).unwrap();
        }
        let (replans_after, _, gen_after) = g.planner_counters().unwrap();
        assert_eq!(replans_after, 1, "identical windows must reuse cached plans");
        assert_eq!(gen_after, generation);
        // A very different window drifts and replans once more.
        g.ground(&facts(&syms, 300)).unwrap();
        let (replans_grown, ..) = g.planner_counters().unwrap();
        assert_eq!(replans_grown, 2);
    }

    #[test]
    fn only_branching_programs_miss_the_perfect_model_path() {
        let syms = Symbols::new();
        for src in ["{a}.", "a | b.", "a :- not b. b :- not a."] {
            assert!(!grounder(&syms, src).is_stratified(), "{src}");
        }
        let negation_below = "q(X) :- r(X), not p(X). p(X) :- s(X).";
        for src in [PROGRAM_P, LARGE_TRAFFIC, REACH, negation_below] {
            assert!(grounder(&syms, src).is_stratified(), "{src}");
        }
    }

    #[test]
    fn stratified_agrees_with_the_analysis_on_every_asset() {
        use crate::analysis::grounding_bounds;
        use asp_core::Head;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|x| x != "lp") {
                continue;
            }
            let syms = Symbols::new();
            let program = parse_program(&syms, &std::fs::read_to_string(&path).unwrap()).unwrap();
            let no_branching = program.rules.iter().all(|r| match &r.head {
                Head::Choice(_) => false,
                Head::Disjunction(atoms) => atoms.len() <= 1,
            });
            let analysis = grounding_bounds(&syms, &program, 64, &|_| Some(64));
            assert_eq!(
                Grounder::new(&syms, &program).unwrap().is_stratified(),
                analysis.stratified && no_branching,
                "{}",
                path.display()
            );
            checked += 1;
        }
        assert!(checked > 0, "no assets/*.lp found under {dir}");
    }

    fn model(syms: &Symbols, g: &Grounder, facts: &[GroundAtom]) -> Option<Vec<String>> {
        let atoms = g.perfect_model(facts).unwrap()?;
        let mut rendered: Vec<String> = atoms.iter().map(|a| a.display(syms).to_string()).collect();
        rendered.sort();
        Some(rendered)
    }

    #[test]
    fn perfect_model_negates_against_the_final_lower_stratum() {
        let syms = Symbols::new();
        let g = grounder(&syms, "q(X) :- r(X), not p(X). p(X) :- s(X).");
        let int = |name: &str, i: i64| GroundAtom::new(syms.intern(name), vec![GroundTerm::Int(i)]);
        // q's rule comes first in the source: only component order makes
        // p final before q negates it.
        let facts = [int("r", 1), int("r", 2), int("s", 1)];
        assert_eq!(
            model(&syms, &g, &facts).unwrap(),
            ["p(1)", "q(2)", "r(1)", "r(2)", "s(1)"].map(String::from)
        );
    }

    #[test]
    fn perfect_model_closes_positive_recursion_and_checks_constraints() {
        let syms = Symbols::new();
        let g = grounder(&syms, REACH);
        let reach = model(&syms, &g, &facts(&syms, 3)).unwrap();
        assert!(reach.contains(&"reach(0,3)".to_string()), "{reach:?}");
        assert!(reach.contains(&"alarm(0)".to_string()), "{reach:?}");
        let mut muted = facts(&syms, 3);
        muted.push(GroundAtom::new(syms.intern("muted"), vec![GroundTerm::Int(0)]));
        assert_eq!(model(&syms, &g, &muted), None, "`:- alarm(X), muted(X).` fires");
    }

    #[test]
    fn perfect_model_rejects_strong_negation_conflicts_and_unstratified_programs() {
        let syms = Symbols::new();
        let g = grounder(&syms, "ok(X) :- sensor(X), not -sensor(X).");
        let pos = GroundAtom::new(syms.intern("sensor"), vec![GroundTerm::Int(1)]);
        let neg = GroundAtom { strong_neg: true, ..pos.clone() };
        assert_eq!(model(&syms, &g, std::slice::from_ref(&pos)).unwrap(), ["ok(1)", "sensor(1)"]);
        assert_eq!(model(&syms, &g, &[pos, neg]), None);
        let cycle = grounder(&syms, "a :- not b. b :- not a.");
        assert!(cycle.perfect_model(&[]).is_err(), "a negative cycle has no perfect model");
    }
}
