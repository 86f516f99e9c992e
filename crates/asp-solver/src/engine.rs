//! The CDCL search engine: two-watched-literal propagation, 1UIP conflict
//! analysis with clause learning, VSIDS-style decision heuristic with phase
//! saving, Luby restarts and LBD-based clause-DB reduction.
//!
//! The engine is a plain SAT core; answer-set semantics (completion input,
//! stability checks, model enumeration) live in the crate facade.

use crate::clause::{ClauseDb, ClauseRef, Watcher};
use crate::heap::VarOrder;
use crate::lit::{LBool, Lit, Var};

/// Activity decay factor per conflict (MiniSat-era folklore).
const VAR_DECAY: f64 = 0.95;
/// Growth factor of the learnt budget after each reduction.
const LEARNT_LIMIT_GROWTH: f64 = 1.3;

/// Tunables for the engine. Defaults follow MiniSat-era folklore. The search
/// is deterministic: decisions take the saved phase, never a random one.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Conflicts per Luby restart unit.
    pub restart_base: u64,
    /// Initial learnt-clause budget before reduction kicks in.
    pub learnt_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { restart_base: 128, learnt_limit: 4000 }
    }
}

/// Search counters reported to callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by reductions.
    pub deleted_clauses: u64,
}

/// Outcome of [`Engine::run_until_model`].
#[derive(Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A total assignment satisfying all clauses was found (read it via
    /// [`Engine::value`]).
    Model,
    /// The clause set is exhausted — no (further) model exists.
    Exhausted,
}

/// The CDCL engine.
#[derive(Debug)]
pub struct Engine {
    n_vars: usize,
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    db: ClauseDb,
    activity: Vec<f64>,
    act_inc: f64,
    order: VarOrder,
    polarity: Vec<bool>,
    seen: Vec<bool>,
    cfg: EngineConfig,
    learnt_limit: usize,
    conflicts_since_restart: u64,
    restart_count: u64,
    /// False once the clause set is known unsatisfiable at level 0.
    ok: bool,
    /// Search statistics.
    pub stats: EngineStats,
}

impl Engine {
    /// A fresh engine over `n_vars` variables.
    pub fn new(n_vars: usize, cfg: EngineConfig) -> Self {
        let mut order = VarOrder::new(n_vars);
        let activity = vec![0.0; n_vars];
        for v in 0..n_vars {
            order.insert(Var(v as u32), &activity);
        }
        Engine {
            n_vars,
            values: vec![LBool::Undef; n_vars],
            level: vec![0; n_vars],
            reason: vec![ClauseRef::NONE; n_vars],
            trail: Vec::with_capacity(n_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            db: ClauseDb::new(n_vars),
            activity,
            act_inc: 1.0,
            order,
            polarity: vec![false; n_vars],
            seen: vec![false; n_vars],
            learnt_limit: cfg.learnt_limit,
            cfg,
            conflicts_since_restart: 0,
            restart_count: 0,
            ok: true,
            stats: EngineStats::default(),
        }
    }

    /// Current decision level.
    #[inline]
    pub fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Value of a variable.
    #[inline]
    pub fn value(&self, v: Var) -> LBool {
        self.values[v.idx()]
    }

    /// Value of a literal.
    #[inline]
    pub fn value_lit(&self, l: Lit) -> LBool {
        self.values[l.var().idx()].of_lit(l)
    }

    /// True while the clause set is not yet known unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause. Must be called at decision level 0 (the facade
    /// backtracks before adding loop/blocking clauses). Returns false when
    /// the clause set became unsatisfiable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == l.negate() {
                return true; // tautology
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], ClauseRef::NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.db.add(simplified, false, 0);
                true
            }
        }
    }

    /// Runs CDCL until a model or exhaustion. Leaves the trail at the model
    /// assignment on [`SearchOutcome::Model`].
    pub fn run_until_model(&mut self) -> SearchOutcome {
        if !self.ok {
            return SearchOutcome::Exhausted;
        }
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Exhausted;
                }
                let (learnt, backjump) = self.analyze(confl);
                self.backtrack(backjump);
                self.learn(learnt);
                self.decay_activities();
            } else if self.trail.len() == self.n_vars {
                return SearchOutcome::Model;
            } else if self.should_restart() {
                self.restart();
            } else {
                self.maybe_reduce_db();
                self.decide();
            }
        }
    }

    /// Backtracks to `level`, undoing assignments and saving phases.
    pub fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let limit = self.trail_lim[target as usize];
        while self.trail.len() > limit {
            let lit = self.trail.pop().expect("trail underflow");
            let v = lit.var();
            self.polarity[v.idx()] = !lit.is_neg();
            self.values[v.idx()] = LBool::Undef;
            self.reason[v.idx()] = ClauseRef::NONE;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// The literals assigned at the current trail (used for model
    /// extraction).
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let v = lit.var();
        self.values[v.idx()] = LBool::from_bool(!lit.is_neg());
        // Level-0 assignments never participate in conflict analysis, so
        // their reasons are dropped — this keeps clause deletion safe.
        self.reason[v.idx()] = if self.decision_level() == 0 { ClauseRef::NONE } else { reason };
        self.level[v.idx()] = self.decision_level();
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            if let Some(confl) = self.propagate_lit(lit) {
                return Some(confl);
            }
        }
        None
    }

    fn propagate_lit(&mut self, lit: Lit) -> Option<ClauseRef> {
        // Take the watcher list to satisfy the borrow checker; entries are
        // re-pushed unless the watch moves.
        let mut watchers = std::mem::take(&mut self.db.watches[lit.code()]);
        let mut i = 0;
        let mut conflict = None;
        'watchers: while i < watchers.len() {
            let w = watchers[i];
            if self.value_lit(w.blocker) == LBool::True {
                i += 1;
                continue;
            }
            let cref = w.clause;
            if self.db.clause(cref).deleted {
                watchers.swap_remove(i);
                continue;
            }
            // Normalize: watched literal being falsified is lits[1].
            let false_lit = lit.negate();
            {
                let c = self.db.clause_mut(cref);
                if c.lits[0] == false_lit {
                    c.lits.swap(0, 1);
                }
            }
            let first = self.db.clause(cref).lits[0];
            if first != w.blocker && self.value_lit(first) == LBool::True {
                watchers[i].blocker = first;
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            let len = self.db.clause(cref).lits.len();
            for k in 2..len {
                let lk = self.db.clause(cref).lits[k];
                if self.value_lit(lk) != LBool::False {
                    let c = self.db.clause_mut(cref);
                    c.lits.swap(1, k);
                    self.db.watches[lk.negate().code()]
                        .push(Watcher { clause: cref, blocker: first });
                    watchers.swap_remove(i);
                    continue 'watchers;
                }
            }
            // No new watch: clause is unit or conflicting.
            if self.value_lit(first) == LBool::False {
                conflict = Some(cref);
                self.qhead = self.trail.len();
                break;
            }
            self.unchecked_enqueue(first, cref);
            i += 1;
        }
        // Put back the remaining watchers (plus any we did not visit after a
        // conflict).
        let slot = &mut self.db.watches[lit.code()];
        if slot.is_empty() {
            *slot = watchers;
        } else {
            // propagate_lit can be re-entered for the same literal only via
            // enqueue during this call; merge conservatively.
            slot.extend(watchers);
        }
        conflict
    }

    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut cref = confl;
        let current = self.decision_level();

        loop {
            let clause_lits: Vec<Lit> = self.db.clause(cref).lits.clone();
            for &q in clause_lits.iter() {
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.idx()] && self.level[v.idx()] > 0 {
                    self.seen[v.idx()] = true;
                    self.bump_activity(v);
                    if self.level[v.idx()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().idx()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            p = Some(lit);
            self.seen[lit.var().idx()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[lit.var().idx()];
            debug_assert_ne!(cref, ClauseRef::NONE, "non-UIP literal must have a reason");
        }
        learnt[0] = p.expect("analyze found the UIP").negate();

        // Conflict-clause minimization: drop literals implied by the rest.
        let learnt = self.minimize(learnt);

        // Clear seen flags for the kept literals.
        for &l in &learnt {
            self.seen[l.var().idx()] = false;
        }

        let backjump = if learnt.len() == 1 {
            0
        } else {
            // Move the highest-level non-UIP literal to position 1.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().idx()] > self.level[learnt[max_i].var().idx()] {
                    max_i = i;
                }
            }
            let mut learnt = learnt;
            learnt.swap(1, max_i);
            let bj = self.level[learnt[1].var().idx()];
            return (learnt, bj);
        };
        (learnt, backjump)
    }

    /// Local minimization: a literal is redundant when every literal of its
    /// reason clause is already seen (self-subsumption).
    fn minimize(&mut self, learnt: Vec<Lit>) -> Vec<Lit> {
        for &l in &learnt {
            self.seen[l.var().idx()] = true;
        }
        let mut kept: Vec<Lit> = Vec::with_capacity(learnt.len());
        for (i, &l) in learnt.iter().enumerate() {
            if i == 0 {
                kept.push(l);
                continue;
            }
            let r = self.reason[l.var().idx()];
            if r == ClauseRef::NONE {
                kept.push(l);
                continue;
            }
            let redundant = self.db.clause(r).lits.iter().all(|&q| {
                q == l.negate() || self.seen[q.var().idx()] || self.level[q.var().idx()] == 0
            });
            if !redundant {
                kept.push(l);
            } else {
                self.seen[l.var().idx()] = false;
            }
        }
        kept
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.unchecked_enqueue(asserting, ClauseRef::NONE);
            return;
        }
        let lbd = self.compute_lbd(&learnt);
        let cref = self.db.add(learnt, true, lbd);
        self.unchecked_enqueue(asserting, cref);
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().idx()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn decide(&mut self) {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.value(v) == LBool::Undef {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let negative = !self.polarity[v.idx()];
                self.unchecked_enqueue(Lit::new(v, negative), ClauseRef::NONE);
                return;
            }
        }
        unreachable!("decide called with all variables assigned");
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.idx()] += self.act_inc;
        if self.activity[v.idx()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.act_inc /= VAR_DECAY;
    }

    fn should_restart(&self) -> bool {
        self.conflicts_since_restart >= luby(self.restart_count + 1) * self.cfg.restart_base
    }

    fn restart(&mut self) {
        self.restart_count += 1;
        self.conflicts_since_restart = 0;
        self.stats.restarts += 1;
        self.backtrack(0);
    }

    fn maybe_reduce_db(&mut self) {
        if self.db.learnt_count <= self.learnt_limit || self.decision_level() != 0 {
            return;
        }
        let mut refs = self.db.learnt_refs();
        refs.sort_by_key(|&r| std::cmp::Reverse(self.db.clause(r).lbd));
        let to_delete = refs.len() / 2;
        for &r in refs.iter().take(to_delete) {
            if self.db.clause(r).lbd <= 2 {
                continue; // glue clauses are kept unconditionally
            }
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.db.rebuild_watches();
        self.learnt_limit = (self.learnt_limit as f64 * LEARNT_LIMIT_GROWTH) as usize;
    }
}

/// The Luby sequence (1,1,2,1,1,2,4,...).
fn luby(mut i: u64) -> u64 {
    loop {
        let k = 64 - i.leading_zeros() as u64;
        if i == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        i -= (1 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, neg: bool) -> Lit {
        Lit::new(Var(v), neg)
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn simple_sat() {
        let mut e = Engine::new(2, EngineConfig::default());
        assert!(e.add_clause(vec![lit(0, false), lit(1, false)]));
        assert!(e.add_clause(vec![lit(0, true), lit(1, false)]));
        assert_eq!(e.run_until_model(), SearchOutcome::Model);
        assert_eq!(e.value(Var(1)), LBool::True);
    }

    #[test]
    fn simple_unsat() {
        let mut e = Engine::new(1, EngineConfig::default());
        assert!(e.add_clause(vec![lit(0, false)]));
        assert!(!e.add_clause(vec![lit(0, true)]));
        assert_eq!(e.run_until_model(), SearchOutcome::Exhausted);
    }

    #[test]
    fn unsat_needs_search() {
        // (a|b) (a|!b) (!a|b) (!a|!b)
        let mut e = Engine::new(2, EngineConfig::default());
        for (s0, s1) in [(false, false), (false, true), (true, false), (true, true)] {
            assert!(e.add_clause(vec![lit(0, s0), lit(1, s1)]));
        }
        assert_eq!(e.run_until_model(), SearchOutcome::Exhausted);
    }

    #[test]
    fn enumeration_via_blocking_clauses() {
        // One free variable: two models.
        let mut e = Engine::new(1, EngineConfig::default());
        assert_eq!(e.run_until_model(), SearchOutcome::Model);
        let first = e.value(Var(0));
        let block = if first == LBool::True { lit(0, true) } else { lit(0, false) };
        e.backtrack(0);
        assert!(e.add_clause(vec![block]));
        assert_eq!(e.run_until_model(), SearchOutcome::Model);
        let second = e.value(Var(0));
        assert_ne!(first, second);
        let block2 = if second == LBool::True { lit(0, true) } else { lit(0, false) };
        e.backtrack(0);
        assert!(!e.add_clause(vec![block2]));
        assert_eq!(e.run_until_model(), SearchOutcome::Exhausted);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,j): pigeon i in hole j. Vars: 3 pigeons x 2 holes = 6.
        let var = |p: u32, h: u32| p * 2 + h;
        let mut e = Engine::new(6, EngineConfig::default());
        for p in 0..3 {
            assert!(e.add_clause(vec![lit(var(p, 0), false), lit(var(p, 1), false)]));
        }
        let mut ok = true;
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    ok &= e.add_clause(vec![lit(var(p1, h), true), lit(var(p2, h), true)]);
                }
            }
        }
        assert!(ok || !e.is_ok());
        assert_eq!(e.run_until_model(), SearchOutcome::Exhausted);
    }

    #[test]
    fn chain_propagation() {
        // x0 and a chain x_{i} -> x_{i+1}: all forced true.
        let n = 50;
        let mut e = Engine::new(n, EngineConfig::default());
        assert!(e.add_clause(vec![lit(0, false)]));
        for i in 0..n as u32 - 1 {
            assert!(e.add_clause(vec![lit(i, true), lit(i + 1, false)]));
        }
        assert_eq!(e.run_until_model(), SearchOutcome::Model);
        for i in 0..n {
            assert_eq!(e.value(Var(i as u32)), LBool::True);
        }
        assert_eq!(e.stats.decisions, 0, "pure propagation needs no decisions");
    }
}

#[cfg(test)]
mod reduction_tests {
    use super::*;

    fn lit(v: u32, neg: bool) -> Lit {
        Lit::new(Var(v), neg)
    }

    /// Pigeonhole with a tiny learnt budget: clause-DB reduction must kick
    /// in without compromising the UNSAT result.
    #[test]
    fn clause_reduction_preserves_unsat() {
        let cfg = EngineConfig { learnt_limit: 4, restart_base: 8 };
        // 6 pigeons into 5 holes.
        let (p, h) = (6u32, 5u32);
        let var = |pi: u32, hi: u32| pi * h + hi;
        let mut e = Engine::new((p * h) as usize, cfg);
        for pi in 0..p {
            let clause: Vec<Lit> = (0..h).map(|hi| lit(var(pi, hi), false)).collect();
            assert!(e.add_clause(clause));
        }
        for hi in 0..h {
            for p1 in 0..p {
                for p2 in (p1 + 1)..p {
                    if !e.add_clause(vec![lit(var(p1, hi), true), lit(var(p2, hi), true)]) {
                        return; // already UNSAT at level 0 — fine
                    }
                }
            }
        }
        assert_eq!(e.run_until_model(), SearchOutcome::Exhausted);
        assert!(e.stats.conflicts > 0);
    }

    /// Restarts with phase saving must not lose models.
    #[test]
    fn restarts_preserve_satisfiability() {
        let cfg = EngineConfig { restart_base: 1, ..Default::default() };
        let n = 30u32;
        let mut e = Engine::new(n as usize, cfg);
        // Chain of implications plus a satisfiable sprinkle of ternaries.
        for i in 0..n - 1 {
            assert!(e.add_clause(vec![lit(i, true), lit(i + 1, false)]));
        }
        for i in 0..n - 2 {
            assert!(e.add_clause(vec![lit(i, false), lit(i + 1, false), lit(i + 2, true)]));
        }
        assert_eq!(e.run_until_model(), SearchOutcome::Model);
    }
}
