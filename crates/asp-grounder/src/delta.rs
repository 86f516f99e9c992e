//! The fact-multiset facade kept for the measured surface: a
//! [`DeltaGrounder`] holds an evolving input-fact multiset and re-evaluates
//! its perfect model ([`Grounder::perfect_model`]) after every change.
//!
//! It once maintained the grounding itself across windows (support counting
//! with DRed-style retraction). Bottom-up evaluation of a stratified
//! program is now cheaper than that maintenance on sliding windows, so no
//! reasoner uses this type; only the benchmark's layer replay still drives
//! it. The answers are the same either way.

use crate::analysis::DeltaStateSize;
use crate::instantiate::Grounder;
use asp_core::{AspError, FastMap, GroundAtom};
use std::sync::Arc;

/// Why a [`DeltaGrounder::apply`] could not be completed. The multiset is
/// left unusable in either case; callers must [`DeltaGrounder::reset`] and
/// rebuild from the full fact multiset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A retracted fact was not present in the multiset: the delta chain is
    /// broken (e.g. a missed window).
    SupportUnderflow,
    /// Evaluation failed (arithmetic/comparison error).
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

/// An input-fact multiset with the perfect model of its distinct facts.
/// See the module docs.
#[derive(Debug)]
pub struct DeltaGrounder {
    grounder: Arc<Grounder>,
    /// Copies of each asserted fact.
    facts: FastMap<GroundAtom, u32>,
    /// Multiset size.
    input_facts: usize,
    /// The perfect model of the current facts; `None` when unsatisfiable.
    model: Option<Vec<GroundAtom>>,
}

impl DeltaGrounder {
    /// A facade over an empty multiset. Fails when the program is not
    /// [stratified](Grounder::is_stratified) or its empty model cannot be
    /// evaluated.
    pub fn new(grounder: Arc<Grounder>) -> Result<Self, AspError> {
        let mut dg =
            DeltaGrounder { grounder, facts: FastMap::default(), input_facts: 0, model: None };
        dg.reset()?;
        Ok(dg)
    }

    /// Clears the multiset and re-evaluates the empty window.
    pub fn reset(&mut self) -> Result<(), AspError> {
        self.facts.clear();
        self.input_facts = 0;
        self.model = self.grounder.perfect_model(&[])?;
        Ok(())
    }

    /// Retracts `retracted` from and asserts `added` into the multiset, then
    /// re-evaluates the perfect model.
    pub fn apply(
        &mut self,
        added: &[GroundAtom],
        retracted: &[GroundAtom],
    ) -> Result<(), DeltaError> {
        // multiset(current) = multiset(base) - retracted + added.
        for f in retracted {
            let Some(n) = self.facts.get_mut(f) else {
                return Err(DeltaError::SupportUnderflow);
            };
            *n -= 1;
            if *n == 0 {
                self.facts.remove(f);
            }
            self.input_facts -= 1;
        }
        for f in added {
            *self.facts.entry(f.clone()).or_insert(0) += 1;
            self.input_facts += 1;
        }
        let live: Vec<GroundAtom> = self.facts.keys().cloned().collect();
        self.model = self.grounder.perfect_model(&live)?;
        Ok(())
    }

    /// The unique answer set of the current multiset; `None` means
    /// unsatisfiable (a constraint fires, or a strong-negation conflict).
    pub fn answer(&self) -> Option<Vec<GroundAtom>> {
        self.model.clone()
    }

    /// Observed state in the cell units of
    /// [`crate::analysis::DeltaStateBound`]. Only input facts are held.
    pub fn state_size(&self) -> DeltaStateSize {
        DeltaStateSize { input_facts: self.input_facts, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::{GroundTerm, Symbols};
    use asp_parser::parse_program;

    #[test]
    fn churn_tracks_the_multiset_and_reports_underflow() {
        let syms = Symbols::new();
        let src = "p(X) :- q(X), not r(X). :- p(X), bad(X).";
        let program = parse_program(&syms, src).unwrap();
        let mut dg = DeltaGrounder::new(Arc::new(Grounder::new(&syms, &program).unwrap())).unwrap();
        let atom = |name: &str| GroundAtom::new(syms.intern(name), vec![GroundTerm::Int(1)]);
        let (q, r, bad) = (atom("q"), atom("r"), atom("bad"));
        dg.apply(&[q.clone(), q.clone()], &[]).unwrap();
        assert!(dg.answer().unwrap().contains(&atom("p")));
        dg.apply(std::slice::from_ref(&r), std::slice::from_ref(&q)).unwrap();
        assert!(!dg.answer().unwrap().contains(&atom("p")), "r(1) blocks p(1)");
        dg.apply(&[bad], std::slice::from_ref(&r)).unwrap();
        assert!(dg.answer().is_none(), "the constraint fires once p(1) is back");
        assert_eq!(dg.state_size().input_facts, 2);
        assert_eq!(dg.apply(&[], std::slice::from_ref(&r)), Err(DeltaError::SupportUnderflow));
    }

    #[test]
    fn non_stratified_programs_are_refused() {
        let syms = Symbols::new();
        let program = parse_program(&syms, "a :- not b. b :- not a.").unwrap();
        assert!(DeltaGrounder::new(Arc::new(Grounder::new(&syms, &program).unwrap())).is_err());
    }
}
