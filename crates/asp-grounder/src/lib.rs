//! Instantiation (grounding) engine for ASP programs.
//!
//! The grounder follows the standard two-phase architecture of DLV/clingo
//! (the solvers StreamRule builds on): rules are compiled with a safety check
//! and a greedy join order, predicates are stratified into strongly connected
//! components of the dependency graph, and each component is evaluated with
//! semi-naive iteration over binding-pattern hash indexes. A final
//! certain/possible simplification pass (see [`simplify`]) shrinks the ground
//! program before it reaches the solver.
//!
//! A [stratified](Grounder::is_stratified) program needs no solver: the same
//! component-ordered evaluation, with default negation tested against the
//! final lower components, yields its unique answer set directly
//! ([`Grounder::perfect_model`]).
//!
//! Design-time/run-time split: [`Grounder::new`] does all per-program work
//! once, [`Grounder::ground`] or [`Grounder::perfect_model`] is called per
//! input window.

#![warn(missing_docs)]

pub mod analysis;
pub mod compile;
pub mod delta;
pub mod instantiate;
pub mod planner;
pub mod relation;
pub mod simplify;
pub mod stats;

pub use analysis::{
    grounding_bounds, DeltaStateBound, DeltaStateSize, EvalStratum, GroundingBounds, MemoryBound,
    PredicateExtent, RuleBound,
};
pub use delta::{DeltaError, DeltaGrounder};
pub use instantiate::{ground_program, is_internal_predicate, Grounder};
pub use planner::{CostSource, SyntacticCost};
pub use simplify::ProtoRule;
pub use stats::RelationStats;
