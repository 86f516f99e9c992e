//! Instantiation (grounding) engine for ASP programs.
//!
//! The grounder follows the standard two-phase architecture of DLV/clingo
//! (the solvers StreamRule builds on): rules are compiled with a safety check
//! and one syntactic join order, fixed at compile time (most bound arguments
//! first, see [`compile`]), predicates are stratified into strongly connected
//! components of the dependency graph, and each component is evaluated with
//! semi-naive iteration over binding-pattern hash indexes. Relations store
//! each tuple once: the indexes hold tuple ids keyed by a hash of the bound
//! values, joins unify against the stored tuples in place, and a fact handed
//! over by value moves into its relation without a copy. A final
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
//! input window. A built grounder is immutable, so threads share one through
//! `&self` without a lock.

#![warn(missing_docs)]

pub mod analysis;
pub mod compile;
pub mod delta;
pub mod instantiate;
mod relation;
pub mod simplify;

pub use analysis::{
    grounding_bounds, DeltaStateBound, DeltaStateSize, EvalStratum, GroundingBounds, MemoryBound,
    PredicateExtent, RuleBound,
};
pub use delta::{DeltaError, DeltaGrounder};
pub use instantiate::{ground_program, is_internal_predicate, Grounder};
pub use simplify::ProtoRule;
