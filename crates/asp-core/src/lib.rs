//! Core data model for the ASP (Answer Set Programming) engine: symbol
//! interning, terms, atoms, rules, programs, ground representations and answer
//! sets.
//!
//! This crate is dependency-light on purpose: the parser, grounder, solver and
//! the stream-reasoning layers all build on these types, and the parallel
//! reasoner shares one [`Symbols`] store across worker threads so that atoms
//! remain comparable across partitions.

#![warn(missing_docs)]

pub mod answer;
pub mod atom;
pub mod error;
pub mod ground;
pub mod program;
pub mod rule;
pub mod symbol;
pub mod term;

pub use answer::AnswerSet;
pub use atom::{ground_atom_cmp, Args, Atom, GroundAtom, Predicate};
pub use error::AspError;
pub use ground::{AtomId, AtomTable, GroundProgram, GroundRule};
pub use program::Program;
pub use rule::{BodyLiteral, CmpOp, Head, Rule};
pub use symbol::{FastMap, FastSet, Sym, Symbols};
pub use term::{ArithOp, GroundTerm, Term};
