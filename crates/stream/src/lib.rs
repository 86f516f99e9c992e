//! Stream processing substrate: deterministic PRNGs, stream items and
//! windows, the predicate-filter stream query processor (CQELS stand-in) and
//! the paper's synthetic workload generators.

#![warn(missing_docs)]

pub mod generator;
pub mod query;
pub mod rng;
pub mod source;
pub mod window;

pub use generator::{
    paper_generator, BurstyGenerator, ChurnStream, CorrelatedConfig, CorrelatedGenerator,
    FaithfulGenerator, GeneratorKind, WorkloadGenerator, PAPER_PREDICATES,
};
pub use query::QueryProcessor;
pub use rng::Pcg32;
pub use source::{spawn_source, SourceConfig};
pub use window::{SlidingWindower, TupleWindower, Window, WindowDelta, Windower};
