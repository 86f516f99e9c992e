//! RDF substrate for the stream-reasoning stack: a compact triple model, an
//! N-Triples-style reader/writer, and the StreamRule data format processor
//! translating between RDF triples and ASP facts.

#![warn(missing_docs)]

pub mod format;
pub mod model;
pub mod ntriples;

pub use format::{FormatConfig, FormatProcessor};
pub use model::{Node, Triple};
