//! Benchmark harness for the ICDE'17 reproduction: experiment grid runner,
//! table/CSV reporting and the paper's programs. The `repro` binary
//! regenerates Figures 7-10, the Section IV claims and the ablations; `diag`
//! breaks one window's latency down by stage. End-to-end performance is
//! measured by the repository's benchmark (`BENCHMARK.json`, `benchmark/`).

#![warn(missing_docs)]

pub mod experiment;
pub mod programs;
pub mod report;

pub use experiment::{run, Cell, ExperimentBench, ExperimentConfig, ExperimentResult, Series};
pub use programs::{program_p_prime, PROGRAM_P, RULE_R7};
pub use report::{csv, table, Measure};
