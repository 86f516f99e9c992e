//! The throughput record `streamrule run --json` writes: a window-at-a-time
//! baseline pass versus the pipelined [`sr_core::StreamEngine`], with an
//! ordered-output identity check between them. Both sides count their
//! windows through one [`RunTally`], so the record compares like with like,
//! and both are generic over the reasoner's output and the function that
//! renders it. The workspace has no JSON serializer dependency, so
//! [`throughput_json`] is hand-rolled.

use asp_core::{AspError, Symbols};
use sr_core::metrics::RunTally;
use sr_core::{EngineOutput, EngineStats, FailureCounters, Reasoner, ReasonerOutput};
use sr_stream::Window;
use std::fmt::Write as _;
use std::time::Instant;

/// A throughput record: the baseline and the engine run measured against it.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Items per window.
    pub window_size: usize,
    /// Windows streamed.
    pub windows: usize,
    /// The sequential window-at-a-time baseline, expressed in the same
    /// statistics shape as the engine run.
    pub baseline: EngineStats,
    /// The engine run's throughput statistics (one entry per lane in
    /// `lanes`).
    pub run: EngineStats,
    /// Whether the engine's ordered output was byte-identical to the
    /// baseline's rendered output.
    pub output_identical: bool,
}

impl ThroughputResult {
    /// Windows/s speedup of the engine run over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.baseline.windows_per_sec <= 0.0 {
            return 0.0;
        }
        self.run.windows_per_sec / self.baseline.windows_per_sec
    }
}

/// Renders every answer set of a reasoner output, one per line — the
/// canonical form for byte-identity checks between engine and baseline.
pub fn render_output(syms: &Symbols, out: &ReasonerOutput) -> String {
    let mut s = String::new();
    for ans in &out.answers {
        let _ = writeln!(s, "{}", ans.display(syms));
    }
    s
}

/// True when the engine's ordered outputs render byte-identically to the
/// baseline's rendered outputs (an errored window never matches).
pub fn outputs_match<O>(
    outputs: &[EngineOutput<O>],
    expected: &[String],
    render: impl Fn(&O) -> String,
) -> bool {
    outputs.len() == expected.len()
        && outputs.iter().zip(expected).all(|(out, expected)| {
            out.result.as_ref().map(&render).as_deref() == Ok(expected.as_str())
        })
}

/// The `--json` baseline: runs `reasoner` over `windows` strictly window at
/// a time on the caller thread, counting every window into a [`RunTally`]
/// as the engine does, and returns its statistics plus each window's
/// rendered output for the identity check. Stops at the first error. The
/// baseline is the reference the engine is measured against, not a fault
/// report, so its record carries no `failure` counters.
pub fn sequential_baseline<O>(
    reasoner: &mut dyn Reasoner<O>,
    windows: &[Window],
    render: impl Fn(&O) -> String,
) -> Result<(EngineStats, Vec<String>), AspError> {
    let mut tally = RunTally::default();
    let mut rendered = Vec::with_capacity(windows.len());
    for window in windows {
        let t0 = Instant::now();
        tally.start(t0);
        let out = reasoner.process(window)?;
        let done = Instant::now();
        tally.record(window.len(), done - t0, done);
        rendered.push(render(&out));
    }
    Ok((tally.stats(false, &FailureCounters::default()), rendered))
}

/// Renders the record as the JSON document `streamrule run --json` writes.
pub fn throughput_json(result: &ThroughputResult) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"window_size\": {},", result.window_size);
    let _ = writeln!(out, "  \"windows\": {},", result.windows);
    let _ = writeln!(out, "  \"baseline\": {},", result.baseline.to_json());
    let _ = writeln!(out, "  \"runs\": [");
    let _ = writeln!(
        out,
        "    {{\"in_flight\": {}, \"ordered_output_identical\": {}, \"stats\": {}}}",
        result.run.lanes.len(),
        result.output_identical,
        result.run.to_json()
    );
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"best_speedup_windows_per_sec\": {:.4}", result.speedup());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::SingleReasoner;
    use sr_stream::{paper_generator, GeneratorKind};

    const PROGRAM_P: &str = include_str!("../../../assets/traffic_p.lp");

    #[test]
    fn json_document_shape() {
        let syms = Symbols::new();
        let program = asp_parser::parse_program(&syms, PROGRAM_P).unwrap();
        let mut reasoner =
            SingleReasoner::new(&syms, &program, None, asp_solver::SolverConfig::default())
                .unwrap();
        let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);
        let windows: Vec<Window> = (0..2).map(|i| Window::new(i, generator.window(100))).collect();
        let (baseline, rendered) =
            sequential_baseline(&mut reasoner, &windows, |out| render_output(&syms, out)).unwrap();
        assert_eq!(rendered.len(), 2);
        let run = EngineStats { lanes: vec![Default::default(); 2], ..baseline.clone() };
        let result = ThroughputResult {
            window_size: 100,
            windows: 2,
            baseline,
            run,
            output_identical: true,
        };
        let json = throughput_json(&result);
        assert!(json.contains("\"baseline\":"));
        assert!(json.contains("\"in_flight\": 2"));
        assert!(json.contains("\"ordered_output_identical\": true"));
        assert!(json.contains("\"best_speedup_windows_per_sec\": 1.0000"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
