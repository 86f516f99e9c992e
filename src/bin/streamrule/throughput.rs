//! Window-at-a-time runs and the throughput record `streamrule run --json`
//! writes: a window-at-a-time baseline pass versus the pipelined
//! [`sr_core::StreamEngine`], with an ordered-output identity check between
//! them. Both sides count their windows through one [`RunTally`], so the
//! record compares like with like. The workspace has no JSON serializer
//! dependency, so [`throughput_json`] is hand-rolled.

use asp_core::{AspError, Symbols};
use sr_core::{EngineOutput, EngineStats, FailureCounters, Reasoner, ReasonerOutput, RunTally};
use sr_stream::Window;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One pipelined engine run.
#[derive(Clone, Debug)]
pub struct ThroughputRun {
    /// Windows in flight (engine lanes).
    pub in_flight: usize,
    /// Engine throughput statistics.
    pub stats: EngineStats,
    /// Whether the ordered engine output was byte-identical to the
    /// sequential baseline's rendered answers.
    pub output_identical: bool,
}

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
    /// The engine run.
    pub run: ThroughputRun,
}

impl ThroughputResult {
    /// Windows/s speedup of the engine run over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.baseline.windows_per_sec <= 0.0 {
            return 0.0;
        }
        self.run.stats.windows_per_sec / self.baseline.windows_per_sec
    }
}

/// Runs `reasoner` over `windows` strictly window-at-a-time on the caller
/// thread, counting every window into a [`RunTally`] as the engines do, and
/// hands each window's output and latency to `each`. Stops at the first
/// error. `armed` and `failures` decide [`EngineStats::failure`], as in
/// [`RunTally::stats`].
pub fn window_at_a_time(
    reasoner: &mut dyn Reasoner,
    windows: &[Window],
    armed: bool,
    failures: &FailureCounters,
    mut each: impl FnMut(&Window, &ReasonerOutput, Duration),
) -> Result<EngineStats, AspError> {
    let mut tally = RunTally::default();
    for window in windows {
        let t0 = Instant::now();
        tally.start(t0);
        let out = reasoner.process(window)?;
        let done = Instant::now();
        tally.record(window.len(), 0, done - t0, done);
        each(window, &out, done - t0);
    }
    Ok(tally.stats(armed, failures))
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
/// baseline's rendered answers (an errored window never matches).
pub fn outputs_match(syms: &Symbols, outputs: &[EngineOutput], expected: &[String]) -> bool {
    outputs.len() == expected.len()
        && outputs.iter().zip(expected).all(|(out, expected)| {
            out.result.as_ref().map(|o| render_output(syms, o)).as_deref() == Ok(expected)
        })
}

/// The `--json` baseline: [`window_at_a_time`] over `windows`, returning
/// its statistics plus each window's rendered answers for identity checks.
/// The baseline is the reference the engine is measured against, not a
/// fault report, so its record carries no `failure` counters.
pub fn sequential_baseline(
    syms: &Symbols,
    reasoner: &mut dyn Reasoner,
    windows: &[Window],
) -> Result<(EngineStats, Vec<String>), AspError> {
    let mut rendered = Vec::with_capacity(windows.len());
    let stats =
        window_at_a_time(reasoner, windows, false, &FailureCounters::default(), |_, out, _| {
            rendered.push(render_output(syms, out))
        })?;
    Ok((stats, rendered))
}

/// Renders the record as the JSON document `streamrule run --json` writes.
pub fn throughput_json(result: &ThroughputResult) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"window_size\": {},", result.window_size);
    let _ = writeln!(out, "  \"windows\": {},", result.windows);
    let _ = writeln!(out, "  \"baseline\": {},", result.baseline.to_json());
    let run = &result.run;
    let _ = writeln!(out, "  \"runs\": [");
    let _ = writeln!(
        out,
        "    {{\"in_flight\": {}, \"ordered_output_identical\": {}, \"stats\": {}}}",
        run.in_flight,
        run.output_identical,
        run.stats.to_json()
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
        let (baseline, rendered) = sequential_baseline(&syms, &mut reasoner, &windows).unwrap();
        assert_eq!(rendered.len(), 2);
        let result = ThroughputResult {
            window_size: 100,
            windows: 2,
            baseline: baseline.clone(),
            run: ThroughputRun { in_flight: 2, stats: baseline, output_identical: true },
        };
        let json = throughput_json(&result);
        assert!(json.contains("\"baseline\":"));
        assert!(json.contains("\"in_flight\": 2"));
        assert!(json.contains("\"ordered_output_identical\": true"));
        assert!(json.contains("\"best_speedup_windows_per_sec\": 1.0000"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
