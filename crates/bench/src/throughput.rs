//! The throughput record `streamrule run --json` writes: a window-at-a-time
//! baseline pass versus the pipelined [`sr_core::StreamEngine`], with an
//! ordered-output identity check between them. The workspace has no JSON
//! serializer dependency, so [`throughput_json`] is hand-rolled.

use asp_core::{AspError, Symbols};
use sr_core::{duration_ms, EngineOutput, EngineStats, LatencyStats, Reasoner, ReasonerOutput};
use sr_stream::Window;
use std::fmt::Write as _;
use std::time::Instant;

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

/// A throughput record: the baseline and the engine runs measured against it.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Items per window.
    pub window_size: usize,
    /// Windows streamed.
    pub windows: usize,
    /// The sequential window-at-a-time baseline, expressed in the same
    /// statistics shape as the engine runs.
    pub baseline: EngineStats,
    /// The engine runs.
    pub runs: Vec<ThroughputRun>,
}

impl ThroughputResult {
    /// Best windows/s speedup of any engine run over the baseline.
    pub fn best_speedup(&self) -> f64 {
        if self.baseline.windows_per_sec <= 0.0 {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| r.stats.windows_per_sec / self.baseline.windows_per_sec)
            .fold(0.0, f64::max)
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
/// baseline's rendered answers (an errored window never matches).
pub fn outputs_match(syms: &Symbols, outputs: &[EngineOutput], expected: &[String]) -> bool {
    outputs.len() == expected.len()
        && outputs.iter().zip(expected).all(|(out, expected)| {
            out.result.as_ref().map(|o| render_output(syms, o)).as_deref() == Ok(expected)
        })
}

/// Runs `reasoner` over `windows` strictly window-at-a-time, returning the
/// baseline throughput statistics (in the engine's stats shape) plus each
/// window's rendered answers for identity checks.
pub fn sequential_baseline(
    syms: &Symbols,
    reasoner: &mut dyn Reasoner,
    windows: &[Window],
) -> Result<(EngineStats, Vec<String>), AspError> {
    let mut rendered = Vec::with_capacity(windows.len());
    let mut latencies = Vec::with_capacity(windows.len());
    let items_total: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let t0 = Instant::now();
    for window in windows {
        let t = Instant::now();
        let out = reasoner.process(window)?;
        latencies.push(duration_ms(t.elapsed()));
        rendered.push(render_output(syms, &out));
    }
    let elapsed = t0.elapsed();
    let stats = EngineStats {
        windows: windows.len() as u64,
        errors: 0,
        items: items_total,
        elapsed_ms: duration_ms(elapsed),
        windows_per_sec: windows.len() as f64 / elapsed.as_secs_f64(),
        items_per_sec: items_total as f64 / elapsed.as_secs_f64(),
        // No engine, no submit path: the key is honestly absent from the
        // JSON rather than fabricated as 0.0 (see `EngineStats::to_json`).
        submit_blocked_ms: None,
        incremental: None,
        lanes: Vec::new(),
        queue_high_water: 0,
        latency: LatencyStats::from_samples(&latencies),
        tenants: Vec::new(),
        dedup: None,
        // Same honesty rule: the baseline has no recovery machinery.
        failure: None,
        admission: None,
    };
    Ok((stats, rendered))
}

/// Renders the record as the JSON document `streamrule run --json` writes.
pub fn throughput_json(result: &ThroughputResult) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"window_size\": {},", result.window_size);
    let _ = writeln!(out, "  \"windows\": {},", result.windows);
    let _ = writeln!(out, "  \"baseline\": {},", result.baseline.to_json());
    let _ = writeln!(out, "  \"runs\": [");
    for (i, run) in result.runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"in_flight\": {}, \"ordered_output_identical\": {}, \"stats\": {}}}{}",
            run.in_flight,
            run.output_identical,
            run.stats.to_json(),
            if i + 1 < result.runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"best_speedup_windows_per_sec\": {:.4}", result.best_speedup());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::PROGRAM_P;
    use sr_core::SingleReasoner;
    use sr_stream::{paper_generator, GeneratorKind};

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
            runs: vec![ThroughputRun { in_flight: 2, stats: baseline, output_identical: true }],
        };
        let json = throughput_json(&result);
        assert!(json.contains("\"baseline\":"));
        assert!(json.contains("\"in_flight\": 2"));
        assert!(json.contains("\"ordered_output_identical\": true"));
        assert!(json.contains("\"best_speedup_windows_per_sec\": 1.0000"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
