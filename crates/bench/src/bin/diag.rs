//! Stage-trace diagnostics: per-stage breakdown for R and PR_Dep across
//! window sizes, reconstructed from sr-obs span traces (the same
//! instrumentation `streamrule run --trace-out` exports) — the only
//! per-stage breakdown the reasoners give; each pass's total is timed here
//! around the call. Not part of the figure reproduction; used to validate
//! the latency model.
//!
//! ```text
//! cargo run --release -p sr-bench --bin diag              # default sizes
//! cargo run --release -p sr-bench --bin diag -- 500       # one size
//! cargo run --release -p sr-bench --bin diag -- 500 --json
//! cargo run --release -p sr-bench --bin diag -- 500 --fault-spec worker_panic:0.3:7
//! ```
//!
//! `--fault-spec SITE:RATE:SEED[,...]` additionally drives the incremental
//! reasoner over the same windows with the fault plan installed and reports
//! its recovery counters (retries, fallbacks) on stderr — a quick look at
//! how much recovery work a given fault rate induces. The counters are
//! printed only when injection is on or a counter actually fired, never
//! fabricated as zeros.

use sr_bench::{ExperimentBench, ExperimentConfig, PROGRAM_P};
use sr_obs::{group_by_window, Stage, WindowTrace};
use sr_stream::{paper_generator, GeneratorKind, Window};

/// Stages the sequential R pass emits, in lifecycle order. `Solve` is CDCL,
/// non-stratified programs only: on P it reads 0 and `Ground` holds the
/// perfect-model evaluation.
const R_STAGES: &[Stage] = &[Stage::Windowing, Stage::Ground, Stage::Solve];

/// Stages the partitioned PR_Dep pass emits, in lifecycle order (`Solve` as
/// in `R_STAGES`; `Join` is the caller waiting for its forked partitions).
const PR_STAGES: &[Stage] =
    &[Stage::Partition, Stage::Windowing, Stage::Ground, Stage::Solve, Stage::Join, Stage::Combine];

/// One measured reasoner pass: wall time plus the pass's span trace.
struct Pass {
    total_ms: f64,
    traces: Vec<WindowTrace>,
}

impl Pass {
    /// Total milliseconds spent in `stage` across the pass's spans (summed
    /// over workers, so parallel stages can exceed wall time).
    fn stage_ms(&self, stage: Stage) -> f64 {
        self.traces.iter().map(|t| t.stage_total_us(stage)).sum::<u64>() as f64 / 1e3
    }

    /// Spans recorded across the pass.
    fn span_count(&self) -> usize {
        self.traces.iter().map(|t| t.spans.len()).sum()
    }
}

/// Runs `process` once with the tracer drained before and after, so the
/// returned trace holds exactly that pass's spans.
fn traced_pass(mut process: impl FnMut()) -> Pass {
    sr_obs::tracer().drain();
    let t0 = std::time::Instant::now();
    process();
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Pass { total_ms, traces: group_by_window(sr_obs::tracer().drain()) }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_mode = args.iter().any(|a| a == "--json");
    let fault_spec: Option<String> =
        args.iter().position(|a| a == "--fault-spec").and_then(|i| args.get(i + 1)).cloned();
    let sizes: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let sizes = if sizes.is_empty() { vec![5_000, 10_000, 20_000, 40_000] } else { sizes };
    let cfg = ExperimentConfig::paper(PROGRAM_P, GeneratorKind::Correlated);
    let mut bench = ExperimentBench::build(&cfg).expect("build");
    let mut generator = paper_generator(GeneratorKind::Correlated, 1);

    sr_obs::tracer().set_enabled(true);

    if !json_mode {
        print!("{:>8} {:>10}", "window", "R total");
        for stage in R_STAGES {
            print!(" {:>10}", format!("R {}", stage.name()));
        }
        print!(" | {:>10}", "PR total");
        for stage in PR_STAGES {
            print!(" {:>12}", format!("PR {}", stage.name()));
        }
        println!();
    }

    let mut rows = Vec::new();
    let mut windows = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let window = Window::new(i as u64, generator.window(size));
        // Warm up both reasoners on this window (the spans are discarded by
        // the next traced pass's drain), then measure one pass each.
        let _ = bench.r.process(&window).unwrap();
        let _ = bench.pr_dep.process(&window).unwrap();
        let r = traced_pass(|| {
            let _ = bench.r.process(&window).unwrap();
        });
        let pr = traced_pass(|| {
            let _ = bench.pr_dep.process(&window).unwrap();
        });

        if !json_mode {
            print!("{:>8} {:>10.2}", size, r.total_ms);
            for stage in R_STAGES {
                print!(" {:>10.2}", r.stage_ms(*stage));
            }
            print!(" | {:>10.2}", pr.total_ms);
            for stage in PR_STAGES {
                print!(" {:>12.2}", pr.stage_ms(*stage));
            }
            println!();
            println!(
                "          spans: R {} / PR {} (PR stage times sum over forked threads)",
                r.span_count(),
                pr.span_count()
            );
        }
        rows.push((size, r, pr));
        windows.push(window);
    }

    sr_obs::tracer().set_enabled(false);
    sr_obs::tracer().drain();

    if let Some(spec) = fault_spec {
        fault_pass(&spec, &windows);
    }

    if json_mode {
        print!("{}", render_json(&rows));
    }
}

/// Drives the incremental reasoner over `windows` with the given fault plan
/// on its config and reports its recovery counters on stderr. Per-window
/// errors (retries exhausted) are loud, not fatal: the remaining windows
/// still run so the counters reflect the whole pass.
fn fault_pass(spec: &str, windows: &[Window]) {
    use sr_core::{
        DependencyAnalysis, IncrementalReasoner, PlanPartitioner, ReasonerConfig, UnknownPredicate,
    };
    use std::sync::Arc;

    let plan = match sr_core::FaultPlan::parse_spec(spec) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("bad --fault-spec: {e}");
            std::process::exit(2);
        }
    };
    let syms = asp_core::Symbols::new();
    let program = asp_parser::parse_program(&syms, PROGRAM_P).expect("parse PROGRAM_P");
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &Default::default()).expect("analysis");
    let mut reasoner = IncrementalReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0)),
        ReasonerConfig { faults: Some(Arc::new(plan)), ..Default::default() },
    )
    .expect("incremental reasoner");
    let mut errors = 0usize;
    for window in windows {
        if let Err(e) = reasoner.process(window) {
            errors += 1;
            eprintln!("fault pass: window {} failed loudly: {e}", window.id);
        }
    }
    let f = reasoner.ctx().failures.snapshot();
    eprintln!(
        "fault pass ({spec}): {} window(s), {} loud error(s), {} retries, {} fallbacks",
        windows.len(),
        errors,
        f.retries,
        f.fallbacks
    );
}

/// Renders the measured rows as a JSON array (hand-rolled; the workspace
/// has no JSON serializer dependency).
fn render_json(rows: &[(usize, Pass, Pass)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, (size, r, pr)) in rows.iter().enumerate() {
        let _ = writeln!(out, "  {{");
        let _ = writeln!(out, "    \"window_size\": {size},");
        for (name, pass, stages, trailing) in
            [("r", r, R_STAGES, ","), ("pr_dep", pr, PR_STAGES, "")]
        {
            let _ = write!(out, "    \"{name}\": {{\"total_ms\": {:.4}", pass.total_ms);
            for stage in stages {
                let _ = write!(out, ", \"{}_ms\": {:.4}", stage.name(), pass.stage_ms(*stage));
            }
            let _ = writeln!(out, ", \"spans\": {}}}{trailing}", pass.span_count());
        }
        let _ = writeln!(out, "  }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("]\n");
    out
}
