//! `streamrule` — command-line front end for the stream reasoner.
//!
//! ```text
//! streamrule solve <program.lp> [--models N] [--facts data.lp]
//! streamrule analyze <program.lp> [--dot] [--resolution R] [--weighted]
//! streamrule generate --out data.nt [--kind faithful|correlated|sparse]
//!                     [--size N] [--windows K] [--seed S]
//! streamrule run <program.lp> [--data data.nt] [--window N] [--windows K]
//!                [--mode single|dep|random:K] [--in-flight L] [--rate R]
//!                [--seed S] [--json out.json] [--trials T] [--events]
//!                [--slide S]
//!                [--cost-planning] [--tenants N] [--dup-ratio R]
//!                [--admission-budget CELLS]
//!                [--metrics-addr HOST:PORT] [--trace-out trace.json]
//!                [--deadline-ms D] [--fault-spec SITE:RATE:SEED[,...]]
//! ```
//!
//! Each subcommand accepts exactly the flags listed for it; any other
//! `--flag` is an error that names it.
//! `run` streams tuple windows — read from an N-Triples file or generated
//! synthetically — through the chosen reasoner. With `--in-flight L` the
//! pipelined `StreamEngine` keeps `L` windows reasoning concurrently
//! (ordered, deterministic emission); `--rate R` throttles submission to
//! `R` windows/second; `--json` records throughput statistics (plus a
//! sequential-baseline comparison) in the `BENCH_throughput.json` shape,
//! taking the best of `--trials T` engine and baseline passes (default 3)
//! so one noisy sample can't skew the record.
//! `--slide S` cuts sliding windows (S < window re-processes the overlap);
//! a partitioned mode then reuses the answers of every community a slide
//! did not touch, as the window's delta tells (see `sr-core::incremental`).
//! Windows without a delta, and dirty communities, are reasoned from
//! scratch.
//! `--cost-planning` orders rule-body joins by estimated cost from live
//! relation statistics instead of the syntactic heuristic (any mode).
//! Answers are identical either way.
//! `--tenants N` serves the program to `N` tenants through the
//! multi-tenant scheduler (`sr-core::MultiTenantEngine`): `--dup-ratio R`
//! (default 1.0) controls how many tenants run the program verbatim and
//! therefore share one program run per window; the rest get a unique
//! `tenant_tag(<i>).` variant and their own serving entry. The run reports
//! per-tenant latency percentiles and the dedup counters.
//! `--admission-budget CELLS` arms admission control: a program
//! whose static memory bound exceeds the budget is refused with an error
//! naming the dominating term.
//! `--metrics-addr HOST:PORT` (e.g. `127.0.0.1:9184`) serves the run's
//! sr-obs metrics registry — engine/reuse/planner/tenant counters and
//! latency histograms — as a Prometheus text endpoint for the duration of
//! the run, self-scraping it once at the end; `--trace-out trace.json`
//! enables per-window stage tracing and writes the spans as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto). Both are
//! observers: answers and throughput records are identical with or without
//! them.
//! `--deadline-ms D` arms the engine's per-window deadline: a window still
//! unfinished `D` ms after submission is emitted **degraded** (the last good
//! answer, clearly tagged) instead of stalling ordered emission; with
//! `--tenants` the deadline instead scores overdue windows toward tenant
//! quarantine. `--fault-spec SITE:RATE:SEED[,...]` puts a deterministic
//! fault-injection plan (sites: `worker_panic`, `partition_slowdown`,
//! `cache_invalidate`, `source_stall`) on the run's reasoner config for
//! chaos smoke runs of a partitioned mode (`--mode single` rejects it: it
//! hosts no fault hook); recovery counters appear in the report and the
//! `--json` record only when injection or a deadline is active — never
//! fabricated.

mod throughput;

use std::process::ExitCode;
use std::sync::Arc;
use stream_reasoner::prelude::*;
use stream_reasoner::sr_rdf::ntriples;
use throughput::{
    outputs_match, sequential_baseline, throughput_json, ThroughputResult, ThroughputRun,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  streamrule solve <program.lp> [--models N] [--facts data.lp]
  streamrule analyze <program.lp> [--dot] [--resolution R] [--weighted]
                     [--window N] [--slide S] [--json]
  streamrule generate --out data.nt [--kind faithful|correlated|sparse] [--size N] [--windows K] [--seed S]
  streamrule run <program.lp> [--data data.nt] [--window N] [--windows K] [--mode single|dep|random:K]
                 [--in-flight L] [--rate R] [--seed S] [--json out.json] [--trials T] [--events]
                 [--slide S]
                 [--cost-planning] [--tenants N] [--dup-ratio R] [--admission-budget CELLS]
                 [--metrics-addr HOST:PORT] [--trace-out trace.json]
                 [--deadline-ms D] [--fault-spec SITE:RATE:SEED[,...]]";

/// One subcommand's flags: those that take a value, and switches.
struct Flags {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

const SOLVE_FLAGS: Flags = Flags { values: &["--models", "--facts"], switches: &[] };
const ANALYZE_FLAGS: Flags = Flags {
    values: &["--resolution", "--window", "--slide"],
    switches: &["--dot", "--weighted", "--json"],
};
const GENERATE_FLAGS: Flags =
    Flags { values: &["--out", "--kind", "--size", "--windows", "--seed"], switches: &[] };
const RUN_FLAGS: Flags = Flags {
    values: &[
        "--data",
        "--window",
        "--windows",
        "--mode",
        "--in-flight",
        "--rate",
        "--seed",
        "--json",
        "--trials",
        "--slide",
        "--tenants",
        "--dup-ratio",
        "--admission-budget",
        "--metrics-addr",
        "--trace-out",
        "--deadline-ms",
        "--fault-spec",
    ],
    switches: &["--events", "--cost-planning"],
};

/// Checks `args` against `flags`: every `--flag` must be listed, and one
/// that takes a value must be followed by it. Returns the first positional
/// argument, which is never a flag's value.
fn check_flags<'a>(args: &'a [String], flags: &Flags) -> Result<Option<&'a str>, String> {
    let mut positional = None;
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if flags.values.contains(&arg) {
            rest.next().ok_or_else(|| format!("flag `{arg}` needs a value"))?;
        } else if !arg.starts_with("--") {
            positional = positional.or(Some(arg));
        } else if !flags.switches.contains(&arg) {
            return Err(format!("unknown flag `{arg}`\n{USAGE}"));
        }
    }
    Ok(positional)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_program(path: &str, syms: &Symbols) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(syms, &src).map_err(|e| format!("{path}: {e}"))
}

/// `solve`: plain ASP solving (the engine standalone).
fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = check_flags(args, &SOLVE_FLAGS)?.ok_or("missing program file")?;
    let syms = Symbols::new();
    let mut program = load_program(path, &syms)?;
    if let Some(facts_path) = flag_value(args, "--facts") {
        let facts = load_program(facts_path, &syms)?;
        program.rules.extend(facts.rules);
    }
    let max_models: usize = match flag_value(args, "--models") {
        Some(v) => v.parse().map_err(|_| format!("bad --models value `{v}`"))?,
        None => 0,
    };
    let cfg = SolverConfig { max_models, ..Default::default() };
    let t0 = std::time::Instant::now();
    let result = solve(&syms, &program, &[], &cfg).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    let projection = Projection::shows(&program);
    if result.answer_sets.is_empty() {
        println!("UNSATISFIABLE");
    } else {
        for (i, ans) in result.answer_sets.iter().enumerate() {
            println!("Answer {}: {}", i + 1, projection.apply(ans, &syms).display(&syms));
        }
        println!("SATISFIABLE ({} answer set(s))", result.answer_sets.len());
    }
    println!(
        "atoms {} | vars {} | clauses {} | conflicts {} | decisions {} | {:.2} ms",
        result.stats.atoms,
        result.stats.vars,
        result.stats.clauses,
        result.stats.conflicts,
        result.stats.decisions,
        elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}

/// `analyze`: the design-time phase — graphs, plan, verification, and the
/// static memory-bound/evaluation-order report. `--window N` (default
/// 2048) and `--slide S` set the window model the bounds are computed
/// against; `--json` emits only the machine-readable bound report (the
/// golden-diffed format, see `tests/goldens/analysis/`).
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = check_flags(args, &ANALYZE_FLAGS)?.ok_or("missing program file")?;
    let syms = Symbols::new();
    let program = load_program(path, &syms)?;
    let resolution: f64 = match flag_value(args, "--resolution") {
        Some(v) => v.parse().map_err(|_| format!("bad --resolution value `{v}`"))?,
        None => 1.0,
    };
    let cfg = AnalysisConfig {
        resolution,
        weighted_edges: has_flag(args, "--weighted"),
        ..Default::default()
    };
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &cfg).map_err(|e| e.to_string())?;
    if has_flag(args, "--dot") {
        println!("// extended dependency graph");
        print!("{}", analysis.extended.to_dot(&syms));
        println!("// input dependency graph");
        print!("{}", analysis.input_graph.to_dot(&syms));
        return Ok(());
    }
    let window = analyze_window_spec(args)?;
    let bounds = ProgramBounds::analyze(&syms, &program, &analysis, &window);
    if has_flag(args, "--json") {
        // Nothing but the report: stdout is the golden-diffed artifact.
        print!("{}", bounds.report_json());
        return Ok(());
    }
    println!("input predicates ({}):", analysis.inpre.len());
    for p in &analysis.inpre {
        println!("  {}", p.display(&syms));
    }
    println!("\npartitioning plan:");
    print!("{}", analysis.plan);
    let violations = analysis.verify_plan(&syms);
    if violations.is_empty() {
        println!("\njoin-coverage check: PASS");
    } else {
        println!("\njoin-coverage check: {} violation(s)", violations.len());
        for v in violations {
            println!("  {v}");
        }
    }
    println!();
    print!("{}", bounds.render_text());
    Ok(())
}

/// Parses the `--window`/`--slide` window model the bounds of `analyze` are
/// computed against.
fn analyze_window_spec(args: &[String]) -> Result<WindowSpec, String> {
    let capacity: u64 =
        flag_value(args, "--window").unwrap_or("2048").parse().map_err(|_| "bad --window")?;
    Ok(match flag_value(args, "--slide") {
        Some(v) => {
            let s: u64 = v.parse().map_err(|_| "bad --slide")?;
            if s == 0 {
                return Err("bad --slide (need a positive item count)".into());
            }
            WindowSpec::sliding(capacity, s)
        }
        None => WindowSpec::tuple(capacity),
    })
}

/// `generate`: write a synthetic workload as N-Triples.
fn cmd_generate(args: &[String]) -> Result<(), String> {
    check_flags(args, &GENERATE_FLAGS)?;
    let out = flag_value(args, "--out").ok_or("missing --out file")?;
    let kind = match flag_value(args, "--kind").unwrap_or("sparse") {
        "faithful" => GeneratorKind::Faithful,
        "correlated" => GeneratorKind::Correlated,
        "sparse" => GeneratorKind::CorrelatedSparse,
        other => return Err(format!("unknown generator kind `{other}`")),
    };
    let size: usize =
        flag_value(args, "--size").unwrap_or("5000").parse().map_err(|_| "bad --size")?;
    let windows: usize =
        flag_value(args, "--windows").unwrap_or("1").parse().map_err(|_| "bad --windows")?;
    let seed: u64 =
        flag_value(args, "--seed").unwrap_or("2017").parse().map_err(|_| "bad --seed")?;
    let mut generator = paper_generator(kind, seed);
    let mut text = String::new();
    for w in 0..windows {
        text.push_str(&format!("# window {w}\n"));
        text.push_str(&ntriples::write(&generator.window(size)));
    }
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {windows} window(s) x {size} triples to {out}");
    Ok(())
}

/// Observability wiring for `run`: an optional live Prometheus endpoint
/// (`--metrics-addr`) and an optional Chrome trace-event capture
/// (`--trace-out`). Pure observers — with neither flag this is a no-op and
/// the reasoning hot path stays uninstrumented.
struct ObsSession {
    /// Registry plus its serving endpoint, when `--metrics-addr` was given.
    serving: Option<(
        Arc<stream_reasoner::sr_obs::MetricsRegistry>,
        stream_reasoner::sr_obs::MetricsServer,
    )>,
    /// Trace file path, when `--trace-out` was given.
    trace_out: Option<String>,
}

impl ObsSession {
    /// Parses the observability flags, binds the metrics endpoint and
    /// enables the global tracer as requested.
    fn start(args: &[String]) -> Result<Self, String> {
        use stream_reasoner::sr_obs;
        let serving = match flag_value(args, "--metrics-addr") {
            Some(addr) => {
                let registry = Arc::new(sr_obs::MetricsRegistry::new());
                let server = sr_obs::MetricsServer::start(addr, Arc::clone(&registry))
                    .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
                println!(
                    "metrics: serving Prometheus text on http://{}/metrics",
                    server.local_addr()
                );
                Some((registry, server))
            }
            None => None,
        };
        let trace_out = flag_value(args, "--trace-out").map(str::to_string);
        if trace_out.is_some() {
            sr_obs::tracer().drain();
            sr_obs::tracer().set_enabled(true);
        }
        Ok(ObsSession { serving, trace_out })
    }

    /// The registry the run's engines should register their metrics into.
    fn registry(&self) -> Option<&stream_reasoner::sr_obs::MetricsRegistry> {
        self.serving.as_ref().map(|(registry, _)| registry.as_ref())
    }

    /// Self-scrapes the endpoint (proving the exporter served the run's
    /// final counters), writes the trace file and restores the tracer.
    fn finish(self) -> Result<(), String> {
        use stream_reasoner::sr_obs;
        if let Some((_, server)) = &self.serving {
            let addr = server.local_addr();
            let body =
                sr_obs::scrape(addr).map_err(|e| format!("self-scrape of {addr} failed: {e}"))?;
            let series = body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
            println!(
                "metrics: self-scrape of http://{addr}/metrics returned {} bytes, {series} series",
                body.len()
            );
        }
        if let Some(path) = &self.trace_out {
            sr_obs::tracer().set_enabled(false);
            let spans = sr_obs::tracer().drain();
            std::fs::write(path, sr_obs::chrome_trace_json(&spans))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace: {} span(s) written to {path}", spans.len());
        }
        Ok(())
    }
}

/// The reasoning backend chosen by `--mode`.
#[derive(Clone, Copy)]
enum RunMode {
    Single,
    Dep,
    Random(usize),
}

/// Fixed seed for the `random:K` partitioner — the baseline and engine
/// paths must partition identically for the `--json` identity check.
const RANDOM_PARTITIONER_SEED: u64 = 2017;

impl RunMode {
    /// The partitioning handler for partitioned modes (`None` for `single`).
    fn partitioner(self, analysis: &DependencyAnalysis) -> Option<Arc<dyn Partitioner>> {
        match self {
            RunMode::Single => None,
            RunMode::Dep => Some(Arc::new(PlanPartitioner::new(
                analysis.plan.clone(),
                UnknownPredicate::Partition0,
            ))),
            RunMode::Random(k) => {
                Some(Arc::new(RandomPartitioner::new(k, RANDOM_PARTITIONER_SEED)))
            }
        }
    }
}

fn parse_mode(mode: &str) -> Result<RunMode, String> {
    match mode {
        "single" => Ok(RunMode::Single),
        "dep" => Ok(RunMode::Dep),
        random if random.starts_with("random:") => {
            let k: usize = random["random:".len()..].parse().map_err(|_| "bad --mode random:K")?;
            if k == 0 {
                return Err("--mode random:K needs K >= 1".into());
            }
            Ok(RunMode::Random(k))
        }
        other => Err(format!("unknown --mode `{other}`")),
    }
}

/// `run`: the streaming pipeline over a file-backed or generated stream,
/// window at a time (`--in-flight 0`, the default) or pipelined through the
/// `StreamEngine` with `L` windows in flight.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = check_flags(args, &RUN_FLAGS)?.ok_or("missing program file")?;
    let syms = Symbols::new();
    let program = load_program(path, &syms)?;
    let window_size: usize =
        flag_value(args, "--window").unwrap_or("5000").parse().map_err(|_| "bad --window")?;
    let windows_cap: Option<usize> = match flag_value(args, "--windows") {
        Some(v) => Some(v.parse().map_err(|_| "bad --windows")?),
        None => None,
    };
    let seed: u64 =
        flag_value(args, "--seed").unwrap_or("2017").parse().map_err(|_| "bad --seed")?;
    let in_flight: usize =
        flag_value(args, "--in-flight").unwrap_or("0").parse().map_err(|_| "bad --in-flight")?;
    let rate: f64 = flag_value(args, "--rate").unwrap_or("0").parse().map_err(|_| "bad --rate")?;
    let mode = parse_mode(flag_value(args, "--mode").unwrap_or("dep"))?;
    let slide: Option<usize> = match flag_value(args, "--slide") {
        Some(v) => match v.parse() {
            Ok(s) if s > 0 => Some(s),
            _ => return Err("bad --slide (need a positive item count)".into()),
        },
        None => None,
    };
    // --cost-planning composes with every mode: it changes join evaluation
    // order inside grounding, never the answers.
    let cost_planning = has_flag(args, "--cost-planning");
    let mut reasoner_cfg = ReasonerConfig { cost_planning, ..Default::default() };

    let windows = build_windows(args, window_size, slide, windows_cap, seed)?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
        .map_err(|e| e.to_string())?;

    let projection = if has_flag(args, "--events") {
        Projection::derived(&analysis.inpre)
    } else {
        Projection::All
    };

    let json_path = flag_value(args, "--json");
    let trials: usize =
        flag_value(args, "--trials").unwrap_or("3").parse().map_err(|_| "bad --trials")?;
    if trials == 0 {
        return Err("bad --trials".into());
    }
    if flag_value(args, "--trials").is_some() && json_path.is_none() {
        return Err("--trials repeats the --json benchmark passes; add --json out.json".into());
    }

    let tenants: Option<usize> = match flag_value(args, "--tenants") {
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err("bad --tenants (need N >= 1)".into()),
        },
        None => None,
    };

    let admission_budget: Option<u64> = match flag_value(args, "--admission-budget") {
        Some(v) => Some(v.parse().map_err(|_| "bad --admission-budget")?),
        None => None,
    };
    if admission_budget.is_some() && tenants.is_none() {
        return Err("--admission-budget gates multi-tenant admission; add --tenants N".into());
    }
    let admission = admission_budget.map(|budget| AdmissionPolicy {
        window: WindowSpec { capacity: window_size as u64, slide: slide.map(|s| s as u64) },
        budget_cells: Some(budget),
    });

    let deadline_ms: Option<u64> = match flag_value(args, "--deadline-ms") {
        Some(v) => match v.parse() {
            Ok(d) if d > 0 => Some(d),
            _ => return Err("bad --deadline-ms (need a positive millisecond count)".into()),
        },
        None => None,
    };
    if deadline_ms.is_some() && in_flight == 0 && tenants.is_none() {
        return Err("--deadline-ms arms the pipelined engine's degraded-emission path (or \
                    tenant quarantine scoring); add --in-flight L or --tenants N"
            .into());
    }
    if let Some(spec) = flag_value(args, "--fault-spec") {
        if matches!(mode, RunMode::Single) {
            return Err("--fault-spec injects into partition jobs and partitioned engine lanes; \
                        --mode single has neither (use --mode dep or --mode random:K)"
                .into());
        }
        let plan = FaultPlan::parse_spec(spec).map_err(|e| format!("bad --fault-spec: {e}"))?;
        println!("fault injection: {spec}");
        reasoner_cfg.faults = Some(Arc::new(plan));
    }
    // Observability is orthogonal to the chosen path: the session outlives
    // the run and is finalized (self-scrape, trace write) after it.
    let obs = ObsSession::start(args)?;
    let result = if let Some(tenants) = tenants {
        let dup_ratio: f64 = flag_value(args, "--dup-ratio")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --dup-ratio")?;
        if !(0.0..=1.0).contains(&dup_ratio) {
            return Err("bad --dup-ratio (need a fraction in [0, 1])".into());
        }
        if json_path.is_some()
            || in_flight > 0
            || rate > 0.0
            || flag_value(args, "--trials").is_some()
        {
            return Err("--tenants drives the multi-tenant scheduler window by window; \
                        it is incompatible with --json/--in-flight/--rate/--trials"
                .into());
        }
        if matches!(mode, RunMode::Single) {
            return Err(
                "--tenants serves partitioned programs (--mode dep or --mode random:K)".into()
            );
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        run_tenants(
            &source,
            tenants,
            dup_ratio,
            mode,
            &reasoner_cfg,
            &windows,
            deadline_ms,
            admission,
            obs.registry(),
        )
    } else if flag_value(args, "--dup-ratio").is_some() {
        return Err("--dup-ratio only applies to the multi-tenant path; add --tenants N".into());
    } else if in_flight == 0 {
        if json_path.is_some() || rate > 0.0 {
            return Err(
                "--json/--rate drive the pipelined engine; add --in-flight L (L >= 1)".into()
            );
        }
        run_sequential(&syms, &program, &analysis, mode, &reasoner_cfg, &windows, &projection)
    } else {
        if json_path.is_some() && rate > 0.0 {
            return Err("--json records sustained throughput against an unthrottled baseline; \
                        drop --rate (or set --rate 0)"
                .into());
        }
        run_engine(
            &syms,
            &program,
            &analysis,
            mode,
            &reasoner_cfg,
            windows,
            in_flight,
            rate,
            deadline_ms,
            json_path,
            trials,
            &projection,
            obs.registry(),
        )
    };
    result.and_then(|()| obs.finish())
}

/// Builds the window sequence: cut from an N-Triples file when `--data` is
/// given, generated from the paper workload otherwise. With `--slide S` the
/// stream is cut by a `SlidingWindower` (overlapping windows with delta
/// metadata); otherwise tumbling behavior is unchanged.
fn build_windows(
    args: &[String],
    window_size: usize,
    slide: Option<usize>,
    windows_cap: Option<usize>,
    seed: u64,
) -> Result<Vec<Window>, String> {
    let mut windows: Vec<Window> = Vec::new();
    if let Some(data) = flag_value(args, "--data") {
        let text = std::fs::read_to_string(data).map_err(|e| format!("cannot read {data}: {e}"))?;
        let triples = ntriples::parse(&text).map_err(|e| e.to_string())?;
        println!("loaded {} triples from {data}", triples.len());
        let mut windower: Box<dyn Windower> = match slide {
            Some(s) => Box::new(SlidingWindower::new(window_size, s)),
            None => Box::new(TupleWindower::new(window_size)),
        };
        for (i, t) in triples.into_iter().enumerate() {
            if let Some(w) = windower.feed(StreamItem { triple: t, timestamp_ms: i as u64 }) {
                windows.push(w);
            }
        }
        if let Some(w) = windower.flush() {
            windows.push(w);
        }
        if let Some(cap) = windows_cap {
            windows.truncate(cap);
        }
    } else if let Some(s) = slide {
        // Sliding windows need one continuous stream, not per-window draws.
        let count = windows_cap.unwrap_or(8);
        let total = window_size + s * count.saturating_sub(1);
        let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
        let mut windower = SlidingWindower::new(window_size, s);
        for t in generator.window(total) {
            if let Some(w) = windower.push(t) {
                windows.push(w);
            }
        }
        if let Some(w) = windower.flush() {
            windows.push(w);
        }
        windows.truncate(count);
        println!(
            "generated {} sliding windows x {window_size} items, slide {s} (seed {seed})",
            windows.len()
        );
    } else {
        let count = windows_cap.unwrap_or(8);
        let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, seed);
        for id in 0..count {
            windows.push(Window::new(id as u64, generator.window(window_size)));
        }
        println!("generated {count} windows x {window_size} items (seed {seed})");
    }
    Ok(windows)
}

/// Builds the `--mode`-selected backend. A partitioned one gets its own
/// pool, one worker per partition, and reports into `ctx`'s counters.
fn build_reasoner(
    syms: &Symbols,
    program: &Program,
    analysis: &DependencyAnalysis,
    mode: RunMode,
    reasoner_cfg: &ReasonerConfig,
    ctx: &ExecCtx,
) -> Result<Box<dyn Reasoner>, AspError> {
    let inpre = Some(analysis.inpre.as_slice());
    let cfg = reasoner_cfg.clone();
    Ok(match mode.partitioner(analysis) {
        None => {
            let mut reasoner = SingleReasoner::new(syms, program, None, SolverConfig::default())?;
            reasoner.set_cost_planning(reasoner_cfg.cost_planning);
            Box::new(reasoner)
        }
        Some(partitioner) => {
            let pool = partition_pool(reasoner_cfg, partitioner.partitions())?;
            let ctx = ExecCtx { pool, ..ctx.clone() };
            Box::new(ParallelReasoner::with_ctx(syms, program, inpre, partitioner, cfg, ctx)?)
        }
    })
}

/// The window-at-a-time path (the original `run` behavior).
fn run_sequential(
    syms: &Symbols,
    program: &Program,
    analysis: &DependencyAnalysis,
    mode: RunMode,
    reasoner_cfg: &ReasonerConfig,
    windows: &[Window],
    projection: &Projection,
) -> Result<(), String> {
    let ctx = ExecCtx::default();
    let mut reasoner = build_reasoner(syms, program, analysis, mode, reasoner_cfg, &ctx)
        .map_err(|e| e.to_string())?;
    for window in windows {
        let t0 = std::time::Instant::now();
        let out = reasoner.process(window).map_err(|e| e.to_string())?;
        let latency = t0.elapsed();
        println!(
            "window {} ({} items): {} answer set(s) in {:.2} ms",
            window.id,
            window.len(),
            out.answers.len(),
            duration_ms(latency)
        );
        for ans in out.answers.iter().take(2) {
            print_answer(&projection.apply(ans, syms).display(syms).to_string());
        }
    }
    // The same summary lines the engine path prints, under the same rules.
    print_planner_line(&ctx.counters.snapshot());
    if reasoner_cfg.faults.is_some() || ctx.failures.any_nonzero() {
        print_failure_line(&ctx.failures.snapshot());
    }
    Ok(())
}

/// The multi-tenant path: `tenants` copies of the program served through
/// one `MultiTenantEngine`. The first `round(tenants * dup_ratio)` tenants
/// run the source verbatim (sharing one serving entry — and one program run
/// per window); the rest each get a unique `tenant_tag(<i>).` variant and
/// their own entry.
#[allow(clippy::too_many_arguments)]
fn run_tenants(
    source: &str,
    tenants: usize,
    dup_ratio: f64,
    mode: RunMode,
    reasoner_cfg: &ReasonerConfig,
    windows: &[Window],
    deadline_ms: Option<u64>,
    admission: Option<AdmissionPolicy>,
    registry: Option<&stream_reasoner::sr_obs::MetricsRegistry>,
) -> Result<(), String> {
    let partitioner = match mode {
        RunMode::Dep => TenantPartitioner::Dependency,
        RunMode::Random(k) => TenantPartitioner::Random { k, seed: RANDOM_PARTITIONER_SEED },
        RunMode::Single => unreachable!("rejected in cmd_run"),
    };
    // Each serving entry reuses the communities a window's delta leaves
    // untouched.
    let mut engine = MultiTenantEngine::new(reasoner_cfg.clone());
    engine.set_window_deadline_ms(deadline_ms);
    if let Some(policy) = admission {
        engine.set_admission_policy(policy);
    }
    let n_dup = ((tenants as f64) * dup_ratio).round() as usize;
    for i in 0..tenants {
        let src =
            if i < n_dup { source.to_string() } else { format!("{source}\ntenant_tag({i}).\n") };
        engine.admit(&format!("t{i}"), &src, partitioner).map_err(|e| e.to_string())?;
    }
    println!(
        "serving {tenants} tenant(s) over {} serving entr{} ({n_dup} duplicated)",
        engine.program_count(),
        if engine.program_count() == 1 { "y" } else { "ies" }
    );
    if let Some(metrics) = registry {
        engine.register_metrics(metrics);
    }
    for window in windows {
        let outputs = engine.process(window).map_err(|e| e.to_string())?;
        let answers: usize = outputs.iter().map(|o| o.output.answers.len()).sum();
        println!(
            "window {} ({} items): {} tenant result(s), {} answer set(s) total",
            window.id,
            window.len(),
            outputs.len(),
            answers
        );
    }
    let stats = engine.stats();
    for t in &stats.tenants {
        println!(
            "tenant {} (program {:016x}): p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms over {} window(s)",
            t.tenant, t.program, t.latency.p50_ms, t.latency.p95_ms, t.latency.p99_ms,
            t.latency.count
        );
    }
    let dedup = stats.dedup.expect("multi-tenant stats always carry dedup counters");
    println!(
        "dedup: {} tenant-windows -> {} program runs ({} saved, ratio {:.2})",
        dedup.tenant_windows, dedup.program_runs, dedup.shared_runs_saved, dedup.dedup_ratio
    );
    if let Some(snapshot) = &stats.incremental {
        print_planner_line(snapshot);
    }
    if let Some(f) = &stats.failure {
        print_failure_line(f);
    }
    if let Some(adm) = &stats.admission {
        println!(
            "admission: budget {} cells, {} admitted, {} rejected",
            adm.budget_cells.map_or_else(|| "-".to_string(), |b| b.to_string()),
            adm.admitted,
            adm.rejected
        );
    }
    let quarantined = engine.quarantined_tenants();
    if !quarantined.is_empty() {
        println!("quarantined tenant(s): {}", quarantined.join(", "));
    }
    Ok(())
}

/// Prints one rendered answer set, cut to its first 400 bytes (rounded down
/// to a char boundary) when longer.
fn print_answer(rendered: &str) {
    const MAX_BYTES: usize = 400;
    if rendered.len() <= MAX_BYTES {
        println!("  {rendered}");
    } else {
        let cut = (0..=MAX_BYTES).rev().find(|&i| rendered.is_char_boundary(i)).unwrap_or(0);
        println!("  {}...}}", &rendered[..cut]);
    }
}

/// Prints the recovery-counter summary. Only called when the run produced
/// (or could have produced) one — the snapshot is omitted, never fabricated,
/// for runs without a deadline or fault injection.
fn print_failure_line(f: &FailureSnapshot) {
    println!(
        "failures: {} retries, {} fallbacks, {} degraded window(s), {} late recover(ies), \
         {} lane rebuild(s), {} quarantine(s)",
        f.retries,
        f.fallbacks,
        f.degraded_windows,
        f.late_recoveries,
        f.lane_rebuilds,
        f.quarantines
    );
}

/// Prints the join-planning counters of a partitioned run, only when the
/// cost-based planner actually ran (counters are omitted, never fabricated,
/// for syntactic-heuristic runs).
fn print_planner_line(s: &IncrementalSnapshot) {
    if s.cost_planning {
        println!(
            "join planning: {} replans, {} plans reordered, stats generation {}",
            s.planner_replans, s.planner_plans_reordered, s.planner_generation
        );
    }
}

/// The pipelined path: `in_flight` engine lanes over a shared worker pool,
/// ordered emission, throughput stats, optional JSON record with a
/// sequential-baseline comparison.
#[allow(clippy::too_many_arguments)]
fn run_engine(
    syms: &Symbols,
    program: &Program,
    analysis: &DependencyAnalysis,
    mode: RunMode,
    reasoner_cfg: &ReasonerConfig,
    windows: Vec<Window>,
    in_flight: usize,
    rate: f64,
    deadline_ms: Option<u64>,
    json_path: Option<&str>,
    trials: usize,
    projection: &Projection,
    registry: Option<&stream_reasoner::sr_obs::MetricsRegistry>,
) -> Result<(), String> {
    use std::time::Duration;

    let make_engine = || {
        let config =
            EngineConfig { in_flight, queue_depth: in_flight, window_deadline_ms: deadline_ms };
        match mode.partitioner(analysis) {
            None => StreamEngine::new(config, |_lane| {
                let mut r = SingleReasoner::new(syms, program, None, SolverConfig::default())?;
                r.set_cost_planning(reasoner_cfg.cost_planning);
                Ok(Box::new(r) as Box<dyn Reasoner>)
            }),
            // Partitioned modes: all lanes share one worker pool sized so
            // each in-flight window can still fan out over its partitions,
            // and one set of reuse counters.
            Some(partitioner) => StreamEngine::with_partitioned_lanes(
                syms,
                program,
                Some(&analysis.inpre),
                partitioner,
                reasoner_cfg.clone(),
                config,
            ),
        }
        .map_err(|e| e.to_string())
    };

    let interval = if rate > 0.0 { Duration::from_secs_f64(1.0 / rate) } else { Duration::ZERO };
    let Some(json_path) = json_path else {
        // No baseline pass needed: hand the windows to the engine outright.
        let mut engine = make_engine()?;
        if let Some(registry) = registry {
            engine.register_metrics(registry);
        }
        for window in windows {
            engine.submit(window).map_err(|e| e.to_string())?;
            if !interval.is_zero() {
                std::thread::sleep(interval);
            }
        }
        print_engine_report(syms, &engine.finish(), in_flight, projection);
        return Ok(());
    };

    // `--json`: best of `trials` cold passes on each side. A single
    // engine/baseline sample hovers near 1.0x on toy CI workloads, so one
    // scheduler hiccup would flip the bench gate; the max of several
    // samples is stable. Identity must hold on *every* engine pass.
    let mut base_stats: Option<EngineStats> = None;
    let mut base_rendered: Vec<String> = Vec::new();
    for trial in 0..trials {
        // Fresh reasoner per pass: a reused one would start warm on sliding
        // windows and no longer measure the baseline.
        let mut baseline =
            build_reasoner(syms, program, analysis, mode, reasoner_cfg, &ExecCtx::default())
                .map_err(|e| e.to_string())?;
        let (stats, rendered) =
            sequential_baseline(syms, baseline.as_mut(), &windows).map_err(|e| e.to_string())?;
        if trial == 0 {
            base_rendered = rendered;
        }
        if base_stats.as_ref().is_none_or(|b| stats.windows_per_sec > b.windows_per_sec) {
            base_stats = Some(stats);
        }
    }
    let base_stats = base_stats.expect("trials >= 1");

    let mut best_report: Option<EngineReport> = None;
    let mut identical = true;
    for _ in 0..trials {
        let mut engine = make_engine()?;
        // Re-registering replaces the previous trial's collectors, so the
        // endpoint always reflects the live (latest) engine.
        if let Some(registry) = registry {
            engine.register_metrics(registry);
        }
        for window in &windows {
            engine.submit(window.clone()).map_err(|e| e.to_string())?;
            if !interval.is_zero() {
                std::thread::sleep(interval);
            }
        }
        let report = engine.finish();
        identical &= outputs_match(syms, &report.outputs, &base_rendered);
        if best_report
            .as_ref()
            .is_none_or(|b| report.stats.windows_per_sec > b.stats.windows_per_sec)
        {
            best_report = Some(report);
        }
    }
    let report = best_report.expect("trials >= 1");
    print_engine_report(syms, &report, in_flight, projection);

    let result = ThroughputResult {
        window_size: windows.first().map_or(0, Window::len),
        windows: windows.len(),
        baseline: base_stats,
        runs: vec![ThroughputRun {
            in_flight,
            stats: report.stats.clone(),
            output_identical: identical,
        }],
    };
    std::fs::write(json_path, throughput_json(&result))
        .map_err(|e| format!("cannot write {json_path}: {e}"))?;
    println!(
        "baseline: {wps:.2} windows/s -> speedup {speedup:.2}x, ordered output identical: \
         {identical} [json written to {json_path}]",
        wps = result.baseline.windows_per_sec,
        speedup = result.best_speedup()
    );
    Ok(())
}

/// Prints the ordered engine outputs (answers projected as in the
/// sequential path, so `--events` behaves identically) plus the throughput
/// summary.
fn print_engine_report(
    syms: &Symbols,
    report: &EngineReport,
    in_flight: usize,
    projection: &Projection,
) {
    for out in &report.outputs {
        match &out.result {
            Ok(r) => {
                println!(
                    "window {} ({} items): {} answer set(s) in {:.2} ms{}",
                    out.window_id,
                    out.items,
                    r.answers.len(),
                    duration_ms(out.latency),
                    if out.degraded { " [DEGRADED: replaying last good answer]" } else { "" }
                );
                for ans in r.answers.iter().take(2) {
                    print_answer(&projection.apply(ans, syms).display(syms).to_string());
                }
            }
            Err(e) => {
                println!("window {}: ERROR {e}", out.window_id);
            }
        }
    }
    let stats = &report.stats;
    println!(
        "engine: {} lanes, {} windows, {:.2} windows/s, {:.0} items/s, \
         latency p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms, submit blocked {:.1} ms",
        in_flight,
        stats.windows,
        stats.windows_per_sec,
        stats.items_per_sec,
        stats.latency.p50_ms,
        stats.latency.p95_ms,
        stats.latency.p99_ms,
        stats.submit_blocked_ms.unwrap_or(0.0)
    );
    if let Some(snapshot) = &stats.incremental {
        print_planner_line(snapshot);
    }
    if let Some(f) = &stats.failure {
        print_failure_line(f);
    }
}
