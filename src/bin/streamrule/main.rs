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
//!                [--slide S] [--tenants N] [--dup-ratio R]
//!                [--admission-budget CELLS]
//!                [--metrics-addr HOST:PORT] [--trace-out trace.json]
//!                [--deadline-ms D] [--fault-spec SITE:RATE:SEED[,...]]
//! ```
//!
//! Each subcommand accepts exactly the flags listed for it; any other
//! `--flag` is an error that names it.
//! `run` streams tuple windows — read from an N-Triples file or generated
//! synthetically — through one pipelined `StreamEngine` in every mode: `L`
//! lanes (`--in-flight L`, default 1) reason concurrently and emit in
//! submission order. `--rate R` throttles submission to `R` windows/second;
//! `--json` records throughput statistics against a window-at-a-time
//! baseline on the caller thread (the `BENCH_throughput.json` shape),
//! taking the best of `--trials T` passes per side (default 3).
//! `--slide S` cuts sliding windows; a partitioned mode then reuses the
//! answers of every community a slide did not touch (see
//! `sr-core::incremental`).
//! `--tenants N` serves the program to `N` tenants through one multi-tenant
//! scheduler (`sr-core::MultiTenantEngine`) on the engine's one lane
//! (`--in-flight L` then sets how many windows queue ahead of it):
//! `--dup-ratio R` (default 1.0) controls how many tenants run the program
//! verbatim and therefore share one program run per window; the rest get a
//! unique `tenant_tag(<i>).` variant and their own serving entry. The run
//! reports per-tenant latency percentiles and the dedup counters.
//! `--admission-budget CELLS` refuses a tenant program whose static memory
//! bound exceeds the budget, naming the dominating term.
//! `--metrics-addr HOST:PORT` serves the run's sr-obs metrics as a
//! Prometheus text endpoint for the duration of the run, self-scraping it
//! once at the end; `--trace-out trace.json` writes the per-window stage
//! spans as Chrome trace-event JSON. Both are observers: answers and
//! records are identical with or without them.
//! `--deadline-ms D` arms the engine's per-window deadline, with one
//! meaning in every mode: a window still unfinished `D` ms after submission
//! is emitted **degraded** (the last good output, clearly tagged) instead
//! of stalling ordered emission. `--fault-spec SITE:RATE:SEED[,...]` puts a
//! deterministic fault-injection plan (sites: `worker_panic`,
//! `partition_slowdown`, `cache_invalidate`, `source_stall`) on the run's
//! reasoner config (`--mode single` hosts no fault hook and rejects it);
//! recovery counters appear in the report and the `--json` record only
//! when injection or a deadline is active — never fabricated.

mod throughput;

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use stream_reasoner::prelude::*;
use stream_reasoner::sr_core::lock_recover;
use stream_reasoner::sr_obs::MetricsRegistry;
use stream_reasoner::sr_rdf::ntriples;
use throughput::{
    outputs_match, render_output, sequential_baseline, throughput_json, ThroughputResult,
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
                 [--slide S] [--tenants N] [--dup-ratio R] [--admission-budget CELLS]
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
    switches: &["--events"],
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
    let window = window_spec(args, 2048)?;
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

/// The value of flag `name`, if given, which must be a positive count;
/// `need` says so in the error.
fn positive_flag(args: &[String], name: &str, need: &str) -> Result<Option<u64>, String> {
    let parse = |v: &str| v.parse().ok().filter(|&n| n > 0);
    flag_value(args, name).map(|v| parse(v).ok_or(format!("bad {name} (need {need})"))).transpose()
}

/// Parses the `--window` (default `default_size`) and `--slide` window
/// model of `analyze` and `run`; both must be positive item counts.
fn window_spec(args: &[String], default_size: u64) -> Result<WindowSpec, String> {
    let need = "a positive item count";
    let capacity = positive_flag(args, "--window", need)?.unwrap_or(default_size);
    Ok(WindowSpec { capacity, slide: positive_flag(args, "--slide", need)? })
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

/// `run`: the streaming pipeline over a file-backed or generated stream.
/// Every mode streams through one `StreamEngine` with `--in-flight L` lanes
/// (default 1): one reasoner per lane, or one multi-tenant scheduler on one
/// lane.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = check_flags(args, &RUN_FLAGS)?.ok_or("missing program file")?;
    let syms = Symbols::new();
    let program = load_program(path, &syms)?;
    let window = window_spec(args, 5000)?;
    let window_size = window.capacity as usize;
    let slide = window.slide.map(|s| s as usize);
    let windows_cap: Option<usize> = match flag_value(args, "--windows") {
        Some(v) => Some(v.parse().map_err(|_| "bad --windows")?),
        None => None,
    };
    let seed: u64 =
        flag_value(args, "--seed").unwrap_or("2017").parse().map_err(|_| "bad --seed")?;
    let in_flight = positive_flag(args, "--in-flight", "L >= 1 lanes")?.unwrap_or(1) as usize;
    let rate: f64 = flag_value(args, "--rate").unwrap_or("0").parse().map_err(|_| "bad --rate")?;
    let mode = parse_mode(flag_value(args, "--mode").unwrap_or("dep"))?;
    let mut reasoner_cfg = ReasonerConfig::default();

    let windows = build_windows(args, window_size, slide, windows_cap, seed)?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
        .map_err(|e| e.to_string())?;

    let projection = if has_flag(args, "--events") {
        Projection::derived(&analysis.inpre)
    } else {
        Projection::All
    };

    let json_path = flag_value(args, "--json");
    let trials = positive_flag(args, "--trials", "T >= 1 passes")?.unwrap_or(3) as usize;
    if flag_value(args, "--trials").is_some() && json_path.is_none() {
        return Err("--trials repeats the --json benchmark passes; add --json out.json".into());
    }
    if json_path.is_some() && rate > 0.0 {
        return Err("--json records sustained throughput against an unthrottled baseline; \
                    drop --rate (or set --rate 0)"
            .into());
    }

    let tenants = positive_flag(args, "--tenants", "N >= 1")?.map(|n| n as usize);

    let admission_budget: Option<u64> = match flag_value(args, "--admission-budget") {
        Some(v) => Some(v.parse().map_err(|_| "bad --admission-budget")?),
        None => None,
    };
    if admission_budget.is_some() && tenants.is_none() {
        return Err("--admission-budget gates multi-tenant admission; add --tenants N".into());
    }
    let admission =
        admission_budget.map(|budget| AdmissionPolicy { window, budget_cells: Some(budget) });

    let deadline_ms = positive_flag(args, "--deadline-ms", "a positive millisecond count")?;
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
    let plan = RunPlan {
        windows,
        config: EngineConfig { in_flight, queue_depth: in_flight, window_deadline_ms: deadline_ms },
        interval: Duration::try_from_secs_f64(1.0 / rate).unwrap_or_default(),
        json_path,
        trials,
        registry: obs.registry(),
    };
    let result = if let Some(tenants) = tenants {
        let dup_ratio: f64 = flag_value(args, "--dup-ratio")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --dup-ratio")?;
        if !(0.0..=1.0).contains(&dup_ratio) {
            return Err("bad --dup-ratio (need a fraction in [0, 1])".into());
        }
        let partitioner = match mode {
            RunMode::Dep => TenantPartitioner::Dependency,
            RunMode::Random(k) => TenantPartitioner::Random { k, seed: RANDOM_PARTITIONER_SEED },
            RunMode::Single => {
                let msg = "--tenants serves partitioned programs (--mode dep or --mode random:K)";
                return Err(msg.into());
            }
        };
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let run = TenantRun {
            source: &source,
            tenants,
            n_dup: ((tenants as f64) * dup_ratio).round() as usize,
            partitioner,
            reasoner_cfg: &reasoner_cfg,
            admission,
        };
        run_engine(&run, plan)
    } else if flag_value(args, "--dup-ratio").is_some() {
        return Err("--dup-ratio only applies to the multi-tenant path; add --tenants N".into());
    } else {
        let run = ProgramRun {
            syms: &syms,
            program: &program,
            analysis: &analysis,
            mode,
            reasoner_cfg: &reasoner_cfg,
            projection: &projection,
        };
        run_engine(&run, plan)
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
        for t in triples {
            if let Some(w) = windower.feed(t) {
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

/// How `run` streams: the windows, the engine's shape, the pause between
/// submissions and what to record.
struct RunPlan<'a> {
    windows: Vec<Window>,
    config: EngineConfig,
    interval: Duration,
    json_path: Option<&'a str>,
    trials: usize,
    registry: Option<&'a MetricsRegistry>,
}

/// One `run` mode as [`run_engine`] runs it.
trait Mode {
    /// What the mode's reasoner yields for one window.
    type Out: Clone + Default + Send + 'static;
    /// What one pass keeps beside its engine for [`Mode::finish_pass`].
    type Pass;
    /// A fresh engine for one pass, its metrics bound to the plan's
    /// registry; the `first` pass also prints the mode's header.
    fn engine(
        &self,
        plan: &RunPlan,
        first: bool,
    ) -> Result<(StreamEngine<Self::Out>, Self::Pass), String>;
    /// A fresh reasoner for one `--json` baseline pass. It runs without the
    /// fault plan: its record carries no failure counters, so injected
    /// faults would slow it unreported.
    fn baseline(&self) -> Result<Box<dyn Reasoner<Self::Out>>, String>;
    /// The canonical rendering the `--json` identity check compares.
    fn render(&self, out: &Self::Out) -> String;
    /// Prints one emitted window that has a result.
    fn print(&self, out: &EngineOutput<Self::Out>, result: &Self::Out);
    /// Completes the stats of the pass that just finished with the mode's
    /// own figures, and renders the lines printed after its `engine:` line.
    fn finish_pass(&self, pass: Self::Pass, stats: EngineStats) -> (EngineStats, String);
}

/// Streams the plan's windows through a fresh engine. A single pass prints
/// each window as the engine emits it. With `--json` it is the best of
/// `trials` passes measured against as many cold window-at-a-time baseline
/// passes (a single sample hovers near 1.0x on toy workloads, so one
/// scheduler hiccup would decide it; identity must hold on every pass), and
/// the chosen pass's windows are printed once all have run. Then come the
/// `engine:` line and the mode's summary, and the `--json` record.
fn run_engine<M: Mode>(mode: &M, plan: RunPlan) -> Result<(), String> {
    let mut baseline: Option<(EngineStats, Vec<String>)> = None;
    for _ in 0..plan.json_path.map_or(0, |_| plan.trials) {
        // Fresh reasoner per pass: a reused one would start warm on sliding
        // windows and no longer measure the baseline.
        let mut reasoner = mode.baseline()?;
        let (stats, rendered) =
            sequential_baseline(reasoner.as_mut(), &plan.windows, |out| mode.render(out))
                .map_err(|e| e.to_string())?;
        match &mut baseline {
            Some((best, _)) if stats.windows_per_sec <= best.windows_per_sec => {}
            Some((best, _)) => *best = stats,
            None => baseline = Some((stats, rendered)),
        }
    }

    let print = |out: &EngineOutput<M::Out>| match &out.result {
        Ok(result) => mode.print(out, result),
        Err(e) => println!("window {}: ERROR {e}", out.window_id),
    };
    let mut best: Option<(EngineReport<M::Out>, String)> = None;
    let mut identical = true;
    for pass in 0..plan.json_path.map_or(1, |_| plan.trials) {
        // Re-registering replaces the previous pass's collectors, so the
        // endpoint always reflects the live (latest) engine.
        let (mut engine, handle) = mode.engine(&plan, pass == 0)?;
        let mut kept = Vec::new();
        let mut emit = |out: EngineOutput<M::Out>| {
            if baseline.is_some() {
                kept.push(out)
            } else {
                print(&out)
            }
        };
        for window in &plan.windows {
            engine.submit(window.clone()).map_err(|e| e.to_string())?;
            std::thread::sleep(plan.interval);
            while let Some(out) = engine.poll_output() {
                emit(out);
            }
        }
        let mut report = engine.finish();
        report.outputs.drain(..).for_each(&mut emit);
        report.outputs = kept;
        if let Some((_, rendered)) = &baseline {
            identical &= outputs_match(&report.outputs, rendered, |out| mode.render(out));
        }
        let (stats, summary) = mode.finish_pass(handle, report.stats);
        report.stats = stats;
        if best.as_ref().is_none_or(|(b, _)| report.stats.windows_per_sec > b.stats.windows_per_sec)
        {
            best = Some((report, summary));
        }
    }
    let (report, summary) = best.expect("at least one pass");
    report.outputs.iter().for_each(print);
    let stats = &report.stats;
    println!(
        "engine: {} lanes, {} windows, {:.2} windows/s, {:.0} items/s, \
         latency p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms, submit blocked {:.1} ms",
        stats.lanes.len(),
        stats.windows,
        stats.windows_per_sec,
        stats.items_per_sec,
        stats.latency.p50_ms,
        stats.latency.p95_ms,
        stats.latency.p99_ms,
        stats.submit_blocked_ms.unwrap_or(0.0)
    );
    print!("{summary}");

    let (Some(json_path), Some((base_stats, _))) = (plan.json_path, baseline) else {
        return Ok(());
    };
    let result = ThroughputResult {
        window_size: plan.windows.first().map_or(0, Window::len),
        windows: plan.windows.len(),
        baseline: base_stats,
        run: report.stats,
        output_identical: identical,
    };
    std::fs::write(json_path, throughput_json(&result))
        .map_err(|e| format!("cannot write {json_path}: {e}"))?;
    println!(
        "baseline: {wps:.2} windows/s -> speedup {speedup:.2}x, ordered output identical: \
         {identical} [json written to {json_path}]",
        wps = result.baseline.windows_per_sec,
        speedup = result.speedup()
    );
    Ok(())
}

/// One program under `--mode`: one reasoner per lane.
struct ProgramRun<'a> {
    syms: &'a Symbols,
    program: &'a Program,
    analysis: &'a DependencyAnalysis,
    mode: RunMode,
    reasoner_cfg: &'a ReasonerConfig,
    projection: &'a Projection,
}

impl Mode for ProgramRun<'_> {
    type Out = ReasonerOutput;
    type Pass = ();

    fn engine(&self, plan: &RunPlan, _first: bool) -> Result<(StreamEngine, ()), String> {
        let (syms, program, config) = (self.syms, self.program, plan.config);
        let engine = match self.mode.partitioner(self.analysis) {
            None => StreamEngine::new(config, |_lane| {
                let r = SingleReasoner::new(syms, program, None, SolverConfig::default())?;
                Ok(Box::new(r) as Box<dyn Reasoner>)
            }),
            // Partitioned modes: all lanes share one thread bound sized so
            // each in-flight window can still fan out over its partitions,
            // and one set of reuse counters.
            Some(partitioner) => StreamEngine::with_partitioned_lanes(
                syms,
                program,
                Some(&self.analysis.inpre),
                partitioner,
                self.reasoner_cfg.clone(),
                config,
            ),
        }
        .map_err(|e| e.to_string())?;
        if let Some(registry) = plan.registry {
            engine.register_metrics(registry, "sr_engine");
        }
        Ok((engine, ()))
    }

    fn baseline(&self) -> Result<Box<dyn Reasoner>, String> {
        let cfg = ReasonerConfig { faults: None, ..self.reasoner_cfg.clone() };
        let (syms, program) = (self.syms, self.program);
        let inpre = Some(self.analysis.inpre.as_slice());
        Ok(match self.mode.partitioner(self.analysis) {
            None => Box::new(
                SingleReasoner::new(syms, program, None, SolverConfig::default())
                    .map_err(|e| e.to_string())?,
            ),
            Some(partitioner) => Box::new(
                ParallelReasoner::new(syms, program, inpre, partitioner, cfg)
                    .map_err(|e| e.to_string())?,
            ),
        })
    }

    fn render(&self, out: &ReasonerOutput) -> String {
        render_output(self.syms, out)
    }

    fn print(&self, out: &EngineOutput, r: &ReasonerOutput) {
        println!(
            "window {} ({} items): {} answer set(s) in {:.2} ms{}",
            out.window_id,
            out.items,
            r.answers.len(),
            duration_ms(out.latency),
            if out.degraded { DEGRADED } else { "" }
        );
        for ans in r.answers.iter().take(2) {
            println!(
                "  {}",
                answer_line(&self.projection.apply(ans, self.syms).display(self.syms).to_string())
            );
        }
    }

    fn finish_pass(&self, (): (), stats: EngineStats) -> (EngineStats, String) {
        let summary = stats.failure.as_ref().map_or_else(String::new, failure_line);
        (stats, summary)
    }
}

/// `--tenants N`: copies of the program served through one
/// `MultiTenantEngine`. The first `round(N * dup_ratio)` tenants run the
/// source verbatim (sharing one serving entry — and one program run per
/// window); the rest each get a unique `tenant_tag(<i>).` variant and their
/// own entry. The scheduler serves one window at a time, forking its entries
/// and their partitions off the lane thread, so the engine has one lane:
/// lanes sharing it would only wait
/// on each other, and could take sliding windows out of order and lose
/// their reuse. `--in-flight L` sets how many windows queue ahead of it.
struct TenantRun<'a> {
    source: &'a str,
    tenants: usize,
    n_dup: usize,
    partitioner: TenantPartitioner,
    reasoner_cfg: &'a ReasonerConfig,
    admission: Option<AdmissionPolicy>,
}

impl TenantRun<'_> {
    /// A scheduler with every tenant admitted, its entries built from `cfg`.
    fn scheduler(&self, cfg: ReasonerConfig) -> Result<MultiTenantEngine, String> {
        let mut scheduler = MultiTenantEngine::new(cfg);
        if let Some(policy) = self.admission {
            scheduler.set_admission_policy(policy);
        }
        for i in 0..self.tenants {
            let src = if i < self.n_dup {
                self.source.to_string()
            } else {
                format!("{}\ntenant_tag({i}).\n", self.source)
            };
            scheduler.admit(&format!("t{i}"), &src, self.partitioner).map_err(|e| e.to_string())?;
        }
        Ok(scheduler)
    }
}

impl Mode for TenantRun<'_> {
    type Out = Vec<TenantOutput>;
    /// The scheduler the pass's engine runs, for its stats.
    type Pass = Arc<Mutex<MultiTenantEngine>>;

    fn engine(
        &self,
        plan: &RunPlan,
        first: bool,
    ) -> Result<(StreamEngine<Vec<TenantOutput>>, Self::Pass), String> {
        let scheduler = self.scheduler(self.reasoner_cfg.clone())?;
        if first {
            println!(
                "serving {} tenant(s) over {} serving entr{} ({} duplicated)",
                self.tenants,
                scheduler.program_count(),
                if scheduler.program_count() == 1 { "y" } else { "ies" },
                self.n_dup
            );
        }
        // The lane reports into the scheduler's context, so retries,
        // quarantines and degraded windows land in one snapshot.
        let ctx = scheduler.ctx().clone();
        if let Some(registry) = plan.registry {
            scheduler.register_metrics(registry);
        }
        let shared = Arc::new(Mutex::new(scheduler));
        let engine = StreamEngine::with_ctx(
            EngineConfig { in_flight: 1, ..plan.config },
            |_lane| Ok(Box::new(Arc::clone(&shared)) as Box<dyn Reasoner<Vec<TenantOutput>>>),
            ctx,
        )
        .map_err(|e| e.to_string())?;
        if let Some(registry) = plan.registry {
            engine.register_metrics(registry, "sr_tenant");
        }
        Ok((engine, shared))
    }

    fn baseline(&self) -> Result<Box<dyn Reasoner<Vec<TenantOutput>>>, String> {
        let cfg = ReasonerConfig { faults: None, ..self.reasoner_cfg.clone() };
        Ok(Box::new(self.scheduler(cfg)?))
    }

    fn render(&self, outputs: &Vec<TenantOutput>) -> String {
        outputs
            .iter()
            .map(|o| format!("{}\n{}", o.tenant, render_output(&o.syms, &o.output)))
            .collect()
    }

    /// The counts, then the digest of [`Mode::render`]'s rendering, so a
    /// diff of two runs' output compares every tenant's answers.
    fn print(&self, out: &EngineOutput<Vec<TenantOutput>>, outputs: &Vec<TenantOutput>) {
        let answers: usize = outputs.iter().map(|o| o.output.answers.len()).sum();
        println!(
            "window {} ({} items): {} tenant result(s), {} answer set(s) total{} #{:016x}",
            out.window_id,
            out.items,
            outputs.len(),
            answers,
            if out.degraded { DEGRADED } else { "" },
            digest(&self.render(outputs))
        );
    }

    fn finish_pass(&self, scheduler: Self::Pass, stats: EngineStats) -> (EngineStats, String) {
        use std::fmt::Write as _;
        let scheduler = lock_recover(&scheduler);
        let own = scheduler.stats();
        let stats = EngineStats {
            incremental: own.incremental,
            tenants: own.tenants,
            dedup: own.dedup,
            admission: own.admission,
            failure: stats.failure.or(own.failure),
            ..stats
        };
        let mut summary = String::new();
        for t in &stats.tenants {
            let _ = writeln!(
                summary,
                "tenant {} (program {:016x}): p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms over {} window(s)",
                t.tenant, t.program, t.latency.p50_ms, t.latency.p95_ms, t.latency.p99_ms,
                t.latency.count
            );
        }
        if let Some(dedup) = &stats.dedup {
            let _ = writeln!(
                summary,
                "dedup: {} tenant-windows -> {} program runs ({} saved, ratio {:.2})",
                dedup.tenant_windows,
                dedup.program_runs,
                dedup.shared_runs_saved,
                dedup.dedup_ratio
            );
        }
        if let Some(f) = &stats.failure {
            summary.push_str(&failure_line(f));
        }
        if let Some(adm) = &stats.admission {
            let _ = writeln!(
                summary,
                "admission: budget {} cells, {} admitted, {} rejected",
                adm.budget_cells.map_or_else(|| "-".to_string(), |b| b.to_string()),
                adm.admitted,
                adm.rejected
            );
        }
        let quarantined = scheduler.quarantined_tenants();
        if !quarantined.is_empty() {
            let _ = writeln!(summary, "quarantined tenant(s): {}", quarantined.join(", "));
        }
        (stats, summary)
    }
}

/// The tag of a window emitted past its deadline.
const DEGRADED: &str = " [DEGRADED: replaying last good answer]";

/// One rendered answer set as `run` prints it. An answer longer than 400
/// bytes is cut there (rounded down to a char boundary) and followed by the
/// FNV-1a-64 digest of the whole answer, so a diff of two runs' output
/// still compares whole answers.
fn answer_line(rendered: &str) -> String {
    const MAX_BYTES: usize = 400;
    if rendered.len() <= MAX_BYTES {
        return rendered.to_string();
    }
    let cut = (0..=MAX_BYTES).rev().find(|&i| rendered.is_char_boundary(i)).unwrap_or(0);
    format!("{}...}} #{:016x}", &rendered[..cut], digest(rendered))
}

/// The FNV-1a-64 digest `run` prints after a cut answer and at the end of a
/// tenant window line.
fn digest(rendered: &str) -> u64 {
    rendered
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The recovery-counter summary line. Only printed when the run produced
/// (or could have produced) one — the snapshot is omitted, never
/// fabricated, for runs without a deadline or fault injection.
fn failure_line(f: &FailureSnapshot) -> String {
    format!(
        "failures: {} retries, {} fallbacks, {} degraded window(s), {} late recover(ies), \
         {} lane rebuild(s), {} quarantine(s)\n",
        f.retries,
        f.fallbacks,
        f.degraded_windows,
        f.late_recoveries,
        f.lane_rebuilds,
        f.quarantines
    )
}

#[cfg(test)]
mod tests {
    use super::answer_line;

    #[test]
    fn cut_answers_that_differ_past_the_cut_print_different_lines() {
        let prefix = format!("{{{}", "a(1), ".repeat(80));
        let (one, two) = (format!("{prefix}b(1)}}"), format!("{prefix}b(2)}}"));
        assert_eq!(one[..400], two[..400], "the answers share their first 400 bytes");
        let (line_one, line_two) = (answer_line(&one), answer_line(&two));
        assert!(line_one.starts_with(&one[..400]) && line_one.contains("...} #"), "{line_one}");
        assert_ne!(line_one, line_two, "the digest tells the tails apart");
        assert_eq!(answer_line("{a(1)}"), "{a(1)}", "short answers print whole");
    }
}
