//! Workspace wiring smoke test: drives the full quickstart path — parse →
//! dependency analysis → ground/solve inside both reasoners → partition →
//! parallel reasoning → combine → accuracy — through the public facade
//! (`stream_reasoner::prelude`). If any crate in the dependency DAG is
//! miswired or a public re-export goes missing, this fails before anything
//! subtler does.

use std::sync::Arc;
use stream_reasoner::prelude::*;

/// Program P from the paper (Section II-A).
const PROGRAM_P: &str = include_str!("../assets/traffic_p.lp");

/// The motivating window from Section II-A, as RDF triples.
fn section_ii_window() -> Window {
    let t = |s: &str, p: &str, o: Node| Triple::new(Node::iri(s), Node::iri(p), o);
    Window::new(
        0,
        vec![
            t("newcastle", "average_speed", Node::Int(10)),
            t("newcastle", "car_number", Node::Int(55)),
            t("car1", "car_in_smoke", Node::literal("high")),
            t("car1", "car_speed", Node::Int(0)),
            t("car1", "car_location", Node::iri("dangan")),
        ],
    )
}

#[test]
fn quickstart_path_end_to_end() {
    let syms = Symbols::new();
    let program = parse_program(&syms, PROGRAM_P).expect("parse program P");
    assert_eq!(program.rules.len(), 6);

    // Single reasoner R: transform → ground → solve.
    let mut r = SingleReasoner::new(&syms, &program, None, SolverConfig::default())
        .expect("build reasoner R");
    let window = section_ii_window();
    let out_r = r.process(&window).expect("R processes the window");
    assert!(!out_r.answers.is_empty(), "program P is satisfiable on the window");

    // Design time: input dependency analysis must produce a valid plan that
    // covers every join (Algorithm 1's precondition).
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
        .expect("dependency analysis");
    analysis.plan.validate().expect("plan is internally consistent");
    assert!(analysis.verify_plan(&syms).is_empty(), "plan covers every join");

    // Run time: partition → parallel reasoning → combine.
    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut pr = ParallelReasoner::new(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig::default(),
    )
    .expect("build reasoner PR");
    let out_pr = pr.process(&window).expect("PR processes the window");

    // The central claim on the motivating example: dependency partitioning
    // loses nothing.
    let projection = Projection::derived(&analysis.inpre);
    let accuracy = window_accuracy(&syms, &out_r.answers, &out_pr.answers, &projection);
    assert_eq!(accuracy, 1.0, "dependency partitioning preserves the answers");

    // Both the jam and the fire must be detected (no traffic_light blocks
    // the jam in this window).
    let answers = out_r.answers[0].display(&syms).to_string();
    assert!(answers.contains("traffic_jam(newcastle)"), "got: {answers}");
    assert!(answers.contains("car_fire(dangan)"), "got: {answers}");
    assert!(answers.contains("give_notification(newcastle)"), "got: {answers}");
}

/// `streamrule run` cuts long answer sets for display; the cut must land on
/// a char boundary when a multi-byte literal straddles the limit.
#[test]
fn run_truncates_multibyte_answers_at_a_char_boundary() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("utf8_truncation");
    std::fs::create_dir_all(&dir).unwrap();
    let (program, data) = (dir.join("p.lp"), dir.join("d.nt"));
    std::fs::write(&program, "seen(X,Y) :- tag(X,Y).\n").unwrap();
    std::fs::write(&data, format!("<aa> <tag> \"{}\" .\n", "é".repeat(300))).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
        .arg("run")
        .arg(&program)
        .arg("--data")
        .arg(&data)
        .args(["--window", "1", "--mode", "single"])
        .output()
        .expect("streamrule runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(stdout.contains("...}"), "the answer set is shown truncated: {stdout}");
}

/// A misspelled or retired flag is an error that names it, not a flag
/// silently ignored.
#[test]
fn run_rejects_unknown_flags_by_name() {
    for flag in ["--incremantal", "--cache-size", "--incremental"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
            .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "1", flag])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("streamrule runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
    }
}

/// `--mode single` hosts no fault hook, so a `--fault-spec` there would
/// inject nothing: the run refuses it by name instead.
#[test]
fn run_rejects_a_fault_plan_that_single_mode_cannot_fire() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
        .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "1"])
        .args(["--mode", "single", "--in-flight", "2", "--fault-spec", "worker_panic:1:1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("streamrule runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the plan was accepted: {stderr}");
    assert!(stderr.contains("--fault-spec") && stderr.contains("--mode single"), "{stderr}");
}

/// `--window 0` is refused by name on every windowing path: generated
/// tumbling windows, sliding windows and a data file. It must neither panic
/// inside a windower nor stream empty windows.
#[test]
fn run_rejects_a_zero_window() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero_window");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("d.nt");
    std::fs::write(&data, "<loc0> <car_number> 50 .\n").unwrap();
    let data = data.to_str().expect("UTF-8 path");
    for extra in [&[][..], &["--slide", "1"], &["--data", data]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
            .args(["run", "assets/traffic_p.lp", "--window", "0", "--windows", "2"])
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("streamrule runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("bad --window (need a positive item count)"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}

/// The keys of a JSON document in document order: every `"name":` whose
/// name is lower-case ASCII, digits and `_`.
fn json_keys(doc: &str) -> Vec<&str> {
    let parts: Vec<&str> = doc.split('"').collect();
    let is_key = |s: &str| {
        !s.is_empty()
            && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    (1..parts.len().saturating_sub(1))
        .step_by(2)
        .filter(|&i| parts[i + 1].starts_with(':') && is_key(parts[i]))
        .map(|i| parts[i])
        .collect()
}

const LATENCY: &[&str] =
    &["latency", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "min_ms", "max_ms"];
const TOTALS: &[&str] =
    &["windows", "errors", "items", "elapsed_ms", "windows_per_sec", "items_per_sec"];
const LANE: &[&str] = &["busy_ms", "windows", "busy_fraction"];

/// The keys of a `--json` record up to the engine run's latency object:
/// the baseline, then the one run with `lanes` lanes.
fn record_keys_through_run_latency(lanes: usize) -> Vec<&'static str> {
    let mut keys = vec!["window_size", "windows", "baseline"];
    keys.extend(TOTALS);
    keys.extend(["incremental", "lanes", "queue_high_water"]);
    keys.extend(LATENCY);
    keys.extend(["runs", "in_flight", "ordered_output_identical", "stats"]);
    keys.extend(TOTALS);
    keys.extend(["submit_blocked_ms", "incremental", "hits", "misses"]);
    keys.extend(["dirty_partition_ratio", "lanes"]);
    keys.extend(LANE.repeat(lanes));
    keys.push("queue_high_water");
    keys.extend(LATENCY);
    keys
}

/// The `--json` record keeps its layout key by key: the baseline, the one
/// engine run with two lanes, and — only when a deadline or a fault plan
/// arms it — the engine's `failure` object.
#[test]
fn run_json_record_keeps_its_key_layout() {
    const FAILURE: &[&str] = &[
        "failure",
        "retries",
        "fallbacks",
        "degraded_windows",
        "late_recoveries",
        "lane_rebuilds",
        "quarantines",
    ];
    let expected = |failure: &[&'static str]| -> Vec<&'static str> {
        let mut keys = record_keys_through_run_latency(2);
        keys.extend(failure);
        keys.push("best_speedup_windows_per_sec");
        keys
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_keys");
    std::fs::create_dir_all(&dir).unwrap();
    let armed = ["--deadline-ms", "100", "--fault-spec", "worker_panic:0.3:7"];
    for (name, extra, failure) in [("plain", &[][..], &[][..]), ("armed", &armed[..], FAILURE)] {
        let json = dir.join(format!("{name}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
            .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "2"])
            .args(["--in-flight", "2", "--trials", "1", "--json"])
            .arg(&json)
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("streamrule runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: exit {:?}: {stderr}", out.status);
        let doc = std::fs::read_to_string(&json).expect("the record is written");
        assert_eq!(json_keys(&doc), expected(failure), "{name}: {doc}");
    }
}

/// The `--json` baseline pass runs without the fault plan: its record has
/// no failure counters, so injected faults would slow it unreported. The
/// plan is seeded, so a run with `--json` injects exactly the panics of the
/// same run without it.
#[test]
fn run_json_baseline_runs_without_the_fault_plan() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_baseline_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("t.json");
    let json = json.to_str().expect("UTF-8 path");
    let injected = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
            .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "2"])
            .args(["--in-flight", "2", "--fault-spec", "worker_panic:0.3:7"])
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("streamrule runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{extra:?}: exit {:?}: {stderr}", out.status);
        stderr.lines().filter(|l| l.contains("injected worker fault")).count()
    };
    let engine_only = injected(&[]);
    assert!(engine_only > 0, "the plan injects at least one panic");
    assert_eq!(injected(&["--trials", "1", "--json", json]), engine_only);
}

/// A tenant run streams through the same engine, so it writes the same
/// `--json` record, with the scheduler's per-tenant latency and dedup
/// counters after the run's latency, and the ordered outputs of every
/// tenant identical to the window-at-a-time baseline's. The scheduler runs
/// on one lane; `--in-flight 2` only queues windows ahead of it.
#[test]
fn run_json_record_of_a_tenant_run_keeps_its_key_layout() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_tenant_keys");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("tenants.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
        .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "3"])
        .args(["--tenants", "3", "--in-flight", "2", "--trials", "1", "--json"])
        .arg(&json)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("streamrule runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    let doc = std::fs::read_to_string(&json).expect("the record is written");
    let mut expected = record_keys_through_run_latency(1);
    expected.push("tenants");
    for _ in 0..3 {
        expected.extend(["tenant", "program"]);
        expected.extend(LATENCY);
    }
    expected.extend(["dedup", "tenants", "programs", "windows", "tenant_windows"]);
    expected.extend(["program_runs", "shared_runs_saved", "dedup_ratio"]);
    expected.push("best_speedup_windows_per_sec");
    assert_eq!(json_keys(&doc), expected, "{doc}");
    assert!(doc.contains("\"in_flight\": 1, \"ordered_output_identical\": true"), "{doc}");
}

/// Every mode streams through the engine, which needs at least one lane:
/// `--in-flight 0` is refused by name.
#[test]
fn run_rejects_zero_lanes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamrule"))
        .args(["run", "assets/traffic_p.lp", "--window", "200", "--windows", "1"])
        .args(["--in-flight", "0"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("streamrule runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bad --in-flight (need L >= 1 lanes)"), "{stderr}");
}
