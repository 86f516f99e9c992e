//! Workspace wiring smoke test: drives the full quickstart path — parse →
//! dependency analysis → ground/solve inside both reasoners → partition →
//! parallel reasoning → combine → accuracy — through the public facade
//! (`stream_reasoner::prelude`). If any crate in the dependency DAG is
//! miswired or a public re-export goes missing, this fails before anything
//! subtler does.

use std::sync::Arc;
use stream_reasoner::prelude::*;

/// Program P from the paper (Section II-A).
const PROGRAM_P: &str = r#"
    very_slow_speed(X) :- average_speed(X,Y), Y < 20.
    many_cars(X)       :- car_number(X,Y), Y > 40.
    traffic_jam(X)     :- very_slow_speed(X), many_cars(X), not traffic_light(X).
    car_fire(X)        :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
    give_notification(X) :- traffic_jam(X).
    give_notification(X) :- car_fire(X).
"#;

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
