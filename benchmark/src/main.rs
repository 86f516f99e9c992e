//! The repo's benchmark: four paper-shaped workloads driven from outside
//! through the workspace crates' public functions. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --smoke
//! benchmark record --out FILE --seeds a,b,... [--seconds S] [--trace 0|1|both]
//! benchmark compare A.json B.json [--a-pass i] [--b-pass j]
//! benchmark digest
//! ```

mod json;
mod records;
mod replay;
mod run;
mod spec;
mod stats;
mod surface;
mod trace;
mod workloads;

use spec::Spec;
use std::fmt::Write as _;
use workloads::{Inputs, Workload, WORKLOADS};

/// The seed `inputs.lock` pins and every default uses.
const DEFAULT_SEED: u64 = 2017;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Divisor of every window size in the smoke run.
const SMOKE_SCALE: usize = 50;
const INPUTS_LOCK: &str = include_str!("../inputs.lock");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("record") => records::record(&args[1..]),
        Some("compare") => records::compare(&args[1..]).and_then(|(table, regressed)| {
            print!("{table}");
            if regressed {
                Err("at least one row regressed".into())
            } else {
                Ok(())
            }
        }),
        Some("digest") => {
            for w in &WORKLOADS {
                println!(
                    "{} {DEFAULT_SEED} {:016x}",
                    w.name,
                    Inputs::new(w.kind, DEFAULT_SEED, 1).digest()
                );
            }
            Ok(())
        }
        _ if args.iter().any(|a| a == "--smoke") => smoke(),
        _ => measure(&args),
    };
    if let Err(message) = outcome {
        eprintln!("benchmark: {message}");
        std::process::exit(1);
    }
}

/// One run under the driver's contract: the last line of standard output is
/// the result object.
fn measure(args: &[String]) -> Result<(), String> {
    let spec = spec::load();
    let flag = |name: &str| records::flag(args, name);
    let name = flag("--workload").ok_or("which --workload? see BENCHMARK.json")?;
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flag("--seed").map_or(Ok(DEFAULT_SEED), str::parse).map_err(|_| "bad --seed")?;
    let seconds =
        flag("--seconds").map_or(Ok(spec.run_seconds), str::parse).map_err(|_| "bad --seconds")?;
    let traced = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`")),
    };
    let inputs = Inputs::new(workload.kind, seed, 1);
    check_lock(workload, &inputs)?;
    eprintln!(
        "{name}: seed {seed}, {seconds} s, window {} items sliding by {}, nproc {}",
        inputs.size,
        inputs.slide,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let line = if traced {
        layer_run(&spec, workload, &inputs, seconds)?
    } else {
        untraced_run(&spec, &inputs, seconds)
    };
    println!("{line}");
    Ok(())
}

/// A generator change must fail the run loudly, not change the workload
/// silently: the stream's digest for a pinned seed has to match the lock.
fn check_lock(workload: &Workload, inputs: &Inputs) -> Result<(), String> {
    let digest = format!("{:016x}", inputs.digest());
    let pinned = INPUTS_LOCK.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(workload.name) && fields.next() == Some(&inputs.seed.to_string()))
            .then(|| fields.next().unwrap_or(""))
    });
    match pinned {
        Some(expected) if expected != digest => Err(format!(
            "{}'s generated stream for seed {} has digest {digest}, inputs.lock pins {expected}: \
             the generators changed, so this is no longer the same workload",
            workload.name, inputs.seed
        )),
        _ => {
            eprintln!("{}: input digest {digest}", workload.name);
            Ok(())
        }
    }
}

fn untraced_run(spec: &Spec, inputs: &Inputs, seconds: f64) -> String {
    let e = run::end_to_end(inputs, seconds, SETUPS);
    eprintln!(
        "windows_attempted {}, windows_failed {}, latency samples {}, answers checked {}",
        e.attempted, e.failed, e.samples, e.checked
    );
    eprintln!("{}", e.detail);
    let values = [
        ("setup_s", e.setup_s),
        ("items_per_s", e.items_per_s),
        ("latency_p50_ms", e.latency_p50_ms),
        ("latency_p95_ms", e.latency_p95_ms),
        ("peak_rss_mb", e.peak_rss_mb),
    ];
    result_line(e.attempted, e.failed, &spec.end_to_end, &values)
}

fn layer_run(
    spec: &Spec,
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
) -> Result<String, String> {
    let layered = replay::layer_replay(inputs, seconds);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.json", workload.name);
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {}}}\n",
        workload.name,
        inputs.seed,
        trace::to_json(&layered.spans)
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{} spans written to {path}", layered.spans.len());
    Ok(result_line(layered.attempted, layered.failed, &spec.per_layer, &layered.metrics))
}

/// The result object: every metric `declared` in `BENCHMARK.json`, by name,
/// with the unit declared there.
fn result_line(
    attempted: u64,
    failed: u64,
    declared: &[spec::Metric],
    values: &[(&str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, m) in declared.iter().enumerate() {
        let (_, value) = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .unwrap_or_else(|| panic!("{} is declared but not measured", m.name));
        assert!(value.is_finite(), "{} is not a number", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(&m.name),
            json::quote(&m.unit)
        );
    }
    assert_eq!(declared.len(), values.len(), "every measured metric is declared");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

/// All four workloads, both passes, at 1/50 scale: seconds, not minutes.
fn smoke() -> Result<(), String> {
    let spec = spec::load();
    let mut failed = 0;
    for w in &WORKLOADS {
        let inputs = Inputs::new(w.kind, DEFAULT_SEED, SMOKE_SCALE);
        let e = run::end_to_end(&inputs, 0.2, 1);
        let layered = replay::layer_replay(&inputs, 1.0);
        // Formatting checks that both passes report exactly what is declared.
        let _ = result_line(layered.attempted, layered.failed, &spec.per_layer, &layered.metrics);
        println!(
            "{:<16} untraced {:>4} windows, {} failed; replay {:>3} windows, {} failed",
            w.name, e.attempted, e.failed, layered.attempted, layered.failed
        );
        failed += e.failed + layered.failed;
    }
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} windows failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn smoke_run_is_fast_and_clean() {
        let t0 = Instant::now();
        smoke().expect("no window fails at 1/50 scale");
        assert!(t0.elapsed().as_secs_f64() < 10.0, "smoke took {:?}", t0.elapsed());
    }

    #[test]
    fn both_passes_report_exactly_the_declared_metrics() {
        let spec = spec::load();
        let inputs = Inputs::new(workloads::Kind::TumblingSingle, DEFAULT_SEED, SMOKE_SCALE);
        let line = untraced_run(&spec, &inputs, 0.1);
        let parsed = json::parse(&line).expect("the result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(parsed.get(key).is_some(), "{key}");
        }
        for m in &spec.end_to_end {
            let reported = parsed.get("metrics").and_then(|v| v.get(&m.name)).expect("reported");
            assert_eq!(reported.get("unit").and_then(json::Value::as_str), Some(m.unit.as_str()));
            assert!(reported.get("value").and_then(json::Value::as_f64).is_some_and(|v| v > 0.0));
        }
        let layered = replay::layer_replay(&inputs, 0.5);
        let mut reported: Vec<&str> = layered.metrics.iter().map(|(n, _)| *n).collect();
        let mut declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        reported.sort_unstable();
        declared.sort_unstable();
        assert_eq!(reported, declared);
    }

    #[test]
    fn a_changed_stream_fails_the_lock_loudly() {
        let w = &WORKLOADS[0];
        // Another scale stands in for a changed generator: same seed, other stream.
        let changed = Inputs::new(w.kind, DEFAULT_SEED, SMOKE_SCALE);
        let err = check_lock(w, &changed).expect_err("digest differs from the lock");
        assert!(err.contains("inputs.lock"), "{err}");
        assert!(check_lock(w, &Inputs::new(w.kind, 99, SMOKE_SCALE)).is_ok(), "unpinned seed");
    }
}
