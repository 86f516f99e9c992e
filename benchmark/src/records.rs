//! Run records and their comparison: `benchmark record` runs every workload
//! in a child process of its own (so `peak_rss_mb` is per workload) and
//! keeps each run's result line; `benchmark compare` applies the bounds of
//! `BENCHMARK.json` to every (end-to-end metric, workload) pair of two
//! records.

use crate::json::{self, Value};
use crate::spec::{self, Metric};
use crate::stats;
use std::fmt::Write as _;
use std::process::Command;

/// `record --out FILE --seeds a,b,... [--seconds n] [--trace 0|1|both]`:
/// one pass per listed seed (a seed may repeat), every workload per pass.
pub fn record(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("record needs --out FILE")?;
    let seeds: Vec<u64> = flag(args, "--seeds")
        .unwrap_or("2017")
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .collect::<Result<_, _>>()?;
    let spec = spec::load();
    let seconds = flag(args, "--seconds").map_or(Ok(spec.run_seconds), str::parse::<f64>);
    let seconds = seconds.map_err(|_| "bad --seconds")?;
    let traces: &[u8] = match flag(args, "--trace").unwrap_or("both") {
        "0" => &[0],
        "1" => &[1],
        "both" => &[0, 1],
        other => return Err(format!("bad --trace `{other}`")),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for (pass, seed) in seeds.iter().enumerate() {
        for workload in &spec.workloads {
            for trace in traces {
                eprintln!("record: pass {pass} seed {seed} {workload} trace {trace}");
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
                    .output()
                    .map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or("");
                if !output.status.success() || json::parse(line).is_err() {
                    return Err(format!(
                        "{workload} (seed {seed}, trace {trace}) failed: {}",
                        String::from_utf8_lossy(&output.stderr)
                    ));
                }
                runs.push(format!(
                    "    {{\"pass\": {pass}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
                     \"result\": {line}}}",
                    json::quote(workload)
                ));
            }
        }
    }
    let text = format!(
        "{{\n  \"fingerprint\": {},\n  \"seconds\": {seconds},\n  \"runs\": [\n{}\n  ]\n}}\n",
        fingerprint(),
        runs.join(",\n")
    );
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))
}

/// The machine and toolchain a record was taken on.
fn fingerprint() -> String {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        json::quote(&cpu),
        json::quote(&run("rustc", &["-V"])),
        json::quote(&run("git", &["rev-parse", "HEAD"]))
    )
}

/// The value following `name` on the command line.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Every untraced value of `metric` on `workload`, optionally of one pass.
fn values(record: &Value, workload: &str, metric: &str, pass: Option<f64>) -> Vec<f64> {
    record
        .get("runs")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter(|r| pass.is_none() || r.get("pass").and_then(Value::as_f64) == pass)
        .filter_map(|r| r.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's runs spread wider than the bound: no verdict.
    Unresolved,
}

/// The rule of one row: `b` against baseline `a`.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (stats::median(a.to_vec()), stats::median(b.to_vec()));
    let worse = if metric.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    let spread = [a, b].iter().filter_map(|v| stats::quartile_spread(v)).fold(0.0, f64::max);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// `compare A.json B.json [--a-pass i] [--b-pass j]`: one row per
/// (end-to-end metric, workload). Returns the table and whether any row
/// regressed.
pub fn compare(args: &[String]) -> Result<(String, bool), String> {
    let [a_path, b_path, ..] = args else { return Err("compare needs A.json B.json".into()) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let pass = |name: &str| flag(args, name).map(|p| p.parse::<f64>().map_err(|_| "bad pass"));
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (a_pass, b_pass) = (pass("--a-pass").transpose()?, pass("--b-pass").transpose()?);
    let spec = spec::load();
    let mut table = format!(
        "{:<16} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "A iqr", "B iqr", "worse", "bound"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let va = values(&a, workload, &metric.name, a_pass);
            let vb = values(&b, workload, &metric.name, b_pass);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("no untraced run of {workload} reports {}", metric.name));
            }
            let (v, worse) = verdict(metric, &va, &vb);
            regressed |= v == Verdict::Regressed;
            let spread =
                |v: &[f64]| stats::quartile_spread(v).map_or("n/a".into(), |s| format!("{s:.4}"));
            let _ = writeln!(
                table,
                "{:<16} {:<15} {:>12.4} {:>12.4} {:>8} {:>8} {:>+8.4} {:>6.2}  {}",
                workload,
                metric.name,
                stats::median(va.clone()),
                stats::median(vb.clone()),
                spread(&va),
                spread(&vb),
                worse,
                metric.bound.unwrap_or(0.0),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), higher_is_better, bound: Some(0.08) }
    }

    #[test]
    fn verdict_applies_the_bound_in_the_metric_s_direction() {
        let steady = [100.0, 100.5, 99.5, 100.2];
        let slower = [110.0, 110.5, 109.5, 110.2];
        assert_eq!(verdict(&metric(false), &steady, &slower).0, Verdict::Regressed);
        assert_eq!(verdict(&metric(true), &steady, &slower).0, Verdict::Ok);
        assert_eq!(verdict(&metric(true), &slower, &steady).0, Verdict::Regressed);
        assert_eq!(verdict(&metric(false), &steady, &[103.0, 104.0]).0, Verdict::Ok);
        // One value a side: no spread to judge by, the bound alone decides.
        assert_eq!(verdict(&metric(false), &[100.0], &[120.0]).0, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&metric(false), &noisy, &noisy).0, Verdict::Unresolved);
        assert_eq!(verdict(&metric(false), &[100.0, 100.1], &noisy).0, Verdict::Unresolved);
    }

    #[test]
    fn values_select_untraced_runs_of_one_workload_and_pass() {
        let record = json::parse(
            r#"{"runs": [
              {"pass": 0, "workload": "w", "trace": 0, "result": {"metrics": {"m": {"value": 1.5, "unit": "u"}}}},
              {"pass": 1, "workload": "w", "trace": 0, "result": {"metrics": {"m": {"value": 2.5, "unit": "u"}}}},
              {"pass": 0, "workload": "w", "trace": 1, "result": {"metrics": {"m": {"value": 9.0, "unit": "u"}}}},
              {"pass": 0, "workload": "x", "trace": 0, "result": {"metrics": {"m": {"value": 7.0, "unit": "u"}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&record, "w", "m", None), vec![1.5, 2.5]);
        assert_eq!(values(&record, "w", "m", Some(1.0)), vec![2.5]);
    }
}
