//! `BENCHMARK.json` as the benchmark itself reads it: the names, units and
//! bounds in the output come from that file, so the two cannot disagree.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn load() -> Spec {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("`{key}` is a string"))
            .to_string()
    };
    let metrics = |key: &str| -> Vec<Metric> {
        doc.get(key)
            .map_or(&[][..], Value::as_arr)
            .iter()
            .map(|m| Metric {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: text(m, "better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    Spec {
        run_seconds: doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds"),
        workloads: doc
            .get("workloads")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_unique_and_match_the_workloads() {
        let spec = load();
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, declared);
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn setup_has_the_largest_bound_and_every_bound_is_legal() {
        let spec = load();
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics carry a bound");
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &spec.end_to_end {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
            assert!(bound(m) <= bound(setup), "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }
}
