//! The benchmark's catalogue — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — read from `BENCHMARK.json` at the repository
//! root, which is compiled in as its one source, and the result line every
//! run prints.

use std::collections::BTreeMap;
use std::sync::LazyLock;

use seqrec_obs::json::{self, Value};

/// The next-item fit loops `fit_zoo` runs, with the benchmark span each
/// call is wrapped in and the optimiser steps one call takes. The step
/// counts follow the epoch counts that give every loop a visible share of
/// the round (GRU4Rec about a fifth).
pub const FIT_METHODS: [(&str, &str, usize); 8] = [
    ("BERT4Rec", "fit.BERT4Rec", 1),
    ("SASRec", "fit.SASRec", 1),
    ("CL4SRec-finetune", "fit.CL4SRec-finetune", 1),
    ("GRU4Rec", "fit.GRU4Rec", 3),
    ("Caser", "fit.Caser", 5),
    ("NCF", "fit.NCF", 5),
    ("FPMC", "fit.FPMC", 5),
    ("BPR-MF", "fit.BPR-MF", 5),
];

/// The fit loops whose steps the traced run splits into phases.
pub const FIT_BREAKDOWN: [&str; 2] = ["SASRec", "GRU4Rec"];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

/// One metric of the catalogue.
#[derive(Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The catalogue of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics; each has a bound.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

fn metric_def(v: &Value, at: &str, bounded: bool) -> Result<MetricDef, String> {
    let field = |key: &str| {
        v.get(key).and_then(Value::as_str).ok_or_else(|| format!("{at}: missing string \"{key}\""))
    };
    let better = match field("better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        _ => return Err(format!("{at}: \"better\" must be lower or higher")),
    };
    let bound = match v.get("bound").and_then(Value::as_f64) {
        None if bounded => return Err(format!("{at}: missing number \"bound\"")),
        bound => bound,
    };
    Ok(MetricDef {
        name: field("name")?.to_string(),
        unit: field("unit")?.to_string(),
        better,
        bound,
    })
}

impl Spec {
    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    /// Returns a message naming the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("missing array \"{key}\""))
        };
        let metrics = |key: &str, bounded: bool| {
            list(key)?
                .iter()
                .enumerate()
                .map(|(i, m)| metric_def(m, &format!("{key}[{i}]"), bounded))
                .collect::<Result<Vec<_>, String>>()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload has no name")?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

/// The catalogue, parsed once from the compiled-in `BENCHMARK.json`.
pub fn spec() -> &'static Spec {
    static SPEC: LazyLock<Spec> = LazyLock::new(|| {
        Spec::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    });
    &SPEC
}

/// What one run measured: ops attempted and failed, and named values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (steps, users, requests; correctness checks count as
    /// ops of their own where they are not re-checks of a timed op).
    pub attempted: u64,
    /// Ops that failed or whose output did not check out.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one checked op, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
    /// over exactly the metrics of `defs`. A metric the workload did not
    /// measure prints 0 — only per-layer metrics may be missing, because
    /// every workload measures every end-to-end metric.
    ///
    /// # Panics
    /// Panics when a measured name is not in `defs` (a misspelt metric)
    /// or when a value of `required` metrics is missing — both are bugs in
    /// this benchmark, not measurement outcomes.
    pub fn result_line(&self, defs: &[MetricDef], required: bool) -> String {
        for name in self.values.keys() {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "measured metric {name} not in catalogue"
            );
        }
        // A run that attempted nothing measured nothing.
        let mut failed = self.failed + u64::from(self.attempted == 0);
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = match self.values.get(&d.name) {
                Some(v) => *v,
                None if required => panic!("workload did not measure {}", d.name),
                None => 0.0,
            };
            // A non-finite reading cannot be printed as JSON; it is a
            // failed measurement.
            let value = if value.is_finite() {
                value
            } else {
                failed += 1;
                0.0
            };
            if i > 0 {
                metrics.push(',');
            }
            json::write_str(&mut metrics, &d.name);
            metrics.push_str(&format!(":{{\"value\":{value},\"unit\":"));
            json::write_str(&mut metrics, &d.unit);
            metrics.push('}');
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
            failed == 0,
            self.attempted.max(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(rel: &str) -> String {
        let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = spec();
        let defs: Vec<&MetricDef> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        for name in &names {
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}: name outside [A-Za-z0-9_.-]"
            );
        }
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "a metric name is used twice");
        let setup = spec.end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for d in &spec.end_to_end {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
            assert!(bound <= setup.bound.unwrap_or(0.0), "{} bound above setup_s's", d.name);
        }
    }

    /// `(key, value)` lines of the `[profile.release]` table of a manifest.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect::<String>())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let root = release_profile(&repo_file("Cargo.toml"));
        let own = release_profile(&repo_file("benchmark/Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(own, root, "benchmark/Cargo.toml [profile.release] differs from the root's");
    }

    #[test]
    fn result_line_prints_every_metric_once() {
        let defs = &spec().end_to_end;
        let mut out = Outcome::default();
        for (i, d) in defs.iter().enumerate() {
            out.set(d.name.clone(), 1.5 + i as f64);
        }
        out.check(true);
        out.check(false);
        let line = json::parse(&out.result_line(defs, true)).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(2.0));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = line.get("metrics").expect("metrics");
        for (i, d) in defs.iter().enumerate() {
            let m = metrics.get(&d.name).expect("metric present");
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5 + i as f64));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit.as_str()));
        }
    }

    #[test]
    fn a_non_finite_reading_fails_the_run() {
        let defs = &spec().end_to_end;
        let mut out = Outcome::default();
        for d in defs {
            out.set(d.name.clone(), f64::NAN);
        }
        let line = json::parse(&out.result_line(defs, true)).expect("still valid JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    #[should_panic(expected = "not in catalogue")]
    fn a_misspelt_metric_panics() {
        let mut out = Outcome::default();
        out.set("p50ms", 1.0);
        out.result_line(&spec().per_layer, false);
    }
}
