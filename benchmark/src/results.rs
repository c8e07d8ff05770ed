//! Reading runs back: `compare` judges two sets of runs metric by metric,
//! and `smoke` runs every workload briefly and checks its result line
//! against the catalogue.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use seqrec_obs::json::{self, Value};

use crate::spec::{spec, Better, MetricDef};
use crate::stats::quartiles;

/// Share of pairs a change must win to count as an improvement.
const WIN_SHARE: f64 = 0.9;

/// One run read back from its saved stdout.
#[derive(Debug)]
struct Run {
    workload: String,
    threads: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

/// The run line (the last line carrying a `workload` field) and the result
/// line (the last line) of a run's stdout.
fn parse_run(text: &str) -> Result<Run, String> {
    let lines: Vec<&str> = text.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    let result = json::parse(lines.last().ok_or("empty output")?)?;
    let run = lines
        .iter()
        .rev()
        .skip(1)
        .find_map(|l| json::parse(l).ok().filter(|v| v.get("workload").is_some()))
        .ok_or("no run line naming the workload")?;
    let metrics = match result.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Value::as_f64);
                value.map(|x| (k.clone(), x)).ok_or_else(|| format!("metric {k} has no value"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("result line has no metrics object".to_string()),
    };
    Ok(Run {
        workload: run.get("workload").and_then(Value::as_str).ok_or("bad workload")?.to_string(),
        threads: run.get("threads").and_then(Value::as_f64).ok_or("no threads")? as u64,
        trace: run.get("trace").and_then(Value::as_f64) == Some(1.0),
        metrics,
    })
}

/// Every file in `dir`, read as one run's stdout.
fn load_dir(dir: &str) -> Result<Vec<Run>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .map(|e| e.map(|e| e.path()).map_err(|e| format!("reading {dir}: {e}")))
        .collect::<Result<_, _>>()?;
    paths.sort();
    paths
        .iter()
        .filter(|p| p.is_file())
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's own spread exceeds the bound, so "no worse" cannot be
    /// shown (and not every change run beats every parent run).
    Unresolved,
    /// The change wins at least nine tenths of all run pairs and its median
    /// moved by more than the parent's spread.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
}

/// Judges `change` against `parent` runs of one metric with regression
/// bound `bound` (a share of the parent's median), following the rules of
/// the repository's benchmarking practice: medians and quartiles per side,
/// every (parent, change) pair compared, ties counting for neither side.
/// Returns the verdict and the change's win share.
///
/// # Panics
/// Panics when either side has fewer than two runs.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let [p1, pm, p3] = quartiles(parent);
    let [_, cm, _] = quartiles(change);
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = (parent.len() * change.len()) as f64;
    let wins = change.iter().flat_map(|&c| parent.iter().map(move |&p| beats(c, p))).filter(|&w| w);
    let win_share = wins.count() as f64 / pairs;
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm,
        Better::Higher => (pm - cm) / pm,
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if (p3 - p1) / pm > bound && win_share < 1.0 {
        Verdict::Unresolved
    } else if win_share >= WIN_SHARE && (cm - pm).abs() > p3 - p1 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (verdict, win_share)
}

/// `seqrec-bench compare PARENT CHANGE`: one row per (end-to-end metric,
/// workload). Returns false when any pair regressed or is unresolved.
pub fn compare(parent_dir: &str, change_dir: &str) -> Result<bool, String> {
    let spec = spec();
    let parent = load_dir(parent_dir)?;
    let change = load_dir(change_dir)?;
    let threads: Vec<u64> = parent.iter().chain(&change).map(|r| r.threads).collect();
    if threads.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("runs used different worker-pool sizes {threads:?}; not comparable"));
    }
    println!(
        "{:<18} {:<13} {:>28} {:>28} {:>8} {:>5}  verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    let mut clean = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| &r.workload == workload && !r.trace)
                    .filter_map(|r| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.len() < 2 || c.len() < 2 {
                if !(p.is_empty() && c.is_empty()) {
                    return Err(format!(
                        "{workload}: {} parent and {} change runs; need at least 2 each",
                        p.len(),
                        c.len()
                    ));
                }
                continue;
            }
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let (verdict, wins) = judge(&p, &c, metric.better, bound);
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            let [p1, pm, p3] = quartiles(&p);
            let [c1, cm, c3] = quartiles(&c);
            println!(
                "{:<18} {:<13} {:>28} {:>28} {:>+7.1}% {:>4.0}%  {verdict:?}",
                metric.name,
                workload,
                format!("{pm:.4} [{p1:.4}, {p3:.4}]"),
                format!("{cm:.4} [{c1:.4}, {c3:.4}]"),
                (cm - pm) / pm * 100.0,
                wins * 100.0,
            );
        }
    }
    Ok(clean)
}

/// Checks one smoke run's result line against the catalogue `defs`.
fn check_result(line: &str, defs: &[MetricDef], positive: bool) -> Result<(), String> {
    let v = json::parse(line)?;
    let Value::Obj(top) = &v else { return Err("result line is not an object".to_string()) };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    if v.get("correct") != Some(&Value::Bool(true))
        || v.get("failed").and_then(Value::as_f64) != Some(0.0)
    {
        return Err("run reported failures".to_string());
    }
    if v.get("attempted").and_then(Value::as_f64).is_none_or(|a| a < 1.0) {
        return Err("attempted < 1".to_string());
    }
    let Some(Value::Obj(metrics)) = v.get("metrics") else { return Err("no metrics".to_string()) };
    let want: Vec<&str> = {
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names
    };
    if metrics.keys().map(String::as_str).collect::<Vec<_>>() != want {
        return Err("metric names differ from BENCHMARK.json".to_string());
    }
    for d in defs {
        let m = &metrics[&d.name];
        let value =
            m.get("value").and_then(Value::as_f64).ok_or(format!("{}: no value", d.name))?;
        if m.get("unit").and_then(Value::as_str) != Some(d.unit.as_str()) {
            return Err(format!("{}: unit differs from BENCHMARK.json", d.name));
        }
        if !value.is_finite() || (positive && value <= 0.0) {
            return Err(format!("{}: value {value}", d.name));
        }
    }
    Ok(())
}

/// `seqrec-bench smoke`: every workload of `BENCHMARK.json`, untraced and
/// traced, each in its own process at tiny scale; every result line must
/// carry exactly the listed metrics with their units, end-to-end values
/// positive, and no failures. Returns false when any run falls short.
pub fn smoke() -> Result<bool, String> {
    let spec = spec();
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut clean = true;
    for workload in &spec.workloads {
        for (trace, defs) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let t = Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace])
                .arg("--smoke")
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let verdict = if output.status.success() {
                stdout
                    .lines()
                    .last()
                    .ok_or_else(|| "no output".to_string())
                    .and_then(|line| check_result(line, defs, trace == "0"))
            } else {
                Err(format!("exited with {}", output.status))
            };
            let secs = t.elapsed().as_secs_f64();
            match verdict {
                Ok(()) => println!("ok    {workload:<13} --trace {trace}  {secs:.1}s"),
                Err(e) => {
                    clean = false;
                    println!("FAIL  {workload:<13} --trace {trace}  {secs:.1}s  {e}");
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|x| x * by).collect()
    }

    #[test]
    fn same_distribution_is_within_bound() {
        let (v, _) = judge(&PARENT, &shifted(1.0), Better::Lower, 0.1);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_shift_past_the_bound_regresses() {
        assert_eq!(judge(&PARENT, &shifted(1.2), Better::Lower, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&PARENT, &shifted(0.8), Better::Higher, 0.1).0, Verdict::Regressed);
        // The same shift in the good direction is no regression.
        assert_ne!(judge(&PARENT, &shifted(1.2), Better::Higher, 0.1).0, Verdict::Regressed);
    }

    #[test]
    fn a_noisy_parent_is_unresolved() {
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
        let (v, _) = judge(&noisy, &shifted(1.0), Better::Lower, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let (v, wins) = judge(&noisy, &shifted(0.5), Better::Lower, 0.1);
        assert_eq!(wins, 1.0);
        assert_ne!(v, Verdict::Unresolved);
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_improves() {
        let (v, wins) = judge(&PARENT, &shifted(0.95), Better::Lower, 0.1);
        assert_eq!((v, wins), (Verdict::Improved, 1.0));
        let (v, _) = judge(&PARENT, &shifted(1.05), Better::Higher, 0.1);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn runs_read_back_from_stdout() {
        let text = "noise\n{\"workload\":\"pretrain\",\"seed\":3,\"seconds\":10,\"trace\":0,\
                    \"smoke\":false,\"threads\":2}\n{\"correct\":true,\"attempted\":5,\"failed\":0,\
                    \"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}\n";
        let run = parse_run(text).expect("parses");
        assert_eq!((run.workload.as_str(), run.threads, run.trace), ("pretrain", 2, false));
        assert_eq!(run.metrics["p50_ms"], 1.25);
    }
}
