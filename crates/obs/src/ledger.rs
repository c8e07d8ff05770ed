//! The run ledger: a durable per-run directory making every experiment
//! reproducible from disk alone.
//!
//! Layout of one run directory (`runs/<name>-<seed>/` by convention):
//!
//! ```text
//! config.json     full hyperparameters + seed (+ augmentation rates)
//! env.json        environment snapshot taken at run start
//! metrics.jsonl   one JSON object per epoch (loss, HR@10, timing, dynamics)
//! dynamics.jsonl  one JSON object per optimiser step (loss, grad norms,
//!                 update:parameter ratios) — written by the fit loops
//! report.json     the final training report (including any anomaly)
//! ```
//!
//! The ledger is pure std: callers serialise their own structs (with the
//! workspace `serde_json`) and hand the ledger finished JSON text. Every
//! write validates through [`crate::json::parse`] first, so a ledger can
//! never contain a file that strict JSON parsers reject — a provenance
//! record that does not parse is worse than no record.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json;

/// A run directory being written.
#[derive(Debug)]
pub struct RunLedger {
    dir: PathBuf,
}

impl RunLedger {
    /// Creates (or re-opens, truncating the JSONL streams) the run
    /// directory at `dir`. Reusing a directory overwrites the previous run
    /// of the same name — runs are keyed by `<name>-<seed>` so a repeated
    /// invocation is the same experiment.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<RunLedger> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Truncate append-mode streams from any previous run in this dir.
        for stream in ["metrics.jsonl", "dynamics.jsonl"] {
            let p = dir.join(stream);
            if p.exists() {
                fs::remove_file(&p)?;
            }
        }
        Ok(RunLedger { dir })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `config.json`.
    ///
    /// # Panics
    /// Panics when `json_text` is not valid JSON or the file cannot be
    /// written — a silently incomplete ledger defeats its purpose.
    pub fn write_config(&self, json_text: &str) {
        self.write_json_file("config.json", json_text);
    }

    /// Writes `report.json` (the final training/experiment report).
    ///
    /// # Panics
    /// Panics when `json_text` is not valid JSON or the file cannot be
    /// written.
    pub fn write_report(&self, json_text: &str) {
        self.write_json_file("report.json", json_text);
    }

    /// Appends one object to `metrics.jsonl` (one line per epoch).
    ///
    /// # Panics
    /// Panics when `json_text` is not a valid JSON document or the file
    /// cannot be appended to.
    pub fn append_metrics(&self, json_text: &str) {
        self.append_jsonl("metrics.jsonl", json_text);
    }

    /// Appends one object to `dynamics.jsonl` (one line per optimiser step).
    ///
    /// # Panics
    /// Panics when `json_text` is not a valid JSON document or the file
    /// cannot be appended to.
    pub fn append_dynamics(&self, json_text: &str) {
        self.append_jsonl("dynamics.jsonl", json_text);
    }

    /// Takes the environment snapshot and writes `env.json`: OS, CPU count,
    /// package version, threading note, and the `SEQREC_OBS` directives in
    /// effect — everything needed to interpret the run's timings later.
    pub fn write_env_snapshot(&self) {
        let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let mut s = String::with_capacity(256);
        s.push_str("{\"os\":");
        json::write_str(&mut s, std::env::consts::OS);
        s.push_str(",\"arch\":");
        json::write_str(&mut s, std::env::consts::ARCH);
        s.push_str(&format!(",\"hardware_cpus\":{cpus}"));
        let (threads, threads_source) = configured_threads(cpus);
        s.push_str(&format!(",\"threads_used\":{threads},\"threads_source\":"));
        json::write_str(&mut s, threads_source);
        s.push_str(",\"threading_note\":");
        json::write_str(
            &mut s,
            "in-tree work-stealing rayon shim; threads_used is the global pool size \
             (serial fallback at 1)",
        );
        s.push_str(",\"package_version\":");
        json::write_str(&mut s, env!("CARGO_PKG_VERSION"));
        s.push_str(",\"seqrec_obs\":");
        json::write_str(&mut s, &std::env::var("SEQREC_OBS").unwrap_or_default());
        s.push_str(",\"unix_time_secs\":");
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        s.push_str(&now.to_string());
        s.push('}');
        self.write_json_file("env.json", &s);
    }

    fn write_json_file(&self, name: &str, json_text: &str) {
        json::parse(json_text).unwrap_or_else(|e| {
            panic!("refusing to write invalid JSON to ledger {name}: {e}\n{json_text}")
        });
        let path = self.dir.join(name);
        let mut f =
            File::create(&path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        writeln!(f, "{json_text}")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }

    fn append_jsonl(&self, name: &str, json_text: &str) {
        json::parse(json_text).unwrap_or_else(|e| {
            panic!("refusing to append invalid JSON to ledger {name}: {e}\n{json_text}")
        });
        let path = self.dir.join(name);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        writeln!(f, "{json_text}")
            .unwrap_or_else(|e| panic!("cannot append {}: {e}", path.display()));
    }
}

/// The thread count the rayon shim's global pool will use, and where that
/// number came from. This mirrors the sizing rule in `shims/rayon` —
/// `SEQREC_THREADS` when set to a positive integer, else the machine's
/// available parallelism — because `seqrec-obs` is intentionally
/// dependency-free and cannot ask the pool directly.
fn configured_threads(hardware_cpus: usize) -> (usize, &'static str) {
    if let Ok(v) = std::env::var("SEQREC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return (n, "SEQREC_THREADS");
            }
        }
    }
    (hardware_cpus.max(1), "available_parallelism")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("seqrec_ledger_{tag}_{}", std::process::id()))
    }

    #[test]
    fn writes_a_complete_run_directory() {
        let root = tmp_dir("full");
        let ledger = RunLedger::create(root.join("unit-7")).unwrap();
        ledger.write_config(r#"{"model":"test","seed":7}"#);
        ledger.write_env_snapshot();
        ledger.append_metrics(r#"{"epoch":0,"loss":1.5}"#);
        ledger.append_metrics(r#"{"epoch":1,"loss":1.2}"#);
        ledger.write_report(r#"{"best":0.5}"#);

        let dir = root.join("unit-7");
        let config = std::fs::read_to_string(dir.join("config.json")).unwrap();
        assert_eq!(json::parse(&config).unwrap().get("seed").unwrap().as_f64(), Some(7.0));
        let env = std::fs::read_to_string(dir.join("env.json")).unwrap();
        let env = json::parse(&env).unwrap();
        assert!(env.get("hardware_cpus").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(env.get("os").unwrap().as_str(), Some(std::env::consts::OS));
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert_eq!(metrics.lines().count(), 2);
        for line in metrics.lines() {
            json::parse(line).unwrap();
        }
        assert!(dir.join("report.json").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recreating_a_run_truncates_the_jsonl_streams() {
        let root = tmp_dir("trunc");
        let ledger = RunLedger::create(root.join("unit-1")).unwrap();
        ledger.append_metrics(r#"{"epoch":0}"#);
        ledger.append_dynamics(r#"{"step":1}"#);
        drop(ledger);
        let ledger = RunLedger::create(root.join("unit-1")).unwrap();
        ledger.append_metrics(r#"{"epoch":0}"#);
        let metrics = std::fs::read_to_string(ledger.dir().join("metrics.jsonl")).unwrap();
        assert_eq!(metrics.lines().count(), 1, "stale lines survived re-creation");
        assert!(!ledger.dir().join("dynamics.jsonl").exists(), "stale dynamics stream kept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    #[should_panic(expected = "refusing to write invalid JSON")]
    fn invalid_json_is_rejected() {
        let root = tmp_dir("invalid");
        let ledger = RunLedger::create(root.join("unit-2")).unwrap();
        ledger.write_config("{not json");
    }
}
