//! Minimal command-line parsing for the experiment binaries.
//!
//! Hand-rolled (no clap): the flag set is tiny and fixed, and keeping the
//! dependency list short was a workspace constraint.

use std::process::exit;

use seqrec_models::common::AnomalyPolicy;
use serde::Serialize;

/// Common experiment options.
#[derive(Clone, Debug, Serialize)]
pub struct ExpArgs {
    /// Fraction of the paper's dataset sizes to generate (Table 1 presets
    /// scaled down). Defaults keep a full run in CPU-minutes.
    pub scale: f64,
    /// Fine-tuning / baseline-training epochs.
    pub epochs: usize,
    /// Contrastive pre-training epochs.
    pub pretrain_epochs: usize,
    /// Global seed.
    pub seed: u64,
    /// Dataset names to run (subset of beauty/sports/toys/yelp).
    pub datasets: Vec<String>,
    /// Path for the JSON results dump (None = print only).
    pub out: Option<String>,
    /// Per-epoch logging: 0 = silent, 1 (`-v`) = per-epoch lines,
    /// 2 (`-vv`) = debug diagnostics.
    pub verbosity: u8,
    /// Root directory for run ledgers (`<runs_dir>/<bin>-<seed>/`); None
    /// (`--no-ledger`) disables the ledger entirely.
    pub runs_dir: Option<String>,
    /// Anomaly policy threaded into every fit (warn or abort).
    pub on_anomaly: AnomalyPolicy,
}

impl ExpArgs {
    /// Defaults tuned so each binary finishes in minutes on a laptop.
    pub fn defaults() -> Self {
        ExpArgs {
            scale: 0.04,
            epochs: 25,
            pretrain_epochs: 12,
            seed: 42,
            datasets: vec!["beauty".into(), "sports".into(), "toys".into(), "yelp".into()],
            out: None,
            verbosity: 0,
            runs_dir: Some("runs".into()),
            on_anomaly: AnomalyPolicy::Warn,
        }
    }

    /// Parses `std::env::args`, exiting with usage on error. `name` and
    /// `what` feed the `--help` text.
    pub fn parse(name: &str, what: &str) -> Self {
        let mut args = Self::defaults();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut take = |flag: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => args.scale = parse_or_die(&take("--scale"), "--scale"),
                "--epochs" => args.epochs = parse_or_die(&take("--epochs"), "--epochs"),
                "--pretrain-epochs" => {
                    args.pretrain_epochs =
                        parse_or_die(&take("--pretrain-epochs"), "--pretrain-epochs");
                }
                "--seed" => args.seed = parse_or_die(&take("--seed"), "--seed"),
                "--datasets" => {
                    args.datasets = take("--datasets")
                        .split(',')
                        .map(|s| s.trim().to_lowercase())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "--out" => args.out = Some(take("--out")),
                "--runs-dir" => args.runs_dir = Some(take("--runs-dir")),
                "--no-ledger" => args.runs_dir = None,
                "--on-anomaly" => {
                    args.on_anomaly =
                        AnomalyPolicy::parse(&take("--on-anomaly")).unwrap_or_else(|e| {
                            eprintln!("{e}");
                            exit(2);
                        });
                }
                "--verbose" | "-v" => args.verbosity = args.verbosity.max(1),
                "-vv" => args.verbosity = 2,
                "--help" | "-h" => {
                    println!(
                        "{name}: {what}\n\n\
                         options:\n\
                         \x20 --scale <f>            dataset scale vs Table 1 sizes (default 0.04)\n\
                         \x20 --epochs <n>           training epochs (default 25, early stopping applies)\n\
                         \x20 --pretrain-epochs <n>  contrastive pre-training epochs (default 12)\n\
                         \x20 --seed <n>             RNG seed (default 42)\n\
                         \x20 --datasets <a,b,..>    subset of beauty,sports,toys,yelp\n\
                         \x20 --out <path>           write JSON results here\n\
                         \x20 --runs-dir <dir>       run-ledger root (default runs/)\n\
                         \x20 --no-ledger            disable the run ledger\n\
                         \x20 --on-anomaly <p>       warn (default) or abort on NaN/Inf dynamics\n\
                         \x20 --verbose | -v         per-epoch logs (-vv for debug)\n\
                         \x20 env SEQREC_THREADS     worker-pool size (default: available parallelism; 1 = serial)\n\
                         \x20 env SEQREC_OBS         telemetry sinks: console=LEVEL,jsonl=PATH,chrome=PATH,detail\n\
                         \x20                        (SEQREC_OBS=help prints the full grammar)"
                    );
                    exit(0);
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    exit(2);
                }
            }
        }
        for d in &args.datasets {
            if !matches!(d.as_str(), "beauty" | "sports" | "toys" | "yelp") {
                eprintln!("unknown dataset `{d}` (expected beauty,sports,toys,yelp)");
                exit(2);
            }
        }
        args
    }
}

fn parse_or_die<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse `{s}` for {flag}");
        exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_four_datasets() {
        let a = ExpArgs::defaults();
        assert_eq!(a.datasets.len(), 4);
        assert!(a.scale > 0.0 && a.scale < 1.0);
    }
}
