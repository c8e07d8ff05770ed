//! `seqrec-bench`: the outside-in benchmark of the CL4SRec reproduction.
//!
//! ```text
//! seqrec-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! seqrec-bench compare PARENT_DIR CHANGE_DIR
//! seqrec-bench smoke
//! ```
//!
//! The workloads and metrics are those of `BENCHMARK.json` at the
//! repository root, which is compiled in.
//!
//! A run builds its inputs from `--seed`, sets up several times, measures
//! for `--seconds`, checks the program's outputs, and prints two lines on
//! stdout: a line naming the run (workload, seed, worker-pool size) and, last,
//! the result line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See `benchmark/README.md` for the workloads and metrics.

mod eval_full;
mod results;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use seqrec_data::synthetic::{generate_dataset, SyntheticConfig};
use seqrec_data::Split;

use spec::{spec, Outcome};

const USAGE: &str = "\
usage: seqrec-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       seqrec-bench compare PARENT_DIR CHANGE_DIR
       seqrec-bench smoke
workloads: pretrain fit_zoo eval_full serve_hot serve_append
  --smoke   tiny inputs and one short phase per workload (a check, not a measurement)";

/// Fewest set-ups a run times; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Set-ups go on until they have spanned this many seconds.
const SETUP_SPAN_S: f64 = 1.0;
/// Untimed training or evaluation before the timed ops. A process's first
/// training steps run up to a third slower, with about twice the system
/// time of later steps, while the allocator's heap grows to the step's
/// working set; a user training for many steps does not pay that per step.
const WARMUP_S: f64 = 2.0;

/// Settings of one run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Ctx {
    /// The beauty-preset scale a workload runs at (tiny under `--smoke`).
    pub fn scale(&self, full: f64) -> f64 {
        if self.smoke {
            0.01
        } else {
            full
        }
    }

    /// Seconds of untimed ops before a training or evaluation run is timed
    /// (one op under `--smoke`).
    pub fn warmup_s(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            WARMUP_S
        }
    }

    /// Sequences per training step and users per evaluation batch.
    pub fn batch(&self) -> usize {
        if self.smoke {
            32
        } else {
            256
        }
    }
}

/// Generates the seeded beauty-preset dataset at `scale` and splits it
/// leave-one-out; returns the split, the catalog size and the generation
/// time in milliseconds.
pub fn dataset(scale: f64, seed: u64) -> (Split, usize, f64) {
    let t = Instant::now();
    let mut cfg = SyntheticConfig::beauty(scale);
    cfg.seed = seed;
    let data = generate_dataset(&cfg);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    (Split::leave_one_out(&data), data.num_items(), generate_ms)
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and until the set-ups
/// have spanned [`SETUP_SPAN_S`] (once under `--smoke`), dropping each
/// result before building the next, and returns the median wall time in
/// seconds with the last result.
pub fn timed_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (f64, T) {
    let (repeats, span) = if ctx.smoke { (1, 0.0) } else { (SETUP_REPEATS, SETUP_SPAN_S) };
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < repeats || start.elapsed().as_secs_f64() < span {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::percentile(&secs, 50.0), last.expect("at least one setup"))
}

/// Runs `op` until `seconds` have elapsed, at least once. A further op
/// starts only while the mean op so far still fits in the budget, so the
/// measured span stays close to `seconds` even when ops are long.
pub fn run_for<R>(seconds: f64, mut op: impl FnMut(usize) -> R) -> Vec<R> {
    let t = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(op(out.len()));
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn parse_run(args: &[String]) -> Result<Ctx, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec().workloads.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn run(ctx: &Ctx) -> Result<(), String> {
    let workload: fn(&Ctx) -> Outcome = match ctx.workload.as_str() {
        "pretrain" => train::pretrain,
        "fit_zoo" => train::fit_zoo,
        "eval_full" => eval_full::run,
        "serve_hot" | "serve_append" => serve::run,
        other => return Err(format!("workload {other} is listed but not implemented")),
    };
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"threads\":{}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.smoke,
        rayon::current_num_threads()
    );
    let mut out = workload(ctx);
    let line = if ctx.trace {
        out.set(
            "tensor.peak_live_mib",
            seqrec_obs::metrics::TENSOR_LIVE_BYTES.peak() as f64 / (1024.0 * 1024.0),
        );
        out.result_line(&spec().per_layer, false)
    } else {
        out.set("peak_rss_mib", peak_rss_mib()?);
        out.result_line(&spec().end_to_end, true)
    };
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => results::compare(parent, change),
            rest => Err(format!("compare wants PARENT_DIR CHANGE_DIR, got {rest:?}")),
        },
        Some("smoke") if args.len() == 1 => results::smoke(),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_run(&args).and_then(|ctx| run(&ctx)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("seqrec-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
