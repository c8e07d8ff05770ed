//! `seqrec-prof`: folds a JSONL or Chrome span trace (produced via
//! `SEQREC_OBS=jsonl=...` / `chrome=...`) into a hierarchical
//! inclusive/exclusive time profile.
//!
//! ```text
//! seqrec-prof TRACE [--top N] [--folded PATH] [--mem]
//! ```
//!
//! Prints the full span hierarchy (inclusive/exclusive ms, % of wall
//! clock, call counts), then the top-N call paths by exclusive time.
//! `--folded PATH` additionally writes collapsed stacks
//! (`epoch;batch;forward 1234` lines) for inferno-flamegraph or
//! speedscope.
//!
//! A trace holding serve request events (a `BatchingServer` run under
//! `SEQREC_OBS=jsonl=...`) additionally gets a per-stage request-latency
//! profile (enqueue/batch/encode/score/topk/reply).
//!
//! `--mem` switches to the memory analysis of a trace recorded with
//! `SEQREC_OBS=mem=...`: bytes-at-peak attributed per span path and per
//! op, buffer-lifetime statistics, and the what-if arena report (the
//! theoretical minimum peak under perfect reuse — the memory planner's
//! target).
//!
//! The trace is read once by `seqrec_obs::trace::read`, which validates
//! every event for every report: a malformed event is a hard error naming
//! its line (JSONL) or index (Chrome) and a nonzero exit, never a silent
//! skip.

use std::process::ExitCode;

use seqrec_obs::memprof::MemProfile;
use seqrec_obs::profile::{Profile, RequestProfile};
use seqrec_obs::trace::{self, Trace};

const USAGE: &str = "\
usage: seqrec-prof TRACE [--top N] [--folded PATH] [--mem]
  TRACE          JSONL (SEQREC_OBS=jsonl=...) or Chrome trace
                 (SEQREC_OBS=chrome=...) file; format auto-detected
  --top N        how many call paths to list by exclusive time (default 15)
  --folded PATH  also write collapsed stacks for inferno/speedscope
  --mem          memory analysis of a SEQREC_OBS=mem=... trace: peak
                 breakdown by span path/op, buffer lifetimes, and the
                 what-if arena (perfect-reuse minimum peak) report";

struct Args {
    trace: String,
    top: usize,
    folded: Option<String>,
    mem: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut trace = None;
    let mut top = 15usize;
    let mut folded = None;
    let mut mem = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|_| format!("invalid --top value `{v}`"))?;
            }
            "--folded" => {
                folded = Some(it.next().ok_or("--folded needs a path")?.clone());
            }
            "--mem" => mem = true,
            other if !other.starts_with('-') && trace.is_none() => {
                trace = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args { trace: trace.ok_or("missing TRACE argument")?, top, folded, mem })
}

fn run_mem(trace: &Trace, args: &Args) -> Result<(), String> {
    let path = &args.trace;
    if trace.mem.is_empty() {
        return Err(format!(
            "{path}: no mem events in trace (was the run missing SEQREC_OBS=mem=...?)"
        ));
    }
    let profile = MemProfile::build(&trace.mem).map_err(|e| format!("{path}: {e}"))?;
    println!("trace: {path} ({} mem events)\n", trace.mem.len());
    print!("{}", profile.render(args.top));
    Ok(())
}

fn run_spans(trace: &Trace, args: &Args) -> Result<(), String> {
    let path = &args.trace;
    let profile = Profile::build(&trace.spans).map_err(|e| format!("{path}: {e}"))?;
    let total = profile.total_us();
    println!(
        "trace: {path} ({} span events, {:.3} ms wall clock in top-level spans)\n",
        trace.spans.len(),
        total as f64 / 1e3
    );
    println!("== span hierarchy ==");
    print!("{}", profile.render_tree());

    println!("\n== top {} call paths by exclusive time ==", args.top);
    println!("{:>12} {:>12} {:>8}  path", "excl(ms)", "incl(ms)", "calls");
    for (stack, excl, incl, count) in profile.top_exclusive(args.top) {
        println!("{:>12.3} {:>12.3} {:>8}  {stack}", excl as f64 / 1e3, incl as f64 / 1e3, count);
    }

    if !trace.requests.is_empty() {
        println!("\n== serve request stages ==");
        print!("{}", RequestProfile::build(&trace.requests).render());
    }

    if let Some(out) = &args.folded {
        std::fs::write(out, profile.folded_stacks())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("\nfolded stacks written to {out} (inferno-flamegraph / speedscope)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("seqrec-prof: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let path = &args.trace;
    let result = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| trace::read(&text).map_err(|e| format!("{path}: {e}")))
        .and_then(|trace| if args.mem { run_mem(&trace, &args) } else { run_spans(&trace, &args) });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seqrec-prof: {e}");
            ExitCode::FAILURE
        }
    }
}
