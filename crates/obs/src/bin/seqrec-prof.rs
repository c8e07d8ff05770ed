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
//! Malformed trace lines are hard errors with a line-numbered diagnostic
//! and a nonzero exit, never silent skips.

use std::process::ExitCode;

use seqrec_obs::memprof::{parse_mem_auto, MemProfile};
use seqrec_obs::profile::{parse_auto, parse_requests_auto, Profile, RequestProfile};

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

fn run_mem(trace: &str, text: &str, top: usize) -> Result<(), String> {
    let events = parse_mem_auto(text)?;
    if events.is_empty() {
        return Err("no mem events in trace (was the run missing SEQREC_OBS=mem=...?)".to_string());
    }
    let profile = MemProfile::build(&events)?;
    println!("trace: {trace} ({} mem events)\n", events.len());
    print!("{}", profile.render(top));
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

    let text = match std::fs::read_to_string(&args.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("seqrec-prof: cannot read {}: {e}", args.trace);
            return ExitCode::FAILURE;
        }
    };

    if args.mem {
        return match run_mem(&args.trace, &text, args.top) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("seqrec-prof: {}: {e}", args.trace);
                ExitCode::FAILURE
            }
        };
    }

    let events = match parse_auto(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("seqrec-prof: {}: {e}", args.trace);
            return ExitCode::FAILURE;
        }
    };
    let profile = match Profile::build(&events) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("seqrec-prof: {}: {e}", args.trace);
            return ExitCode::FAILURE;
        }
    };

    let total = profile.total_us();
    println!(
        "trace: {} ({} span events, {:.3} ms wall clock in top-level spans)\n",
        args.trace,
        events.len(),
        total as f64 / 1e3
    );
    println!("== span hierarchy ==");
    print!("{}", profile.render_tree());

    println!("\n== top {} call paths by exclusive time ==", args.top);
    println!("{:>12} {:>12} {:>8}  path", "excl(ms)", "incl(ms)", "calls");
    for (path, excl, incl, count) in profile.top_exclusive(args.top) {
        println!("{:>12.3} {:>12.3} {:>8}  {}", excl as f64 / 1e3, incl as f64 / 1e3, count, path);
    }

    match parse_requests_auto(&text) {
        Ok(reqs) if !reqs.is_empty() => {
            println!("\n== serve request stages ==");
            print!("{}", RequestProfile::build(&reqs).render());
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("seqrec-prof: {}: {e}", args.trace);
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.folded {
        if let Err(e) = std::fs::write(path, profile.folded_stacks()) {
            eprintln!("seqrec-prof: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nfolded stacks written to {path} (inferno-flamegraph / speedscope)");
    }
    ExitCode::SUCCESS
}
