//! # seqrec-obs
//!
//! In-tree instrumentation for the training/serving stack: RAII wall-clock
//! spans, a process-global registry of atomic counters/gauges/histograms,
//! and pluggable event sinks (human console, machine-readable JSONL, and
//! the Chrome trace-event format so a whole training run opens as a flame
//! chart in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! The crate is deliberately **zero-dependency**: the offline build
//! container has no `tracing`/`metrics` crates, so everything here is
//! hand-rolled on `std` only, following the same philosophy as `shims/`.
//!
//! ## Cost model
//!
//! * **Counters/gauges/histograms** are always on: one relaxed atomic RMW
//!   per probe, no branches on sink state.
//! * **Spans** ([`span!`]) check a single relaxed atomic load when no sink
//!   is installed and do nothing else — no clock read, no allocation.
//! * **Detail spans** ([`detail_span!`], used per GEMM call) additionally
//!   require the detail flag, so even profiled runs stay compact unless
//!   kernel-level attribution is requested.
//!
//! ## Quick start
//!
//! ```
//! // In a binary: pick sinks from the SEQREC_OBS env var.
//! let _obs = seqrec_obs::init_from_env();
//!
//! {
//!     let _span = seqrec_obs::span!("backward");
//!     seqrec_obs::metrics::GEMM_FLOPS.add(1 << 20);
//! } // span closed here
//!
//! seqrec_obs::info!("epoch 0: loss 1.234");
//! ```
//!
//! `SEQREC_OBS` is a comma-separated list of directives:
//!
//! | directive        | effect                                            |
//! |------------------|---------------------------------------------------|
//! | `console=LEVEL`  | console verbosity: `silent`/`info`/`debug` (or 0–2) |
//! | `jsonl=PATH`     | stream events as one JSON object per line to PATH |
//! | `chrome=PATH`    | write a Chrome trace-event JSON array to PATH     |
//! | `expo=PATH`      | dump a Prometheus-style exposition to PATH at exit |
//! | `window=SECS`    | rolling-window length for live metrics (default 10) |
//! | `detail`         | also emit per-kernel-call spans (large traces)    |
//! | `mem=all`/`mem=N` | also emit tensor alloc/free lifetime events (every buffer, or 1-in-N) |

#![warn(missing_docs)]

pub mod expo;
pub mod json;
pub mod ledger;
pub mod mem;
pub mod memprof;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

pub use sink::{ChromeTraceSink, Event, Fanout, JsonlSink, Sink};
pub use span::SpanGuard;

/// Console level: print nothing.
pub const LEVEL_SILENT: u8 = 0;
/// Console level: one-line progress messages ([`info!`]).
pub const LEVEL_INFO: u8 = 1;
/// Console level: chatty diagnostics ([`debug!`]).
pub const LEVEL_DEBUG: u8 = 2;

/// The console verbosity. Defaults to [`LEVEL_INFO`] so binaries show
/// progress lines; library code gates its own emission (e.g. on the
/// `verbosity` field of the training option structs), which keeps tests
/// silent by default.
static CONSOLE_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_INFO);

/// Sets the console verbosity (one of the `LEVEL_*` constants).
pub fn set_console_level(level: u8) {
    CONSOLE_LEVEL.store(level, Ordering::Relaxed);
}

/// The current console verbosity.
pub fn console_level() -> u8 {
    CONSOLE_LEVEL.load(Ordering::Relaxed)
}

/// Logs a line: printed to stderr when the console level admits it, and
/// forwarded to the installed sink (if any) as a log event. Prefer the
/// [`info!`] / [`debug!`] macros.
pub fn log(level: u8, args: std::fmt::Arguments<'_>) {
    let console = console_level() >= level;
    let sinking = sink::enabled();
    if !console && !sinking {
        return;
    }
    let msg = args.to_string();
    if console {
        eprintln!("{msg}");
    }
    if sinking {
        sink::dispatch(&Event::Log { level, msg: &msg, tid: sink::tid(), ts_us: sink::now_us() });
    }
}

/// Emits a progress line at [`LEVEL_INFO`] (the replacement for the old
/// ad-hoc `println!` progress lines).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log($crate::LEVEL_INFO, ::core::format_args!($($arg)*))
    };
}

/// Emits a diagnostic line at [`LEVEL_DEBUG`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log($crate::LEVEL_DEBUG, ::core::format_args!($($arg)*))
    };
}

/// The `SEQREC_OBS` directive grammar, in full, for error messages and
/// `SEQREC_OBS=help`.
pub const OBS_GRAMMAR: &str = "\
SEQREC_OBS is a comma-separated list of directives:
  console=LEVEL   console verbosity: silent|off|0, info|1, debug|2
  jsonl=PATH      stream events as one JSON object per line to PATH
  chrome=PATH     write a Chrome trace-event JSON array to PATH
                  (open in chrome://tracing or https://ui.perfetto.dev)
  expo=PATH       dump a Prometheus-style text exposition of the metric
                  registry to PATH when the process finishes
                  (the live TCP endpoint is serve-side: ExpoServer::bind)
  window=SECS     rolling-window length for live windowed metrics
                  (p50/p95/p99 latency, queue depth, ...; default 10)
  detail          also emit per-kernel-call spans (large traces)
  mem=all|N       also emit tensor buffer alloc/free lifetime events into
                  the jsonl/chrome sinks: every buffer (`all`), or one in
                  N by buffer id (alloc/free stay paired at any rate);
                  fold the trace with `seqrec-prof --mem`
  help            print this grammar and exit
examples:
  SEQREC_OBS=console=debug
  SEQREC_OBS=jsonl=run.jsonl,detail
  SEQREC_OBS=jsonl=run.jsonl,mem=all
  SEQREC_OBS=chrome=trace.json,console=silent
  SEQREC_OBS=expo=metrics.prom,window=5";

/// One parsed `SEQREC_OBS` configuration.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObsConfig {
    /// Console level override, if given.
    pub console: Option<u8>,
    /// JSONL sink path, if given.
    pub jsonl: Option<String>,
    /// Chrome-trace sink path, if given.
    pub chrome: Option<String>,
    /// Exposition dump path, if given (written when the guard drops).
    pub expo: Option<String>,
    /// Rolling-window length override in seconds, if given.
    pub window_secs: Option<f64>,
    /// Whether per-kernel detail spans were requested.
    pub detail: bool,
    /// Mem-event sampling modulus, if tracing was requested: 1 = every
    /// buffer (`mem=all`), N = one in N buffers by id.
    pub mem: Option<u64>,
}

impl ObsConfig {
    /// Parses the `SEQREC_OBS` directive grammar. Unknown directives are
    /// reported as errors so typos do not silently disable telemetry.
    pub fn parse(spec: &str) -> Result<ObsConfig, String> {
        let mut cfg = ObsConfig::default();
        for raw in spec.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = match token.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (token, None),
            };
            match (key, value) {
                ("console", Some(v)) => {
                    cfg.console = Some(match v {
                        "silent" | "off" | "0" => LEVEL_SILENT,
                        "info" | "1" => LEVEL_INFO,
                        "debug" | "2" => LEVEL_DEBUG,
                        other => return Err(format!("unknown console level `{other}`")),
                    });
                }
                ("jsonl", Some(path)) if !path.is_empty() => {
                    cfg.jsonl = Some(path.to_string());
                }
                ("chrome", Some(path)) if !path.is_empty() => {
                    cfg.chrome = Some(path.to_string());
                }
                ("expo", Some(path)) if !path.is_empty() => {
                    cfg.expo = Some(path.to_string());
                }
                ("window", Some(v)) => match v.parse::<f64>() {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => cfg.window_secs = Some(secs),
                    _ => {
                        return Err(format!("window wants a positive number of seconds, got `{v}`"))
                    }
                },
                ("detail", None) | ("detail", Some("1")) | ("detail", Some("true")) => {
                    cfg.detail = true;
                }
                ("mem", Some("all")) => cfg.mem = Some(1),
                ("mem", Some(v)) => match v.parse::<u64>() {
                    Ok(n) if n >= 1 => cfg.mem = Some(n),
                    _ => {
                        return Err(format!(
                            "mem wants `all` or a sampling modulus >= 1, got `{v}`"
                        ))
                    }
                },
                _ => return Err(format!("unknown SEQREC_OBS directive `{token}`")),
            }
        }
        Ok(cfg)
    }
}

/// RAII handle returned by [`init_from_env`] / [`init_with`]; dropping it
/// writes a final metrics snapshot into the sink, flushes and finalises it
/// (a Chrome trace gets its closing `]` here), dumps the exposition file
/// if one was requested, and uninstalls the sink.
#[must_use = "telemetry is flushed and finalised when this guard drops"]
pub struct ObsGuard {
    expo: Option<String>,
    mem: bool,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if self.mem {
            mem::set_sink_mode(None);
        }
        if sink::enabled() {
            metrics::emit_snapshot();
        }
        sink::uninstall();
        if let Some(path) = &self.expo {
            if let Err(e) = std::fs::write(path, expo::render(&metrics::snapshot())) {
                eprintln!("seqrec-obs: cannot write exposition dump {path}: {e}");
            }
        }
    }
}

/// Installs sinks according to the `SEQREC_OBS` environment variable (see
/// the crate docs for the grammar) and returns the guard that finalises
/// them on drop. With the variable unset or empty this is free: no sink is
/// installed and every span compiles down to one relaxed load.
///
/// `SEQREC_OBS=help` (or a spec containing a `help` directive) prints the
/// full grammar to stderr and exits the process cleanly with status 0.
///
/// # Panics
/// Panics on a malformed `SEQREC_OBS` value (the panic message includes the
/// full directive grammar) or an unwritable sink path — a profiling run
/// that silently records nothing is worse than a crash.
pub fn init_from_env() -> ObsGuard {
    let spec = std::env::var("SEQREC_OBS").unwrap_or_default();
    if spec.split(',').any(|t| t.trim() == "help") {
        eprintln!("{OBS_GRAMMAR}");
        std::process::exit(0);
    }
    let cfg = ObsConfig::parse(&spec)
        .unwrap_or_else(|e| panic!("invalid SEQREC_OBS value {spec:?}: {e}\n{OBS_GRAMMAR}"));
    init_with(&cfg)
}

/// Installs sinks for an explicit [`ObsConfig`] (what [`init_from_env`]
/// does after parsing).
///
/// # Panics
/// Panics when a sink file cannot be created.
pub fn init_with(cfg: &ObsConfig) -> ObsGuard {
    if let Some(level) = cfg.console {
        set_console_level(level);
    }
    if let Some(secs) = cfg.window_secs {
        metrics::set_window_secs(secs);
    }
    sink::set_detail(cfg.detail);
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(path) = &cfg.jsonl {
        let s = JsonlSink::to_file(path)
            .unwrap_or_else(|e| panic!("cannot open JSONL sink {path}: {e}"));
        sinks.push(Arc::new(s));
    }
    if let Some(path) = &cfg.chrome {
        let s = ChromeTraceSink::to_file(path)
            .unwrap_or_else(|e| panic!("cannot open Chrome trace sink {path}: {e}"));
        sinks.push(Arc::new(s));
    }
    match sinks.len() {
        0 => {}
        1 => sink::install(sinks.pop().expect("one sink")),
        _ => sink::install(Arc::new(Fanout::new(sinks))),
    }
    mem::set_sink_mode(cfg.mem);
    ObsGuard { expo: cfg.expo.clone(), mem: cfg.mem.is_some() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let cfg = ObsConfig::parse(
            "console=debug, jsonl=/tmp/a.jsonl,chrome=/tmp/b.json,\
             expo=/tmp/c.prom,window=2.5,detail,mem=64",
        )
        .unwrap();
        assert_eq!(cfg.console, Some(LEVEL_DEBUG));
        assert_eq!(cfg.jsonl.as_deref(), Some("/tmp/a.jsonl"));
        assert_eq!(cfg.chrome.as_deref(), Some("/tmp/b.json"));
        assert_eq!(cfg.expo.as_deref(), Some("/tmp/c.prom"));
        assert_eq!(cfg.window_secs, Some(2.5));
        assert!(cfg.detail);
        assert_eq!(cfg.mem, Some(64));
    }

    #[test]
    fn mem_directive_accepts_all_and_moduli() {
        assert_eq!(ObsConfig::parse("mem=all").unwrap().mem, Some(1));
        assert_eq!(ObsConfig::parse("mem=1").unwrap().mem, Some(1));
        assert_eq!(ObsConfig::parse("mem=1000").unwrap().mem, Some(1000));
        assert_eq!(ObsConfig::parse("").unwrap().mem, None);
    }

    #[test]
    fn empty_spec_is_a_noop_config() {
        assert_eq!(ObsConfig::parse("").unwrap(), ObsConfig::default());
        assert_eq!(ObsConfig::parse(" , ,").unwrap(), ObsConfig::default());
    }

    #[test]
    fn console_levels_accept_names_and_numbers() {
        assert_eq!(ObsConfig::parse("console=silent").unwrap().console, Some(LEVEL_SILENT));
        assert_eq!(ObsConfig::parse("console=0").unwrap().console, Some(LEVEL_SILENT));
        assert_eq!(ObsConfig::parse("console=info").unwrap().console, Some(LEVEL_INFO));
        assert_eq!(ObsConfig::parse("console=2").unwrap().console, Some(LEVEL_DEBUG));
    }

    #[test]
    fn unknown_directives_are_rejected() {
        assert!(ObsConfig::parse("jsnol=/tmp/x").is_err());
        assert!(ObsConfig::parse("console=loud").is_err());
        assert!(ObsConfig::parse("jsonl=").is_err());
        assert!(ObsConfig::parse("window=zero").is_err());
        assert!(ObsConfig::parse("window=-1").is_err());
        assert!(ObsConfig::parse("expo=").is_err());
        assert!(ObsConfig::parse("mem").is_err());
        assert!(ObsConfig::parse("mem=0").is_err());
        assert!(ObsConfig::parse("mem=some").is_err());
    }
}
