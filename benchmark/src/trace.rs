//! Traced runs: the program's own telemetry sink, pointed at memory.
//!
//! A traced run installs `seqrec_obs`'s own trace sinks over in-memory
//! buffers. Three sources land in that one trace: the spans this benchmark
//! opens around each public call it times, the spans the program already
//! emits inside those calls (the fit loops' `epoch`/`batch`/`forward`/
//! `backward`/`optim`, CL4SRec's `augment`/`ntxent`, the evaluator's
//! `eval.score`/`eval.rank`), and the serve worker's six per-request stage
//! events. When the traced phase ends the trace is written out as one
//! Chrome trace file (`B`/`E` span pairs nest by thread, so each span's
//! parent is the span open around it; request stages are `X` events with
//! the request id in `args.req`) and folded into self times with the
//! program's own trace readers in `seqrec_obs::profile`, from a JSONL copy
//! of the same events: the readers parse JSONL line by line, while one
//! multi-megabyte Chrome array takes them tens of seconds.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use seqrec_obs::metrics;
use seqrec_obs::profile::{self, Profile, RequestEvent};
use seqrec_obs::sink::{self, SharedBuf};
use seqrec_obs::{ChromeTraceSink, Fanout, JsonlSink};

/// Where a traced run writes its trace: `benchmark/out/`.
pub fn out_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"))
}

/// An installed in-memory trace sink.
pub struct Tracer {
    /// The JSONL copy, folded here: the program's line-by-line JSONL
    /// readers stay fast on large traces.
    jsonl: SharedBuf,
    /// The Chrome copy, written out for trace viewers.
    chrome: SharedBuf,
}

impl Tracer {
    /// Installs the sink; spans and request events are recorded from here
    /// on.
    pub fn start() -> Tracer {
        let (jsonl, chrome) = (SharedBuf::new(), SharedBuf::new());
        sink::install(Arc::new(Fanout::new(vec![
            Arc::new(JsonlSink::to_writer(Box::new(jsonl.clone()))),
            Arc::new(ChromeTraceSink::to_writer(Box::new(chrome.clone()))),
        ])));
        Tracer { jsonl, chrome }
    }

    /// Uninstalls the sink, writes the trace to `path` and folds it.
    ///
    /// # Errors
    /// Returns a message when the trace cannot be written or does not fold
    /// (unpaired spans).
    pub fn finish(self, path: &Path) -> Result<Trace, String> {
        sink::uninstall();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.chrome.contents())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let text = self.jsonl.contents();
        let spans = Profile::build(&profile::parse_jsonl(&text)?)?;
        Ok(Trace {
            paths: spans.top_exclusive(usize::MAX),
            requests: profile::parse_requests_jsonl(&text)?,
        })
    }
}

/// A folded trace.
pub struct Trace {
    /// `(call path, exclusive µs, inclusive µs, count)` per distinct path.
    paths: Vec<(String, u64, u64, u64)>,
    /// Serve request stage events.
    pub requests: Vec<RequestEvent>,
}

impl Trace {
    fn matching(&self, root: &str, leaf: &str) -> impl Iterator<Item = &(String, u64, u64, u64)> {
        let (root, leaf) = (root.to_string(), leaf.to_string());
        self.paths.iter().filter(move |(path, ..)| {
            let mut parts = path.split(';');
            parts.next() == Some(root.as_str()) && path.rsplit(';').next() == Some(leaf.as_str())
        })
    }

    /// Total inclusive µs of the spans named `leaf` inside top-level spans
    /// named `root` (`leaf == root` selects the top-level spans).
    pub fn incl_us(&self, root: &str, leaf: &str) -> f64 {
        self.matching(root, leaf).map(|r| r.2 as f64).sum()
    }

    /// Total self µs (inclusive minus child spans) of the spans named
    /// `leaf` inside top-level spans named `root`.
    pub fn self_us(&self, root: &str, leaf: &str) -> f64 {
        self.matching(root, leaf).map(|r| r.1 as f64).sum()
    }
}

/// The program's always-on counters this benchmark reads per op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub gemm_calls: u64,
    pub gemm_flops: u64,
    pub tape_nodes: u64,
    pub tape_backward_nodes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub serve_requests: u64,
    pub serve_batches: u64,
}

impl Counters {
    /// Current readings.
    pub fn read() -> Counters {
        Counters {
            gemm_calls: metrics::GEMM_CALLS.get(),
            gemm_flops: metrics::GEMM_FLOPS.get(),
            tape_nodes: metrics::TAPE_NODES.get(),
            tape_backward_nodes: metrics::TAPE_BACKWARD_NODES.get(),
            cache_hits: metrics::SERVE_CACHE_HITS.get(),
            cache_misses: metrics::SERVE_CACHE_MISSES.get(),
            serve_requests: metrics::SERVE_REQUESTS.get(),
            serve_batches: metrics::SERVE_BATCHES.get(),
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls - before.gemm_calls,
            gemm_flops: self.gemm_flops - before.gemm_flops,
            tape_nodes: self.tape_nodes - before.tape_nodes,
            tape_backward_nodes: self.tape_backward_nodes - before.tape_backward_nodes,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            serve_requests: self.serve_requests - before.serve_requests,
            serve_batches: self.serve_batches - before.serve_batches,
        }
    }

    /// Records the tape and GEMM per-op metrics for `ops` ops that took
    /// `secs` of wall time.
    pub fn record_compute(&self, out: &mut crate::spec::Outcome, ops: f64, secs: f64) {
        out.set("tape.nodes_per_op", self.tape_nodes as f64 / ops);
        out.set("tape.backward_nodes_per_op", self.tape_backward_nodes as f64 / ops);
        out.set("gemm.calls_per_op", self.gemm_calls as f64 / ops);
        out.set("gemm.gflop_per_op", self.gemm_flops as f64 / 1e9 / ops);
        out.set("gemm.gflops_per_s", self.gemm_flops as f64 / 1e9 / secs);
    }
}
