//! Micro-batching frontend: a worker thread that coalesces concurrent
//! score requests into one forward pass.
//!
//! Requests arrive on an MPSC channel. The worker takes the first request,
//! then keeps accepting more until either `max_batch` requests are queued
//! or `batch_window` has elapsed since the first one — so a lone request
//! pays at most the window in extra latency, while a burst amortises the
//! encoder forward across the whole batch. The batch then runs through
//! [`ScoringService`], which also de-duplicates encoder work via the
//! per-user state cache.
//!
//! The GEMM engine's batch-size invariance means coalescing never changes
//! scores: a request served in a batch of 64 returns bit-identical results
//! to the same request served alone (`tests/serve_parity.rs`).
//!
//! A request whose history names an item outside the model's catalog
//! (`1..=num_items`), or whose user index is past the model's user table
//! ([`StatefulScorer::num_users`]), is rejected before the batch is encoded:
//! its client gets `None`, `serve.errors` counts it, and the rest of the
//! batch is served with the bits it would have had anyway
//! (`tests/serve_admission.rs`).
//!
//! ## Observability
//!
//! Every request gets a process-monotonic id at submission, and the worker
//! timestamps its lifecycle: **enqueue** (channel wait) → **batch** (wait
//! inside the batching window) → **encode** → **score** → **topk** →
//! **reply**. The six stages tile the request's server-side latency
//! exactly — consecutive stages share a boundary timestamp — and are
//! emitted per request as [`seqrec_obs::Event::Request`] events when a
//! sink is installed (JSONL lines, Chrome `X` slices; `seqrec-prof` folds
//! them into a per-stage profile). Independent of any sink, the worker
//! feeds the always-on serve instruments: the queue-depth and
//! batch-occupancy histograms (each with a rolling-window view), the queue
//! and in-flight gauges, and the client handle records client-observed
//! latency into `SERVE_LATENCY_US`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seqrec_eval::StatefulScorer;
use seqrec_obs::{metrics, sink};

use crate::service::{rank, Recommendation, ScoringService};

/// Batching policy for a [`BatchingServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest batch one forward pass may serve.
    pub max_batch: usize,
    /// How long the worker waits for more requests after the first one.
    pub batch_window: Duration,
    /// Bound on queued requests before senders block (backpressure).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_batch: 64, batch_window: Duration::from_micros(500), queue_depth: 1024 }
    }
}

/// Source of process-monotonic request ids (shared by every server in the
/// process, so traces from several servers never collide).
static NEXT_REQ_ID: AtomicU64 = AtomicU64::new(1);

struct Request {
    req: u64,
    user: usize,
    history: Vec<u32>,
    k: usize,
    /// When the client submitted, µs since the trace epoch.
    enqueued_us: u64,
    reply: SyncSender<Vec<Recommendation>>,
}

/// A handle for submitting requests to a [`BatchingServer`]; clone one per
/// client thread.
#[derive(Clone)]
pub struct ServeClient {
    tx: SyncSender<Request>,
}

impl ServeClient {
    /// Scores `history` for `user` and returns the top `k` items, blocking
    /// until the server has run the batch containing this request.
    ///
    /// Returns `None` if the server has shut down, if `history` names an
    /// item outside the model's catalog `1..=num_items`, or if `user` is
    /// past the model's user table: the worker rejects such a request
    /// before encoding and serves the rest of its batch.
    pub fn recommend(&self, user: usize, history: &[u32], k: usize) -> Option<Vec<Recommendation>> {
        let req = NEXT_REQ_ID.fetch_add(1, Ordering::Relaxed);
        let enqueued_us = sink::now_us();
        let (reply_tx, reply_rx) = sync_channel(1);
        metrics::SERVE_QUEUE.add(1);
        let sent = self
            .tx
            .send(Request { req, user, history: history.to_vec(), k, enqueued_us, reply: reply_tx })
            .is_ok();
        if !sent {
            metrics::SERVE_QUEUE.add(-1);
            return None;
        }
        let out = reply_rx.recv().ok();
        let latency_us = sink::now_us().saturating_sub(enqueued_us);
        metrics::SERVE_LATENCY_US.record(latency_us);
        out
    }
}

/// A scoring server: one worker thread owning the model and its cache.
pub struct BatchingServer {
    tx: Option<SyncSender<Request>>,
    worker: Option<JoinHandle<()>>,
}

impl BatchingServer {
    /// Starts the worker thread around `model`.
    pub fn spawn<M>(model: M, cfg: ServerConfig) -> Self
    where
        M: StatefulScorer + Send + 'static,
    {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
        let worker = std::thread::Builder::new()
            .name("seqrec-serve".into())
            .spawn(move || worker_loop(ScoringService::new(model), rx, cfg))
            .expect("spawn serve worker");
        BatchingServer { tx: Some(tx), worker: Some(worker) }
    }

    /// A new client handle.
    pub fn client(&self) -> ServeClient {
        ServeClient { tx: self.tx.clone().expect("server running") }
    }
}

impl Drop for BatchingServer {
    fn drop(&mut self) {
        // Closing the channel lets the worker drain queued requests and exit.
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// A request the worker has admitted, with its stage boundary timestamps.
struct Admitted {
    inner: Request,
    admitted_us: u64,
}

fn admit(r: Request) -> Admitted {
    metrics::SERVE_QUEUE.add(-1);
    metrics::SERVE_IN_FLIGHT.add(1);
    Admitted { admitted_us: sink::now_us(), inner: r }
}

fn worker_loop<M: StatefulScorer>(
    mut service: ScoringService<M>,
    rx: Receiver<Request>,
    cfg: ServerConfig,
) {
    loop {
        let first = match rx.recv() {
            Ok(r) => r,
            Err(_) => return,
        };
        let mut batch = vec![admit(first)];
        let deadline = Instant::now() + cfg.batch_window;
        while batch.len() < cfg.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(r) => batch.push(admit(r)),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Depth of the backlog left behind once this batch is closed, and
        // how full the batch ran — the two signals that tell an operator
        // whether the window or the model is the bottleneck.
        metrics::SERVE_QUEUE_DEPTH.record(metrics::SERVE_QUEUE.get().max(0) as u64);
        metrics::SERVE_BATCH_OCCUPANCY_PCT.record((batch.len() * 100 / cfg.max_batch) as u64);

        // An item id outside the catalog would index past the model's
        // embedding tables, and a user index past the model's user table
        // trips its `assert!`: either panics this thread, failing every
        // later request. Such a request is answered with `None` (its reply
        // sender dropped) and counted as an error before the batch is
        // encoded; the rest of the batch is encoded and scored as if it had
        // come alone.
        let catalog = 1..=service.model().num_items();
        let num_users = service.model().num_users();
        let (batch, rejected): (Vec<_>, Vec<_>) = batch.into_iter().partition(|r| {
            num_users.is_none_or(|n| r.inner.user < n)
                && r.inner.history.iter().all(|&i| catalog.contains(&(i as usize)))
        });
        for r in rejected {
            metrics::SERVE_ERRORS.incr();
            metrics::SERVE_IN_FLIGHT.add(-1);
            drop(r);
        }
        if batch.is_empty() {
            continue;
        }

        let t_exec = sink::now_us();
        let started = Instant::now();
        let users: Vec<usize> = batch.iter().map(|r| r.inner.user).collect();
        let histories: Vec<&[u32]> = batch.iter().map(|r| r.inner.history.as_slice()).collect();
        let max_k = batch.iter().map(|r| r.inner.k).max().unwrap_or(0);
        let encoded = service.encode_batch(&users, &histories);
        let t_encoded = sink::now_us();
        let scores = service.score_encoded(&encoded);
        let t_scored = sink::now_us();
        let ranked = rank(&scores, max_k);
        let t_topk = sink::now_us();
        metrics::record_scaled(&metrics::SERVE_BATCH_US, started.elapsed().as_secs_f64(), 1e6);

        let tracing = sink::enabled();
        let tid = sink::tid();
        for (r, mut recs) in batch.into_iter().zip(ranked) {
            recs.truncate(r.inner.k);
            // A closed reply channel just means the client gave up waiting.
            if r.inner.reply.send(recs).is_err() {
                metrics::SERVE_ERRORS.incr();
            }
            metrics::SERVE_IN_FLIGHT.add(-1);
            if tracing {
                // Six stages sharing boundary timestamps: their durations
                // telescope to exactly (reply end − enqueue start).
                let t_done = sink::now_us();
                let stages = [
                    ("enqueue", r.inner.enqueued_us, r.admitted_us),
                    ("batch", r.admitted_us, t_exec),
                    ("encode", t_exec, t_encoded),
                    ("score", t_encoded, t_scored),
                    ("topk", t_scored, t_topk),
                    ("reply", t_topk, t_done),
                ];
                for (stage, from, to) in stages {
                    sink::dispatch(&seqrec_obs::Event::Request {
                        req: r.inner.req,
                        user: r.inner.user as u64,
                        stage,
                        tid,
                        ts_us: from,
                        dur_us: to.saturating_sub(from),
                    });
                }
            }
        }
    }
}
