//! # seqrec-serve
//!
//! Serving stack for the CL4SRec reproduction: load a trained model from a
//! versioned checkpoint (`seqrec_models::checkpoint`), wrap it in a
//! cache-aware [`ScoringService`], and front it with a [`BatchingServer`]
//! that coalesces concurrent requests into single forward passes.
//!
//! The stack's correctness contract is **serve-vs-eval parity**: any score
//! the serving path produces is bit-identical to what the offline
//! evaluator (`seqrec_eval`) would compute for the same user and history —
//! through the state cache, through micro-batching, and through the SIMD
//! top-K kernel (`seqrec_tensor::topk`, exact total order with
//! deterministic index tie-breaks). `tests/serve_parity.rs` and
//! `tests/serve_cache.rs` pin the contract for every model in the zoo.
//!
//! Layers:
//!
//! * [`AnyModel`] — kind-dispatched checkpoint loading;
//! * [`UserStateCache`] — per-user encoder states keyed by a digest of the
//!   exact history, so stale states can never be served;
//! * [`ScoringService`] — batched scoring: one encoder pass for the cache
//!   misses, one catalog GEMM for everyone, SIMD top-K per row;
//! * [`BatchingServer`] / [`ServeClient`] — a worker thread that batches
//!   requests within a latency window;
//! * [`ExpoServer`] — a std-only TCP endpoint exposing the live metric
//!   registry (rolling-window latency/queue/occupancy quantiles) in the
//!   Prometheus text format;
//! * [`SloPolicy`] / [`slo::evaluate`] — latency/error objectives scored
//!   against the rolling windows.
//!
//! Observability: every request is traced through its lifecycle stages
//! (enqueue → batch → encode → score → topk → reply) onto the installed
//! `seqrec_obs` sink — see the [`server`] module docs.
//!
//! Threading: the worker owns the model; the model's own forward pass uses
//! the global worker pool, so `SEQREC_THREADS` bounds serving parallelism
//! exactly as it bounds training (see TESTING.md § Serving).

#![warn(missing_docs)]

pub mod cache;
pub mod expo;
pub mod model;
pub mod server;
pub mod service;
pub mod slo;

pub use cache::{history_digest, UserStateCache};
pub use expo::ExpoServer;
pub use model::AnyModel;
pub use server::{BatchingServer, ServeClient, ServerConfig};
pub use service::{EncodedBatch, Recommendation, ScoringService};
pub use slo::{SloPolicy, SloReport};
