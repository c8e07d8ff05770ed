//! The process-global metrics registry.
//!
//! Three primitive types, all updated with relaxed atomics so probes stay
//! cheap enough to leave compiled into hot paths:
//!
//! * [`Counter`] — a monotonically increasing `u64`. Overflow **wraps**
//!   (two's-complement `fetch_add` semantics): a counter that has run for
//!   long enough to wrap is still useful as a delta source, and saturating
//!   would cost a compare-exchange loop per probe.
//! * [`Gauge`] — a signed level (e.g. live tensor bytes) that also tracks
//!   its high-water mark. The peak is updated with `fetch_max`, so under
//!   concurrent mutation it is a close approximation, not a serialised
//!   maximum.
//! * [`Histogram`] — fixed upper-inclusive buckets: a sample lands in the
//!   first bucket whose bound is `>= value`, or in the overflow bucket when
//!   it exceeds every bound. Each histogram also carries a total sample
//!   count and a (wrapping) value sum, so means and Prometheus-style
//!   `_count`/`_sum` series come for free.
//! * [`WindowedHistogram`] / [`WindowedCounter`] — a histogram or counter
//!   that also keeps a rolling-window view, for live serving metrics: each
//!   sample lands in the cumulative instrument and in the current epoch of
//!   a ring keyed by the trace clock, so p50/p95/p99 latency, queue depth,
//!   batch occupancy and cache hit rate are queryable *mid-run*, not only
//!   at shutdown. One bucket store backs a [`Histogram`] and every epoch.
//!   Window length is process-global ([`set_window_secs`],
//!   `SEQREC_OBS=window=SECS`).
//!
//! The well-known instruments of the training stack are declared here as
//! statics ([`GEMM_FLOPS`], [`TAPE_NODES`], …) and enumerated by
//! [`snapshot`], which is also what sinks serialise on flush and what the
//! Prometheus-style exposition ([`crate::expo`]) renders. A windowed
//! instrument gives two readings: its cumulative view under its own name
//! (`serve.latency_us`) and its window under `<name>.window`.
//!
//! ## Snapshot consistency
//!
//! Probes are relaxed atomics, so a snapshot taken under concurrent
//! mutation is not a serialised cut — but it never *tears* in the
//! directions that matter: a histogram's per-bucket counts are read
//! before its total (and [`Histogram::record`] bumps the total first),
//! so `sum(buckets) + overflow <= total` holds in every scrape, and
//! counter/total readings are monotonic across scrapes
//! (`tests/metrics_concurrency.rs` hammers this from a real pool).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use crate::sink;

/// Maximum number of explicit histogram buckets (excluding overflow).
pub const MAX_BUCKETS: usize = 24;

/// Number of epochs in a rolling window ring. The window is divided into
/// this many epochs; expiry granularity is one epoch.
pub const WINDOW_SLOTS: usize = 8;

/// The process-global rolling-window length in microseconds (default 10s).
/// One atomic so every windowed instrument resizes together.
static WINDOW_US: AtomicU64 = AtomicU64::new(10_000_000);

/// Sets the rolling-window length for every windowed instrument. Values
/// are clamped to at least `WINDOW_SLOTS` milliseconds so each epoch stays
/// a non-zero number of microseconds. Normally set once at startup from
/// the `SEQREC_OBS=window=SECS` directive; resizing mid-run effectively
/// restarts the windows (epoch numbering changes).
pub fn set_window_secs(secs: f64) {
    let us = (secs * 1e6).clamp(WINDOW_SLOTS as f64 * 1_000.0, 1e15) as u64;
    WINDOW_US.store(us, Relaxed);
}

/// The current rolling-window length in microseconds.
pub fn window_us() -> u64 {
    WINDOW_US.load(Relaxed)
}

fn epoch_len_us() -> u64 {
    (window_us() / WINDOW_SLOTS as u64).max(1)
}

/// The current window epoch number, offset by one so `0` can tag an
/// empty slot.
fn current_epoch() -> u64 {
    sink::now_us() / epoch_len_us() + 1
}

/// A wrapping, monotonically increasing event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter starting at zero.
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// Adds `n`. Wraps on overflow (see the module docs).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resets to zero (benchmark harnesses and tests).
    pub fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A signed level with an approximate high-water mark.
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// A new gauge at zero.
    pub const fn new(name: &'static str) -> Self {
        Gauge { name, value: AtomicI64::new(0), peak: AtomicI64::new(0) }
    }

    /// Moves the level by `delta` (negative to decrease); a positive move
    /// also advances the peak.
    #[inline]
    pub fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Relaxed).wrapping_add(delta);
        if delta > 0 {
            self.peak.fetch_max(new, Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }

    /// The high-water mark.
    pub fn peak(&self) -> i64 {
        self.peak.load(Relaxed)
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resets level and peak to zero.
    pub fn reset(&self) {
        self.value.store(0, Relaxed);
        self.peak.store(0, Relaxed);
    }
}

/// Disjoint per-bucket counts plus a sample total and a (wrapping) value
/// sum: the store behind a [`Histogram`] and behind each epoch of a
/// rolling window.
struct Buckets {
    counts: [AtomicU64; MAX_BUCKETS],
    overflow: AtomicU64,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Buckets {
    const fn new() -> Self {
        Buckets {
            counts: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            overflow: AtomicU64::new(0),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample: the first bucket with `bound >= value`, or the
    /// overflow bucket. The total is bumped *before* the bucket so that a
    /// concurrent read (which reads buckets first) never observes
    /// `sum(buckets) + overflow > total`.
    #[inline]
    fn record(&self, bounds: &[u64], value: u64) {
        self.total.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        match bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i].fetch_add(1, Relaxed),
            None => self.overflow.fetch_add(1, Relaxed),
        };
    }

    fn counts(&self, bounds: &[u64]) -> Vec<u64> {
        self.counts[..bounds.len()].iter().map(|c| c.load(Relaxed)).collect()
    }

    fn clear(&self) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        self.overflow.store(0, Relaxed);
        self.total.store(0, Relaxed);
        self.sum.store(0, Relaxed);
    }
}

/// A fixed-bucket histogram with upper-inclusive bucket bounds.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: Buckets,
}

impl Histogram {
    /// A new histogram over `bounds` (ascending, at most [`MAX_BUCKETS`]).
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        assert!(bounds.len() <= MAX_BUCKETS, "too many histogram buckets");
        Histogram { name, bounds, buckets: Buckets::new() }
    }

    /// Records one sample: the first bucket with `bound >= value`, or the
    /// overflow bucket.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets.record(self.bounds, value);
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts, in bound order.
    pub fn counts(&self) -> Vec<u64> {
        self.buckets.counts(self.bounds)
    }

    /// Samples above every bound.
    pub fn overflow(&self) -> u64 {
        self.buckets.overflow.load(Relaxed)
    }

    /// Total samples recorded. Under concurrent recording this is `>=`
    /// the sum of the bucket counts read afterwards.
    pub fn total(&self) -> u64 {
        self.buckets.total.load(Relaxed)
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.buckets.sum.load(Relaxed)
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        self.buckets.clear();
    }
}

/// The `q`-quantile of a fixed-bucket distribution at bucket resolution:
/// the smallest bound whose cumulative count reaches `ceil(q·n)` where `n`
/// is the number of samples in the buckets (including overflow). Samples
/// in the overflow region report `u64::MAX`. Returns `None` when empty.
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], overflow: u64, q: f64) -> Option<u64> {
    let n: u64 = counts.iter().sum::<u64>() + overflow;
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (&b, &c) in bounds.iter().zip(counts) {
        cum += c;
        if cum >= rank {
            return Some(b);
        }
    }
    Some(u64::MAX)
}

// --- rolling-window instruments ---------------------------------------------

/// One epoch of a rolling window: a bucket store tagged with `epoch + 1`
/// (0 = never used) and claimed by CAS when the ring wraps onto it.
struct WindowSlot {
    epoch: AtomicU64,
    buckets: Buckets,
}

impl WindowSlot {
    const fn new() -> Self {
        WindowSlot { epoch: AtomicU64::new(0), buckets: Buckets::new() }
    }

    /// Ensures the slot is tagged for `epoch`, zeroing it if this thread
    /// wins the rotation CAS. Returns `false` if the slot is owned by a
    /// *newer* epoch (the recording thread is so stale its sample has
    /// already expired — drop it).
    fn claim(&self, epoch: u64) -> bool {
        loop {
            let tag = self.epoch.load(Relaxed);
            if tag == epoch {
                return true;
            }
            if tag > epoch {
                return false;
            }
            if self.epoch.compare_exchange(tag, epoch, Relaxed, Relaxed).is_ok() {
                // Winner zeroes the recycled slot. Samples recorded into the
                // old epoch between the CAS and the clear are lost — bounded,
                // rotation-instant-only loss, acceptable for a live window.
                self.buckets.clear();
                return true;
            }
        }
    }
}

/// A ring of [`WINDOW_SLOTS`] epochs keyed by the trace clock: recording
/// lands in the current epoch's slot, and reading aggregates every slot
/// whose epoch is still inside the window, so a read reflects roughly the
/// last [`window_us`] of samples (expiry granularity one epoch).
struct Ring([WindowSlot; WINDOW_SLOTS]);

impl Ring {
    const fn new() -> Self {
        Ring([const { WindowSlot::new() }; WINDOW_SLOTS])
    }

    /// The current epoch's store, or `None` when its slot already belongs
    /// to a newer epoch.
    #[inline]
    fn current(&self) -> Option<&Buckets> {
        let epoch = current_epoch();
        let slot = &self.0[(epoch % WINDOW_SLOTS as u64) as usize];
        slot.claim(epoch).then_some(&slot.buckets)
    }

    /// Aggregates the live epochs over `bounds`. The total is what the
    /// buckets hold, so a window read never tears.
    fn read(&self, bounds: &'static [u64]) -> WindowSnapshot {
        let now = current_epoch();
        let live = now.saturating_sub(WINDOW_SLOTS as u64 - 1)..=now;
        let mut counts = vec![0u64; bounds.len()];
        let mut overflow = 0u64;
        let mut sum = 0u64;
        for slot in &self.0 {
            let tag = slot.epoch.load(Relaxed);
            if !live.contains(&tag) {
                continue;
            }
            let slot_counts = slot.buckets.counts(bounds);
            let slot_overflow = slot.buckets.overflow.load(Relaxed);
            if slot.epoch.load(Relaxed) != tag {
                continue; // rotated under us; its samples just expired
            }
            for (c, s) in counts.iter_mut().zip(&slot_counts) {
                *c += s;
            }
            overflow += slot_overflow;
            sum = sum.wrapping_add(slot.buckets.sum.load(Relaxed));
        }
        let total = counts.iter().sum::<u64>() + overflow;
        WindowSnapshot { window_us: window_us(), bounds, counts, overflow, total, sum }
    }

    fn reset(&self) {
        for slot in &self.0 {
            slot.epoch.store(0, Relaxed);
            slot.buckets.clear();
        }
    }
}

/// An aggregated read of a rolling window.
pub struct WindowSnapshot {
    /// Window length the snapshot covers (µs).
    pub window_us: u64,
    /// Upper-inclusive bucket bounds (empty for windowed counters).
    pub bounds: &'static [u64],
    /// Per-bucket sample counts over the live epochs.
    pub counts: Vec<u64>,
    /// Samples above every bound.
    pub overflow: u64,
    /// Total samples in the window.
    pub total: u64,
    /// Sum of sample values in the window (wrapping).
    pub sum: u64,
}

impl WindowSnapshot {
    /// Bucket-resolution quantile estimate over the window; `None` when
    /// the window is empty. See [`histogram_quantile`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        histogram_quantile(self.bounds, &self.counts, self.overflow, q)
    }
}

/// A histogram with a rolling-window view: every sample lands in the
/// cumulative [`Histogram`] and in the current epoch of a [`WINDOW_SLOTS`]
/// ring, so p50/p95/p99 are queryable *mid-run*, not only at shutdown.
pub struct WindowedHistogram {
    hist: Histogram,
    window_name: &'static str,
    ring: Ring,
}

impl WindowedHistogram {
    /// A new instrument over `bounds`; `name` labels the cumulative view
    /// and `window_name` the rolling one.
    pub const fn new(
        name: &'static str,
        window_name: &'static str,
        bounds: &'static [u64],
    ) -> Self {
        WindowedHistogram { hist: Histogram::new(name, bounds), window_name, ring: Ring::new() }
    }

    /// Records one sample into both views.
    #[inline]
    pub fn record(&self, value: u64) {
        self.hist.record(value);
        if let Some(epoch) = self.ring.current() {
            epoch.record(self.hist.bounds, value);
        }
    }

    /// The cumulative view.
    pub fn cumulative(&self) -> &Histogram {
        &self.hist
    }

    /// Aggregates the live epochs into one [`WindowSnapshot`].
    pub fn window_snapshot(&self) -> WindowSnapshot {
        self.ring.read(self.hist.bounds)
    }

    /// Resets both views (benchmark harnesses and tests).
    pub fn reset(&self) {
        self.hist.reset();
        self.ring.reset();
    }
}

/// A counter with a rolling-window view: every add lands in the
/// cumulative [`Counter`] and in the current epoch's sum, for rates like
/// cache hits over the last window.
pub struct WindowedCounter {
    counter: Counter,
    window_name: &'static str,
    ring: Ring,
}

impl WindowedCounter {
    /// A new instrument; `name` labels the cumulative view and
    /// `window_name` the rolling one.
    pub const fn new(name: &'static str, window_name: &'static str) -> Self {
        WindowedCounter { counter: Counter::new(name), window_name, ring: Ring::new() }
    }

    /// Adds `n` to both views.
    #[inline]
    pub fn add(&self, n: u64) {
        self.counter.add(n);
        if let Some(epoch) = self.ring.current() {
            epoch.sum.fetch_add(n, Relaxed);
        }
    }

    /// The cumulative count.
    pub fn get(&self) -> u64 {
        self.counter.get()
    }

    /// The sum over the live epochs.
    pub fn windowed_value(&self) -> u64 {
        self.ring.read(&[]).sum
    }

    /// Resets both views.
    pub fn reset(&self) {
        self.counter.reset();
        self.ring.reset();
    }
}

// --- the well-known instruments of the training stack -----------------------

/// Floating-point operations executed by the GEMM engine (2·m·k·n per call).
pub static GEMM_FLOPS: Counter = Counter::new("gemm.flops");
/// GEMM engine invocations (each batch element of a `bmm` counts once).
pub static GEMM_CALLS: Counter = Counter::new("gemm.calls");
/// Distribution of FLOPs per GEMM call (bounds in FLOPs).
pub static GEMM_FLOPS_PER_CALL: Histogram =
    Histogram::new("gemm.flops_per_call", &[1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30]);
/// Autograd tape nodes allocated (leaves + ops, across all tapes).
pub static TAPE_NODES: Counter = Counter::new("tape.nodes");
/// Reverse-mode sweeps executed.
pub static TAPE_BACKWARD_RUNS: Counter = Counter::new("tape.backward.runs");
/// Nodes whose backward closure actually ran during those sweeps.
pub static TAPE_BACKWARD_NODES: Counter = Counter::new("tape.backward.nodes");
/// Live tensor buffer bytes (gauge; its peak is the max resident set of
/// tensor data).
pub static TENSOR_LIVE_BYTES: Gauge = Gauge::new("tensor.live_bytes");
/// Training mini-batches completed.
pub static TRAIN_BATCHES: Counter = Counter::new("train.batches");
/// Training sequences consumed.
pub static TRAIN_SEQUENCES: Counter = Counter::new("train.sequences");
/// Distribution of per-batch wall time (µs).
pub static TRAIN_BATCH_US: Histogram = Histogram::new(
    "train.batch_us",
    &[100, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000],
);
/// Users scored by the evaluator.
pub static EVAL_USERS: Counter = Counter::new("eval.users");
/// Optimiser updates applied (across all fit loops in the process).
pub static OPTIM_STEPS: Counter = Counter::new("optim.steps");
/// NaN/Inf anomalies observed on loss or gradients by the training-dynamics
/// sentinels.
pub static TRAIN_ANOMALIES: Counter = Counter::new("train.anomalies");
/// Tensor buffer allocations emitted into the sink by the mem tracer
/// (`SEQREC_OBS=mem=...`); counts *traced* allocations only, so under
/// `mem=N` sampling it is roughly 1/N of real allocations.
pub static MEM_TRACED_ALLOCS: Counter = Counter::new("mem.traced.allocs");
/// Tensor buffer frees emitted into the sink by the mem tracer. In a
/// complete trace this trails [`MEM_TRACED_ALLOCS`] by exactly the
/// buffers still live at the end.
pub static MEM_TRACED_FREES: Counter = Counter::new("mem.traced.frees");
/// Distribution of the global gradient L2 norm per optimiser step, in
/// milli-units (a reading of 1_000 = norm 1.0). Non-finite norms land in
/// the overflow bucket.
pub static GRAD_NORM_MILLI: Histogram = Histogram::new(
    "train.grad_norm_milli",
    &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
);
/// Distribution of the global update:parameter ratio per optimiser step, in
/// micro-units (a reading of 1_000 = ratio 1e-3, the healthy Adam regime).
pub static UPDATE_RATIO_MICRO: Histogram = Histogram::new(
    "train.update_ratio_micro",
    &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
);
/// Distribution of the per-step spread (max − min, milli-units) of shard
/// losses under data-parallel training. A wide spread means the shards see
/// systematically different data — the DP analogue of a skewed per-group
/// gradient norm.
pub static DP_SHARD_LOSS_SPREAD_MILLI: Histogram = Histogram::new(
    "train.dp_shard_loss_spread_milli",
    &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
);
/// Score requests handled by the serving stack.
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Serve requests whose encoder state came from the user-state cache; the
/// window view gives the live hit rate = hits / (hits + misses).
pub static SERVE_CACHE_HITS: WindowedCounter =
    WindowedCounter::new("serve.cache.hits", "serve.cache.hits.window");
/// Serve requests that had to re-encode the user's history.
pub static SERVE_CACHE_MISSES: WindowedCounter =
    WindowedCounter::new("serve.cache.misses", "serve.cache.misses.window");
/// Forward batches executed by the scoring service.
pub static SERVE_BATCHES: Counter = Counter::new("serve.batches");
/// Distribution of per-serve-batch wall time (µs), model forward + top-K.
pub static SERVE_BATCH_US: Histogram = Histogram::new(
    "serve.batch_us",
    &[100, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000],
);
/// Requests that failed (client gone before reply, or scoring error).
pub static SERVE_ERRORS: Counter = Counter::new("serve.errors");
/// Queued-but-unserved requests (level at enqueue/admit; peak = deepest
/// backlog).
pub static SERVE_QUEUE: Gauge = Gauge::new("serve.queue");
/// Requests admitted to a batch but not yet replied to.
pub static SERVE_IN_FLIGHT: Gauge = Gauge::new("serve.in_flight");

/// Bucket bounds of the serve-latency histogram (µs).
pub const SERVE_LATENCY_BOUNDS: &[u64] = &[
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 500_000, 1_000_000,
    5_000_000,
];
/// Bucket bounds for queue-depth histograms (requests waiting).
pub const SERVE_QUEUE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// Bucket bounds for batch-occupancy histograms (percent of `max_batch`).
pub const SERVE_OCCUPANCY_BOUNDS: &[u64] = &[1, 5, 10, 25, 50, 75, 90, 100];

/// Distribution of client-observed request latency (µs), enqueue → reply;
/// the window view gives live p50/p95/p99.
pub static SERVE_LATENCY_US: WindowedHistogram =
    WindowedHistogram::new("serve.latency_us", "serve.latency_us.window", SERVE_LATENCY_BOUNDS);
/// Distribution of queue depth observed at batch admission.
pub static SERVE_QUEUE_DEPTH: WindowedHistogram =
    WindowedHistogram::new("serve.queue_depth", "serve.queue_depth.window", SERVE_QUEUE_BOUNDS);
/// Distribution of batch occupancy (batch size as a percent of
/// `max_batch`) per executed serve batch.
pub static SERVE_BATCH_OCCUPANCY_PCT: WindowedHistogram = WindowedHistogram::new(
    "serve.batch_occupancy_pct",
    "serve.batch_occupancy_pct.window",
    SERVE_OCCUPANCY_BOUNDS,
);

/// Records a non-negative float into a scaled histogram: `value * scale`,
/// saturating, with NaN/Inf mapped to `u64::MAX` (the overflow bucket).
pub fn record_scaled(h: &Histogram, value: f64, scale: f64) {
    let scaled = value * scale;
    if scaled.is_finite() && scaled >= 0.0 {
        h.record(scaled.min(u64::MAX as f64) as u64);
    } else {
        h.record(u64::MAX);
    }
}

/// One metric's value at snapshot time.
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge's current level and high-water mark.
    Gauge {
        /// Current level.
        current: i64,
        /// High-water mark.
        peak: i64,
    },
    /// A histogram's buckets.
    Histogram {
        /// Upper-inclusive bucket bounds.
        bounds: &'static [u64],
        /// Per-bucket sample counts.
        counts: Vec<u64>,
        /// Samples above every bound.
        overflow: u64,
        /// Total samples recorded (may exceed `sum(counts) + overflow`
        /// under concurrent recording; never less).
        total: u64,
        /// Sum of recorded values (wrapping).
        sum: u64,
    },
    /// A rolling-window histogram's live epochs.
    Window {
        /// Window length covered (µs).
        window_us: u64,
        /// Upper-inclusive bucket bounds.
        bounds: &'static [u64],
        /// Per-bucket sample counts over the window.
        counts: Vec<u64>,
        /// Samples above every bound.
        overflow: u64,
        /// Total samples in the window.
        total: u64,
        /// Sum of sample values in the window (wrapping).
        sum: u64,
    },
    /// A rolling-window counter's live sum.
    WindowCount {
        /// Window length covered (µs).
        window_us: u64,
        /// Sum over the window.
        value: u64,
    },
}

/// A named metric reading.
pub struct MetricReading {
    /// Registry name.
    pub name: &'static str,
    /// The value read.
    pub value: MetricValue,
}

fn counters() -> [&'static Counter; 17] {
    [
        &GEMM_FLOPS,
        &GEMM_CALLS,
        &TAPE_NODES,
        &TAPE_BACKWARD_RUNS,
        &TAPE_BACKWARD_NODES,
        &TRAIN_BATCHES,
        &TRAIN_SEQUENCES,
        &EVAL_USERS,
        &OPTIM_STEPS,
        &TRAIN_ANOMALIES,
        &MEM_TRACED_ALLOCS,
        &MEM_TRACED_FREES,
        &SERVE_REQUESTS,
        &SERVE_CACHE_HITS.counter,
        &SERVE_CACHE_MISSES.counter,
        &SERVE_BATCHES,
        &SERVE_ERRORS,
    ]
}

fn gauges() -> [&'static Gauge; 3] {
    [&TENSOR_LIVE_BYTES, &SERVE_QUEUE, &SERVE_IN_FLIGHT]
}

fn histograms() -> [&'static Histogram; 9] {
    [
        &GEMM_FLOPS_PER_CALL,
        &TRAIN_BATCH_US,
        &GRAD_NORM_MILLI,
        &UPDATE_RATIO_MICRO,
        &DP_SHARD_LOSS_SPREAD_MILLI,
        &SERVE_BATCH_US,
        &SERVE_LATENCY_US.hist,
        &SERVE_QUEUE_DEPTH.hist,
        &SERVE_BATCH_OCCUPANCY_PCT.hist,
    ]
}

fn windowed_histograms() -> [&'static WindowedHistogram; 3] {
    [&SERVE_LATENCY_US, &SERVE_QUEUE_DEPTH, &SERVE_BATCH_OCCUPANCY_PCT]
}

fn windowed_counters() -> [&'static WindowedCounter; 2] {
    [&SERVE_CACHE_HITS, &SERVE_CACHE_MISSES]
}

/// Reads every registered metric.
pub fn snapshot() -> Vec<MetricReading> {
    let mut out = Vec::new();
    for c in counters() {
        out.push(MetricReading { name: c.name(), value: MetricValue::Counter(c.get()) });
    }
    for g in gauges() {
        out.push(MetricReading {
            name: g.name(),
            value: MetricValue::Gauge { current: g.get(), peak: g.peak() },
        });
    }
    for h in histograms() {
        // Buckets before total: never observe sum(buckets) > total.
        let counts = h.counts();
        let overflow = h.overflow();
        out.push(MetricReading {
            name: h.name(),
            value: MetricValue::Histogram {
                bounds: h.bounds(),
                counts,
                overflow,
                total: h.total(),
                sum: h.sum(),
            },
        });
    }
    for w in windowed_histograms() {
        let s = w.window_snapshot();
        out.push(MetricReading {
            name: w.window_name,
            value: MetricValue::Window {
                window_us: s.window_us,
                bounds: s.bounds,
                counts: s.counts,
                overflow: s.overflow,
                total: s.total,
                sum: s.sum,
            },
        });
    }
    for w in windowed_counters() {
        out.push(MetricReading {
            name: w.window_name,
            value: MetricValue::WindowCount { window_us: window_us(), value: w.windowed_value() },
        });
    }
    out
}

/// Resets every registered metric to zero (benchmark harnesses isolating
/// per-phase readings; never called from library code).
pub fn reset_all() {
    for c in counters() {
        c.reset();
    }
    for g in gauges() {
        g.reset();
    }
    for h in histograms() {
        h.reset();
    }
    for w in windowed_histograms() {
        w.reset();
    }
    for w in windowed_counters() {
        w.reset();
    }
}

/// Serialises a snapshot into the installed sink as counter events (gauges
/// contribute `<name>.current` / `<name>.peak`; histograms one event per
/// bucket plus `<name>.overflow`).
pub fn emit_snapshot() {
    if !sink::enabled() {
        return;
    }
    let ts = sink::now_us();
    let emit = |name: &str, value: u64| {
        sink::dispatch(&crate::Event::Counter { name, value, ts_us: ts });
    };
    for reading in snapshot() {
        match reading.value {
            MetricValue::Counter(v) => emit(reading.name, v),
            MetricValue::Gauge { current, peak } => {
                emit(&format!("{}.current", reading.name), current.max(0) as u64);
                emit(&format!("{}.peak", reading.name), peak.max(0) as u64);
            }
            MetricValue::Histogram { bounds, counts, overflow, total, sum } => {
                for (b, c) in bounds.iter().zip(&counts) {
                    emit(&format!("{}.le_{b}", reading.name), *c);
                }
                emit(&format!("{}.overflow", reading.name), overflow);
                emit(&format!("{}.total", reading.name), total);
                emit(&format!("{}.sum", reading.name), sum);
            }
            MetricValue::Window { window_us, bounds, counts, overflow, total, sum } => {
                let snap = WindowSnapshot { window_us, bounds, counts, overflow, total, sum };
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    if let Some(v) = snap.quantile(q) {
                        emit(&format!("{}.{label}", reading.name), v);
                    }
                }
                emit(&format!("{}.count", reading.name), snap.total);
            }
            MetricValue::WindowCount { value, .. } => emit(reading.name, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new("t");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::new("t");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(3); // wraps past zero
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new("t");
        g.add(100);
        g.add(-40);
        g.add(20);
        assert_eq!(g.get(), 80);
        assert_eq!(g.peak(), 100);
        g.add(50);
        assert_eq!(g.peak(), 130);
    }

    #[test]
    fn gauge_can_go_negative_without_moving_peak() {
        let g = Gauge::new("t");
        g.add(-5);
        assert_eq!(g.get(), -5);
        assert_eq!(g.peak(), 0);
    }

    #[test]
    fn histogram_bounds_are_upper_inclusive() {
        static H: Histogram = Histogram::new("t", &[10, 100]);
        H.reset();
        H.record(0); // <= 10 -> bucket 0
        H.record(10); // boundary value stays in bucket 0
        H.record(11); // first value of bucket 1
        H.record(100); // boundary value stays in bucket 1
        H.record(101); // above every bound -> overflow
        assert_eq!(H.counts(), vec![2, 2]);
        assert_eq!(H.overflow(), 1);
        assert_eq!(H.total(), 5);
    }

    #[test]
    fn record_scaled_maps_nonfinite_to_overflow() {
        static H: Histogram = Histogram::new("t", &[10, 1_000]);
        H.reset();
        record_scaled(&H, 0.005, 1_000.0); // 5 milli → bucket 0
        record_scaled(&H, 0.5, 1_000.0); // 500 milli → bucket 1
        record_scaled(&H, f64::NAN, 1_000.0);
        record_scaled(&H, f64::INFINITY, 1_000.0);
        record_scaled(&H, -1.0, 1_000.0); // negative norms cannot happen; overflow
        assert_eq!(H.counts(), vec![1, 1]);
        assert_eq!(H.overflow(), 3);
        H.reset();
    }

    #[test]
    fn snapshot_enumerates_every_registered_metric() {
        let names: Vec<&str> = snapshot().iter().map(|r| r.name).collect();
        for expected in [
            "gemm.flops",
            "tape.nodes",
            "tensor.live_bytes",
            "train.batches",
            "mem.traced.allocs",
            "mem.traced.frees",
            "gemm.flops_per_call",
            "serve.latency_us",
            "serve.latency_us.window",
            "serve.queue_depth.window",
            "serve.batch_occupancy_pct.window",
            "serve.cache.hits.window",
            "serve.queue",
            "serve.in_flight",
        ] {
            assert!(names.contains(&expected), "snapshot missing {expected}: {names:?}");
        }
    }

    #[test]
    fn histogram_tracks_total_and_sum() {
        static H: Histogram = Histogram::new("t", &[10, 100]);
        H.reset();
        H.record(5);
        H.record(50);
        H.record(500);
        assert_eq!(H.total(), 3);
        assert_eq!(H.sum(), 555);
        H.reset();
        assert_eq!(H.total(), 0);
        assert_eq!(H.sum(), 0);
    }

    #[test]
    fn quantile_picks_smallest_covering_bound() {
        static H: Histogram = Histogram::new("t", &[10, 100, 1_000]);
        H.reset();
        for _ in 0..90 {
            H.record(5); // bucket 0
        }
        for _ in 0..9 {
            H.record(50); // bucket 1
        }
        H.record(5_000); // overflow
        let quantile = |q| histogram_quantile(H.bounds(), &H.counts(), H.overflow(), q);
        assert_eq!(quantile(0.5), Some(10));
        assert_eq!(quantile(0.9), Some(10));
        assert_eq!(quantile(0.95), Some(100));
        assert_eq!(quantile(0.999), Some(u64::MAX));
        H.reset();
        assert_eq!(quantile(0.5), None);
    }

    #[test]
    fn quantile_of_single_sample_is_its_bound() {
        assert_eq!(histogram_quantile(&[10, 100], &[0, 1], 0, 0.0), Some(100));
        assert_eq!(histogram_quantile(&[10, 100], &[0, 1], 0, 1.0), Some(100));
        assert_eq!(histogram_quantile(&[10, 100], &[0, 0], 0, 0.5), None);
    }

    #[test]
    fn windowed_histogram_sees_recent_samples() {
        static W: WindowedHistogram = WindowedHistogram::new("t", "t.window", &[10, 100, 1_000]);
        W.reset();
        for v in [5, 50, 500, 5_000] {
            W.record(v);
        }
        let s = W.window_snapshot();
        assert_eq!(s.total, 4);
        assert_eq!(s.counts, vec![1, 1, 1]);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.sum, 5_555);
        assert_eq!(s.quantile(0.5), Some(100));
        assert_eq!((W.cumulative().total(), W.cumulative().sum()), (4, 5_555));
        W.reset();
        assert_eq!(W.window_snapshot().total, 0);
        assert_eq!(W.cumulative().total(), 0);
    }

    #[test]
    fn windowed_counter_sums_recent_adds() {
        static W: WindowedCounter = WindowedCounter::new("t", "t.window");
        W.reset();
        W.add(3);
        W.add(1);
        assert_eq!((W.windowed_value(), W.get()), (4, 4));
        W.reset();
        assert_eq!((W.windowed_value(), W.get()), (0, 0));
    }

    #[test]
    fn window_slot_rejects_stale_epochs() {
        let slot = WindowSlot::new();
        assert!(slot.claim(5));
        slot.buckets.sum.fetch_add(7, Relaxed);
        assert!(slot.claim(5)); // same epoch keeps data
        assert_eq!(slot.buckets.sum.load(Relaxed), 7);
        assert!(!slot.claim(3)); // older epoch is refused
        assert!(slot.claim(9)); // newer epoch recycles the slot
        assert_eq!(slot.buckets.sum.load(Relaxed), 0);
    }

    #[test]
    fn set_window_clamps_to_slot_granularity() {
        let before = window_us();
        set_window_secs(0.0);
        assert_eq!(window_us(), WINDOW_SLOTS as u64 * 1_000);
        set_window_secs(10.0);
        assert_eq!(window_us(), 10_000_000);
        WINDOW_US.store(before, Relaxed);
    }
}
