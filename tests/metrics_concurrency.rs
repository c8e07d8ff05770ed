//! Concurrency guarantees of the metric registry: instruments hammered
//! from a real worker pool while a reader snapshots mid-flight must never
//! produce a torn view.
//!
//! The pinned invariants (see `crates/obs/src/metrics.rs` § "Snapshot
//! consistency"):
//!
//! * a histogram bumps its total **before** its bucket, and a snapshot
//!   reads buckets **before** the total — so `Σ buckets + overflow ≤
//!   total` in every mid-flight read, with equality at quiescence;
//! * counter and histogram totals are monotonic under concurrent writes;
//! * a gauge's peak is never below any level a reader observed.
//!
//! Each test uses its own static instruments (the registry's instruments
//! are process-global and other tests in this binary may touch them).
//! `WINDOWED` records each sample into its cumulative and rolling views in
//! one call, so its two views race the reader together.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;
use seqrec_obs::metrics::{self, Counter, Gauge, WindowedHistogram};

const BOUNDS: &[u64] = &[4, 16, 64, 256, 1024];

static WINDOWED: WindowedHistogram =
    WindowedHistogram::new("test.concurrency.hist", "test.concurrency.window", BOUNDS);
static COUNTER: Counter = Counter::new("test.concurrency.counter");
static GAUGE: Gauge = Gauge::new("test.concurrency.gauge");

/// Deterministic per-writer value stream (splitmix64).
fn values(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 2048 // spans every bucket plus the overflow region
        })
        .collect()
}

/// Runs `writers` pool tasks each recording `per_writer` samples into the
/// shared instruments while the calling thread polls `reader` against the
/// in-flight state; returns the values every writer recorded.
fn hammer(
    writers: usize,
    per_writer: usize,
    seed: u64,
    mut reader: impl FnMut() -> Result<(), TestCaseError>,
) -> Result<Vec<u64>, TestCaseError> {
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(writers).build().expect("test pool builds");
    let streams: Vec<Vec<u64>> =
        (0..writers).map(|w| values(seed ^ ((w as u64) << 32), per_writer)).collect();
    let done = AtomicBool::new(false);
    let mut poll_result = Ok(());
    std::thread::scope(|ts| {
        let streams = &streams;
        let done = &done;
        ts.spawn(move || {
            pool.install(|| {
                rayon::scope(|s| {
                    for stream in streams {
                        s.spawn(move |_| {
                            for &v in stream {
                                WINDOWED.record(v);
                                COUNTER.add(1);
                                GAUGE.add(1);
                                GAUGE.add(-1);
                            }
                        });
                    }
                });
            });
            done.store(true, Ordering::Release);
        });
        // Race the pool: keep snapshotting until every writer finished.
        while !done.load(Ordering::Acquire) {
            if poll_result.is_ok() {
                poll_result = reader();
            }
            std::hint::spin_loop();
        }
    });
    poll_result?;
    // One quiescent read too, so the invariants also hold at rest.
    reader()?;
    Ok(streams.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mid-flight histogram snapshots never tear: the bucket sum can lag
    /// the total (a writer between its two bumps) but never exceed it,
    /// and the total never moves backwards.
    #[test]
    fn histogram_snapshots_never_tear_under_pool_writes(
        writers in 2usize..5,
        per_writer in 64usize..512,
        seed in 0u64..1_000,
    ) {
        // One epoch outlives the test: window reads get the same strict
        // invariant as cumulative ones (no slot rotates mid-assert).
        metrics::set_window_secs(1e6);
        WINDOWED.reset();
        COUNTER.reset();
        GAUGE.reset();
        let hist = WINDOWED.cumulative();

        let mut last_total = 0u64;
        let mut last_counter = 0u64;
        let recorded = hammer(writers, per_writer, seed, || {
            let counts = hist.counts();
            let overflow = hist.overflow();
            let total = hist.total();
            let seen: u64 = counts.iter().sum::<u64>() + overflow;
            prop_assert!(seen <= total, "torn snapshot: buckets {seen} > total {total}");
            prop_assert!(total >= last_total, "total went backwards: {total} < {last_total}");
            last_total = total;

            let c = COUNTER.get();
            prop_assert!(c >= last_counter, "counter went backwards");
            last_counter = c;

            let w = WINDOWED.window_snapshot();
            let wseen: u64 = w.counts.iter().sum::<u64>() + w.overflow;
            prop_assert!(wseen <= w.total, "torn window: buckets {wseen} > total {}", w.total);
            Ok(())
        })?;

        // Quiescent equality: nothing was lost or double-counted.
        let n = recorded.len() as u64;
        prop_assert_eq!(hist.total(), n);
        prop_assert_eq!(hist.counts().iter().sum::<u64>() + hist.overflow(), n);
        prop_assert_eq!(hist.sum(), recorded.iter().sum::<u64>());
        prop_assert_eq!(COUNTER.get(), n);
        let w = WINDOWED.window_snapshot();
        prop_assert_eq!(w.total, n, "window lost samples despite the huge epoch");
        prop_assert_eq!(w.sum, recorded.iter().sum::<u64>());
        prop_assert_eq!(GAUGE.get(), 0);
        prop_assert!(GAUGE.peak() >= 1 && GAUGE.peak() <= writers as i64 + 1);
    }
}

/// `metrics::snapshot()` taken while the serve instruments are being
/// written stays internally consistent for every histogram it contains.
#[test]
fn registry_snapshot_is_consistent_mid_serve_traffic() {
    use seqrec_obs::metrics::MetricValue;

    metrics::reset_all();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    let done = AtomicBool::new(false);
    std::thread::scope(|ts| {
        let done = &done;
        ts.spawn(move || {
            pool.install(|| {
                rayon::scope(|s| {
                    for t in 0..3u64 {
                        s.spawn(move |_| {
                            let mut i = 0u64;
                            while !done.load(Ordering::Acquire) {
                                metrics::SERVE_LATENCY_US.record(t * 1_000 + i % 7_000);
                                metrics::SERVE_QUEUE_DEPTH.record(i % 40);
                                metrics::SERVE_REQUESTS.incr();
                                i += 1;
                            }
                        });
                    }
                });
            });
        });
        for _ in 0..200 {
            for reading in metrics::snapshot() {
                if let MetricValue::Histogram { counts, overflow, total, .. } = reading.value {
                    let seen: u64 = counts.iter().sum::<u64>() + overflow;
                    assert!(
                        seen <= total,
                        "torn registry snapshot for {}: {seen} > {total}",
                        reading.name
                    );
                }
            }
        }
        done.store(true, Ordering::Release);
    });
    metrics::reset_all();
}
