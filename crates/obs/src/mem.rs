//! Allocation lifetime tracing for the tensor buffer layer.
//!
//! The accounting `Buf` newtype in `seqrec-tensor` reports every real
//! buffer allocation and free here. When memory tracing is **off** (the
//! default) the whole module costs one relaxed atomic load per allocation
//! and nothing per free. When on (`SEQREC_OBS=mem=all` or `mem=N`), each
//! allocation gets a monotonic buffer id and traced buffers emit
//! [`crate::Event::MemAlloc`]/[`crate::Event::MemFree`] events into the
//! installed sink, carrying the buffer id, size, the owning span path
//! captured from the calling thread's span stack, and the live-bytes
//! level — the stream `seqrec-prof --mem` folds into a peak breakdown and
//! what-if report ([`crate::memprof`]).
//!
//! Sampling keeps big runs tractable: `mem=N` emits only buffers whose id
//! is divisible by `N`. Because the predicate depends on the id alone, a
//! sampled allocation's free is always emitted too — alloc/free events
//! pair up at any sampling rate. Attribution sums only equal the observed
//! peak at `mem=all`; sampled traces are estimates.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::sink;
use crate::span;

/// Sink sampling modulus: 0 = tracing off, `n >= 1` = emit buffers with
/// `id % n == 0` (`mem=all` sets 1). The single relaxed load every `Buf`
/// allocation pays.
static SINK_SAMPLE: AtomicU64 = AtomicU64::new(0);
/// Monotonic buffer ids; 0 is reserved for "allocated while tracing was
/// off" so frees of such buffers can be skipped without any bookkeeping.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Enables (`Some(n)`, `n >= 1`) or disables (`None`) mem-event emission
/// into the installed sink. Set by [`crate::init_with`] from the `mem=`
/// directive and cleared when the [`crate::ObsGuard`] drops.
pub fn set_sink_mode(sample: Option<u64>) {
    SINK_SAMPLE.store(sample.map_or(0, |n| n.max(1)), Relaxed);
}

/// The active sink sampling modulus (0 = off).
pub fn sink_sample() -> u64 {
    SINK_SAMPLE.load(Relaxed)
}

/// Reports one buffer allocation of `bytes` bytes. Returns the buffer id
/// the caller must hand back to [`on_free`] when the buffer drops, or 0
/// when tracing is off (the free of an id-0 buffer is a no-op).
#[inline]
pub fn on_alloc(bytes: usize) -> u64 {
    if SINK_SAMPLE.load(Relaxed) == 0 {
        return 0;
    }
    alloc_slow(bytes as u64)
}

#[cold]
fn alloc_slow(bytes: u64) -> u64 {
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let n = SINK_SAMPLE.load(Relaxed);
    if n > 0 && id.is_multiple_of(n) && sink::enabled() {
        let ts_us = sink::now_us();
        crate::metrics::MEM_TRACED_ALLOCS.incr();
        let path = span::current_path();
        sink::dispatch(&crate::Event::MemAlloc {
            id,
            bytes,
            live_bytes: crate::metrics::TENSOR_LIVE_BYTES.get(),
            tid: sink::tid(),
            ts_us,
            path: &path,
        });
    }
    id
}

/// Reports the free of a buffer previously returned by [`on_alloc`].
/// Id 0 (allocated while tracing was off) is ignored.
#[inline]
pub fn on_free(id: u64, bytes: usize) {
    if id == 0 {
        return;
    }
    free_slow(id, bytes as u64);
}

#[cold]
fn free_slow(id: u64, bytes: u64) {
    let n = SINK_SAMPLE.load(Relaxed);
    if n > 0 && id.is_multiple_of(n) && sink::enabled() {
        crate::metrics::MEM_TRACED_FREES.incr();
        sink::dispatch(&crate::Event::MemFree {
            id,
            bytes,
            live_bytes: crate::metrics::TENSOR_LIVE_BYTES.get(),
            tid: sink::tid(),
            ts_us: sink::now_us(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_assigns_id_zero_and_free_is_a_noop() {
        set_sink_mode(None);
        assert_eq!(on_alloc(1024), 0);
        on_free(0, 1024); // must not panic or touch anything
    }
}
