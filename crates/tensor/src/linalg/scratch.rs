//! Thread-local scratch buffers for packed panels.
//!
//! Packing needs an `MC×KC` A-buffer per worker thread and a `KC×NC`
//! B-buffer per GEMM call (per row band when each worker runs its own
//! depth loop). Allocating those inside the blocking loops would
//! put `malloc` on the hot path of every k-block; instead each thread keeps
//! its buffers alive in a thread-local pool, so steady-state GEMM does zero
//! allocation (buffers only grow, on first use or when a larger blocking
//! configuration appears).
//!
//! ## Re-entrancy
//!
//! `with_pack_b`'s closure spans the row-band parallel loop in
//! [`super::gemm`], and under a work-stealing scheduler (real rayon) the
//! calling worker can steal *another* GEMM task while it waits — e.g. a
//! sibling batch of a `bmm` — and re-enter this module on the same thread.
//! The buffer is therefore **moved out** of its `RefCell` before the
//! closure runs and restored afterwards: no borrow is held while user code
//! executes, so a re-entrant call simply finds the slot empty and
//! allocates a fresh buffer for the inner invocation (the larger of the
//! two is kept on restore). A and B additionally live in separate
//! thread-locals so the A-packs nested inside a B-pack closure never
//! contend for the same slot.

use std::cell::RefCell;

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn with_buf<R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    // Take the buffer out of the slot; the borrow lasts only for the swap,
    // never across `f` (see the module docs on re-entrancy).
    let mut buf = cell.with(|c| std::mem::take(&mut *c.borrow_mut()));
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let r = f(&mut buf[..len]);
    cell.with(|c| {
        let mut slot = c.borrow_mut();
        // Keep the larger allocation; a nested call may have parked its own
        // (smaller) buffer here while ours was out.
        if buf.len() > slot.len() {
            *slot = buf;
        }
    });
    r
}

/// Runs `f` with this thread's A-panel buffer, grown to at least `len`.
/// Contents are whatever the previous pack left; `pack_a` overwrites fully.
pub fn with_pack_a<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_buf(&PACK_A, len, f)
}

/// Runs `f` with this thread's B-panel buffer, grown to at least `len`.
pub fn with_pack_b<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_buf(&PACK_B, len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_and_are_reused() {
        let p0 = with_pack_a(16, |b| {
            b[3] = 7.0;
            b.as_ptr() as usize
        });
        let p1 = with_pack_a(8, |b| {
            assert_eq!(b.len(), 8);
            assert_eq!(b[3], 7.0, "smaller request reuses the same storage");
            b.as_ptr() as usize
        });
        assert_eq!(p0, p1);
    }

    #[test]
    fn a_and_b_buffers_can_nest() {
        with_pack_b(4, |b| {
            b[0] = 1.0;
            with_pack_a(4, |a| a[0] = 2.0);
            assert_eq!(b[0], 1.0);
        });
    }

    #[test]
    fn same_buffer_reentry_is_safe() {
        // Work-stealing can re-enter gemm — and thus with_pack_b — on the
        // same thread while an outer with_pack_b closure is live. The inner
        // call must get its own buffer, not a RefCell panic, and the outer
        // buffer must be untouched by the inner writes.
        let outer_ptr = with_pack_b(8, |outer| {
            outer.fill(1.0);
            with_pack_b(4, |inner| {
                inner.fill(2.0);
                with_pack_b(2, |innermost| innermost.fill(3.0));
            });
            assert!(outer.iter().all(|&v| v == 1.0), "outer clobbered by inner");
            outer.as_ptr() as usize
        });
        // The outer (largest) buffer is what survives in the slot.
        let next_ptr = with_pack_b(8, |b| b.as_ptr() as usize);
        assert_eq!(outer_ptr, next_ptr);
    }

    #[test]
    fn reentry_is_safe_on_real_pool_workers() {
        // The scenario the take/restore dance exists for: a worker blocked
        // in `join` steals another GEMM task and re-enters the pack
        // buffers mid-closure. Drive it directly — nested joins inside
        // live `with_pack_*` closures on a multi-worker pool — and assert
        // no BorrowMutError and no aliasing between the live buffers.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            rayon::join(
                || {
                    with_pack_b(64, |outer_b| {
                        outer_b.fill(1.0);
                        rayon::join(
                            || {
                                with_pack_a(32, |a| {
                                    a.fill(2.0);
                                    with_pack_b(16, |inner_b| inner_b.fill(3.0));
                                    assert!(a.iter().all(|&v| v == 2.0));
                                })
                            },
                            || with_pack_b(48, |b| b.fill(4.0)),
                        );
                        assert!(
                            outer_b.iter().all(|&v| v == 1.0),
                            "outer B-panel clobbered by re-entrant pack"
                        );
                    })
                },
                || {
                    with_pack_a(64, |a| {
                        a.fill(5.0);
                        rayon::join(|| with_pack_a(8, |x| x.fill(6.0)), || ());
                        assert!(a.iter().all(|&v| v == 5.0), "outer A-panel clobbered");
                    })
                },
            );
        });
    }
}
