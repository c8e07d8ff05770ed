//! Offline shim for the `rayon` API subset used by this workspace, backed
//! by a **real fixed-size work-stealing thread pool** (see the `pool` module
//! docs for the architecture). The global pool is sized by the
//! `SEQREC_THREADS` environment variable, falling back to the machine's
//! available parallelism; at 1 thread everything runs inline on the
//! calling thread — the guaranteed serial mode whose results are
//! bit-identical to the serial shim this replaced.
//!
//! Determinism contract: parallel `fold`/`reduce`/`collect`/`sum` combine
//! per-leaf results in a fixed leaf order, and the leaf partition depends
//! only on input length, pool size and `min_len` — never on stealing
//! order. Results are therefore reproducible run-to-run for a fixed
//! `SEQREC_THREADS`, and exactly serial at 1 thread.
//!
//! Swapping the genuine rayon back in (delete the `[patch.crates-io]`
//! entry on a networked machine) requires no call-site changes: every
//! method here mirrors rayon's name, shape and bounds for the surface the
//! workspace uses.

mod iter;
mod pool;

pub use iter::{
    Enumerate, Filter, FoldedParIter, IndexedParallelIterator, IntoParallelIterator, Map, MinLen,
    ParallelIterator, ParallelSliceExt, ParallelSliceMutExt, RangePar, SliceChunks, SliceChunksMut,
    SliceIter, SliceIterMut, VecPar, Zip,
};
#[doc(hidden)]
pub use pool::pin_global_pool_size;
pub use pool::{
    current_num_threads, join, scope, Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// Everything call sites need: the iterator traits and slice extensions.
pub mod prelude {
    pub use crate::iter::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSliceExt,
        ParallelSliceMutExt,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// A 4-worker pool shared by the multithreading tests (explicit pools
    /// keep these tests independent of the global pool's size, which on a
    /// 1-core container is serial).
    fn pool4() -> super::ThreadPool {
        super::ThreadPoolBuilder::new().num_threads(4).build().expect("pool builds")
    }

    #[test]
    fn par_chunks_mut_matches_serial() {
        let mut v = vec![0u32; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i as u32;
            }
        });
        assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn zip_fold_reduce_shapes() {
        let a = [1u64, 2, 3, 4];
        let b = [10u64, 20, 30, 40];
        let total = a
            .par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x * y)
            .fold(|| 0u64, |acc, v| acc + v)
            .reduce(|| 0u64, |x, y| x + y);
        assert_eq!(total, 10 + 40 + 90 + 160);
    }

    #[test]
    fn into_par_iter_on_ranges_and_vecs() {
        let s: usize = (0..10usize).into_par_iter().map(|i| i * i).sum();
        assert_eq!(s, 285);
        let v: Vec<i32> = vec![3, 1, 2].into_par_iter().collect();
        assert_eq!(v, [3, 1, 2]);
    }

    #[test]
    fn install_runs_on_a_named_worker_and_sizes_the_pool() {
        let pool = pool4();
        let (name, threads) = pool.install(|| {
            (std::thread::current().name().map(str::to_string), super::current_num_threads())
        });
        assert_eq!(threads, 4);
        let name = name.expect("pool workers are named");
        assert!(name.starts_with("seqrec-worker-"), "unexpected worker name {name}");
    }

    #[test]
    fn join_really_uses_multiple_threads() {
        // With 4 workers and enough nested fan-out, at least two distinct
        // OS threads must participate.
        use std::sync::Mutex;
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let record = || {
            let id = std::thread::current().id();
            let mut g = seen.lock().unwrap();
            if !g.contains(&id) {
                g.push(id);
            }
            drop(g);
            // Give thieves a window to actually steal.
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        pool4().install(|| {
            super::join(|| super::join(record, record), || super::join(record, record));
        });
        assert!(seen.lock().unwrap().len() >= 2, "all joined work ran on one thread");
    }

    #[test]
    fn parallel_results_match_serial_on_a_real_pool() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().map(|x| x * 3 + 1).sum();
        let par: u64 = pool4().install(|| data.par_iter().map(|x| x * 3 + 1).sum());
        assert_eq!(par, serial);

        let par_count = pool4().install(|| data.par_iter().filter(|x| **x % 7 == 0).count());
        assert_eq!(par_count, data.iter().filter(|x| **x % 7 == 0).count());

        let collected: Vec<u64> = pool4().install(|| data.par_iter().map(|x| x + 1).collect());
        assert_eq!(collected, data.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_is_deterministic_for_a_fixed_pool_size() {
        // f32 summation order matters; the leaf partition (not stealing
        // order) fixes it, so repeated runs must agree bit-for-bit.
        let data: Vec<f32> = (0..4_321).map(|i| (i as f32).sin()).collect();
        let pool = pool4();
        let run = || {
            pool.install(|| {
                data.par_iter().fold(|| 0.0f32, |acc, &x| acc + x).reduce(|| 0.0f32, |a, b| a + b)
            })
        };
        let first = run();
        for _ in 0..5 {
            assert_eq!(first.to_bits(), run().to_bits());
        }
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let pool = pool4();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| super::join(|| 1, || panic!("right side")));
        }));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| super::join(|| panic!("left side"), || 2));
        }));
        assert!(caught.is_err());
        // The pool survives panics: later work still completes.
        assert_eq!(pool.install(|| super::join(|| 1, || 2)), (1, 2));
    }

    #[test]
    fn scope_waits_for_spawns_that_borrow_the_stack() {
        let mut results = vec![0usize; 8];
        pool4().install(|| {
            super::scope(|s| {
                for (i, slot) in results.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i * i);
                }
            });
        });
        assert_eq!(results, [0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn current_num_threads_reports_the_ambient_pool() {
        let inside = pool4().install(super::current_num_threads);
        assert_eq!(inside, 4);
        // Outside any explicit pool we get the global pool's size, which
        // is at least 1.
        assert!(super::current_num_threads() >= 1);
    }
}
