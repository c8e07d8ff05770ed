//! Blocked matrix-multiply engine.
//!
//! Three layout variants are provided — `nn` (`A·B`), `nt` (`A·Bᵀ`) and
//! `tn` (`Aᵀ·B`) — because the backward pass of a matmul needs the
//! transposed variants and materialising transposes would double memory
//! traffic. All three are thin wrappers over one packed GEMM engine: a
//! strided [`gemm::MatRef`] view absorbs the layout, so `nt` and `tn` run
//! the exact same blocked code path as `nn`.
//!
//! ## Engine structure
//!
//! The engine ([`gemm`]) is a classic three-level cache-blocked GEMM in the
//! Goto/BLIS mould; [`micro`], [`pack`] and `scratch` document each layer
//! in detail:
//!
//! * **Register blocking** ([`micro`]): an `MR×NR = 6×16` microkernel keeps
//!   96 partial sums in registers across the whole depth loop — on AVX2+FMA
//!   machines as 12 YMM accumulators updated with fused multiply-adds
//!   (runtime-detected once, with a portable fallback kernel).
//! * **Panel packing** ([`pack`]): each `MC×KC` block of A and `KC×NC`
//!   block of B is copied into panel layouts (`MR`-row / `NR`-column,
//!   zero-padded at the edges) so the microkernel's reads are sequential
//!   regardless of the operand's original layout or transposition.
//! * **Cache blocking** ([`gemm`]): the `NC → KC → MC` loop nest sizes the
//!   packed B block for L2/L3 (`KC·NC` = 1 MiB), the packed A block for L2
//!   (`MC·KC` ≈ 120 KiB) and one B panel for L1 (`KC·NR` = 16 KiB).
//! * **Threading**: within each `(jc, pc)` block, row bands of `C`
//!   (`MC` rows each) are distributed over rayon workers via
//!   `par_chunks_mut` — disjoint output regions, no locks, no unsafe
//!   aliasing. When `C` has fewer `MC`-row bands than the pool has
//!   workers and the depth spans several `KC` blocks (the weight-gradient
//!   shape `xᵀ·g`), `C` is cut into one `MR`-aligned band per worker and
//!   each band runs the whole depth loop, so the call forks and joins
//!   once. Workers pack their own panels into thread-local scratch
//!   (`scratch`), so steady-state GEMM performs **zero allocation**.
//!   The in-tree rayon shim is a real work-stealing pool sized by
//!   `SEQREC_THREADS` / available parallelism (`shims/README.md`);
//!   because the bands are disjoint, results are bit-identical at every
//!   pool size, and `SEQREC_THREADS=1` is a guaranteed serial mode.
//!   Benchmark numbers record the pool size they were measured at
//!   (`benchmark/run.sh` pins `SEQREC_THREADS=2` and prints the pool size
//!   with every run).
//!
//! ### Retuning
//!
//! `MR`/`NR` are fixed by the register file (changing them means rewriting
//! the microkernel); `MC`/`KC`/`NC` in [`gemm`] are plain constants chosen
//! for a ~32 KiB L1D / ~1 MiB L2 part. On a machine with different cache
//! sizes, re-derive them as: `KC·NR·4 B ≲ ½·L1D`, `MC·KC·4 B ≲ ½·L2`,
//! `NC·KC·4 B ≲ L3 share`, keeping `MC` a multiple of `MR` and `NC` a
//! multiple of `NR`. The `matmul` bench group reports GFLOP/s per shape for
//! validating a retune.
//!
//! Problems with fewer than [`SMALL_THRESHOLD`] multiply-adds per output
//! row (or outputs narrower than a register tile) skip packing entirely and
//! run the direct kernels in [`simple`]. The dispatch never reads the row
//! count, so each output row's bits are independent of how many rows share
//! the call — the property the serving stack's cached-state parity contract
//! rests on (`tests/row_invariance.rs`).
//!
//! Batched versions (`bmm_*`) treat every leading dimension as batch; the
//! two trailing dimensions are the matrix. Large single-batch inputs route
//! through the parallel 2D engine rather than a serial per-batch kernel.
//! Multi-head attention ([`crate::Tape::attention`]) calls the per-slice
//! kernels behind them (`nn_into`, `nt_into`, `tn_into`) on one
//! `[T, d_head]` head slice at a time, from one pool task per sequence.

pub mod gemm;
pub mod micro;
pub mod pack;
mod scratch;
pub mod simple;

use rayon::prelude::*;

use crate::tensor::Tensor;
use gemm::MatRef;
use micro::NR;

/// Below this much work **per output row** (`k·n` multiply-adds) the packed
/// engine is skipped in favour of the direct kernels in [`simple`].
///
/// Deliberately a function of `k` and `n` only, never `m`: the serving
/// stack scores micro-batches whose row counts differ from the evaluator's
/// batches, and its parity contract promises bit-exact scores either way.
/// Both kernel paths compute each output row independently, so results are
/// row-batch-invariant exactly when the *path choice* is — which requires
/// the dispatch predicate to ignore the row count. Pinned by
/// `tests/row_invariance.rs`.
pub const SMALL_THRESHOLD: usize = 1 << 10;

/// Below this many multiply-adds a single thread is faster than fanning
/// out over batches.
const PAR_THRESHOLD: usize = 1 << 15;

/// `C = A · B` for rank-2 tensors `[m,k] · [k,n] -> [m,n]`.
///
/// # Panics
/// Panics unless `a` is `[m,k]` and `b` is `[k,n]`.
pub fn matmul_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul_nn inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    nn_into(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `C = A · Bᵀ` for rank-2 tensors `[m,k] · ([n,k])ᵀ -> [m,n]`.
///
/// # Panics
/// Panics unless `a` is `[m,k]` and `b` is `[n,k]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (n, k2) = dims2(b);
    assert_eq!(k, k2, "matmul_nt inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    nt_into(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `C = Aᵀ · B` for rank-2 tensors `([k,m])ᵀ · [k,n] -> [m,n]`.
///
/// # Panics
/// Panics unless `a` is `[k,m]` and `b` is `[k,n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul_tn inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    tn_into(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `matmul_nn` forced through the packed engine regardless of size.
/// Exists so tests and benches can exercise the blocked path on shapes the
/// size heuristic would route to [`simple`]; prefer [`matmul_nn`].
#[doc(hidden)]
pub fn matmul_nn_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul_nn inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    gemm::gemm(m, k, n, nn_a(a.data(), k), nn_b(b.data(), n), &mut out);
    Tensor::from_vec([m, n], out)
}

/// `matmul_nt` forced through the packed engine; see [`matmul_nn_blocked`].
#[doc(hidden)]
pub fn matmul_nt_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (n, k2) = dims2(b);
    assert_eq!(k, k2, "matmul_nt inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    gemm::gemm(m, k, n, nn_a(a.data(), k), nt_b(b.data(), k), &mut out);
    Tensor::from_vec([m, n], out)
}

/// `matmul_tn` forced through the packed engine; see [`matmul_nn_blocked`].
#[doc(hidden)]
pub fn matmul_tn_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul_tn inner dims: {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    gemm::gemm(m, k, n, tn_a(a.data(), m), nn_b(b.data(), n), &mut out);
    Tensor::from_vec([m, n], out)
}

/// Batched `A · B`: `[..., m, k] · [..., k, n] -> [..., m, n]` with identical
/// leading (batch) dimensions.
pub fn bmm_nn(a: &Tensor, b: &Tensor) -> Tensor {
    bmm(a, b, Kind::Nn)
}

/// Batched `A · Bᵀ`: `[..., m, k] · [..., n, k] -> [..., m, n]`.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    bmm(a, b, Kind::Nt)
}

/// Batched `Aᵀ · B`: `[..., k, m] · [..., k, n] -> [..., m, n]`.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    bmm(a, b, Kind::Tn)
}

/// Reference implementation (naive triple loop) used by tests and by the
/// `matmul` ablation bench.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2);
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec([m, n], out)
}

// --- layout views -----------------------------------------------------------

fn nn_a(data: &[f32], k: usize) -> MatRef<'_> {
    MatRef { data, rs: k, cs: 1 }
}

fn nn_b(data: &[f32], n: usize) -> MatRef<'_> {
    MatRef { data, rs: n, cs: 1 }
}

/// Logical `[k,n]` B viewed from storage `[n,k]` (the `nt` case).
fn nt_b(data: &[f32], k: usize) -> MatRef<'_> {
    MatRef { data, rs: 1, cs: k }
}

/// Logical `[m,k]` A viewed from storage `[k,m]` (the `tn` case).
fn tn_a(data: &[f32], m: usize) -> MatRef<'_> {
    MatRef { data, rs: 1, cs: m }
}

/// Thin rows skip packing; so do outputs narrower than a register tile,
/// where padded microkernel lanes would be mostly wasted work. Must not
/// read `m` (see [`SMALL_THRESHOLD`]); the packed engine's zero-padded
/// M-edges handle any row count, including `m < MR`.
fn use_simple(k: usize, n: usize) -> bool {
    k * n < SMALL_THRESHOLD || n < NR
}

/// One relaxed-atomic probe per GEMM call: total FLOPs (2·m·k·n), call
/// count and a per-call FLOP histogram. All matmul entry points (2D and
/// batched) funnel through the three `*_into` kernels, so this is the single
/// place GEMM work is metered.
#[inline]
fn count_gemm(m: usize, k: usize, n: usize) {
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    seqrec_obs::metrics::GEMM_FLOPS.add(flops);
    seqrec_obs::metrics::GEMM_CALLS.incr();
    seqrec_obs::metrics::GEMM_FLOPS_PER_CALL.record(flops);
}

/// `out = A·B`, `A` stored `[m,k]`, `B` stored `[k,n]`; `out` (`[m,n]`) is
/// fully overwritten.
pub(crate) fn nn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    count_gemm(m, k, n);
    let _s = seqrec_obs::detail_span!("gemm.nn");
    if use_simple(k, n) {
        simple::nn(a, b, out, m, k, n);
    } else {
        gemm::gemm(m, k, n, nn_a(a, k), nn_b(b, n), out);
    }
}

/// `out = A·Bᵀ`, `A` stored `[m,k]`, `B` stored `[n,k]`; `out` (`[m,n]`) is
/// fully overwritten.
pub(crate) fn nt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    count_gemm(m, k, n);
    let _s = seqrec_obs::detail_span!("gemm.nt");
    if use_simple(k, n) {
        simple::nt(a, b, out, m, k, n);
    } else {
        gemm::gemm(m, k, n, nn_a(a, k), nt_b(b, k), out);
    }
}

/// `out = Aᵀ·B`, `A` stored `[k,m]`, `B` stored `[k,n]`; `out` (`[m,n]`) is
/// fully overwritten.
pub(crate) fn tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    count_gemm(m, k, n);
    let _s = seqrec_obs::detail_span!("gemm.tn");
    if use_simple(k, n) {
        simple::tn(a, b, out, m, k, n);
    } else {
        gemm::gemm(m, k, n, tn_a(a, m), nn_b(b, n), out);
    }
}

// --- batched ----------------------------------------------------------------

#[derive(Clone, Copy)]
enum Kind {
    Nn,
    Nt,
    Tn,
}

fn bmm(a: &Tensor, b: &Tensor, kind: Kind) -> Tensor {
    let (ba, r0, c0) = a.shape().as_batched_matrix();
    let (bb, r1, c1) = b.shape().as_batched_matrix();
    assert_eq!(ba, bb, "bmm batch dims differ: {} vs {}", a.shape(), b.shape());
    let (m, k, n) = match kind {
        Kind::Nn => {
            assert_eq!(c0, r1, "bmm_nn inner dims: {} vs {}", a.shape(), b.shape());
            (r0, c0, c1)
        }
        Kind::Nt => {
            assert_eq!(c0, c1, "bmm_nt inner dims: {} vs {}", a.shape(), b.shape());
            (r0, c0, r1)
        }
        Kind::Tn => {
            assert_eq!(r0, r1, "bmm_tn inner dims: {} vs {}", a.shape(), b.shape());
            (c0, r0, c1)
        }
    };
    let out_shape = a.shape().with_matrix_dims(m, n);
    let (as_, bs) = (a.data(), b.data());
    let (a_stride, b_stride) = (r0 * c0, r1 * c1);
    let mut out = vec![0.0f32; ba * m * n];

    let run = |(i, chunk): (usize, &mut [f32])| {
        let av = &as_[i * a_stride..(i + 1) * a_stride];
        let bv = &bs[i * b_stride..(i + 1) * b_stride];
        match kind {
            Kind::Nn => nn_into(av, bv, chunk, m, k, n),
            Kind::Nt => nt_into(av, bv, chunk, m, k, n),
            Kind::Tn => tn_into(av, bv, chunk, m, k, n),
        }
    };
    if ba > 1 && ba * m * k * n >= PAR_THRESHOLD {
        out.par_chunks_mut(m * n).enumerate().for_each(run);
    } else {
        // Covers ba == 1 of any size: a single batch is exactly a 2D matmul,
        // so `run` hands it to the blocked engine, whose internal row-band
        // parallelism replaces the (useless) batch fan-out.
        out.chunks_mut(m * n).enumerate().for_each(run);
    }
    Tensor::from_vec(out_shape, out)
}

fn dims2(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "expected rank-2 tensor, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        let d = a.max_diff(b);
        assert!(d <= tol, "max diff {d} > {tol}");
    }

    #[test]
    fn nn_matches_naive() {
        let mut r = rng(10);
        let a = uniform([7, 5], -1.0, 1.0, &mut r);
        let b = uniform([5, 9], -1.0, 1.0, &mut r);
        close(&matmul_nn(&a, &b), &matmul_naive(&a, &b), 1e-5);
    }

    #[test]
    fn nt_is_nn_with_transpose() {
        let mut r = rng(11);
        let a = uniform([4, 6], -1.0, 1.0, &mut r);
        let b = uniform([3, 6], -1.0, 1.0, &mut r);
        close(&matmul_nt(&a, &b), &matmul_nn(&a, &b.transpose2()), 1e-5);
    }

    #[test]
    fn tn_is_nn_with_transpose() {
        let mut r = rng(12);
        let a = uniform([6, 4], -1.0, 1.0, &mut r);
        let b = uniform([6, 3], -1.0, 1.0, &mut r);
        close(&matmul_tn(&a, &b), &matmul_nn(&a.transpose2(), &b), 1e-5);
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        let mut r = rng(13);
        let a = uniform([64, 48], -1.0, 1.0, &mut r);
        let b = uniform([48, 40], -1.0, 1.0, &mut r);
        close(&matmul_nn(&a, &b), &matmul_naive(&a, &b), 1e-4);
    }

    #[test]
    fn blocked_matches_naive_on_all_layouts() {
        let mut r = rng(21);
        // Deliberately not multiples of MR/NR/KC.
        let a = uniform([13, 7], -1.0, 1.0, &mut r);
        let b = uniform([7, 19], -1.0, 1.0, &mut r);
        close(&matmul_nn_blocked(&a, &b), &matmul_naive(&a, &b), 1e-4);

        let bt = uniform([19, 7], -1.0, 1.0, &mut r);
        close(&matmul_nt_blocked(&a, &bt), &matmul_nn(&a, &bt.transpose2()), 1e-4);

        let at = uniform([7, 13], -1.0, 1.0, &mut r);
        close(&matmul_tn_blocked(&at, &b), &matmul_nn(&at.transpose2(), &b), 1e-4);
    }

    #[test]
    fn bmm_runs_each_batch_independently() {
        let mut r = rng(14);
        let a = uniform([3, 4, 5], -1.0, 1.0, &mut r);
        let b = uniform([3, 5, 6], -1.0, 1.0, &mut r);
        let c = bmm_nn(&a, &b);
        assert_eq!(c.shape().dims(), &[3, 4, 6]);
        for i in 0..3 {
            let ai = Tensor::from_vec([4, 5], a.data()[i * 20..(i + 1) * 20].to_vec());
            let bi = Tensor::from_vec([5, 6], b.data()[i * 30..(i + 1) * 30].to_vec());
            let ci = Tensor::from_vec([4, 6], c.data()[i * 24..(i + 1) * 24].to_vec());
            close(&ci, &matmul_nn(&ai, &bi), 1e-5);
        }
    }

    #[test]
    fn bmm_nt_and_tn_match_2d_kernels() {
        let mut r = rng(15);
        let a = uniform([2, 4, 5], -1.0, 1.0, &mut r);
        let b = uniform([2, 6, 5], -1.0, 1.0, &mut r);
        let c = bmm_nt(&a, &b);
        assert_eq!(c.shape().dims(), &[2, 4, 6]);
        let a0 = Tensor::from_vec([4, 5], a.data()[..20].to_vec());
        let b0 = Tensor::from_vec([6, 5], b.data()[..30].to_vec());
        let c0 = Tensor::from_vec([4, 6], c.data()[..24].to_vec());
        close(&c0, &matmul_nt(&a0, &b0), 1e-5);

        let d = bmm_tn(&a, &uniform([2, 4, 3], -1.0, 1.0, &mut r));
        assert_eq!(d.shape().dims(), &[2, 5, 3]);
    }

    #[test]
    fn single_batch_bmm_takes_the_2d_path() {
        // ba == 1 with work far above PAR_THRESHOLD: must match the 2D
        // matmul exactly (it now *is* the 2D blocked engine).
        let mut r = rng(17);
        let a = uniform([1, 48, 40], -1.0, 1.0, &mut r);
        let b = uniform([1, 40, 56], -1.0, 1.0, &mut r);
        let c = bmm_nn(&a, &b);
        assert_eq!(c.shape().dims(), &[1, 48, 56]);
        let a2 = Tensor::from_vec([48, 40], a.data().to_vec());
        let b2 = Tensor::from_vec([40, 56], b.data().to_vec());
        let c2 = Tensor::from_vec([48, 56], c.data().to_vec());
        close(&c2, &matmul_nn(&a2, &b2), 1e-5);
    }

    #[test]
    #[should_panic]
    fn mismatched_inner_dims_panic() {
        matmul_nn(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut r = rng(16);
        let a = uniform([5, 5], -1.0, 1.0, &mut r);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.data_mut()[i * 5 + i] = 1.0;
        }
        close(&matmul_nn(&a, &eye), &a, 1e-6);
        close(&matmul_nn(&eye, &a), &a, 1e-6);
    }
}
