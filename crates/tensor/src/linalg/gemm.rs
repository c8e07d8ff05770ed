//! The cache-blocked GEMM driver.
//!
//! Classic three-level blocking (Goto/BLIS structure) around the
//! [`super::micro`] register kernel:
//!
//! ```text
//! for jc in 0..n step NC          // B column block  -> bpack fits L3
//!   for pc in 0..k step KC        // depth block     -> one B panel fits L1,
//!                                 //                    apack fits L2
//!     pack B[pc.., jc..] -> bpack           (KC×NC, NR-column panels)
//!     parallel for ic in 0..m step MC       // rows of C, disjoint per task
//!       pack A[ic.., pc..] -> apack         (MC×KC, MR-row panels)
//!       for jr in 0..nc step NR             // macro-tile sweep
//!         for ir in 0..mc step MR
//!           microkernel -> C[ic+ir.., jc+jr..]
//! ```
//!
//! Parallelism is over the row blocks of `C` inside each `(jc, pc)`
//! iteration: `out.par_chunks_mut(MC*n)` hands every worker a disjoint,
//! contiguous band of rows, so no unsafe aliasing is needed. Each worker
//! packs its own A-block into a thread-local buffer (`super::scratch`);
//! the shared read-only `bpack` is packed once per `(jc, pc)` by the
//! calling thread.
//!
//! The first depth block (`pc == 0`) stores tiles, later blocks accumulate
//! — `C` is never pre-zeroed and partial sums round-trip through memory at
//! most `⌈k/KC⌉ - 1` times.

use rayon::prelude::*;

use super::micro::{self, MR, NR};
use super::pack;
use super::scratch;

/// Rows of `C` per macro-tile (A-block height). A multiple of `MR`;
/// `MC·KC` floats of packed A ≈ 480 KiB, sized for a private L2.
pub const MC: usize = 120;
/// Depth of one packed block. `KC·NR` floats of one B panel = 16 KiB,
/// half of a typical 32 KiB L1D.
pub const KC: usize = 256;
/// Columns of `C` per outer block. `KC·NC` floats of packed B = 1 MiB,
/// resident in L2/L3 across all row blocks of the same `(jc, pc)`.
pub const NC: usize = 1024;

/// A read-only strided view of a logical `[rows, cols]` matrix, used so one
/// packing routine serves all storage layouts:
///
/// * `nn` operand stored row-major `[r, c]`: `rs = cols`, `cs = 1`
/// * transposed operand stored `[c, r]` (the `nt` B / `tn` A): `rs = 1`,
///   `cs = rows of storage`
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Element distance between logical rows.
    pub rs: usize,
    /// Element distance between logical columns.
    pub cs: usize,
}

impl MatRef<'_> {
    /// Flat index of logical element `(i, j)`.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        i * self.rs + j * self.cs
    }
}

/// `out = A·B` where `A` is logically `[m,k]`, `B` is `[k,n]`, and `out` is
/// row-major `[m,n]`. `out` is fully overwritten.
pub fn gemm(m: usize, k: usize, n: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "gemm output buffer mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    assert!(a.offset(m - 1, k - 1) < a.data.len(), "gemm A view out of bounds");
    assert!(b.offset(k - 1, n - 1) < b.data.len(), "gemm B view out of bounds");

    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let first = pc == 0;
            scratch::with_pack_b(pack::packed_b_len(kc, nc), |bpack| {
                pack::pack_b(&b, pc, jc, kc, nc, bpack);
                let bpack = &*bpack;
                out.par_chunks_mut(MC * n).enumerate().for_each(|(ib, c_rows)| {
                    let mc = c_rows.len() / n;
                    scratch::with_pack_a(pack::packed_a_len(mc, kc), |apack| {
                        pack::pack_a(&a, ib * MC, pc, mc, kc, apack);
                        macro_tile(mc, nc, kc, n, jc, apack, bpack, c_rows, first);
                    });
                });
            });
        }
    }
}

/// Sweeps the `mc×nc` macro-tile of `C` with the register microkernel.
/// `c_rows` is the full `mc×ldc` row band; the tile starts at column `jc`.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    mc: usize,
    nc: usize,
    kc: usize,
    ldc: usize,
    jc: usize,
    apack: &[f32],
    bpack: &[f32],
    c_rows: &mut [f32],
    first: bool,
) {
    for jr in (0..nc).step_by(NR) {
        let nr = (nc - jr).min(NR);
        let bpanel = &bpack[(jr / NR) * NR * kc..];
        for ir in (0..mc).step_by(MR) {
            let mr = (mc - ir).min(MR);
            let apanel = &apack[(ir / MR) * MR * kc..];
            let c_tile = &mut c_rows[ir * ldc + jc + jr..];
            micro::tile(kc, apanel, bpanel, c_tile, ldc, mr, nr, !first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, k: usize, n: usize, a: &MatRef<'_>, b: &MatRef<'_>) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data[a.offset(i, p)] * b.data[b.offset(p, j)];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn check(m: usize, k: usize, n: usize) {
        let ad = fill(m * k, 3);
        let bd = fill(k * n, 5);
        let a = MatRef { data: &ad, rs: k, cs: 1 };
        let b = MatRef { data: &bd, rs: n, cs: 1 };
        let want = reference(m, k, n, &a, &b);
        let mut got = vec![f32::NAN; m * n]; // gemm must overwrite, not accumulate
        gemm(m, k, n, a, b, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-3, "({m},{k},{n}) elem {i}: {g} vs {w}");
        }
    }

    #[test]
    fn exercises_every_edge_combination() {
        // Around the register tile.
        for m in [1, 5, 6, 7, 12] {
            for n in [1, 15, 16, 17, 32] {
                check(m, 3, n);
            }
        }
        // Around the cache blocks (multiple KC iterations, MC/NC edges).
        check(MC, KC + 7, NR);
        check(MC + 5, KC * 2 + 1, 40);
        check(130, 300, 70);
    }

    #[test]
    fn degenerate_dims() {
        check(1, 1, 1);
        let mut out = vec![1.0f32; 6];
        gemm(
            2,
            0,
            3,
            MatRef { data: &[], rs: 0, cs: 1 },
            MatRef { data: &[], rs: 3, cs: 1 },
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.0), "k=0 must produce zeros");
    }

    #[test]
    fn transposed_views_match_reference() {
        let (m, k, n) = (33, 21, 45);
        // A stored [k, m] (tn layout), B stored [n, k] (nt layout).
        let ad = fill(k * m, 7);
        let bd = fill(n * k, 9);
        let a = MatRef { data: &ad, rs: 1, cs: m };
        let b = MatRef { data: &bd, rs: 1, cs: k };
        let want = reference(m, k, n, &a, &b);
        let mut got = vec![0.0f32; m * n];
        gemm(m, k, n, a, b, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-3);
        }
    }
}
