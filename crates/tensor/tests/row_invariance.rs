//! Row-batch invariance of the GEMM engine: the serving stack's cached
//! user-state design assembles micro-batches whose row counts differ from
//! the evaluator's batches, and the serve-vs-eval parity contract
//! (`seqrec-serve`, TESTING.md "Serving") promises **bit-exact** scores
//! either way. That only holds if each output row of `matmul_*` depends
//! solely on its own A row and on B — never on how many other rows share
//! the call. The packed engine guarantees it by construction (accumulation
//! order is fixed by the KC blocking, M-edges are zero-padded, row bands
//! are disjoint); these tests pin the property so a future retune cannot
//! silently break serving parity.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seqrec_tensor::{linalg, Tensor};

fn random_tensor(rng: &mut ChaCha8Rng, shape: [usize; 2]) -> Tensor {
    let data = (0..shape[0] * shape[1]).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(shape, data)
}

/// Every row of `A·Bᵀ` computed in a full batch must be bit-identical to
/// the same row computed alone, in a pair, or in any contiguous sub-batch.
#[test]
fn matmul_nt_rows_do_not_depend_on_batch_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e7e);
    // n deliberately spans the NR=16 edge; k spans the microkernel depth.
    for (m, k, n) in [(7, 64, 33), (13, 48, 101), (3, 128, 17)] {
        let a = random_tensor(&mut rng, [m, k]);
        let b = random_tensor(&mut rng, [n, k]);
        let full = linalg::matmul_nt(&a, &b);
        for lo in 0..m {
            for hi in lo + 1..=m {
                let rows = hi - lo;
                let sub = Tensor::from_vec([rows, k], a.data()[lo * k..hi * k].to_vec());
                let part = linalg::matmul_nt(&sub, &b);
                assert_eq!(
                    part.data(),
                    &full.data()[lo * n..hi * n],
                    "rows {lo}..{hi} of a [{m},{k}]x[{n},{k}]ᵀ product changed \
                     when computed as a {rows}-row batch"
                );
            }
        }
    }
}

/// The same property for the `nn` layout (used by forward linears).
#[test]
fn matmul_nn_rows_do_not_depend_on_batch_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c);
    let (m, k, n) = (11, 96, 40);
    let a = random_tensor(&mut rng, [m, k]);
    let b = random_tensor(&mut rng, [k, n]);
    let full = linalg::matmul_nn(&a, &b);
    for lo in 0..m {
        let sub = Tensor::from_vec([1, k], a.data()[lo * k..(lo + 1) * k].to_vec());
        let row = linalg::matmul_nn(&sub, &b);
        assert_eq!(
            row.data(),
            &full.data()[lo * n..(lo + 1) * n],
            "row {lo} of a [{m},{k}]x[{k},{n}] product changed when computed alone"
        );
    }
}

/// The packed engine cuts `C` into one row band per worker when `C` has
/// fewer `MC`-row blocks than the pool has workers and the depth spans
/// several `KC` blocks, and into `MC`-row blocks otherwise. A row must come
/// out with the same bits on both sides of that partition: alone on one
/// worker (never split) and inside batches of 1 to 256 rows on 2 to 4
/// workers, where m ≤ MC takes the split at every such pool size, MC + 1
/// at 3 and 4 workers, and 256 only at 4. All three layouts, at
/// k = 4·KC+7.
#[test]
fn rows_match_across_the_per_worker_band_split() {
    use seqrec_tensor::linalg::gemm::{KC, MC};
    let pool = |n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0d5);
    let (k, n, rows) = (4 * KC + 7, 33, 256);
    let a = random_tensor(&mut rng, [rows, k]);
    let b = random_tensor(&mut rng, [k, n]);
    let bt = b.transpose2();
    // Logical A rows `lo..hi` in each layout's storage, times B.
    let products = |lo: usize, hi: usize| {
        let sub = Tensor::from_vec([hi - lo, k], a.data()[lo * k..hi * k].to_vec());
        [
            linalg::matmul_nn(&sub, &b),
            linalg::matmul_nt(&sub, &bt),
            linalg::matmul_tn(&sub.transpose2(), &b),
        ]
    };
    let solo: Vec<_> = pool(1).install(|| (0..rows).map(|i| products(i, i + 1)).collect());
    for threads in [2, 3, 4] {
        pool(threads).install(|| {
            for m in [1, 2, 64, MC, MC + 1, rows] {
                let full = products(0, m);
                for (i, alone) in solo.iter().enumerate().take(m) {
                    for (layout, (f, s)) in ["nn", "nt", "tn"].iter().zip(full.iter().zip(alone)) {
                        assert_eq!(
                            &f.data()[i * n..(i + 1) * n],
                            s.data(),
                            "{layout}: row {i} of a {m}-row batch on {threads} workers \
                             differs from the row alone on one worker"
                        );
                    }
                }
            }
        });
    }
}
