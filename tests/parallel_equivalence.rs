//! Parallel-vs-serial equivalence: pins the determinism contract of the
//! multi-threaded training stack.
//!
//! Five claims are checked:
//! 1. Augmented contrastive batches are **bit-exact** across pool sizes —
//!    per-sequence ChaCha substreams make the sampled views a function of
//!    `(aug_base, sequence index)` only, never of worker count.
//! 2. The banded embedding-gradient scatter is **bit-exact** across pool
//!    sizes (destination banding preserves per-row add order).
//! 3. Dropout masks are **bit-exact** across pool sizes: each chunk of a
//!    mask draws from a clone of the caller's ChaCha8 stream seeked to the
//!    chunk's first word, so the mask and the stream position afterwards
//!    are those of one serial draw.
//! 4. The packed GEMM is **bit-exact** across pool sizes, including where
//!    it cuts `C` into one row band per worker (fewer `MC`-row blocks than
//!    workers, several `KC` blocks): every element still sums the same
//!    `KC` blocks in order through the same microkernel.
//! 5. Fused attention is **bit-exact** across pool sizes: each sequence is
//!    one pool task that runs its heads in order, and each head slice
//!    draws its dropout mask from the caller's stream seeked to the
//!    slice's first weight.

use cp4rec_repro::cl4srec::{AugmentationSet, Cl4sRec, Cl4sRecConfig};
use cp4rec_repro::data::{Dataset, Split};
use cp4rec_repro::models::EncoderConfig;
use cp4rec_repro::tensor::init::rng;
use cp4rec_repro::tensor::nn::Step;
use proptest::prelude::*;
use rand::RngCore;
use seqrec_conformance::oracle;

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool builds")
}

fn tiny_cfg(num_items: usize, dropout: f32) -> EncoderConfig {
    EncoderConfig { num_items, d: 16, heads: 2, layers: 1, max_len: 8, dropout }
}

fn toy_dataset(num_items: usize, users: usize) -> Dataset {
    let seqs =
        (0..users).map(|u| (0..8).map(|i| ((u + i) % num_items) as u32 + 1).collect()).collect();
    Dataset::new(seqs, num_items)
}

/// Claim 1: the contrastive loss of a seeded batch (dropout off, so the rng
/// only supplies the augmentation base seed) is bit-identical whether the
/// augmentation pipeline runs serially or on a 4-worker pool.
#[test]
fn augmented_batches_are_bit_exact_across_pool_sizes() {
    let ds = toy_dataset(12, 24);
    let split = Split::leave_one_out(&ds);
    let model = Cl4sRec::new(Cl4sRecConfig { encoder: tiny_cfg(12, 0.0), tau: 0.5 }, 1);
    let augs = AugmentationSet::paper_full(0.6, 0.3, 0.5, model.mask_token());
    let seqs: Vec<&[u32]> = (0..16).map(|u| split.train_sequence(u)).collect();

    let loss_of = |seed: u64| {
        let mut step = Step::new();
        // training=false draws no dropout: the rng only yields the base seed
        let mut r = rng(seed);
        let loss = model.contrastive_loss(&mut step, &seqs, &augs, false, &mut r);
        step.tape.value(loss).item()
    };
    for seed in [0u64, 7, 0xdead_beef] {
        let serial = loss_of(seed);
        let par = pool(4).install(|| loss_of(seed));
        assert_eq!(serial.to_bits(), par.to_bits(), "seed {seed} diverged");
        // and the substream really keys the result: a different base moves it
        assert_ne!(serial.to_bits(), loss_of(seed ^ 1).to_bits());
    }
}

/// Claim 3: on pools of 1, 2 and 4 workers, `Tape::dropout`'s output and
/// gradient equal `oracle::dropout_mask`'s serial draw bit for bit, for
/// sizes below, at, just above and several times the chunk length, and the
/// rng's next draw equals the oracle rng's. The stream starts off a block
/// boundary, and two masks are drawn back to back, so a chunk seeked to the
/// wrong word or a rng left where the draw began both show.
#[test]
fn dropout_masks_are_bit_exact_across_pool_sizes() {
    use cp4rec_repro::tensor::ops::DROPOUT_CHUNK;
    use cp4rec_repro::tensor::{init, Tape, Tensor};
    let c = DROPOUT_CHUNK;
    let sizes = [1, 100, c - 1, c, c + 1, 3 * c + 17];
    let bits = |t: &Tensor| t.data().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    for threads in [1, 2, 4] {
        pool(threads).install(|| {
            for (i, &n) in sizes.iter().enumerate() {
                let x = init::normal([n], 1.0, &mut rng(i as u64));
                let upstream = init::normal([n], 1.0, &mut rng(100 + i as u64));
                let (mut engine_rng, mut oracle_rng) = (rng(7), rng(7));
                for _ in 0..5 {
                    engine_rng.next_u32();
                    oracle_rng.next_u32();
                }
                for p in [0.2f32, 0.5] {
                    let mut t = Tape::new();
                    let vx = t.leaf(x.clone());
                    let y = t.dropout(vx, p, true, &mut engine_rng);
                    let weighted = t.mul_const(y, &upstream);
                    let loss = t.sum_all(weighted);
                    let grads = t.backward(loss);
                    let mask = Tensor::from_vec([n], oracle::dropout_mask(n, p, &mut oracle_rng));
                    let what = format!("{threads} workers, n = {n}, p = {p}");
                    assert_eq!(bits(t.value(y)), bits(&x.mul(&mask)), "output, {what}");
                    assert_eq!(
                        bits(grads.get(vx).unwrap()),
                        bits(&upstream.mul(&mask)),
                        "gradient, {what}"
                    );
                }
                let what = format!("{threads} workers, n = {n}");
                assert_eq!(engine_rng.next_u32(), oracle_rng.next_u32(), "next draw, {what}");
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 2: the embedding backward scatter is bit-exact on a real pool
    /// for arbitrary id multisets (duplicates included).
    #[test]
    fn embedding_scatter_is_bit_exact_on_a_pool(
        ids in proptest::collection::vec(0u32..64, 2..80),
        seed in 0u64..1000,
    ) {
        use cp4rec_repro::tensor::{init, Tape};
        let table = init::normal([64, 8], 0.5, &mut rng(seed));
        let grad_of = |threads: Option<usize>| {
            let run = || {
                let mut t = Tape::new();
                let leaf = t.leaf(table.clone());
                let e = t.embedding(leaf, &ids, &[ids.len()]);
                let s = t.sum_all(e);
                let g = t.backward(s);
                g.get(leaf).unwrap().data().to_vec()
            };
            match threads {
                Some(n) => pool(n).install(run),
                None => run(),
            }
        };
        let serial = grad_of(None);
        for threads in [2, 4] {
            let par = grad_of(Some(threads));
            for (a, b) in serial.iter().zip(&par) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// Claim 4: on pools of 1, 2, 3 and 4 workers the packed engine returns the
/// same bits in all three layouts, at row counts from one register tile to
/// one `MC` block, depths from one `KC` block to the encoder's 12,800-token
/// weight gradient, and widths from one column to the model dimension. At
/// 2 to 4 workers every one of these shapes with `k > KC` takes the
/// per-worker band split, which the 1-worker pool never takes.
#[test]
fn packed_gemm_is_bit_exact_across_pool_sizes() {
    use cp4rec_repro::tensor::linalg::gemm::{KC, MC};
    use cp4rec_repro::tensor::linalg::micro::{MR, NR};
    use cp4rec_repro::tensor::{init, linalg, Tensor};
    let bits = |t: &Tensor| t.data().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    let mut case = 0u64;
    for m in [MR, 64, MC - 1, MC] {
        for k in [KC, 4 * KC + 7, 12_800] {
            for n in [1, NR, 64] {
                case += 1;
                let a = init::uniform([m, k], -1.0, 1.0, &mut rng(case));
                let at = init::uniform([k, m], -1.0, 1.0, &mut rng(case ^ 0x100));
                let b = init::uniform([k, n], -1.0, 1.0, &mut rng(case ^ 0x200));
                let bt = init::uniform([n, k], -1.0, 1.0, &mut rng(case ^ 0x300));
                let run = || {
                    [
                        bits(&linalg::matmul_nn_blocked(&a, &b)),
                        bits(&linalg::matmul_nt_blocked(&a, &bt)),
                        bits(&linalg::matmul_tn_blocked(&at, &b)),
                    ]
                };
                let serial = pool(1).install(run);
                for threads in [2, 3, 4] {
                    let par = pool(threads).install(run);
                    for (layout, (s, p)) in ["nn", "nt", "tn"].iter().zip(serial.iter().zip(&par)) {
                        assert!(s == p, "{layout} {m}x{k}x{n} differs on {threads} workers");
                    }
                }
            }
        }
    }
}

/// Claim 5: on pools of 1, 2 and 4 workers, `Tape::attention` returns the
/// same output, q/k/v gradients and next rng draw, with queries at every
/// position (`Tq = T`) and at the last only (`Tq = 1`), under the causal
/// and the padding-only mask, in training at p = 0.2 and at inference.
/// Sequences are left-padded to different lengths. The encoder-sized case
/// (T = 50, d = 64, h = 2) runs its head products through the packed GEMM,
/// the small one through the direct kernels.
#[test]
fn attention_is_bit_exact_across_pool_sizes() {
    use cp4rec_repro::tensor::ops::{causal_padding_mask, padding_mask};
    use cp4rec_repro::tensor::{init, Tape, Tensor};
    let bits = |t: &Tensor| t.data().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    for (b, t, d, h) in [(5usize, 7usize, 8usize, 2usize), (6, 50, 64, 2)] {
        let valid: Vec<Vec<bool>> = (0..b)
            .map(|i| {
                let real = 1 + (i * 5) % t;
                (0..t).map(|j| j >= t - real).collect()
            })
            .collect();
        for causal in [true, false] {
            let full =
                if causal { causal_padding_mask(&valid, t) } else { padding_mask(&valid, t) };
            let last: Vec<f32> =
                full.data().chunks(t * t).flat_map(|m| &m[(t - 1) * t..]).copied().collect();
            let last = Tensor::from_vec([b, 1, t], last);
            for (tq, mask) in [(t, &full), (1, &last)] {
                let q = init::normal([b, tq, d], 1.0, &mut rng(1));
                let k = init::normal([b, t, d], 1.0, &mut rng(2));
                let v = init::normal([b, t, d], 1.0, &mut rng(3));
                let upstream = init::normal([b, tq, d], 1.0, &mut rng(4));
                for training in [true, false] {
                    let run = || {
                        let mut r = rng(7);
                        for _ in 0..5 {
                            r.next_u32();
                        }
                        let mut tape = Tape::new();
                        let (vq, vk, vv) =
                            (tape.leaf(q.clone()), tape.leaf(k.clone()), tape.leaf(v.clone()));
                        let y = tape.attention(vq, vk, vv, mask, h, 0.2, training, &mut r);
                        let weighted = tape.mul_const(y, &upstream);
                        let loss = tape.sum_all(weighted);
                        let grads = tape.backward(loss);
                        let grad = |x| bits(grads.get(x).expect("gradient"));
                        (bits(tape.value(y)), grad(vq), grad(vk), grad(vv), r.next_u32())
                    };
                    let serial = pool(1).install(run);
                    for threads in [2, 4] {
                        let what = format!(
                            "{threads} workers, T = {t}, Tq = {tq}, causal {causal}, training {training}"
                        );
                        assert!(pool(threads).install(run) == serial, "{what}");
                    }
                }
            }
        }
    }
}
