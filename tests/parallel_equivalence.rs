//! Parallel-vs-serial equivalence: pins the determinism contract of the
//! multi-threaded training stack.
//!
//! Two claims are checked:
//! 1. Augmented contrastive batches are **bit-exact** across pool sizes —
//!    per-sequence ChaCha substreams make the sampled views a function of
//!    `(aug_base, sequence index)` only, never of worker count.
//! 2. The banded embedding-gradient scatter is **bit-exact** across pool
//!    sizes (destination banding preserves per-row add order).

use cp4rec_repro::cl4srec::{AugmentationSet, Cl4sRec, Cl4sRecConfig};
use cp4rec_repro::data::{Dataset, Split};
use cp4rec_repro::models::EncoderConfig;
use cp4rec_repro::tensor::init::rng;
use cp4rec_repro::tensor::nn::Step;
use proptest::prelude::*;

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
