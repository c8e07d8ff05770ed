//! SASRec (Kang & McAuley, 2018): self-attentive sequential recommendation.
//!
//! The strongest baseline in the paper and the user-representation model
//! inside CL4SRec. Training follows Eq. 15: at every valid position the
//! encoder output is scored against the true next item and one sampled
//! negative with binary cross-entropy.

use seqrec_data::batch::{next_item_batch, pad_left, NegativeSampler, NextItemBatch};
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{HasParams, Param, Step};
use seqrec_tensor::optim::{AdamConfig, LrSchedule};
use seqrec_tensor::{linalg, Tensor, Var};

use crate::common::{fit_loop, serial_step, FitSpec, TrainOptions, TrainReport};
use crate::encoder::{EncoderConfig, TransformerEncoder};

/// The SASRec model: a [`TransformerEncoder`] plus the Eq. 15 training
/// objective and a full-catalog scoring head (shared item embeddings).
pub struct SasRec {
    encoder: TransformerEncoder,
}

impl SasRec {
    /// Builds an untrained model.
    pub fn new(cfg: EncoderConfig, seed: u64) -> Self {
        let mut r = rng(seed);
        SasRec { encoder: TransformerEncoder::new(cfg, &mut r) }
    }

    /// Wraps an existing encoder (CL4SRec hands over its pre-trained
    /// encoder for fine-tuning).
    pub fn from_encoder(encoder: TransformerEncoder) -> Self {
        SasRec { encoder }
    }

    /// The underlying encoder.
    pub fn encoder(&self) -> &TransformerEncoder {
        &self.encoder
    }

    /// Mutable access to the encoder.
    pub fn encoder_mut(&mut self) -> &mut TransformerEncoder {
        &mut self.encoder
    }

    /// Consumes the model, returning the encoder.
    pub fn into_encoder(self) -> TransformerEncoder {
        self.encoder
    }

    /// Warm-starts the item embeddings from an external `[num_items+1, d]`
    /// (or `[num_items+2, d]`) table — the SASRec_BPR baseline initialises
    /// from BPR-MF factors this way. Rows beyond the provided table keep
    /// their current values.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn warm_start_items(&mut self, table: &Tensor) {
        let d = self.encoder.config().d;
        assert_eq!(table.shape().rank(), 2, "warm-start table must be 2-D");
        assert_eq!(table.shape().dim(1), d, "embedding width mismatch");
        let rows = table.shape().dim(0).min(self.encoder.config().vocab());
        let dst = self.encoder.item_embedding_mut().table_mut().value_mut();
        dst.data_mut()[..rows * d].copy_from_slice(&table.data()[..rows * d]);
    }

    /// The Eq. 15 loss for one batch (exposed so CL4SRec can combine it with
    /// the contrastive objective during fine-tuning).
    pub fn next_item_loss(
        &self,
        step: &mut Step,
        batch: &NextItemBatch,
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        let hidden = self.encoder.encode(step, &batch.inputs, &batch.valid, training, r);
        let d = self.encoder.config().d;
        let flat = step.tape.reshape(hidden, [batch.b * batch.t, d]);
        let pos_e = self.encoder.item_embedding().forward(step, &batch.pos, &[batch.b * batch.t]);
        let neg_e = self.encoder.item_embedding().forward(step, &batch.neg, &[batch.b * batch.t]);
        let pos_prod = step.tape.mul(flat, pos_e);
        let pos_logit = step.tape.sum_rows(pos_prod);
        let neg_prod = step.tape.mul(flat, neg_e);
        let neg_logit = step.tape.sum_rows(neg_prod);
        let losses = step.tape.bce_pairwise(pos_logit, neg_logit);
        let mask = Tensor::from_vec([batch.b * batch.t], batch.target_mask.clone());
        step.tape.masked_mean(losses, &mask)
    }

    /// Trains with Adam + linear LR decay and early stopping on a
    /// validation HR@10 probe.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0x5a5a);
        let mut r = rng(opts.seed);
        let t = self.encoder.config().max_len;
        let spec = FitSpec::new("SASRec", self.encoder.config(), 2);
        let adam = |users: usize| AdamConfig {
            lr: opts.lr,
            schedule: LrSchedule::LinearDecay {
                total_steps: (opts.epochs * users.div_ceil(opts.batch_size)) as u64,
                min_factor: 0.1,
            },
            ..AdamConfig::default()
        };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let seqs: Vec<&[u32]> = chunk.iter().map(|&u| split.train_sequence(u)).collect();
            let batch = next_item_batch(&seqs, t, &mut sampler);
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.next_item_loss(step, &batch, true, &mut r)
            })
        })
    }

    /// Encodes histories into `[B, d]` user representations without
    /// recording gradients (dropout off).
    fn encode_batch(&self, inputs: &[&[u32]]) -> Vec<f32> {
        let t = self.encoder.config().max_len;
        let mut ids = Vec::with_capacity(inputs.len() * t);
        let mut valid = Vec::with_capacity(inputs.len());
        for s in inputs {
            let (i, v) = pad_left(s, t);
            ids.extend(i);
            valid.push(v);
        }
        let mut step = Step::new();
        let mut r = rng(0); // eval mode: dropout disabled, rng unused
        let repr = self.encoder.user_repr(&mut step, &ids, &valid, false, &mut r);
        step.tape.value(repr).data().to_vec()
    }
}

impl HasParams for SasRec {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.encoder.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_mut(f);
    }
}

impl SequenceScorer for SasRec {
    fn num_items(&self) -> usize {
        self.encoder.config().num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for SasRec {
    fn state_dim(&self) -> usize {
        self.encoder.config().d
    }
    fn encode_users(&self, _users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        self.encode_batch(inputs)
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let d = self.encoder.config().d;
        let b = states.len() / d;
        let repr = Tensor::from_vec([b, d], states.to_vec());
        let table = self.encoder.item_embedding().table().value();
        let scores = linalg::matmul_nt(&repr, table); // [B, vocab]
        let keep = self.encoder.config().num_items + 1;
        scores
            .data()
            .chunks(self.encoder.config().vocab())
            .map(|row| row[..keep].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    fn tiny_cfg(num_items: usize) -> EncoderConfig {
        EncoderConfig { num_items, d: 16, heads: 2, layers: 1, max_len: 8, dropout: 0.1 }
    }

    /// A dataset with a deterministic successor pattern the model must learn:
    /// item i is always followed by i+1 (cyclic over a small alphabet).
    fn cyclic_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let seqs = (0..users)
            .map(|u| (0..len).map(|i| ((u + i) % num_items) as u32 + 1).collect::<Vec<u32>>())
            .collect();
        Dataset::new(seqs, num_items)
    }

    #[test]
    fn loss_decreases_during_training() {
        let ds = cyclic_dataset(10, 60, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = SasRec::new(tiny_cfg(10), 1);
        let opts = TrainOptions {
            epochs: 5,
            batch_size: 32,
            patience: None,
            valid_probe_users: 20,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert_eq!(report.epochs_run(), 5);
        let first = report.epochs.first().unwrap().loss;
        let last = report.epochs.last().unwrap().loss;
        assert!(last < first, "loss went {first} -> {last}");
    }

    #[test]
    fn learns_the_successor_rule() {
        let ds = cyclic_dataset(10, 80, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = SasRec::new(tiny_cfg(10), 2);
        let opts = TrainOptions {
            epochs: 15,
            batch_size: 32,
            patience: None,
            valid_probe_users: 10,
            ..Default::default()
        };
        model.fit(&split, &opts);
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert!(m.hr_at(5) > 0.5, "HR@5 = {} on a deterministic pattern", m.hr_at(5));
    }

    #[test]
    fn scoring_is_deterministic() {
        let model = SasRec::new(tiny_cfg(10), 3);
        let inputs: Vec<&[u32]> = vec![&[1, 2, 3]];
        let a = model.score_full_catalog(&[0], &inputs);
        let b = model.score_full_catalog(&[0], &inputs);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 11); // ids 0..=10
    }

    #[test]
    fn warm_start_copies_rows() {
        let mut model = SasRec::new(tiny_cfg(5), 4);
        let table = Tensor::full([6, 16], 0.5); // pad + 5 items
        model.warm_start_items(&table);
        let got = model.encoder().item_embedding().table().value();
        assert_eq!(got.data()[..6 * 16], vec![0.5; 6 * 16][..]);
        // the [mask] row (row 6) keeps its original init
        assert!(got.data()[6 * 16..].iter().any(|&v| v != 0.5));
    }

    #[test]
    fn max_seed_trains_past_the_first_epoch() {
        // The per-epoch shuffle seed is `seed + epoch`, wrapping.
        let ds = cyclic_dataset(6, 12, 6);
        let split = Split::leave_one_out(&ds);
        let mut model = SasRec::new(tiny_cfg(6), 6);
        let opts = TrainOptions {
            epochs: 2,
            batch_size: 8,
            seed: u64::MAX,
            valid_probe_users: 6,
            ..Default::default()
        };
        assert_eq!(model.fit(&split, &opts).epochs_run(), 2);
    }

    #[test]
    fn early_stopping_halts_training() {
        let ds = cyclic_dataset(6, 30, 6);
        let split = Split::leave_one_out(&ds);
        let mut model = SasRec::new(tiny_cfg(6), 5);
        let opts = TrainOptions {
            epochs: 50,
            batch_size: 16,
            patience: Some(1),
            valid_probe_users: 30,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert!(report.epochs_run() < 50, "never stopped early");
    }
}
