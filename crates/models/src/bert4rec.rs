//! BERT4Rec (Sun et al., CIKM 2019): bidirectional Transformer trained with
//! a cloze objective.
//!
//! Cited as [41] and included in the ICDE camera-ready comparison. Reuses
//! this workspace's [`TransformerEncoder`] in bidirectional mode: random
//! positions are replaced with the `[mask]` token and the model predicts the
//! original item at each masked position with a full-softmax cross-entropy
//! against the (shared) item-embedding table. At inference a `[mask]` is
//! appended after the user's history and its representation scores the
//! catalog.

use rand::Rng;
use seqrec_data::batch::pad_left;
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{HasParams, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::{linalg, Tensor, Var};
use serde::{Deserialize, Serialize};

use crate::common::{fit_loop, serial_step, FitSpec, TrainOptions, TrainReport};
use crate::encoder::{EncoderConfig, TransformerEncoder};

/// BERT4Rec hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Bert4RecConfig {
    /// The shared Transformer encoder (used bidirectionally).
    pub encoder: EncoderConfig,
    /// Cloze masking probability ρ (BERT4Rec sweeps 0.2–0.6; 0.3 here).
    pub mask_prob: f64,
}

impl Bert4RecConfig {
    /// Width-64 configuration matching the other scaled experiments.
    pub fn small(num_items: usize) -> Self {
        Bert4RecConfig { encoder: EncoderConfig::small(num_items), mask_prob: 0.3 }
    }
}

/// The BERT4Rec model.
pub struct Bert4Rec {
    encoder: TransformerEncoder,
    cfg: Bert4RecConfig,
}

impl Bert4Rec {
    /// Builds an untrained model.
    pub fn new(cfg: Bert4RecConfig, seed: u64) -> Self {
        let mut r = rng(seed);
        Bert4Rec { encoder: TransformerEncoder::new(cfg.encoder.clone(), &mut r), cfg }
    }

    /// The `[mask]` token id.
    pub fn mask_token(&self) -> u32 {
        self.cfg.encoder.mask_token()
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &Bert4RecConfig {
        &self.cfg
    }

    /// Cloze loss over one batch of raw training sequences: mask a random
    /// subset of positions (at least one per sequence) and predict the
    /// original items.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    pub fn cloze_loss(
        &self,
        step: &mut Step,
        seqs: &[&[u32]],
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        let t = self.cfg.encoder.max_len;
        let b = seqs.len();
        let mut ids = Vec::with_capacity(b * t);
        let mut valid = Vec::with_capacity(b);
        let mut positions: Vec<(usize, usize)> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        for (bi, seq) in seqs.iter().enumerate() {
            let (mut row, v) = pad_left(seq, t);
            let real: Vec<usize> = (0..t).filter(|&i| v[i]).collect();
            assert!(!real.is_empty(), "cannot cloze-train an empty sequence");
            let mut masked_any = false;
            for &i in &real {
                if r.gen::<f64>() < self.cfg.mask_prob {
                    positions.push((bi, i));
                    targets.push(row[i]);
                    row[i] = self.mask_token();
                    masked_any = true;
                }
            }
            if !masked_any {
                // guarantee at least one prediction per sequence (mask the
                // most recent item, which is also the inference setting)
                let i = *real.last().expect("non-empty");
                positions.push((bi, i));
                targets.push(row[i]);
                row[i] = self.mask_token();
            }
            ids.extend(row);
            valid.push(v);
        }
        let hidden = self.encoder.encode_bidirectional(step, &ids, &valid, training, r);
        let masked_repr = step.tape.gather_positions(hidden, &positions);
        let table = self.encoder.item_embedding().full_table(step);
        let logits = step.tape.matmul_nt(masked_repr, table);
        let losses = step.tape.softmax_cross_entropy(logits, &targets);
        step.tape.mean_all(losses)
    }

    /// Trains with Adam on the cloze objective, early-stopping on the usual
    /// validation HR@10 probe.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        let mut r = rng(opts.seed);
        let spec = FitSpec::new("BERT4Rec", &self.cfg, 1);
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let seqs: Vec<&[u32]> = chunk.iter().map(|&u| split.train_sequence(u)).collect();
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.cloze_loss(step, &seqs, true, &mut r)
            })
        })
    }
}

impl HasParams for Bert4Rec {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.encoder.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_mut(f);
    }
}

impl SequenceScorer for Bert4Rec {
    fn num_items(&self) -> usize {
        self.cfg.encoder.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for Bert4Rec {
    /// State row = the bidirectional encoder's output at the appended
    /// prediction `[mask]` position, `[d]`.
    fn state_dim(&self) -> usize {
        self.cfg.encoder.d
    }
    fn encode_users(&self, _users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        let t = self.cfg.encoder.max_len;
        let mut ids = Vec::with_capacity(inputs.len() * t);
        let mut valid = Vec::with_capacity(inputs.len());
        for s in inputs {
            // append the prediction [mask] after the history
            let mut with_mask: Vec<u32> = Vec::with_capacity(s.len() + 1);
            with_mask.extend_from_slice(&s[s.len().saturating_sub(t - 1)..]);
            with_mask.push(self.mask_token());
            let (i, v) = pad_left(&with_mask, t);
            ids.extend(i);
            valid.push(v);
        }
        let mut step = Step::new();
        let mut r = rng(0);
        let hidden = self.encoder.encode_bidirectional(&mut step, &ids, &valid, false, &mut r);
        let repr = step.tape.last_time(hidden);
        step.tape.value(repr).data().to_vec()
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let d = self.cfg.encoder.d;
        let repr = Tensor::from_vec([states.len() / d, d], states.to_vec());
        let scores = linalg::matmul_nt(&repr, self.encoder.item_embedding().table().value());
        let keep = self.cfg.encoder.num_items + 1;
        scores.data().chunks(self.cfg.encoder.vocab()).map(|row| row[..keep].to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    fn tiny_cfg(num_items: usize) -> Bert4RecConfig {
        Bert4RecConfig {
            encoder: EncoderConfig {
                num_items,
                d: 16,
                heads: 2,
                layers: 1,
                max_len: 8,
                dropout: 0.1,
            },
            mask_prob: 0.3,
        }
    }

    fn cyclic_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let seqs = (0..users)
            .map(|u| (0..len).map(|i| ((u + i) % num_items) as u32 + 1).collect::<Vec<u32>>())
            .collect();
        Dataset::new(seqs, num_items)
    }

    #[test]
    fn cloze_training_learns_the_pattern() {
        let ds = cyclic_dataset(8, 80, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = Bert4Rec::new(tiny_cfg(8), 1);
        let opts = TrainOptions {
            epochs: 20,
            batch_size: 32,
            patience: None,
            valid_probe_users: 10,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert!(m.hr_at(5) > 0.4, "HR@5 = {} on a deterministic pattern", m.hr_at(5));
    }

    #[test]
    fn scoring_is_deterministic_and_shaped() {
        let model = Bert4Rec::new(tiny_cfg(10), 2);
        let inputs: Vec<&[u32]> = vec![&[1, 2, 3], &[4]];
        let a = model.score_full_catalog(&[0, 1], &inputs);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 11);
        assert_eq!(a, model.score_full_catalog(&[0, 1], &inputs));
    }

    #[test]
    fn bidirectional_context_is_used() {
        // In a bidirectional encoder, changing an EARLY item must change the
        // representation at the final (mask) position.
        let model = Bert4Rec::new(tiny_cfg(10), 3);
        let a = model.score_full_catalog(&[0], &[&[1, 2, 3, 4]]);
        let b = model.score_full_catalog(&[0], &[&[5, 2, 3, 4]]);
        assert_ne!(a, b, "early context must influence the mask position");
    }

    #[test]
    fn long_histories_are_truncated_to_fit_the_mask() {
        let model = Bert4Rec::new(tiny_cfg(10), 4);
        let long: Vec<u32> = (0..30).map(|i| (i % 10) as u32 + 1).collect();
        let s = model.score_full_catalog(&[0], &[&long]);
        assert!(s[0].iter().all(|v| v.is_finite()));
    }
}
