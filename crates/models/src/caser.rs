//! Caser (Tang & Wang, WSDM 2018): Convolutional Sequence Embedding.
//!
//! Cited as \[42\] and part of the ICDE camera-ready comparison. The last `L`
//! items are embedded into an `L × d` "image"; horizontal filters of
//! heights `2..` capture union-level patterns (max-pooled over time) and
//! vertical filters capture weighted skip-gram-like patterns; the
//! concatenation feeds a fully-connected layer whose output, joined with a
//! user embedding, scores items through an output item matrix with bias.

use std::collections::HashSet;

use seqrec_data::batch::{pad_left, NegativeSampler};
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{self, rng, TensorRng};
use seqrec_tensor::nn::{Embedding, HasParams, Linear, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::{linalg, Tensor, Var};
use serde::{Deserialize, Serialize};

use crate::common::{fit_loop, serial_step, FitSpec, TrainOptions, TrainReport};

/// Caser hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaserConfig {
    /// Catalog size.
    pub num_items: usize,
    /// Embedding dimension.
    pub d: usize,
    /// Markov window `L` (number of recent items forming the "image").
    pub window: usize,
    /// Horizontal filter heights (each height gets `n_h` filters).
    pub heights: Vec<usize>,
    /// Horizontal filters per height.
    pub n_h: usize,
    /// Vertical filters.
    pub n_v: usize,
    /// Dropout on the concatenated convolutional features.
    pub dropout: f32,
}

impl CaserConfig {
    /// The configuration used by the scaled experiments (paper defaults:
    /// `L=5`, heights `2..=L`, `n_h=16`, `n_v=4`).
    pub fn small(num_items: usize) -> Self {
        CaserConfig {
            num_items,
            d: 64,
            window: 5,
            heights: vec![2, 3, 4],
            n_h: 16,
            n_v: 4,
            dropout: 0.2,
        }
    }

    /// Checks the invariants [`Caser::new`] and the forward pass rely on,
    /// describing the first one the configuration breaks.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_items == 0 || self.d == 0 || self.window == 0 {
            return Err(format!(
                "num_items ({}), d ({}) and window ({}) must be positive",
                self.num_items, self.d, self.window
            ));
        }
        if self.heights.is_empty() {
            return Err("need at least one filter height".into());
        }
        if !self.heights.iter().all(|&h| h >= 1 && h <= self.window) {
            return Err(format!(
                "filter heights {:?} must lie in 1..={}",
                self.heights, self.window
            ));
        }
        if self.n_h == 0 || self.n_v == 0 {
            return Err(format!("n_h ({}) and n_v ({}) must be positive", self.n_h, self.n_v));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} outside [0, 1)", self.dropout));
        }
        Ok(())
    }
}

/// The Caser model.
pub struct Caser {
    cfg: CaserConfig,
    item_emb: Embedding,
    user_emb: Param,
    /// One filter bank per height: `[h*d, n_h]` with bias.
    h_filters: Vec<Linear>,
    /// Vertical filter bank: `[window, n_v]` (no bias, matching the paper).
    v_filters: Param,
    fc: Linear,
    /// Output item matrix `[num_items+1, 2d]` and bias `[num_items+1]`.
    out_w: Param,
    out_b: Param,
    num_users: usize,
}

impl Caser {
    /// Builds an untrained model.
    ///
    /// # Panics
    /// Panics if `cfg` breaks an invariant: every filter height must lie in
    /// `1..=window`, the sizes must be non-zero, and `dropout` must lie in
    /// `[0, 1)`.
    pub fn new(cfg: CaserConfig, num_users: usize, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid Caser config: {e}");
        }
        let mut r = rng(seed);
        let d = cfg.d;
        let item_emb = Embedding::new("caser.item", cfg.num_items + 2, d, &mut r);
        let user_emb = Param::new("caser.user", init::normal([num_users, d], 0.05, &mut r));
        let h_filters = cfg
            .heights
            .iter()
            .map(|&h| Linear::new(&format!("caser.h{h}"), h * d, cfg.n_h, &mut r))
            .collect();
        let v_filters = Param::new("caser.v", init::xavier_uniform(cfg.window, cfg.n_v, &mut r));
        let conv_dim = cfg.heights.len() * cfg.n_h + cfg.n_v * d;
        let fc = Linear::new("caser.fc", conv_dim, d, &mut r);
        let out_w =
            Param::new("caser.out_w", init::normal([cfg.num_items + 1, 2 * d], 0.05, &mut r));
        let out_b = Param::new("caser.out_b", Tensor::zeros([cfg.num_items + 1]));
        Caser { cfg, item_emb, user_emb, h_filters, v_filters, fc, out_w, out_b, num_users }
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &CaserConfig {
        &self.cfg
    }

    /// Number of users the embedding table covers.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The convolutional sequence feature `z` joined with the user
    /// embedding: `[B, 2d]`.
    fn joint_repr(
        &self,
        step: &mut Step,
        ids: &[u32],
        u_ids: &[u32],
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        let (b, l, d) = (u_ids.len(), self.cfg.window, self.cfg.d);
        assert_eq!(ids.len(), b * l);
        let e = self.item_emb.forward(step, ids, &[b, l]);

        // horizontal convolutions: unfold → filter bank → relu → max-pool
        let mut feats: Option<Var> = None;
        for (height, bank) in self.cfg.heights.iter().zip(&self.h_filters) {
            let windows = step.tape.unfold_windows(e, *height);
            let conv = bank.forward(step, windows); // [B, L-h+1, n_h]
            let act = step.tape.relu(conv);
            let pooled = step.tape.max_over_dim1(act); // [B, n_h]
            feats = Some(match feats {
                Some(acc) => step.tape.concat_last(acc, pooled),
                None => pooled,
            });
        }
        // vertical convolution: [B,d,L] · [L,n_v] → [B, d*n_v]
        let et = step.tape.transpose12(e);
        let vf = self.v_filters.var(step);
        let vert = step.tape.linear(et, vf, None);
        let vert = step.tape.reshape(vert, [b, d * self.cfg.n_v]);
        let conv = step.tape.concat_last(feats.expect("≥1 height"), vert);
        let conv = step.tape.dropout(conv, self.cfg.dropout, training, r);
        let z = self.fc.forward(step, conv);
        let z = step.tape.relu(z);

        let ut = self.user_emb.var(step);
        let pu = step.tape.embedding(ut, u_ids, &[b]);
        step.tape.concat_last(z, pu) // [B, 2d]
    }

    /// Logits of specific items for each row of `repr`.
    fn logits_for(&self, step: &mut Step, repr: Var, item_ids: &[u32]) -> Var {
        let n = item_ids.len();
        let wt = self.out_w.var(step);
        let bt = self.out_b.var(step);
        let w = step.tape.embedding(wt, item_ids, &[n]);
        let bt_matrix = bt.into_matrix(step);
        let bias = step.tape.embedding(bt_matrix, item_ids, &[n]);
        let prod = step.tape.mul(repr, w);
        let dots = step.tape.sum_rows(prod);
        let bias = step.tape.reshape(bias, [n]);
        step.tape.add(dots, bias)
    }

    /// The full training objective over one batch of `(window, user,
    /// positive, negative)` examples: mean pairwise BCE of positive vs
    /// negative logits. `ids` holds `u_ids.len()` left-padded windows of
    /// length `cfg.window`, flattened.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    #[allow(clippy::too_many_arguments)] // mirrors the (window, user, pos, neg) batch layout
    pub fn bce_loss(
        &self,
        step: &mut Step,
        ids: &[u32],
        u_ids: &[u32],
        pos_ids: &[u32],
        neg_ids: &[u32],
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        let repr = self.joint_repr(step, ids, u_ids, training, r);
        let pos = self.logits_for(step, repr, pos_ids);
        let neg = self.logits_for(step, repr, neg_ids);
        let losses = step.tape.bce_pairwise(pos, neg);
        step.tape.mean_all(losses)
    }

    /// Trains on sliding `(last L items → next item)` windows with one
    /// sampled negative per positive.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        assert_eq!(split.num_users(), self.num_users, "split/model user mismatch");
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0xca);
        let mut r = rng(opts.seed);
        let l = self.cfg.window;
        let spec = FitSpec::new("Caser", &self.cfg, 2);
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let (mut ids, mut u_ids) = (Vec::new(), Vec::new());
            let (mut pos_ids, mut neg_ids) = (Vec::new(), Vec::new());
            for &u in chunk {
                let seq = split.train_sequence(u);
                let exclude: HashSet<u32> = seq.iter().copied().collect();
                for t in 1..seq.len() {
                    let start = t.saturating_sub(l);
                    let (win, _) = pad_left(&seq[start..t], l);
                    ids.extend(win);
                    u_ids.push(u as u32);
                    pos_ids.push(seq[t]);
                    neg_ids.push(sampler.sample(&exclude));
                }
            }
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.bce_loss(step, &ids, &u_ids, &pos_ids, &neg_ids, true, &mut r)
            })
        })
    }
}

/// Helper: view a `[n]` bias parameter as an `[n, 1]` table so the shared
/// embedding-gather op can pick per-item biases.
trait BiasAsMatrix {
    fn into_matrix(self, step: &mut Step) -> Var;
}

impl BiasAsMatrix for Var {
    fn into_matrix(self, step: &mut Step) -> Var {
        let n = step.tape.value(self).len();
        step.tape.reshape(self, [n, 1])
    }
}

impl HasParams for Caser {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.item_emb.visit(f);
        f(&self.user_emb);
        for bank in &self.h_filters {
            bank.visit(f);
        }
        f(&self.v_filters);
        self.fc.visit(f);
        f(&self.out_w);
        f(&self.out_b);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.item_emb.visit_mut(f);
        f(&mut self.user_emb);
        for bank in &mut self.h_filters {
            bank.visit_mut(f);
        }
        f(&mut self.v_filters);
        self.fc.visit_mut(f);
        f(&mut self.out_w);
        f(&mut self.out_b);
    }
}

impl SequenceScorer for Caser {
    fn num_items(&self) -> usize {
        self.cfg.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for Caser {
    /// State row = the `[2d]` joint representation (conv features ++ user
    /// embedding) feeding the output layer.
    fn state_dim(&self) -> usize {
        2 * self.cfg.d
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        assert_eq!(users.len(), inputs.len());
        let l = self.cfg.window;
        let mut ids = Vec::with_capacity(users.len() * l);
        let mut u_ids = Vec::with_capacity(users.len());
        for (&u, seq) in users.iter().zip(inputs) {
            assert!(u < self.num_users, "unknown user {u}");
            let start = seq.len().saturating_sub(l);
            let (win, _) = pad_left(&seq[start..], l);
            ids.extend(win);
            u_ids.push(u as u32);
        }
        let mut step = Step::new();
        let mut r = rng(0);
        let repr = self.joint_repr(&mut step, &ids, &u_ids, false, &mut r);
        step.tape.value(repr).data().to_vec()
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let dim = 2 * self.cfg.d;
        let repr = Tensor::from_vec([states.len() / dim, dim], states.to_vec());
        let scores = linalg::matmul_nt(&repr, self.out_w.value());
        let v = self.cfg.num_items + 1;
        scores
            .data()
            .chunks(v)
            .map(|row| row.iter().zip(self.out_b.value().data()).map(|(&s, &b)| s + b).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    fn tiny_cfg(num_items: usize) -> CaserConfig {
        CaserConfig {
            num_items,
            d: 16,
            window: 4,
            heights: vec![2, 3],
            n_h: 4,
            n_v: 2,
            dropout: 0.0,
        }
    }

    fn cyclic_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let seqs = (0..users)
            .map(|u| (0..len).map(|i| ((u + i) % num_items) as u32 + 1).collect::<Vec<u32>>())
            .collect();
        Dataset::new(seqs, num_items)
    }

    #[test]
    fn learns_local_patterns() {
        let ds = cyclic_dataset(8, 60, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = Caser::new(tiny_cfg(8), split.num_users(), 1);
        let opts = TrainOptions {
            epochs: 20,
            batch_size: 32,
            lr: 3e-3,
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
    fn scoring_contract_and_determinism() {
        let ds = cyclic_dataset(10, 10, 6);
        let split = Split::leave_one_out(&ds);
        let model = Caser::new(tiny_cfg(10), split.num_users(), 2);
        let inputs: Vec<&[u32]> = vec![&[1, 2, 3], &[4, 5]];
        let s = model.score_full_catalog(&[0, 1], &inputs);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].len(), 11);
        assert_eq!(s, model.score_full_catalog(&[0, 1], &inputs));
    }

    #[test]
    fn user_identity_matters() {
        let ds = cyclic_dataset(10, 10, 6);
        let split = Split::leave_one_out(&ds);
        let model = Caser::new(tiny_cfg(10), split.num_users(), 3);
        let a = model.score_full_catalog(&[0], &[&[1, 2, 3]]);
        let b = model.score_full_catalog(&[1], &[&[1, 2, 3]]);
        assert_ne!(a, b, "Caser joins a user embedding — users must differ");
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let model = Caser::new(tiny_cfg(6), 4, 4);
        let mut step = Step::new();
        let mut r = rng(5);
        let ids: Vec<u32> = vec![1, 2, 3, 4, 2, 3, 4, 5];
        let repr = model.joint_repr(&mut step, &ids, &[0, 1], true, &mut r);
        let pos = model.logits_for(&mut step, repr, &[5, 6]);
        let neg = model.logits_for(&mut step, repr, &[1, 2]);
        let losses = step.tape.bce_pairwise(pos, neg);
        let loss = step.tape.mean_all(losses);
        let grads = step.tape.backward(loss);
        let mut missing = Vec::new();
        model.visit(&mut |p| {
            if p.grad(&step, &grads).is_none() {
                missing.push(p.name().to_string());
            }
        });
        assert!(missing.is_empty(), "no gradient for {missing:?}");
    }
}
