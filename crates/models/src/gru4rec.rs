//! GRU4Rec (Hidasi et al., 2016): recurrent sequential recommendation.
//!
//! A from-scratch GRU cell unrolled over the left-padded sequence. For a
//! fair comparison (and following the paper's re-implementation practice)
//! training uses the same per-position positive/negative BCE as SASRec.

use seqrec_data::batch::{next_item_batch, pad_left, NegativeSampler, NextItemBatch};
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{Embedding, HasParams, Linear, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::{linalg, Tensor, Var};
use serde::{Deserialize, Serialize};

use crate::common::{fit_loop, serial_step, FitSpec, TrainOptions, TrainReport};

/// GRU4Rec hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Gru4RecConfig {
    /// Catalog size.
    pub num_items: usize,
    /// Embedding and hidden width.
    pub d: usize,
    /// Maximum unrolled length (matches the Transformer's `T = 50`).
    pub max_len: usize,
    /// Dropout on the embedded inputs.
    pub dropout: f32,
}

impl Gru4RecConfig {
    /// Width-64 configuration used by the scaled experiments.
    pub fn small(num_items: usize) -> Self {
        Gru4RecConfig { num_items, d: 64, max_len: 50, dropout: 0.1 }
    }
}

/// A single-layer GRU cell.
///
/// `z = σ(x·Wz + h·Uz + bz)`, `r = σ(x·Wr + h·Ur + br)`,
/// `h̃ = tanh(x·Wh + (r∘h)·Uh + bh)`, `h' = (1-z)∘h + z∘h̃`.
pub struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
    d: usize,
}

impl GruCell {
    /// Xavier-initialised cell of width `d`.
    pub fn new(name: &str, d: usize, r: &mut TensorRng) -> Self {
        GruCell {
            wz: Linear::new(&format!("{name}.wz"), d, d, r),
            uz: Linear::with_options(&format!("{name}.uz"), d, d, false, r),
            wr: Linear::new(&format!("{name}.wr"), d, d, r),
            ur: Linear::with_options(&format!("{name}.ur"), d, d, false, r),
            wh: Linear::new(&format!("{name}.wh"), d, d, r),
            uh: Linear::with_options(&format!("{name}.uh"), d, d, false, r),
            d,
        }
    }

    /// Hidden width.
    pub fn width(&self) -> usize {
        self.d
    }

    /// One step: `(x_t, h_{t-1}) -> h_t`, both `[B, d]`.
    pub fn step(&self, step: &mut Step, x: Var, h: Var) -> Var {
        let b = step.tape.value(x).shape().dim(0);
        let ones = Tensor::ones([b, self.d]);

        let zx = self.wz.forward(step, x);
        let zh = self.uz.forward(step, h);
        let z_in = step.tape.add(zx, zh);
        let z = step.tape.sigmoid(z_in);

        let rx = self.wr.forward(step, x);
        let rh = self.ur.forward(step, h);
        let r_in = step.tape.add(rx, rh);
        let r = step.tape.sigmoid(r_in);

        let hx = self.wh.forward(step, x);
        let rh_prod = step.tape.mul(r, h);
        let hh = self.uh.forward(step, rh_prod);
        let cand_in = step.tape.add(hx, hh);
        let cand = step.tape.tanh(cand_in);

        // h' = (1 - z) ∘ h + z ∘ h̃
        let neg_z = step.tape.scale(z, -1.0);
        let one_minus_z = step.tape.add_const(neg_z, &ones);
        let keep = step.tape.mul(one_minus_z, h);
        let update = step.tape.mul(z, cand);
        step.tape.add(keep, update)
    }
}

impl HasParams for GruCell {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        for m in [&self.wz, &self.uz, &self.wr, &self.ur, &self.wh, &self.uh] {
            m.visit(f);
        }
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in
            [&mut self.wz, &mut self.uz, &mut self.wr, &mut self.ur, &mut self.wh, &mut self.uh]
        {
            m.visit_mut(f);
        }
    }
}

/// The GRU4Rec model.
pub struct Gru4Rec {
    cfg: Gru4RecConfig,
    item_emb: Embedding,
    cell: GruCell,
}

impl Gru4Rec {
    /// Builds an untrained model. The vocabulary reserves pad (0) and the
    /// `[mask]` slot for id-compatibility with the Transformer models.
    pub fn new(cfg: Gru4RecConfig, seed: u64) -> Self {
        let mut r = rng(seed);
        let item_emb = Embedding::new("gru.item", cfg.num_items + 2, cfg.d, &mut r);
        let cell = GruCell::new("gru.cell", cfg.d, &mut r);
        Gru4Rec { cfg, item_emb, cell }
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &Gru4RecConfig {
        &self.cfg
    }

    /// Unrolls the GRU over a left-padded batch, returning the hidden state
    /// after every timestep (`Vec` of `[B, d]` vars, length `T`). Padded
    /// steps carry the previous hidden state through unchanged.
    fn unroll(
        &self,
        step: &mut Step,
        ids: &[u32],
        valid: &[Vec<bool>],
        training: bool,
        r: &mut TensorRng,
    ) -> Vec<Var> {
        let (b, t, d) = (valid.len(), self.cfg.max_len, self.cfg.d);
        assert_eq!(ids.len(), b * t);
        let emb = self.item_emb.forward(step, ids, &[b, t]);
        let emb = step.tape.dropout(emb, self.cfg.dropout, training, r);

        let mut h = step.tape.leaf(Tensor::zeros([b, d]));
        let mut states = Vec::with_capacity(t);
        for ti in 0..t {
            let x = step.tape.select_time(emb, ti);
            let h_new = self.cell.step(step, x, h);
            // freeze the state on padded steps
            let m: Vec<f32> = valid.iter().map(|v| f32::from(v[ti])).collect();
            let inv: Vec<f32> = m.iter().map(|&v| 1.0 - v).collect();
            let kept = step.tape.scale_rows_const(h, &inv);
            let advanced = step.tape.scale_rows_const(h_new, &m);
            h = step.tape.add(kept, advanced);
            states.push(h);
        }
        states
    }

    /// Eq. 15-style loss over every valid position.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    pub fn next_item_loss(
        &self,
        step: &mut Step,
        batch: &NextItemBatch,
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        let states = self.unroll(step, &batch.inputs, &batch.valid, training, r);
        let (b, t) = (batch.b, batch.t);
        let mut total: Option<Var> = None;
        for (ti, &h) in states.iter().enumerate() {
            let pos_ids: Vec<u32> = (0..b).map(|bi| batch.pos[bi * t + ti]).collect();
            let neg_ids: Vec<u32> = (0..b).map(|bi| batch.neg[bi * t + ti]).collect();
            let mask: Vec<f32> = (0..b).map(|bi| batch.target_mask[bi * t + ti]).collect();
            if mask.iter().all(|&m| m == 0.0) {
                continue;
            }
            let pe = self.item_emb.forward(step, &pos_ids, &[b]);
            let ne = self.item_emb.forward(step, &neg_ids, &[b]);
            let pos_prod = step.tape.mul(h, pe);
            let pos_logit = step.tape.sum_rows(pos_prod);
            let neg_prod = step.tape.mul(h, ne);
            let neg_logit = step.tape.sum_rows(neg_prod);
            let losses = step.tape.bce_pairwise(pos_logit, neg_logit);
            let masked = step.tape.mul_const(losses, &Tensor::from_vec([b], mask));
            let summed = step.tape.sum_all(masked);
            total = Some(match total {
                Some(acc) => step.tape.add(acc, summed),
                None => summed,
            });
        }
        let total = total.expect("batch had no valid targets");
        let count: f32 = batch.target_mask.iter().sum();
        step.tape.scale(total, 1.0 / count)
    }

    /// Trains with Adam and early stopping (same protocol as SASRec).
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0x94);
        let mut r = rng(opts.seed);
        let t = self.cfg.max_len;
        let spec = FitSpec::new("GRU4Rec", &self.cfg, 2);
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let seqs: Vec<&[u32]> = chunk.iter().map(|&u| split.train_sequence(u)).collect();
            let batch = next_item_batch(&seqs, t, &mut sampler);
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.next_item_loss(step, &batch, true, &mut r)
            })
        })
    }
}

impl HasParams for Gru4Rec {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.item_emb.visit(f);
        self.cell.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.item_emb.visit_mut(f);
        self.cell.visit_mut(f);
    }
}

impl SequenceScorer for Gru4Rec {
    fn num_items(&self) -> usize {
        self.cfg.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for Gru4Rec {
    /// State row = the final GRU hidden state `[d]`.
    fn state_dim(&self) -> usize {
        self.cfg.d
    }
    fn encode_users(&self, _users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        let t = self.cfg.max_len;
        let mut ids = Vec::with_capacity(inputs.len() * t);
        let mut valid = Vec::with_capacity(inputs.len());
        for s in inputs {
            let (i, v) = pad_left(s, t);
            ids.extend(i);
            valid.push(v);
        }
        let mut step = Step::new();
        let mut r = rng(0);
        let states = self.unroll(&mut step, &ids, &valid, false, &mut r);
        let last = *states.last().expect("max_len > 0");
        step.tape.value(last).data().to_vec()
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let d = self.cfg.d;
        let repr = Tensor::from_vec([states.len() / d, d], states.to_vec());
        let scores = linalg::matmul_nt(&repr, self.item_emb.table().value());
        let keep = self.cfg.num_items + 1;
        scores.data().chunks(self.cfg.num_items + 2).map(|row| row[..keep].to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    fn tiny_cfg(num_items: usize) -> Gru4RecConfig {
        Gru4RecConfig { num_items, d: 16, max_len: 8, dropout: 0.0 }
    }

    fn cyclic_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let seqs = (0..users)
            .map(|u| (0..len).map(|i| ((u + i) % num_items) as u32 + 1).collect::<Vec<u32>>())
            .collect();
        Dataset::new(seqs, num_items)
    }

    #[test]
    fn cell_gates_interpolate_between_old_and_new() {
        let mut r = rng(80);
        let cell = GruCell::new("c", 4, &mut r);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::ones([2, 4]));
        let h = step.tape.leaf(Tensor::zeros([2, 4]));
        let h1 = cell.step(&mut step, x, h);
        let v = step.tape.value(h1);
        // tanh candidate ∈ (-1, 1), gate ∈ (0, 1) → new state strictly inside
        assert!(v.is_finite());
        assert!(v.max_abs() < 1.0);
    }

    #[test]
    fn padded_steps_freeze_the_state() {
        let model = Gru4Rec::new(tiny_cfg(10), 1);
        // same sequence, two different amounts of left padding
        let a = model.score_full_catalog(&[0], &[&[3, 4, 5]]);
        let b = model.score_full_catalog(&[0], &[&[3, 4, 5]]);
        assert_eq!(a, b);
        // hidden state before any real item is zero → a lone pad batch
        // scores identically to another lone pad batch of different length
        let e = model.score_full_catalog(&[0], &[&[]]);
        assert!(e[0].iter().all(|&s| s == 0.0), "empty history must score 0");
    }

    #[test]
    fn loss_decreases_and_learns_successor_rule() {
        let ds = cyclic_dataset(8, 60, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = Gru4Rec::new(tiny_cfg(8), 2);
        let opts = TrainOptions {
            epochs: 12,
            batch_size: 32,
            patience: None,
            valid_probe_users: 10,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert!(m.hr_at(5) > 0.4, "HR@5 = {}", m.hr_at(5));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let model = Gru4Rec::new(tiny_cfg(6), 3);
        let mut sampler = NegativeSampler::new(6, 1);
        let seqs: Vec<&[u32]> = vec![&[1, 2, 3, 4]];
        let batch = next_item_batch(&seqs, 8, &mut sampler);
        let mut step = Step::new();
        let mut r = rng(9);
        let loss = model.next_item_loss(&mut step, &batch, true, &mut r);
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
