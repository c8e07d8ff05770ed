//! FPMC (Rendle et al., WWW 2010): Factorizing Personalized Markov Chains.
//!
//! The classic pre-deep-learning sequential baseline (cited as \[40\] by the
//! paper and included in the ICDE camera-ready comparison): a matrix
//! factorisation term models long-term preference and a factorised
//! first-order Markov term models the transition from the previous item:
//!
//! `score(u, l, i) = ⟨v_u^{U,I}, v_i^{I,U}⟩ + ⟨v_l^{L,I}, v_i^{I,L}⟩`
//!
//! trained with BPR over (user, last-item, positive, negative) quadruples.

use std::collections::HashSet;

use seqrec_data::batch::NegativeSampler;
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{self, rng};
use seqrec_tensor::nn::{HasParams, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::{linalg, Tensor, Var};
use serde::{Deserialize, Serialize};

use crate::common::{fit_loop, serial_step, FitSpec, TrainOptions, TrainReport};

/// FPMC hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FpmcConfig {
    /// Latent dimension of both the MF and the Markov factorisation.
    pub d: usize,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
}

impl Default for FpmcConfig {
    fn default() -> Self {
        FpmcConfig { d: 64, weight_decay: 1e-5 }
    }
}

/// The FPMC model.
pub struct Fpmc {
    cfg: FpmcConfig,
    /// `v^{U,I}`: user factors.
    user_ui: Param,
    /// `v^{I,U}`: item factors against users.
    item_iu: Param,
    /// `v^{L,I}`: previous-item factors.
    last_li: Param,
    /// `v^{I,L}`: item factors against the previous item.
    item_il: Param,
    num_users: usize,
    num_items: usize,
}

impl Fpmc {
    /// Builds an untrained model (item tables carry a pad row 0).
    pub fn new(cfg: FpmcConfig, num_users: usize, num_items: usize, seed: u64) -> Self {
        let mut r = rng(seed);
        let d = cfg.d;
        let v = num_items + 1;
        Fpmc {
            user_ui: Param::new("fpmc.user_ui", init::normal([num_users, d], 0.05, &mut r)),
            item_iu: Param::new("fpmc.item_iu", init::normal([v, d], 0.05, &mut r)),
            last_li: Param::new("fpmc.last_li", init::normal([v, d], 0.05, &mut r)),
            item_il: Param::new("fpmc.item_il", init::normal([v, d], 0.05, &mut r)),
            cfg,
            num_users,
            num_items,
        }
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &FpmcConfig {
        &self.cfg
    }

    /// Number of users the embedding table covers.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Mean BPR loss over a batch of `(user, previous item, positive,
    /// negative)` transitions — Eq. 7 of Rendle et al. with the two additive
    /// factorisations `v^{U,I}·v^{I,U}` and `v^{L,I}·v^{I,L}`.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    pub fn bpr_loss(
        &self,
        step: &mut Step,
        u_ids: &[u32],
        last_ids: &[u32],
        pos_ids: &[u32],
        neg_ids: &[u32],
    ) -> Var {
        let n = u_ids.len();
        assert!(n > 0 && last_ids.len() == n && pos_ids.len() == n && neg_ids.len() == n);
        let (ut, iut) = (self.user_ui.var(step), self.item_iu.var(step));
        let (lt, ilt) = (self.last_li.var(step), self.item_il.var(step));
        let ue = step.tape.embedding(ut, u_ids, &[n]);
        let le = step.tape.embedding(lt, last_ids, &[n]);
        let pos_iu = step.tape.embedding(iut, pos_ids, &[n]);
        let pos_il = step.tape.embedding(ilt, pos_ids, &[n]);
        let neg_iu = step.tape.embedding(iut, neg_ids, &[n]);
        let neg_il = step.tape.embedding(ilt, neg_ids, &[n]);

        let score = |step: &mut Step, iu: Var, il: Var| {
            let mf = step.tape.mul(ue, iu);
            let mf = step.tape.sum_rows(mf);
            let mc = step.tape.mul(le, il);
            let mc = step.tape.sum_rows(mc);
            step.tape.add(mf, mc)
        };
        let pos = score(step, pos_iu, pos_il);
        let neg = score(step, neg_iu, neg_il);
        let losses = step.tape.bpr(pos, neg);
        step.tape.mean_all(losses)
    }

    /// Trains with BPR on every consecutive `(prev → next)` transition of
    /// every training sequence, once per epoch.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        assert_eq!(split.num_users(), self.num_users, "split/model user mismatch");
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0xf3);
        let spec = FitSpec::new("FPMC", &self.cfg, 2);
        let weight_decay = self.cfg.weight_decay;
        let adam = |_| AdamConfig { lr: opts.lr, weight_decay, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let (mut u_ids, mut last_ids) = (Vec::new(), Vec::new());
            let (mut pos_ids, mut neg_ids) = (Vec::new(), Vec::new());
            for &u in chunk {
                let seq = split.train_sequence(u);
                let exclude: HashSet<u32> = seq.iter().copied().collect();
                for w in seq.windows(2) {
                    u_ids.push(u as u32);
                    last_ids.push(w[0]);
                    pos_ids.push(w[1]);
                    neg_ids.push(sampler.sample(&exclude));
                }
            }
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.bpr_loss(step, &u_ids, &last_ids, &pos_ids, &neg_ids)
            })
        })
    }
}

impl HasParams for Fpmc {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.user_ui);
        f(&self.item_iu);
        f(&self.last_li);
        f(&self.item_il);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.user_ui);
        f(&mut self.item_iu);
        f(&mut self.last_li);
        f(&mut self.item_il);
    }
}

impl SequenceScorer for Fpmc {
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for Fpmc {
    /// State row = user factor (`d`) followed by last-item factor (`d`).
    fn state_dim(&self) -> usize {
        2 * self.cfg.d
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        assert_eq!(users.len(), inputs.len());
        let d = self.cfg.d;
        let mut states = Vec::with_capacity(users.len() * 2 * d);
        for (&u, seq) in users.iter().zip(inputs) {
            assert!(u < self.num_users, "unknown user {u}");
            states.extend_from_slice(&self.user_ui.value().data()[u * d..(u + 1) * d]);
            let last = seq.last().copied().unwrap_or(0) as usize;
            states.extend_from_slice(&self.last_li.value().data()[last * d..(last + 1) * d]);
        }
        states
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let d = self.cfg.d;
        let v = self.num_items + 1;
        let b = states.len() / (2 * d);
        // De-interleave into the MF (user × item_iu) and MC (last-item ×
        // item_il) operands — two matmuls plus an elementwise add, exactly
        // the structure the evaluator path has always used.
        let mut u_rows = Vec::with_capacity(b * d);
        let mut l_rows = Vec::with_capacity(b * d);
        for row in states.chunks(2 * d) {
            u_rows.extend_from_slice(&row[..d]);
            l_rows.extend_from_slice(&row[d..]);
        }
        let mf = linalg::matmul_nt(&Tensor::from_vec([b, d], u_rows), self.item_iu.value());
        let mc = linalg::matmul_nt(&Tensor::from_vec([b, d], l_rows), self.item_il.value());
        mf.add(&mc).data().chunks(v).map(<[f32]>::to_vec).collect()
    }
    fn num_users(&self) -> Option<usize> {
        Some(self.num_users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    /// Deterministic first-order chain: item i is always followed by
    /// i % n + 1 — exactly what a Markov factorisation should nail.
    fn chain_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let seqs = (0..users)
            .map(|u| (0..len).map(|i| ((u + i) % num_items) as u32 + 1).collect::<Vec<u32>>())
            .collect();
        Dataset::new(seqs, num_items)
    }

    #[test]
    fn learns_first_order_transitions() {
        let ds = chain_dataset(8, 60, 8);
        let split = Split::leave_one_out(&ds);
        let mut model = Fpmc::new(FpmcConfig { d: 16, weight_decay: 0.0 }, split.num_users(), 8, 1);
        let opts = TrainOptions {
            epochs: 30,
            batch_size: 32,
            lr: 5e-3,
            patience: None,
            valid_probe_users: 20,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert!(m.hr_at(5) > 0.5, "HR@5 = {} on a deterministic chain", m.hr_at(5));
    }

    #[test]
    fn scoring_depends_on_user_and_last_item_only() {
        let ds = chain_dataset(8, 10, 6);
        let split = Split::leave_one_out(&ds);
        let model = Fpmc::new(FpmcConfig { d: 8, ..Default::default() }, split.num_users(), 8, 2);
        let a = model.score_full_catalog(&[0], &[&[1, 2, 3]]);
        let b = model.score_full_catalog(&[0], &[&[7, 5, 3]]); // same last item
        assert_eq!(a, b, "only the last item should matter for the MC term");
        let c = model.score_full_catalog(&[0], &[&[1, 2, 4]]);
        assert_ne!(a, c, "a different last item must change scores");
        let d2 = model.score_full_catalog(&[1], &[&[1, 2, 3]]);
        assert_ne!(a, d2, "a different user must change scores");
    }

    #[test]
    fn empty_history_falls_back_to_pad_transition() {
        let ds = chain_dataset(8, 10, 6);
        let split = Split::leave_one_out(&ds);
        let model = Fpmc::new(FpmcConfig { d: 8, ..Default::default() }, split.num_users(), 8, 3);
        let s = model.score_full_catalog(&[0], &[&[]]);
        assert_eq!(s[0].len(), 9);
        assert!(s[0].iter().all(|v| v.is_finite()));
    }
}
