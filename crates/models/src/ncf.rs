//! NCF / NeuMF (He et al., 2017): neural collaborative filtering.
//!
//! Non-sequential baseline fusing a GMF branch (elementwise product of user
//! and item factors) with an MLP branch over the concatenated embeddings.

use seqrec_data::batch::NegativeSampler;
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{self, rng};
use seqrec_tensor::nn::{HasParams, Linear, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::Var;
use serde::{Deserialize, Serialize};

use crate::common::{
    fit_loop, interaction_triples, serial_step, FitSpec, TrainOptions, TrainReport,
};

/// NCF hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NcfConfig {
    /// Embedding dimension of each branch.
    pub d: usize,
}

impl Default for NcfConfig {
    fn default() -> Self {
        NcfConfig { d: 64 }
    }
}

/// The NeuMF model: `logit(u,i) = w · [p_u ∘ q_i ; MLP([p'_u ; q'_i])]`.
pub struct Ncf {
    cfg: NcfConfig,
    user_gmf: Param,
    item_gmf: Param,
    user_mlp: Param,
    item_mlp: Param,
    mlp1: Linear,
    mlp2: Linear,
    out: Linear,
    num_users: usize,
    num_items: usize,
}

impl Ncf {
    /// Builds an untrained model.
    pub fn new(cfg: NcfConfig, num_users: usize, num_items: usize, seed: u64) -> Self {
        let mut r = rng(seed);
        let d = cfg.d;
        Ncf {
            user_gmf: Param::new("ncf.user_gmf", init::normal([num_users, d], 0.05, &mut r)),
            item_gmf: Param::new("ncf.item_gmf", init::normal([num_items + 1, d], 0.05, &mut r)),
            user_mlp: Param::new("ncf.user_mlp", init::normal([num_users, d], 0.05, &mut r)),
            item_mlp: Param::new("ncf.item_mlp", init::normal([num_items + 1, d], 0.05, &mut r)),
            mlp1: Linear::new("ncf.mlp1", 2 * d, d, &mut r),
            mlp2: Linear::new("ncf.mlp2", d, d / 2, &mut r),
            out: Linear::new("ncf.out", d + d / 2, 1, &mut r),
            cfg,
            num_users,
            num_items,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NcfConfig {
        &self.cfg
    }

    /// Number of users the embedding tables cover.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Logits for `(user, item)` pairs (both id slices the same length).
    fn forward(&self, step: &mut Step, u_ids: &[u32], i_ids: &[u32]) -> Var {
        assert_eq!(u_ids.len(), i_ids.len());
        let n = u_ids.len();
        let ug_t = self.user_gmf.var(step);
        let ig_t = self.item_gmf.var(step);
        let um_t = self.user_mlp.var(step);
        let im_t = self.item_mlp.var(step);
        let ug = step.tape.embedding(ug_t, u_ids, &[n]);
        let ig = step.tape.embedding(ig_t, i_ids, &[n]);
        let um = step.tape.embedding(um_t, u_ids, &[n]);
        let im = step.tape.embedding(im_t, i_ids, &[n]);

        let gmf = step.tape.mul(ug, ig);
        let mlp_in = step.tape.concat_last(um, im);
        let h1 = self.mlp1.forward(step, mlp_in);
        let a1 = step.tape.relu(h1);
        let h2 = self.mlp2.forward(step, a1);
        let a2 = step.tape.relu(h2);
        let feat = step.tape.concat_last(gmf, a2);
        let logit = self.out.forward(step, feat);
        step.tape.reshape(logit, [n])
    }

    /// Mean pairwise BCE loss over a batch of `(user, positive, negative)`
    /// triples: `-log σ(s(u,i⁺)) - log(1 - σ(s(u,i⁻)))`.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    pub fn bce_loss(
        &self,
        step: &mut Step,
        u_ids: &[u32],
        pos_ids: &[u32],
        neg_ids: &[u32],
    ) -> Var {
        assert!(!u_ids.is_empty() && pos_ids.len() == u_ids.len());
        let pos_logit = self.forward(step, u_ids, pos_ids);
        let neg_logit = self.forward(step, u_ids, neg_ids);
        let losses = step.tape.bce_pairwise(pos_logit, neg_logit);
        step.tape.mean_all(losses)
    }

    /// Trains with pointwise BCE on `(u, i⁺)` vs one sampled `(u, i⁻)`.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        assert_eq!(split.num_users(), self.num_users, "split/model user mismatch");
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0xce);
        let spec = FitSpec::new("NCF", &self.cfg, 1);
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let (u_ids, pos_ids, neg_ids) = interaction_triples(split, chunk, &mut sampler);
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.bce_loss(step, &u_ids, &pos_ids, &neg_ids)
            })
        })
    }
}

impl HasParams for Ncf {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.user_gmf);
        f(&self.item_gmf);
        f(&self.user_mlp);
        f(&self.item_mlp);
        self.mlp1.visit(f);
        self.mlp2.visit(f);
        self.out.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.user_gmf);
        f(&mut self.item_gmf);
        f(&mut self.user_mlp);
        f(&mut self.item_mlp);
        self.mlp1.visit_mut(f);
        self.mlp2.visit_mut(f);
        self.out.visit_mut(f);
    }
}

impl SequenceScorer for Ncf {
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for Ncf {
    /// NCF's MLP couples the user and item towers, so scoring does not
    /// factorise into a state × catalog product; the cacheable state is the
    /// fully scored row itself (`score_states` just re-chunks it).
    fn state_dim(&self) -> usize {
        self.num_items + 1
    }
    fn encode_users(&self, users: &[usize], _inputs: &[&[u32]]) -> Vec<f32> {
        // One forward of (V+1) rows per user; MLP activations dominate, so
        // keep the per-call batch at a single user to bound memory.
        let all_items: Vec<u32> = (0..=self.num_items as u32).collect();
        let mut states = Vec::with_capacity(users.len() * all_items.len());
        for &u in users {
            assert!(u < self.num_users, "unknown user {u}");
            let u_ids = vec![u as u32; all_items.len()];
            let mut step = Step::new();
            let logits = self.forward(&mut step, &u_ids, &all_items);
            states.extend_from_slice(step.tape.value(logits).data());
        }
        states
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        states.chunks(self.num_items + 1).map(<[f32]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    fn two_communities() -> Dataset {
        let mut seqs = Vec::new();
        for u in 0..30 {
            let base: Vec<u32> =
                if u % 2 == 0 { vec![1, 2, 3, 4, 5] } else { vec![6, 7, 8, 9, 10] };
            let rot = u / 2 % 5;
            seqs.push(base[rot..].iter().chain(&base[..rot]).copied().collect());
        }
        Dataset::new(seqs, 10)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let model = Ncf::new(NcfConfig { d: 8 }, 5, 10, 1);
        let s = model.score_full_catalog(&[0, 4], &[&[1], &[2]]);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].len(), 11);
        assert_eq!(s, model.score_full_catalog(&[0, 4], &[&[1], &[2]]));
    }

    #[test]
    fn learns_community_structure() {
        let ds = two_communities();
        let split = Split::leave_one_out(&ds);
        let mut model = Ncf::new(NcfConfig { d: 8 }, split.num_users(), 10, 2);
        let opts = TrainOptions {
            epochs: 60,
            batch_size: 16,
            lr: 5e-3,
            patience: None,
            valid_probe_users: 30,
            ..Default::default()
        };
        let report = model.fit(&split, &opts);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert!(m.hr_at(5) > 0.5, "HR@5 = {}", m.hr_at(5));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let model = Ncf::new(NcfConfig { d: 8 }, 3, 5, 3);
        let mut step = Step::new();
        let logits = model.forward(&mut step, &[0, 1], &[2, 3]);
        let sq = step.tape.mul(logits, logits);
        let loss = step.tape.sum_all(sq);
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
