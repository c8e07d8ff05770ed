//! BPR-MF (Rendle et al., 2009): matrix factorisation trained with the
//! pairwise Bayesian Personalised Ranking loss.
//!
//! Non-sequential baseline; also the warm-start source for SASRec_BPR
//! (its learned item factors initialise SASRec's item embeddings).

use seqrec_data::batch::NegativeSampler;
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_tensor::init::{self, rng};
use seqrec_tensor::nn::{HasParams, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::{linalg, Tensor, Var};
use serde::{Deserialize, Serialize};

use crate::common::{
    fit_loop, interaction_triples, serial_step, FitSpec, TrainOptions, TrainReport,
};

/// BPR-MF hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BprMfConfig {
    /// Latent dimension (the experiments match the sequence models' `d`).
    pub d: usize,
    /// L2 regularisation applied through decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for BprMfConfig {
    fn default() -> Self {
        BprMfConfig { d: 64, weight_decay: 1e-5 }
    }
}

/// The BPR-MF model: `score(u, i) = p_u · q_i`.
pub struct BprMf {
    cfg: BprMfConfig,
    user_emb: Param,
    item_emb: Param,
    num_users: usize,
    num_items: usize,
}

impl BprMf {
    /// Builds an untrained model for the split's population.
    pub fn new(cfg: BprMfConfig, num_users: usize, num_items: usize, seed: u64) -> Self {
        let mut r = rng(seed);
        BprMf {
            user_emb: Param::new("bpr.user", init::normal([num_users, cfg.d], 0.05, &mut r)),
            // +1 row: index 0 is the (never-trained) pad slot, keeping item
            // ids aligned with the rest of the workspace.
            item_emb: Param::new("bpr.item", init::normal([num_items + 1, cfg.d], 0.05, &mut r)),
            cfg,
            num_users,
            num_items,
        }
    }

    /// The learned `[num_items + 1, d]` item-factor table (row 0 = pad),
    /// used to warm-start SASRec_BPR.
    pub fn item_factors(&self) -> &Tensor {
        self.item_emb.value()
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &BprMfConfig {
        &self.cfg
    }

    /// Number of users the embedding table covers.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Mean BPR loss over a batch of `(user, positive, negative)` triples.
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact training objective `fit` optimises.
    pub fn bpr_loss(
        &self,
        step: &mut Step,
        u_ids: &[u32],
        pos_ids: &[u32],
        neg_ids: &[u32],
    ) -> Var {
        let n = u_ids.len();
        assert!(n > 0 && pos_ids.len() == n && neg_ids.len() == n);
        let ut = self.user_emb.var(step);
        let it = self.item_emb.var(step);
        let ue = step.tape.embedding(ut, u_ids, &[n]);
        let pe = step.tape.embedding(it, pos_ids, &[n]);
        let ne = step.tape.embedding(it, neg_ids, &[n]);
        let pos_prod = step.tape.mul(ue, pe);
        let pos_logit = step.tape.sum_rows(pos_prod);
        let neg_prod = step.tape.mul(ue, ne);
        let neg_logit = step.tape.sum_rows(neg_prod);
        let losses = step.tape.bpr(pos_logit, neg_logit);
        step.tape.mean_all(losses)
    }

    /// Trains with Adam on uniformly sampled `(u, i⁺, i⁻)` triples: one
    /// positive per training interaction per epoch.
    pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        assert_eq!(split.num_users(), self.num_users, "split/model user mismatch");
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0xb9);
        let spec = FitSpec::new("BPR-MF", &self.cfg, 1);
        let weight_decay = self.cfg.weight_decay;
        let adam = |_| AdamConfig { lr: opts.lr, weight_decay, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let (u_ids, pos_ids, neg_ids) = interaction_triples(split, chunk, &mut sampler);
            serial_step(m, adam, |m, step| {
                let _fwd = seqrec_obs::span!("forward");
                m.bpr_loss(step, &u_ids, &pos_ids, &neg_ids)
            })
        })
    }
}

impl HasParams for BprMf {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.user_emb);
        f(&self.item_emb);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.user_emb);
        f(&mut self.item_emb);
    }
}

impl SequenceScorer for BprMf {
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.score_states(&self.encode_users(users, inputs))
    }
}

impl StatefulScorer for BprMf {
    fn state_dim(&self) -> usize {
        self.cfg.d
    }
    fn encode_users(&self, users: &[usize], _inputs: &[&[u32]]) -> Vec<f32> {
        let d = self.cfg.d;
        // Gather the queried user rows; the matmul happens in score_states.
        let mut u_rows = Vec::with_capacity(users.len() * d);
        for &u in users {
            assert!(u < self.num_users, "unknown user {u}");
            u_rows.extend_from_slice(&self.user_emb.value().data()[u * d..(u + 1) * d]);
        }
        u_rows
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        let d = self.cfg.d;
        let u_mat = Tensor::from_vec([states.len() / d, d], states.to_vec());
        let scores = linalg::matmul_nt(&u_mat, self.item_emb.value());
        scores.data().chunks(self.num_items + 1).map(<[f32]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;
    use seqrec_eval::{evaluate, EvalOptions, EvalTarget};

    /// Two disjoint user communities with disjoint item sets — easy for MF.
    fn two_communities() -> Dataset {
        let mut seqs = Vec::new();
        for u in 0..30 {
            let base: Vec<u32> =
                if u % 2 == 0 { vec![1, 2, 3, 4, 5] } else { vec![6, 7, 8, 9, 10] };
            // rotate so targets vary within the community
            let rot = u / 2 % 5;
            seqs.push(base[rot..].iter().chain(&base[..rot]).copied().collect());
        }
        Dataset::new(seqs, 10)
    }

    #[test]
    fn learns_community_structure() {
        let ds = two_communities();
        let split = Split::leave_one_out(&ds);
        let mut model = BprMf::new(
            BprMfConfig { d: 8, weight_decay: 0.0 },
            split.num_users(),
            split.num_items(),
            1,
        );
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
        // within-community items are 4 of ~9 candidates; MF should beat chance
        assert!(m.hr_at(5) > 0.55, "HR@5 = {}", m.hr_at(5));
    }

    #[test]
    fn item_factors_have_pad_row() {
        let model = BprMf::new(BprMfConfig::default(), 3, 7, 2);
        assert_eq!(model.item_factors().shape().dims(), &[8, 64]);
    }

    #[test]
    fn scoring_uses_user_identity_not_history() {
        let ds = two_communities();
        let split = Split::leave_one_out(&ds);
        let model = BprMf::new(BprMfConfig::default(), split.num_users(), 10, 3);
        let a = model.score_full_catalog(&[0], &[&[1, 2]]);
        let b = model.score_full_catalog(&[0], &[&[9, 10]]);
        assert_eq!(a, b, "history must be ignored");
        let c = model.score_full_catalog(&[1], &[&[1, 2]]);
        assert_ne!(a, c, "different users must differ");
    }
}
