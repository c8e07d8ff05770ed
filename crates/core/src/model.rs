//! The CL4SRec model: contrastive pre-training + fine-tuning (§3.2, §3.5).
//!
//! Pre-training (Figure 1): each user sequence is transformed by two
//! operators sampled from the augmentation set `𝒜`; both views pass through
//! the shared Transformer encoder `f(·)` and a linear projection `g(·)`;
//! NT-Xent (Eq. 3) is minimised over in-batch negatives. Fine-tuning throws
//! the projection away and optimises the standard next-item objective
//! (Eq. 15) from the pre-trained encoder weights.

use rayon::prelude::*;
use seqrec_data::batch::{next_item_batch, pad_left, NegativeSampler, NextItemBatch};
use seqrec_data::Split;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_models::checkpoint::{self, CheckpointError, Checkpointable, TensorData};
use seqrec_models::common::{
    fit_loop, serial_step, AnomalyPolicy, AnomalyReport, FitSpec, StopOn, TrainOptions, TrainReport,
};
use seqrec_models::encoder::EncoderConfig;
use seqrec_models::sasrec::SasRec;
use seqrec_obs::json::Value as JsonValue;
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{HasParams, Linear, Param, Step};
use seqrec_tensor::optim::AdamConfig;
use seqrec_tensor::Var;
use serde::{Deserialize, Serialize};

use crate::augment::AugmentationSet;
use crate::ntxent::nt_xent;

/// CL4SRec hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cl4sRecConfig {
    /// The shared user-representation encoder.
    pub encoder: EncoderConfig,
    /// NT-Xent softmax temperature τ (Eq. 3).
    pub tau: f32,
}

impl Cl4sRecConfig {
    /// Defaults used by the experiments: the small encoder and τ = 0.5.
    pub fn small(num_items: usize) -> Self {
        Cl4sRecConfig { encoder: EncoderConfig::small(num_items), tau: 0.5 }
    }

    /// The paper-scale encoder (d = 128).
    pub fn paper(num_items: usize) -> Self {
        Cl4sRecConfig { encoder: EncoderConfig::paper(num_items), tau: 0.5 }
    }
}

/// Pre-training options.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PretrainOptions {
    /// Pre-training epochs.
    pub epochs: usize,
    /// Mini-batch size `N` (the contrastive batch is `2N`).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (augmentation sampling, dropout, shuffling).
    pub seed: u64,
    /// Stop after this many epochs without a new minimum training loss.
    pub patience: Option<usize>,
    /// Console verbosity: 0 = silent, 1 = one line per epoch, 2 = chatty.
    pub verbosity: u8,
    /// What to do when the contrastive loss or gradients go NaN/Inf.
    pub on_anomaly: AnomalyPolicy,
    /// When set, pre-training writes a run ledger into this directory
    /// (same layout as [`TrainOptions::run_dir`]).
    pub run_dir: Option<String>,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        PretrainOptions {
            epochs: 20,
            batch_size: 256,
            lr: 1e-3,
            seed: 7,
            patience: Some(3),
            verbosity: 0,
            on_anomaly: AnomalyPolicy::Warn,
            run_dir: None,
        }
    }
}

/// Pre-training telemetry.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PretrainReport {
    /// Mean contrastive loss per epoch.
    pub losses: Vec<f32>,
    /// Whether loss-based early stopping triggered.
    pub early_stopped: bool,
    /// Wall-clock seconds per epoch (parallel to `losses`).
    pub epoch_secs: Vec<f64>,
    /// Training throughput per epoch in sequences/second (parallel to
    /// `losses`).
    pub seqs_per_sec: Vec<f64>,
    /// First non-finite observation, if any (the run aborted here under
    /// [`AnomalyPolicy::Abort`]).
    pub anomaly: Option<AnomalyReport>,
    /// Optimiser steps that observed a non-finite quantity.
    pub anomalous_steps: u64,
}

/// The CL4SRec model.
pub struct Cl4sRec {
    sasrec: SasRec,
    proj: Linear,
    cfg: Cl4sRecConfig,
}

impl Cl4sRec {
    /// Builds an untrained model.
    pub fn new(cfg: Cl4sRecConfig, seed: u64) -> Self {
        let mut r = rng(seed.wrapping_add(1));
        let d = cfg.encoder.d;
        Cl4sRec {
            sasrec: SasRec::new(cfg.encoder.clone(), seed),
            // Linear projection g(·) (§3.2.3) — used only during pre-training.
            proj: Linear::new("cl4srec.proj", d, d, &mut r),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Cl4sRecConfig {
        &self.cfg
    }

    /// The `[mask]` token id for building [`crate::augment::Mask`].
    pub fn mask_token(&self) -> u32 {
        self.cfg.encoder.mask_token()
    }

    /// The wrapped SASRec model (shared encoder).
    pub fn sasrec(&self) -> &SasRec {
        &self.sasrec
    }

    /// The contrastive loss of one batch of raw training sequences
    /// (two augmented views per sequence, NT-Xent over the `2N` batch).
    ///
    /// Augmentation draws one base seed `aug_base` from `r`; sequence `i`
    /// then samples its two views from an independent ChaCha substream
    /// seeded `aug_base ^ i`. The views therefore depend only on
    /// `(aug_base, i)`, never on worker count or stealing order, so the
    /// views are built in parallel and stay bit-exact at any pool size.
    /// The rest of `r` is consumed for dropout on the calling thread.
    pub fn contrastive_loss(
        &self,
        step: &mut Step,
        seqs: &[&[u32]],
        augs: &AugmentationSet,
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        assert!(seqs.len() >= 2, "need ≥ 2 sequences for in-batch negatives");
        let t = self.cfg.encoder.max_len;
        let n = seqs.len();
        let aug_base = rand::RngCore::next_u64(r);
        let mut ids1 = Vec::with_capacity(n * t);
        let mut ids2 = Vec::with_capacity(n * t);
        let mut valid1 = Vec::with_capacity(n);
        let mut valid2 = Vec::with_capacity(n);
        {
            let _aug = seqrec_obs::span!("augment");
            let views: Vec<_> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let mut ri = rng(aug_base ^ i as u64);
                    let (view1, view2) = augs.two_views(seqs[i], &mut ri);
                    (pad_left(&view1, t), pad_left(&view2, t))
                })
                .collect();
            for ((i1, v1), (i2, v2)) in views {
                ids1.extend(i1);
                ids2.extend(i2);
                valid1.push(v1);
                valid2.push(v2);
            }
        }
        let (z1, z2) = {
            let _fwd = seqrec_obs::span!("forward");
            let enc = self.sasrec.encoder();
            let repr1 = enc.user_repr(step, &ids1, &valid1, training, r);
            let repr2 = enc.user_repr(step, &ids2, &valid2, training, r);
            (self.proj.forward(step, repr1), self.proj.forward(step, repr2))
        };
        let _ntx = seqrec_obs::span!("ntxent");
        nt_xent(step, z1, z2, self.cfg.tau)
    }

    /// The joint objective of Eq. 16: next-item BCE on `batch` plus
    /// `lambda ×` the NT-Xent contrastive loss over `seqs` (the same
    /// sequences the batch was built from).
    ///
    /// Public so the conformance suite can gradcheck and golden-pin the
    /// exact objective [`Cl4sRec::fit_joint`] optimises.
    #[allow(clippy::too_many_arguments)] // Eq. 16 genuinely takes both data streams + λ
    pub fn joint_loss(
        &self,
        step: &mut Step,
        batch: &NextItemBatch,
        seqs: &[&[u32]],
        augs: &AugmentationSet,
        lambda: f32,
        training: bool,
        r: &mut TensorRng,
    ) -> Var {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let next = {
            let _fwd = seqrec_obs::span!("forward");
            self.sasrec.next_item_loss(step, batch, training, r)
        };
        let cl = self.contrastive_loss(step, seqs, augs, training, r);
        let weighted = step.tape.scale(cl, lambda);
        step.tape.add(next, weighted)
    }

    /// Contrastive pre-training over the split's training sequences.
    pub fn pretrain(
        &mut self,
        split: &Split,
        augs: &AugmentationSet,
        opts: &PretrainOptions,
    ) -> PretrainReport {
        self.pretrain_on_users(split, augs, opts, None)
    }

    /// Pre-training restricted to a user subset (RQ4 sweeps). Early
    /// stopping watches the training loss.
    pub fn pretrain_on_users(
        &mut self,
        split: &Split,
        augs: &AugmentationSet,
        opts: &PretrainOptions,
        train_users: Option<&[usize]>,
    ) -> PretrainReport {
        let loop_opts = TrainOptions {
            epochs: opts.epochs,
            batch_size: opts.batch_size,
            lr: opts.lr,
            seed: opts.seed,
            patience: opts.patience,
            valid_probe_users: 0,
            probe_every: 0,
            train_users: train_users.map(<[usize]>::to_vec),
            verbosity: opts.verbosity,
            on_anomaly: opts.on_anomaly,
            run_dir: opts.run_dir.clone(),
        };
        let mut r = rng(opts.seed);
        let spec = FitSpec {
            min_batch: 2,
            stop_on: StopOn::TrainLoss,
            ..FitSpec::new("CL4SRec-pretrain", &self.cfg, 2)
        };
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        let report = fit_loop(self, split, &loop_opts, spec, adam, |m, adam, chunk| {
            let seqs: Vec<&[u32]> = chunk.iter().map(|&u| split.train_sequence(u)).collect();
            serial_step(m, adam, |m, step| m.contrastive_loss(step, &seqs, augs, true, &mut r))
        });
        PretrainReport {
            losses: report.epochs.iter().map(|e| e.loss).collect(),
            early_stopped: report.early_stopped,
            epoch_secs: report.epochs.iter().map(|e| e.train_secs).collect(),
            seqs_per_sec: report.epochs.iter().map(|e| e.seqs_per_sec).collect(),
            anomaly: report.anomaly,
            anomalous_steps: report.anomalous_steps,
        }
    }

    /// **Joint training** (the ICDE camera-ready variant): optimises
    /// `L = L_next-item + λ·L_contrastive` on each mini-batch in a single
    /// stage, instead of pre-training then fine-tuning. `λ = 0.1` is a
    /// reasonable default at this scale.
    ///
    /// Returns the usual [`TrainReport`]; the reported loss is the joint
    /// objective.
    pub fn fit_joint(
        &mut self,
        split: &Split,
        augs: &AugmentationSet,
        lambda: f32,
        opts: &TrainOptions,
    ) -> TrainReport {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0x7c4);
        let mut r = rng(opts.seed);
        let t = self.cfg.encoder.max_len;
        let spec = FitSpec { min_batch: 2, ..FitSpec::new("CL4SRec-joint", &self.cfg, 2) };
        let adam = |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() };
        fit_loop(self, split, opts, spec, adam, |m, adam, chunk| {
            let seqs: Vec<&[u32]> = chunk.iter().map(|&u| split.train_sequence(u)).collect();
            let batch = next_item_batch(&seqs, t, &mut sampler);
            serial_step(m, adam, |m, step| {
                m.joint_loss(step, &batch, &seqs, augs, lambda, true, &mut r)
            })
        })
    }

    /// Fine-tuning (§3.5): drops the projection head and optimises Eq. 15
    /// starting from the pre-trained encoder.
    pub fn finetune(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
        self.sasrec.fit(split, opts)
    }

    /// The full two-stage pipeline.
    pub fn fit(
        &mut self,
        split: &Split,
        augs: &AugmentationSet,
        pretrain_opts: &PretrainOptions,
        finetune_opts: &TrainOptions,
    ) -> (PretrainReport, TrainReport) {
        let pre = self.pretrain_on_users(
            split,
            augs,
            pretrain_opts,
            finetune_opts.train_users.as_deref(),
        );
        let fine = self.finetune(split, finetune_opts);
        (pre, fine)
    }
}

impl HasParams for Cl4sRec {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.sasrec.visit(f);
        self.proj.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.sasrec.visit_mut(f);
        self.proj.visit_mut(f);
    }
}

impl SequenceScorer for Cl4sRec {
    fn num_items(&self) -> usize {
        self.sasrec.num_items()
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.sasrec.score_full_catalog(users, inputs)
    }
}

impl Checkpointable for Cl4sRec {
    const KIND: &'static str = "cl4srec";
    fn manifest_config(&self) -> String {
        serde_json::to_string(self.config()).expect("config serializes")
    }
    fn snapshot(&self) -> Vec<TensorData> {
        checkpoint::snapshot_params(self)
    }
    fn from_manifest_config(cfg: &JsonValue) -> Result<Self, CheckpointError> {
        let enc = cfg
            .get("encoder")
            .ok_or_else(|| CheckpointError::Format("manifest missing \"encoder\"".into()))?;
        let tau = cfg.get("tau").and_then(JsonValue::as_f64).ok_or_else(|| {
            CheckpointError::Format("manifest field \"tau\" is not a number".into())
        })?;
        let cfg = Cl4sRecConfig { encoder: checkpoint::encoder_config(enc)?, tau: tau as f32 };
        Ok(Cl4sRec::new(cfg, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        checkpoint::restore_params(self, tensors)
    }
}

impl StatefulScorer for Cl4sRec {
    fn state_dim(&self) -> usize {
        self.sasrec.state_dim()
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        self.sasrec.encode_users(users, inputs)
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        self.sasrec.score_states(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{Crop, Mask, Reorder};
    use seqrec_data::Dataset;

    fn tiny_cfg(num_items: usize) -> Cl4sRecConfig {
        Cl4sRecConfig {
            encoder: EncoderConfig {
                num_items,
                d: 16,
                heads: 2,
                layers: 1,
                max_len: 8,
                dropout: 0.1,
            },
            tau: 0.5,
        }
    }

    fn toy_dataset() -> Dataset {
        let seqs = (0..40).map(|u| (0..8).map(|i| ((u + i) % 12) as u32 + 1).collect()).collect();
        Dataset::new(seqs, 12)
    }

    #[test]
    fn pretraining_reduces_contrastive_loss() {
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 1);
        let augs = AugmentationSet::paper_full(0.6, 0.3, 0.5, model.mask_token());
        let opts =
            PretrainOptions { epochs: 8, batch_size: 16, patience: None, ..Default::default() };
        let report = model.pretrain(&split, &augs, &opts);
        assert_eq!(report.losses.len(), 8);
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first, "contrastive loss went {first} -> {last}");
    }

    #[test]
    fn projection_head_gets_gradients_only_in_pretraining() {
        let split = Split::leave_one_out(&toy_dataset());
        let model = Cl4sRec::new(tiny_cfg(12), 2);
        let augs = AugmentationSet::single(Mask { gamma: 0.4, mask_token: model.mask_token() });
        let seqs: Vec<&[u32]> = (0..4).map(|u| split.train_sequence(u)).collect();
        let mut step = Step::new();
        let mut r = rng(3);
        let loss = model.contrastive_loss(&mut step, &seqs, &augs, true, &mut r);
        let grads = step.tape.backward(loss);
        let mut proj_has_grad = false;
        model.proj.visit(&mut |p| {
            proj_has_grad |= p.grad(&step, &grads).is_some();
        });
        assert!(proj_has_grad, "projection head untouched by contrastive loss");
        // and the encoder receives gradients through both views
        let mut enc_grads = 0;
        model.sasrec.visit(&mut |p| {
            enc_grads += usize::from(p.grad(&step, &grads).is_some());
        });
        assert!(enc_grads > 0);
    }

    #[test]
    fn two_stage_pipeline_runs_end_to_end() {
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 3);
        let augs = AugmentationSet::pair(Crop { eta: 0.6 }, Reorder { beta: 0.5 });
        let pre_opts = PretrainOptions { epochs: 2, batch_size: 16, ..Default::default() };
        let fine_opts = TrainOptions {
            epochs: 2,
            batch_size: 16,
            patience: None,
            valid_probe_users: 10,
            ..Default::default()
        };
        let (pre, fine) = model.fit(&split, &augs, &pre_opts, &fine_opts);
        assert_eq!(pre.losses.len(), 2);
        assert_eq!(fine.epochs_run(), 2);
        // and the model can score
        let scores = model.score_full_catalog(&[0], &[split.train_sequence(0)]);
        assert_eq!(scores[0].len(), 13);
    }

    #[test]
    fn pretrain_loss_starts_near_uniform_baseline() {
        // With random weights and strong dropout the similarities are noisy;
        // the first-epoch loss should sit near ln(2N-1).
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 4);
        let augs = AugmentationSet::single(Crop { eta: 0.5 });
        let opts = PretrainOptions {
            epochs: 1,
            batch_size: 16,
            lr: 0.0, // no updates: observe the initial loss
            patience: None,
            ..Default::default()
        };
        let report = model.pretrain(&split, &augs, &opts);
        let baseline = (2.0f32 * 16.0 - 1.0).ln();
        assert!(
            (report.losses[0] - baseline).abs() < 1.0,
            "initial loss {} vs baseline {baseline}",
            report.losses[0]
        );
    }

    #[test]
    fn joint_training_runs_and_improves_over_random() {
        // A catalog large enough that chance-level HR@10 (10/40) leaves
        // clear headroom for the assertion.
        let seqs = (0..60).map(|u| (0..8).map(|i| ((u + i) % 40) as u32 + 1).collect()).collect();
        let ds = seqrec_data::Dataset::new(seqs, 40);
        let split = Split::leave_one_out(&ds);
        let mut model = Cl4sRec::new(tiny_cfg(40), 6);
        let augs = AugmentationSet::single(Mask { gamma: 0.5, mask_token: model.mask_token() });
        let before = seqrec_eval::evaluate(
            &model,
            &split,
            seqrec_eval::EvalTarget::Test,
            &seqrec_eval::EvalOptions::default(),
        );
        let report = model.fit_joint(
            &split,
            &augs,
            0.1,
            &TrainOptions {
                epochs: 10,
                batch_size: 16,
                patience: None,
                valid_probe_users: 10,
                ..Default::default()
            },
        );
        assert_eq!(report.epochs_run(), 10);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
        let after = seqrec_eval::evaluate(
            &model,
            &split,
            seqrec_eval::EvalTarget::Test,
            &seqrec_eval::EvalOptions::default(),
        );
        assert!(
            after.ndcg_at(10) > before.ndcg_at(10),
            "NDCG@10 went {} -> {}",
            before.ndcg_at(10),
            after.ndcg_at(10)
        );
    }

    #[test]
    fn joint_with_zero_lambda_is_pure_next_item() {
        // λ = 0 must still train (gradient flows through the next-item term
        // only; the contrastive term is recorded but weighted to nothing).
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 7);
        let augs = AugmentationSet::single(Crop { eta: 0.6 });
        let report = model.fit_joint(
            &split,
            &augs,
            0.0,
            &TrainOptions {
                epochs: 2,
                batch_size: 16,
                patience: None,
                valid_probe_users: 10,
                ..Default::default()
            },
        );
        assert_eq!(report.epochs_run(), 2);
    }

    #[test]
    fn loss_based_early_stopping() {
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 5);
        let augs = AugmentationSet::single(Crop { eta: 0.9 });
        let opts =
            PretrainOptions { epochs: 40, batch_size: 16, patience: Some(2), ..Default::default() };
        let report = model.pretrain(&split, &augs, &opts);
        assert!(report.losses.len() <= 40);
    }
}
