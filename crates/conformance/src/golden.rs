//! Golden training-step scenarios.
//!
//! Each scenario seeds everything (init, negatives, dropout, augmentations),
//! runs K Adam steps on a fixed tiny batch and records the loss of every
//! step as its raw f32 bit pattern plus an FNV-1a digest of every final
//! parameter. The workspace-root test `tests/golden_training.rs` asserts
//! the records match the fixtures committed under `tests/golden/` —
//! bit-for-bit — and that two consecutive in-process runs agree.
//!
//! The [`FIT_GOLDENS`] scenarios go one level up: each calls a model's
//! public fit entry point for [`FIT_GOLDEN_EPOCHS`] epochs on a tiny split
//! (dropout on, validation probe on) and records the per-epoch mean loss,
//! so they pin the fit loops themselves — shuffling, sampling, RNG order
//! and tail handling.
//!
//! Fixtures are plain text (one token pair per line) so regenerating them
//! produces reviewable diffs:
//!
//! ```text
//! golden-v1
//! loss 3f9d70a4
//! param enc.item 9e3779b97f4a7c15
//! ```

use cl4srec::{AugmentationSet, Cl4sRec, Cl4sRecConfig, PretrainOptions, PretrainReport};
use seqrec_data::batch::{next_item_batch, NegativeSampler, NextItemBatch};
use seqrec_data::{Dataset, Split};
use seqrec_models::{
    Bert4Rec, Bert4RecConfig, BprMf, BprMfConfig, Caser, CaserConfig, EncoderConfig, Fpmc,
    FpmcConfig, Gru4Rec, Gru4RecConfig, Ncf, NcfConfig, SasRec, TrainOptions, TrainReport,
};
use seqrec_tensor::init::rng;
use seqrec_tensor::nn::{HasParams, Step};
use seqrec_tensor::optim::{Adam, AdamConfig};

use crate::digest::digest_params;

/// Optimizer steps per golden scenario.
pub const GOLDEN_STEPS: usize = 6;

/// A recorded training trajectory: per-step loss bits and final parameter
/// digests in visit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRecord {
    /// `f32::to_bits` of the loss at each step.
    pub losses: Vec<u32>,
    /// `(parameter name, FNV-1a digest of its final bits)`.
    pub params: Vec<(String, u64)>,
}

impl GoldenRecord {
    /// Serialises to the fixture text format.
    pub fn to_text(&self) -> String {
        let mut s = String::from("golden-v1\n");
        for &l in &self.losses {
            s.push_str(&format!("loss {l:08x}\n"));
        }
        for (name, d) in &self.params {
            s.push_str(&format!("param {name} {d:016x}\n"));
        }
        s
    }

    /// Parses the fixture text format.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("golden-v1") => {}
            other => return Err(format!("bad fixture header: {other:?}")),
        }
        let mut record = GoldenRecord { losses: Vec::new(), params: Vec::new() };
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["loss", bits] => {
                    let v = u32::from_str_radix(bits, 16)
                        .map_err(|e| format!("bad loss bits {bits:?}: {e}"))?;
                    record.losses.push(v);
                }
                ["param", name, digest] => {
                    let v = u64::from_str_radix(digest, 16)
                        .map_err(|e| format!("bad digest {digest:?}: {e}"))?;
                    record.params.push(((*name).to_string(), v));
                }
                _ => return Err(format!("unrecognised fixture line: {line:?}")),
            }
        }
        Ok(record)
    }
}

/// The tiny fixed dataset every scenario trains on: 4 users, catalog 10.
pub fn golden_sequences() -> Vec<Vec<u32>> {
    vec![vec![1, 3, 5, 7, 9], vec![2, 4, 6, 8], vec![9, 7, 5, 3, 1], vec![1, 2, 3, 4, 5, 6]]
}

fn golden_encoder_config() -> EncoderConfig {
    // Non-zero dropout on purpose: the trajectory then also pins the
    // ChaCha8 stream, catching the shim-vs-registry RNG drift PR 1 fixed.
    EncoderConfig { num_items: 10, d: 8, heads: 2, layers: 1, max_len: 6, dropout: 0.1 }
}

fn golden_batch(t: usize) -> NextItemBatch {
    let seqs = golden_sequences();
    let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
    let mut sampler = NegativeSampler::new(10, 13);
    next_item_batch(&refs, t, &mut sampler)
}

/// SASRec scenario: [`GOLDEN_STEPS`] Adam steps of the next-item BCE loss
/// (Eq. 15) on one fixed batch.
pub fn run_sasrec_golden() -> GoldenRecord {
    let cfg = golden_encoder_config();
    let t = cfg.max_len;
    let mut model = SasRec::new(cfg, 7);
    let batch = golden_batch(t);
    let mut adam = Adam::new(AdamConfig { lr: 1e-2, ..AdamConfig::default() });
    let mut r = rng(17);

    let mut losses = Vec::with_capacity(GOLDEN_STEPS);
    for _ in 0..GOLDEN_STEPS {
        let mut step = Step::new();
        let loss = model.next_item_loss(&mut step, &batch, true, &mut r);
        losses.push(step.tape.value(loss).item().to_bits());
        let grads = step.tape.backward(loss);
        adam.step(&mut model, &step, &grads);
    }
    GoldenRecord { losses, params: digest_params(&model) }
}

/// CL4SRec scenario: [`GOLDEN_STEPS`] Adam steps of the joint objective
/// (Eq. 16, λ = 0.1) — next-item BCE plus NT-Xent over two augmented views
/// drawn from the paper's full crop/mask/reorder set. Pins the augmentation
/// RNG stream on top of everything the SASRec scenario pins.
pub fn run_cl4srec_golden() -> GoldenRecord {
    let cfg = Cl4sRecConfig { encoder: golden_encoder_config(), tau: 0.5 };
    let t = cfg.encoder.max_len;
    let mut model = Cl4sRec::new(cfg, 7);
    let augs = AugmentationSet::paper_full(0.6, 0.5, 0.5, model.mask_token());
    let seqs = golden_sequences();
    let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
    let batch = golden_batch(t);
    let mut adam = Adam::new(AdamConfig { lr: 1e-2, ..AdamConfig::default() });
    let mut r = rng(23);

    let mut losses = Vec::with_capacity(GOLDEN_STEPS);
    for _ in 0..GOLDEN_STEPS {
        let mut step = Step::new();
        let loss = model.joint_loss(&mut step, &batch, &refs, &augs, 0.1, true, &mut r);
        losses.push(step.tape.value(loss).item().to_bits());
        let grads = step.tape.backward(loss);
        adam.step(&mut model, &step, &grads);
    }
    GoldenRecord { losses, params: digest_params(&model) }
}

/// Epochs each fit-level scenario trains.
pub const FIT_GOLDEN_EPOCHS: usize = 3;

/// The split every fit-level scenario trains on: ten users over a catalog
/// of 10. Users 0–8 keep 3–6 training items; user 9 keeps one, so the
/// loops that need an (input, target) pair drop it and the others train on
/// it. With batch size 4 the epochs split 4/4/1 or 4/4/2 users, so every
/// loop also meets a short tail, and the contrastive loops skip the
/// singleton one.
pub fn fit_golden_split() -> Split {
    let seqs = (0..10usize)
        .map(|u| {
            let len = if u == 9 { 3 } else { 5 + u % 4 };
            (0..len).map(|i| ((u * 3 + i * (u % 3 + 1)) % 10) as u32 + 1).collect()
        })
        .collect();
    Split::leave_one_out(&Dataset::new(seqs, 10))
}

fn fit_golden_options() -> TrainOptions {
    TrainOptions {
        epochs: FIT_GOLDEN_EPOCHS,
        batch_size: 4,
        lr: 1e-2,
        seed: 5,
        patience: Some(2),
        valid_probe_users: 6,
        ..TrainOptions::default()
    }
}

fn pretrain_golden_options() -> PretrainOptions {
    PretrainOptions {
        epochs: FIT_GOLDEN_EPOCHS,
        batch_size: 4,
        lr: 1e-2,
        seed: 5,
        patience: Some(2),
        ..PretrainOptions::default()
    }
}

fn fit_record(report: &TrainReport, model: &impl HasParams) -> GoldenRecord {
    let losses = report.epochs.iter().map(|e| e.loss.to_bits()).collect();
    GoldenRecord { losses, params: digest_params(model) }
}

fn pretrain_record(report: &PretrainReport, model: &impl HasParams) -> GoldenRecord {
    let losses = report.losses.iter().map(|l| l.to_bits()).collect();
    GoldenRecord { losses, params: digest_params(model) }
}

fn golden_cl4srec() -> (Cl4sRec, AugmentationSet) {
    let model = Cl4sRec::new(Cl4sRecConfig { encoder: golden_encoder_config(), tau: 0.5 }, 7);
    let augs = AugmentationSet::paper_full(0.6, 0.5, 0.5, model.mask_token());
    (model, augs)
}

/// A named golden scenario: `(fixture file, runner)`.
pub type GoldenScenario = (&'static str, fn() -> GoldenRecord);

/// Every fit-level scenario: one per fit loop (the seven baselines' `fit`,
/// CL4SRec pre-training and joint training).
pub const FIT_GOLDENS: [GoldenScenario; 9] = [
    ("fit_sasrec.golden", || {
        let mut model = SasRec::new(golden_encoder_config(), 7);
        let report = model.fit(&fit_golden_split(), &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_bert4rec.golden", || {
        let cfg = Bert4RecConfig { encoder: golden_encoder_config(), mask_prob: 0.3 };
        let mut model = Bert4Rec::new(cfg, 7);
        let report = model.fit(&fit_golden_split(), &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_gru4rec.golden", || {
        let cfg = Gru4RecConfig { num_items: 10, d: 8, max_len: 6, dropout: 0.1 };
        let mut model = Gru4Rec::new(cfg, 7);
        let report = model.fit(&fit_golden_split(), &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_caser.golden", || {
        let cfg = CaserConfig {
            num_items: 10,
            d: 8,
            window: 3,
            heights: vec![2, 3],
            n_h: 2,
            n_v: 2,
            dropout: 0.2,
        };
        let split = fit_golden_split();
        let mut model = Caser::new(cfg, split.num_users(), 7);
        let report = model.fit(&split, &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_ncf.golden", || {
        let split = fit_golden_split();
        let mut model = Ncf::new(NcfConfig { d: 8 }, split.num_users(), 10, 7);
        let report = model.fit(&split, &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_fpmc.golden", || {
        let split = fit_golden_split();
        let cfg = FpmcConfig { d: 8, weight_decay: 1e-4 };
        let mut model = Fpmc::new(cfg, split.num_users(), 10, 7);
        let report = model.fit(&split, &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("fit_bprmf.golden", || {
        let split = fit_golden_split();
        let cfg = BprMfConfig { d: 8, weight_decay: 1e-4 };
        let mut model = BprMf::new(cfg, split.num_users(), 10, 7);
        let report = model.fit(&split, &fit_golden_options());
        fit_record(&report, &model)
    }),
    ("pretrain.golden", || {
        let (mut model, augs) = golden_cl4srec();
        let report = model.pretrain(&fit_golden_split(), &augs, &pretrain_golden_options());
        pretrain_record(&report, &model)
    }),
    ("fit_joint.golden", || {
        let (mut model, augs) = golden_cl4srec();
        let report = model.fit_joint(&fit_golden_split(), &augs, 0.1, &fit_golden_options());
        fit_record(&report, &model)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let rec = GoldenRecord {
            losses: vec![0x3f80_0000, 0x4000_0000],
            params: vec![("enc.item".to_string(), 0xdead_beef_cafe_f00d)],
        };
        let parsed = GoldenRecord::from_text(&rec.to_text()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(GoldenRecord::from_text("nope\n").is_err());
        assert!(GoldenRecord::from_text("golden-v1\nloss zz\n").is_err());
        assert!(GoldenRecord::from_text("golden-v1\nwat 1 2 3\n").is_err());
    }
}
