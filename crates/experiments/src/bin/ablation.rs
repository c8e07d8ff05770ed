//! Ablation beyond the paper's figures: design choices DESIGN.md calls out.
//!
//! 1. **Two-stage vs joint training** — the arXiv version pre-trains then
//!    fine-tunes; the ICDE camera-ready optimises the joint objective
//!    `L_next + λ·L_cl`. Which wins at this scale?
//! 2. **Temperature τ** — sensitivity of the two-stage pipeline to the
//!    NT-Xent temperature.
//! 3. **Identity augmentation control** — contrastive learning with the
//!    identity operator (both views equal): the loss collapses to trivial
//!    alignment, so any gain over SASRec must come from the *stochastic*
//!    augmentations, not from extra gradient steps.
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin ablation [-- --datasets beauty]
//! ```

use cl4srec::augment::{AugmentationSet, Identity, Mask};
use cl4srec::model::{Cl4sRec, Cl4sRecConfig};
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{
    eval_test, maybe_write_json, prepare, pretrain_opts, run_sasrec_with, train_opts, ExpRun,
};
use serde::Serialize;

#[derive(Serialize)]
struct AblationPoint {
    dataset: String,
    setting: String,
    hr10: f64,
    ndcg10: f64,
}

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let mut args = ExpArgs::parse("ablation", "two-stage vs joint, temperature, identity control");
    if args.datasets.len() == 4 {
        args.datasets = vec!["beauty".into()];
    }
    println!("## Ablations (scale {})\n", args.scale);

    let run = ExpRun::start("ablation", &args);
    let mut out: Vec<AblationPoint> = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        let n = prep.dataset.num_items();
        let mask_token = (n + 1) as u32;
        println!("### {name}");
        println!("| setting | HR@10 | NDCG@10 |");
        println!("|---|---|---|");

        let mut record = |label: &str, m: &seqrec_eval::RankingMetrics| {
            println!("| {label} | {:.4} | {:.4} |", m.hr_at(10), m.ndcg_at(10));
            seqrec_obs::info!("[{name}] {label}: HR@10 {:.4}", m.hr_at(10));
            out.push(AblationPoint {
                dataset: name.clone(),
                setting: label.to_string(),
                hr10: m.hr_at(10),
                ndcg10: m.ndcg_at(10),
            });
        };

        // plain SASRec reference
        let (sas, _) = run_sasrec_with(&prep, &args, None, &run, "SASRec");
        record("SASRec (no CL)", &sas);

        // two-stage at several temperatures
        for tau in [0.1f32, 0.5, 1.0] {
            let mut cfg = Cl4sRecConfig::small(n);
            cfg.tau = tau;
            let mut model = Cl4sRec::new(cfg, args.seed);
            let augs = AugmentationSet::single(Mask { gamma: 0.5, mask_token });
            let mut pre = pretrain_opts(&args);
            pre.run_dir = run.fit_dir(&format!("tau{tau}-pretrain-{name}"));
            let mut fine = train_opts(&args);
            fine.run_dir = run.fit_dir(&format!("tau{tau}-{name}"));
            model.fit(&prep.split, &augs, &pre, &fine);
            record(&format!("two-stage, τ={tau}"), &eval_test(&model, &prep.split));
        }

        // joint training at several λ
        for lambda in [0.05f32, 0.1, 0.3] {
            let mut model = Cl4sRec::new(Cl4sRecConfig::small(n), args.seed);
            let augs = AugmentationSet::single(Mask { gamma: 0.5, mask_token });
            let mut opts = train_opts(&args);
            opts.run_dir = run.fit_dir(&format!("joint{lambda}-{name}"));
            model.fit_joint(&prep.split, &augs, lambda, &opts);
            record(&format!("joint, λ={lambda}"), &eval_test(&model, &prep.split));
        }

        // identity-augmentation control
        let mut model = Cl4sRec::new(Cl4sRecConfig::small(n), args.seed);
        let augs = AugmentationSet::single(Identity);
        let mut pre = pretrain_opts(&args);
        pre.run_dir = run.fit_dir(&format!("identity-pretrain-{name}"));
        let mut fine = train_opts(&args);
        fine.run_dir = run.fit_dir(&format!("identity-{name}"));
        model.fit(&prep.split, &augs, &pre, &fine);
        record("two-stage, identity views (control)", &eval_test(&model, &prep.split));
        println!();
    }
    run.finish(&out);
    maybe_write_json(&args.out, &out);
}
