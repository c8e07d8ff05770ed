//! Reproduces **Figure 5** (RQ3): composition of augmentation operators on
//! Beauty and Yelp. Each single operator runs at its best rate, then the
//! three pairwise compositions (crop+mask, crop+reorder, mask+reorder);
//! the paper finds composition does **not** beat the best single operator.
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin fig5
//! ```

use cl4srec::augment::{AugmentationSet, Crop, Mask, Reorder};
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{maybe_write_json, prepare, run_cl4srec_with, ExpRun};
use serde::Serialize;

/// Per-operator rates used for composition (the paper composes each
/// operator at its best single rate; these are representative defaults).
const ETA: f64 = 0.6;
const GAMMA: f64 = 0.5;
const BETA: f64 = 0.5;

#[derive(Serialize)]
struct CompositionPoint {
    dataset: String,
    setting: String,
    hr10: f64,
    ndcg10: f64,
}

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let mut args = ExpArgs::parse("fig5", "composition of augmentations (Figure 5, RQ3)");
    // The paper reports this experiment on Beauty and Yelp only.
    if args.datasets.len() == 4 {
        args.datasets = vec!["beauty".into(), "yelp".into()];
    }
    println!(
        "## Figure 5 — composition of augmentations (scale {}, η={ETA}, γ={GAMMA}, β={BETA})\n",
        args.scale
    );

    let run = ExpRun::start("fig5", &args);
    let mut out: Vec<CompositionPoint> = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        let mask_token = (prep.dataset.num_items() + 1) as u32;
        let settings: Vec<(String, AugmentationSet)> = vec![
            ("crop".into(), AugmentationSet::single(Crop { eta: ETA })),
            ("mask".into(), AugmentationSet::single(Mask { gamma: GAMMA, mask_token })),
            ("reorder".into(), AugmentationSet::single(Reorder { beta: BETA })),
            (
                "crop+mask".into(),
                AugmentationSet::pair(Crop { eta: ETA }, Mask { gamma: GAMMA, mask_token }),
            ),
            (
                "crop+reorder".into(),
                AugmentationSet::pair(Crop { eta: ETA }, Reorder { beta: BETA }),
            ),
            (
                "mask+reorder".into(),
                AugmentationSet::pair(Mask { gamma: GAMMA, mask_token }, Reorder { beta: BETA }),
            ),
        ];
        println!("### {name}");
        println!("| setting | HR@10 | NDCG@10 |");
        println!("|---|---|---|");
        for (label, augs) in settings {
            let (m, secs) = run_cl4srec_with(&prep, &augs, &args, None, &run, &label);
            seqrec_obs::info!("[{name}] {label}: HR@10 {:.4} ({secs:.0}s)", m.hr_at(10));
            println!("| {label} | {:.4} | {:.4} |", m.hr_at(10), m.ndcg_at(10));
            out.push(CompositionPoint {
                dataset: name.clone(),
                setting: label,
                hr10: m.hr_at(10),
                ndcg10: m.ndcg_at(10),
            });
        }
        println!();
    }
    run.finish(&out);
    maybe_write_json(&args.out, &out);
}
