//! Reproduces **Figure 4** (RQ2): the effect of each augmentation operator
//! and its proportion rate. For each dataset, CL4SRec is trained with a
//! single operator (crop η / mask γ / reorder β) at rates
//! {0.1, 0.3, 0.5, 0.7, 0.9}; HR@10 and NDCG@10 are reported next to the
//! SASRec dashed-line baseline.
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin fig4 [-- --datasets beauty,yelp]
//! ```

use cl4srec::augment::{AugmentationSet, Crop, Mask, Reorder};
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{
    maybe_write_json, prepare, run_cl4srec_with, run_sasrec_with, ExpRun,
};
use serde::Serialize;

/// The rates swept by the paper.
const RATES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

#[derive(Serialize)]
struct SweepPoint {
    dataset: String,
    operator: String,
    rate: f64,
    hr10: f64,
    ndcg10: f64,
}

#[derive(Serialize)]
struct Fig4Results {
    baselines: Vec<(String, f64, f64)>, // dataset, SASRec HR@10, NDCG@10
    points: Vec<SweepPoint>,
}

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let args = ExpArgs::parse("fig4", "single-augmentation proportion sweep (Figure 4, RQ2)");
    println!("## Figure 4 — augmentation sweep (scale {}, rates {RATES:?})\n", args.scale);

    let run = ExpRun::start("fig4", &args);
    let mut out = Fig4Results { baselines: Vec::new(), points: Vec::new() };
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        let (base, _) = run_sasrec_with(&prep, &args, None, &run, "SASRec");
        seqrec_obs::info!("[{name}] SASRec baseline: HR@10 {:.4}", base.hr_at(10));
        out.baselines.push((name.clone(), base.hr_at(10), base.ndcg_at(10)));

        println!(
            "### {name} (SASRec baseline: HR@10 {:.4}, NDCG@10 {:.4})",
            base.hr_at(10),
            base.ndcg_at(10)
        );
        println!("| operator | rate | HR@10 | NDCG@10 |");
        println!("|---|---|---|---|");
        let mask_token = (prep.dataset.num_items() + 1) as u32;
        for op in ["crop", "mask", "reorder"] {
            for rate in RATES {
                let augs = match op {
                    "crop" => AugmentationSet::single(Crop { eta: rate }),
                    "mask" => AugmentationSet::single(Mask { gamma: rate, mask_token }),
                    _ => AugmentationSet::single(Reorder { beta: rate }),
                };
                let (m, secs) =
                    run_cl4srec_with(&prep, &augs, &args, None, &run, &format!("{op}{rate}"));
                seqrec_obs::info!("[{name}] {op} {rate}: HR@10 {:.4} ({secs:.0}s)", m.hr_at(10));
                println!("| {op} | {rate} | {:.4} | {:.4} |", m.hr_at(10), m.ndcg_at(10));
                out.points.push(SweepPoint {
                    dataset: name.clone(),
                    operator: op.to_string(),
                    rate,
                    hr10: m.hr_at(10),
                    ndcg10: m.ndcg_at(10),
                });
            }
        }
        println!();
    }
    run.finish(&out);
    maybe_write_json(&args.out, &out);
}
