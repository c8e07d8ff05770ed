//! Reproduces **Figure 6** (RQ4): robustness to training-data sparsity.
//! CL4SRec (item mask, γ = 0.5 — the paper's setting) and SASRec are
//! trained on {20, 40, 60, 80, 100}% of the training users (the evaluation
//! population is fixed) on Beauty and Yelp; CL4SRec should stay ahead and
//! the gap should widen as data shrinks.
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin fig6
//! ```

use cl4srec::augment::{AugmentationSet, Mask};
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{
    maybe_write_json, prepare, run_cl4srec_with, run_sasrec_with, ExpRun,
};
use serde::Serialize;

const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

#[derive(Serialize)]
struct SparsityPoint {
    dataset: String,
    fraction: f64,
    method: String,
    hr10: f64,
    ndcg10: f64,
}

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let mut args = ExpArgs::parse("fig6", "training-data sparsity (Figure 6, RQ4)");
    if args.datasets.len() == 4 {
        args.datasets = vec!["beauty".into(), "yelp".into()];
    }
    println!("## Figure 6 — impact of the amount of training data (scale {}, γ=0.5)\n", args.scale);

    let run = ExpRun::start("fig6", &args);
    let mut out: Vec<SparsityPoint> = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        let mask_token = (prep.dataset.num_items() + 1) as u32;
        println!("### {name}");
        println!("| fraction | SASRec HR@10 | CL4SRec HR@10 | SASRec NDCG@10 | CL4SRec NDCG@10 |");
        println!("|---|---|---|---|---|");
        for frac in FRACTIONS {
            let users =
                if frac < 1.0 { Some(prep.split.train_user_subset(frac, args.seed)) } else { None };
            let pct = (frac * 100.0) as u32;
            let (sas, _) =
                run_sasrec_with(&prep, &args, users.clone(), &run, &format!("SASRec-{pct}pct"));
            let augs = AugmentationSet::single(Mask { gamma: 0.5, mask_token });
            let (cl, _) =
                run_cl4srec_with(&prep, &augs, &args, users, &run, &format!("CL4SRec-{pct}pct"));
            seqrec_obs::info!(
                "[{name}] {:.0}%: SASRec {:.4} vs CL4SRec {:.4}",
                frac * 100.0,
                sas.hr_at(10),
                cl.hr_at(10)
            );
            println!(
                "| {:.0}% | {:.4} | {:.4} | {:.4} | {:.4} |",
                frac * 100.0,
                sas.hr_at(10),
                cl.hr_at(10),
                sas.ndcg_at(10),
                cl.ndcg_at(10)
            );
            for (method, m) in [("SASRec", &sas), ("CL4SRec", &cl)] {
                out.push(SparsityPoint {
                    dataset: name.clone(),
                    fraction: frac,
                    method: method.to_string(),
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
