//! Reproduces **Table 2**: HR@{5,10,20} and NDCG@{5,10,20} for Pop, BPR-MF,
//! NCF, GRU4Rec, SASRec, SASRec_BPR and CL4SRec on all four datasets, with
//! the paper's two improvement columns (CL4SRec vs SASRec, vs SASRec_BPR).
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin table2 [-- --scale 0.04 --datasets beauty]
//! ```

use seqrec_eval::DatasetResults;
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{maybe_write_json, prepare, run_method, ExpRun, METHOD_ORDER};

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let args = ExpArgs::parse(
        "table2",
        "overall performance comparison across all methods (Table 2, RQ1)",
    );
    println!(
        "## Table 2 — overall comparison (scale {}, epochs {}, pretrain {})\n",
        args.scale, args.epochs, args.pretrain_epochs
    );

    let run = ExpRun::start("table2", &args);
    let mut all = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        seqrec_obs::info!(
            "[{name}] {} users, {} items, {} actions",
            prep.split.num_users(),
            prep.dataset.num_items(),
            prep.dataset.num_actions()
        );
        let mut results = DatasetResults::new(name.clone());
        for method in METHOD_ORDER {
            let (metrics, secs) = run_method(method, &prep, &args, &run);
            seqrec_obs::info!(
                "[{name}] {method}: HR@10 {:.4}, NDCG@10 {:.4} ({secs:.0}s)",
                metrics.hr_at(10),
                metrics.ndcg_at(10)
            );
            results.push(method, metrics);
        }
        println!("{}", results.to_markdown(&["SASRec", "SASRec_BPR"]));
        all.push(results);
    }
    run.finish(&all);
    maybe_write_json(&args.out, &all);
}
