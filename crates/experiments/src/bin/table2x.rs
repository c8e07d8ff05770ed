//! Extended Table 2: the ICDE camera-ready's fuller baseline set — adds
//! FPMC, Caser and BERT4Rec to the arXiv version's seven methods.
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin table2x [-- --datasets beauty]
//! ```

use seqrec_eval::DatasetResults;
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{
    maybe_write_json, prepare, run_method, ExpRun, METHOD_ORDER_EXTENDED,
};

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let args = ExpArgs::parse(
        "table2x",
        "extended comparison incl. FPMC, Caser, BERT4Rec (ICDE camera-ready set)",
    );
    println!(
        "## Table 2 (extended) — ICDE baseline set (scale {}, epochs {})\n",
        args.scale, args.epochs
    );
    let run = ExpRun::start("table2x", &args);
    let mut all = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        let mut results = DatasetResults::new(name.clone());
        for method in METHOD_ORDER_EXTENDED {
            let (metrics, secs) = run_method(method, &prep, &args, &run);
            seqrec_obs::info!(
                "[{name}] {method}: HR@10 {:.4}, NDCG@10 {:.4} ({secs:.0}s)",
                metrics.hr_at(10),
                metrics.ndcg_at(10)
            );
            results.push(method, metrics);
        }
        println!("{}", results.to_markdown(&["SASRec"]));
        all.push(results);
    }
    run.finish(&all);
    maybe_write_json(&args.out, &all);
}
