//! Reproduces **Table 1**: dataset statistics after preprocessing
//! (5-core filter, chronological sequences).
//!
//! ```text
//! cargo run --release -p seqrec-experiments --bin table1 [-- --scale 0.04]
//! ```

use seqrec_eval::report::stats_markdown;
use seqrec_experiments::args::ExpArgs;
use seqrec_experiments::runners::{maybe_write_json, prepare, ExpRun};

fn main() {
    let _obs = seqrec_obs::init_from_env();
    let args = ExpArgs::parse("table1", "dataset statistics after preprocessing (Table 1)");
    println!("## Table 1 — dataset statistics (scale {})\n", args.scale);

    let run = ExpRun::start("table1", &args);
    let mut rows = Vec::new();
    for name in &args.datasets {
        let prep = prepare(name, args.scale);
        rows.push((name.clone(), prep.dataset.stats()));
    }
    println!("{}", stats_markdown(&rows));
    println!(
        "paper (scale 1.0): beauty 22363/12101/198502/8.8/0.07% · sports \
         25598/18357/296337/8.3/0.05% · toys 19412/11924/167597/8.6/0.07% · \
         yelp 30431/20033/316354/10.4/0.05%"
    );
    run.finish(&rows);
    maybe_write_json(&args.out, &rows);
}
