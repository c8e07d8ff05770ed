//! The paper's RQ4 scenario in miniature: how do SASRec and CL4SRec degrade
//! when training data shrinks? Trains both models on 30% and 100% of the
//! training users and compares (the full sweep is
//! `cargo run --release -p seqrec-experiments --bin fig6`).
//!
//! ```text
//! cargo run --release --example data_sparsity
//! ```

use cp4rec_repro::cl4srec::augment::{AugmentationSet, Mask};
use cp4rec_repro::cl4srec::model::{Cl4sRec, Cl4sRecConfig, PretrainOptions};
use cp4rec_repro::data::synthetic::{generate_dataset, SyntheticConfig};
use cp4rec_repro::data::Split;
use cp4rec_repro::eval::{evaluate, EvalOptions, EvalTarget, RankingMetrics};
use cp4rec_repro::models::{EncoderConfig, SasRec, TrainOptions};

fn run_pair(
    split: &Split,
    num_items: usize,
    users: Option<Vec<usize>>,
) -> (RankingMetrics, RankingMetrics) {
    let opts = TrainOptions {
        epochs: 10,
        valid_probe_users: 150,
        train_users: users,
        ..Default::default()
    };
    let mut sasrec = SasRec::new(EncoderConfig::small(num_items), 42);
    sasrec.fit(split, &opts);
    let sas = evaluate(&sasrec, split, EvalTarget::Test, &EvalOptions::default());

    let mut cl = Cl4sRec::new(Cl4sRecConfig::small(num_items), 42);
    let augs = AugmentationSet::single(Mask { gamma: 0.5, mask_token: cl.mask_token() });
    cl.fit(split, &augs, &PretrainOptions { epochs: 6, ..Default::default() }, &opts);
    let clm = evaluate(&cl, split, EvalTarget::Test, &EvalOptions::default());
    (sas, clm)
}

fn main() {
    let dataset = generate_dataset(&SyntheticConfig::beauty(0.015));
    let split = Split::leave_one_out(&dataset);
    println!("{} users, {} items\n", split.num_users(), dataset.num_items());

    println!("| training data | SASRec HR@10 | CL4SRec HR@10 | gap |");
    println!("|---|---|---|---|");
    for frac in [0.3, 1.0] {
        let users = (frac < 1.0).then(|| split.train_user_subset(frac, 42));
        let (sas, cl) = run_pair(&split, dataset.num_items(), users);
        println!(
            "| {:>4.0}% | {:.4} | {:.4} | {:+.1}% |",
            frac * 100.0,
            sas.hr_at(10),
            cl.hr_at(10),
            100.0 * (cl.hr_at(10) - sas.hr_at(10)) / sas.hr_at(10).max(1e-9)
        );
    }
    println!(
        "\nexpected shape (paper Fig. 6): both degrade with less data; \
         CL4SRec stays ahead, and its relative advantage grows as data shrinks."
    );
}
