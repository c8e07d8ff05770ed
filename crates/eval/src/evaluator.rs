//! Leave-one-out evaluation over the full catalog.

use rayon::prelude::*;
use seqrec_data::Split;

use crate::metrics::{rank_of_target, MetricsAccumulator, RankingMetrics, PAPER_KS};

/// A model that can score the whole catalog for a batch of users.
///
/// `score_full_catalog` receives, per user, the split-relative user index
/// and the raw (unpadded) chronological input history; it must return a
/// score vector of length `num_items() + 1` indexed by item id (entry 0 is
/// the pad id and is ignored by the evaluator). Sequential models use only
/// `inputs`; non-sequential baselines (BPR-MF, NCF, Pop) use only `users`.
pub trait SequenceScorer {
    /// Catalog size (max item id).
    fn num_items(&self) -> usize;
    /// Scores every item for each `(user, history)` pair.
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>>;
}

/// Scoring factored into a cacheable per-user **encoder state** and a
/// state-to-catalog scoring step.
///
/// The serving stack (`seqrec-serve`) caches `encode_users` output per user
/// and re-scores from the cached rows, so the two halves must compose to
/// exactly the plain scorer: for every implementor,
/// `score_states(&encode_users(users, inputs))` is **bit-identical** to
/// `score_full_catalog(users, inputs)` — and each state row must not depend
/// on which other users shared the encode batch (the GEMM engine's
/// row-batch invariance, `seqrec-tensor/tests/row_invariance.rs`, makes
/// that hold through the encoders). `tests/serve_parity.rs` pins both
/// properties for every model in the zoo.
pub trait StatefulScorer: SequenceScorer {
    /// Scalars per user state row (≥ 1 so callers can recover the row
    /// count from a flat state buffer).
    fn state_dim(&self) -> usize;

    /// Encodes each `(user, history)` pair into one state row; returns the
    /// rows concatenated: `inputs.len() * state_dim()` scalars.
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32>;

    /// Scores previously encoded state rows against the full catalog; one
    /// `num_items() + 1` score vector per row, same layout as
    /// [`SequenceScorer::score_full_catalog`].
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>>;

    /// How many users the model has a learned row for, so callers can
    /// reject an unknown user index before [`encode_users`] asserts on it;
    /// `None` (the default) when the model reads only the history.
    ///
    /// [`encode_users`]: StatefulScorer::encode_users
    fn num_users(&self) -> Option<usize> {
        None
    }
}

/// Which held-out item to predict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalTarget {
    /// Predict the validation item from the training prefix.
    Valid,
    /// Predict the test item from the training prefix + validation item.
    Test,
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Users scored per model call.
    pub batch_size: usize,
    /// Metric cut-offs.
    pub ks: Vec<usize>,
    /// Optional subset of user indices to evaluate (None = all users).
    pub users: Option<Vec<usize>>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { batch_size: 256, ks: PAPER_KS.to_vec(), users: None }
    }
}

/// Evaluates `model` on `split` with full-catalog ranking (§4.1.2): for each
/// user, every item the user has not interacted with is a ranking candidate.
pub fn evaluate(
    model: &impl SequenceScorer,
    split: &Split,
    target: EvalTarget,
    opts: &EvalOptions,
) -> RankingMetrics {
    let _span = seqrec_obs::span!("eval");
    let catalog = model.num_items() + 1;
    let users: Vec<usize> = match &opts.users {
        Some(u) => u.clone(),
        None => (0..split.num_users()).collect(),
    };
    seqrec_obs::metrics::EVAL_USERS.add(users.len() as u64);
    let mut acc = MetricsAccumulator::new(&opts.ks);
    for chunk in users.chunks(opts.batch_size.max(1)) {
        let inputs: Vec<Vec<u32>> = chunk
            .iter()
            .map(|&u| match target {
                EvalTarget::Valid => split.valid_input(u),
                EvalTarget::Test => split.test_input(u),
            })
            .collect();
        let input_refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let scores = {
            let _score = seqrec_obs::span!("eval.score");
            model.score_full_catalog(chunk, &input_refs)
        };
        assert_eq!(scores.len(), chunk.len(), "scorer returned wrong batch size");

        // Rank in parallel, then accumulate in user order: the f64 sums then
        // run in one fixed order, so the metrics carry the same bits at
        // every pool size.
        let _rank = seqrec_obs::span!("eval.rank");
        let ranks: Vec<usize> = chunk
            .par_iter()
            .zip(scores.par_iter())
            .map(|(&u, s)| {
                assert_eq!(s.len(), catalog, "score vector must cover ids 0..=num_items");
                let goal = match target {
                    EvalTarget::Valid => split.valid_target(u),
                    EvalTarget::Test => split.test_target(u),
                };
                let exclude = split.user_items(u);
                rank_of_target(s, goal, &exclude)
            })
            .collect();
        for rank in ranks {
            acc.push(rank);
        }
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;

    /// Oracle scorer: always scores the user's true next item highest by
    /// cheating — it scores item `last + 1` highest (the test dataset is
    /// built so the next item is always `last + 1`).
    struct SuccessorOracle {
        num_items: usize,
    }

    impl SequenceScorer for SuccessorOracle {
        fn num_items(&self) -> usize {
            self.num_items
        }
        fn score_full_catalog(&self, _users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
            inputs
                .iter()
                .map(|seq| {
                    let mut s = vec![0.0f32; self.num_items + 1];
                    if let Some(&last) = seq.last() {
                        let next = (last as usize + 1).min(self.num_items);
                        s[next] = 10.0;
                    }
                    s
                })
                .collect()
        }
    }

    fn runs_dataset() -> Dataset {
        // users interact with consecutive runs: 1,2,3,4,5 etc.
        Dataset::new(vec![vec![1, 2, 3, 4, 5], vec![2, 3, 4, 5, 6], vec![3, 4, 5, 6, 7]], 50)
    }

    #[test]
    fn oracle_achieves_perfect_metrics() {
        let split = Split::leave_one_out(&runs_dataset());
        let model = SuccessorOracle { num_items: 50 };
        let m = evaluate(&model, &split, EvalTarget::Test, &EvalOptions::default());
        assert_eq!(m.users, 3);
        assert_eq!(m.hr_at(5), 1.0);
        assert_eq!(m.ndcg_at(5), 1.0);
        assert_eq!(m.mrr, 1.0);
        // validation target is the successor of the training prefix too
        let v = evaluate(&model, &split, EvalTarget::Valid, &EvalOptions::default());
        assert_eq!(v.hr_at(5), 1.0);
    }

    #[test]
    fn constant_scorer_is_penalised_by_pessimistic_ties() {
        struct Flat {
            num_items: usize,
        }
        impl SequenceScorer for Flat {
            fn num_items(&self) -> usize {
                self.num_items
            }
            fn score_full_catalog(&self, _users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
                inputs.iter().map(|_| vec![1.0; self.num_items + 1]).collect()
            }
        }
        let split = Split::leave_one_out(&runs_dataset());
        let m =
            evaluate(&Flat { num_items: 50 }, &split, EvalTarget::Test, &EvalOptions::default());
        // all candidates tie → the target ranks behind every other candidate
        assert_eq!(m.hr_at(20), 0.0);
    }

    #[test]
    fn user_subset_restricts_evaluation() {
        let split = Split::leave_one_out(&runs_dataset());
        let model = SuccessorOracle { num_items: 50 };
        let opts = EvalOptions { users: Some(vec![0]), ..Default::default() };
        let m = evaluate(&model, &split, EvalTarget::Test, &opts);
        assert_eq!(m.users, 1);
    }

    #[test]
    fn tiny_batches_give_identical_results() {
        let split = Split::leave_one_out(&runs_dataset());
        let model = SuccessorOracle { num_items: 50 };
        let small = EvalOptions { batch_size: 1, ..Default::default() };
        let big = EvalOptions { batch_size: 64, ..Default::default() };
        assert_eq!(
            evaluate(&model, &split, EvalTarget::Test, &small),
            evaluate(&model, &split, EvalTarget::Test, &big)
        );
    }
}
