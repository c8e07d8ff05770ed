//! Ranking metrics: HR@k, NDCG@k, MRR.
//!
//! Following §4.1.2 of the paper, evaluation ranks the target against the
//! **whole** item catalog (no sampled metrics — Krichene & Rendle show
//! sampling distorts comparisons), excluding items the user has already
//! interacted with.

use serde::{Deserialize, Serialize};

/// Rank cut-offs reported by the paper.
pub const PAPER_KS: [usize; 3] = [5, 10, 20];

/// Computes the 0-based rank of `target` among all non-excluded items.
///
/// `scores[i]` is the model score of item id `i` (index 0 is the pad id and
/// is always ignored). Items in `exclude` are skipped (the target itself is
/// never excluded even if listed). Ties count as ranked above the target
/// (pessimistic, so metrics never benefit from degenerate constant scores).
pub fn rank_of_target(scores: &[f32], target: u32, exclude: &[u32]) -> usize {
    let t = target as usize;
    assert!(t >= 1 && t < scores.len(), "target {t} outside catalog 1..{}", scores.len());
    let target_score = scores[t];
    let mut excluded = vec![false; scores.len()];
    for &e in exclude {
        if (e as usize) < excluded.len() {
            excluded[e as usize] = true;
        }
    }
    excluded[t] = false;
    let mut rank = 0usize;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if i == t || excluded[i] {
            continue;
        }
        if s >= target_score {
            rank += 1;
        }
    }
    rank
}

/// Aggregated ranking metrics over a user population.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RankingMetrics {
    /// Cut-offs, parallel with `hr` and `ndcg`.
    pub ks: Vec<usize>,
    /// Hit ratio at each cut-off.
    pub hr: Vec<f64>,
    /// Normalised DCG at each cut-off.
    pub ndcg: Vec<f64>,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Number of evaluated users.
    pub users: usize,
}

impl RankingMetrics {
    /// HR at cut-off `k`.
    ///
    /// # Panics
    /// Panics if `k` was not accumulated.
    pub fn hr_at(&self, k: usize) -> f64 {
        self.hr[self.index(k)]
    }

    /// NDCG at cut-off `k`.
    ///
    /// # Panics
    /// Panics if `k` was not accumulated.
    pub fn ndcg_at(&self, k: usize) -> f64 {
        self.ndcg[self.index(k)]
    }

    fn index(&self, k: usize) -> usize {
        self.ks
            .iter()
            .position(|&kk| kk == k)
            .unwrap_or_else(|| panic!("cut-off {k} not tracked (have {:?})", self.ks))
    }
}

/// Streaming accumulator: feed one rank per user, then [`finish`].
///
/// [`finish`]: MetricsAccumulator::finish
#[derive(Clone, Debug)]
pub struct MetricsAccumulator {
    ks: Vec<usize>,
    hits: Vec<u64>,
    ndcg: Vec<f64>,
    mrr: f64,
    users: usize,
}

impl MetricsAccumulator {
    /// Accumulator for the given cut-offs.
    pub fn new(ks: &[usize]) -> Self {
        MetricsAccumulator {
            ks: ks.to_vec(),
            hits: vec![0; ks.len()],
            ndcg: vec![0.0; ks.len()],
            mrr: 0.0,
            users: 0,
        }
    }

    /// Accumulator with the paper's cut-offs (5, 10, 20).
    pub fn paper() -> Self {
        Self::new(&PAPER_KS)
    }

    /// Adds one user's 0-based target rank.
    pub fn push(&mut self, rank: usize) {
        self.users += 1;
        self.mrr += 1.0 / (rank + 1) as f64;
        for (i, &k) in self.ks.iter().enumerate() {
            if rank < k {
                self.hits[i] += 1;
                self.ndcg[i] += 1.0 / ((rank + 2) as f64).log2();
            }
        }
    }

    /// Finalises into averages.
    pub fn finish(&self) -> RankingMetrics {
        let n = self.users.max(1) as f64;
        RankingMetrics {
            ks: self.ks.clone(),
            hr: self.hits.iter().map(|&h| h as f64 / n).collect(),
            ndcg: self.ndcg.iter().map(|&d| d / n).collect(),
            mrr: self.mrr / n,
            users: self.users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_strictly_better_and_ties() {
        //            pad   1    2    3    4
        let scores = [0.0, 0.5, 0.9, 0.5, 0.1];
        // target 1 (0.5): item 2 is better, item 3 ties (pessimistic) → 2
        assert_eq!(rank_of_target(&scores, 1, &[]), 2);
        // target 2 is the best → rank 0
        assert_eq!(rank_of_target(&scores, 2, &[]), 0);
        // excluding item 2 improves target 1's rank to 1 (tie with 3)
        assert_eq!(rank_of_target(&scores, 1, &[2]), 1);
    }

    #[test]
    fn target_is_never_self_excluded() {
        let scores = [0.0, 1.0, 0.0];
        assert_eq!(rank_of_target(&scores, 1, &[1]), 0);
    }

    #[test]
    fn pad_id_is_ignored() {
        let scores = [99.0, 0.5, 0.1];
        assert_eq!(rank_of_target(&scores, 1, &[]), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_catalog_target() {
        rank_of_target(&[0.0, 1.0], 5, &[]);
    }

    #[test]
    fn hr_and_ndcg_definitions() {
        let mut acc = MetricsAccumulator::new(&[1, 2]);
        acc.push(0); // hit@1 and @2, ndcg contribution 1.0
        acc.push(1); // hit@2 only, ndcg 1/log2(3)
        acc.push(5); // miss
        let m = acc.finish();
        assert_eq!(m.users, 3);
        assert!((m.hr_at(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.hr_at(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.ndcg_at(1) - 1.0 / 3.0).abs() < 1e-12);
        let expected_ndcg2 = (1.0 + 1.0 / 3f64.log2()) / 3.0;
        assert!((m.ndcg_at(2) - expected_ndcg2).abs() < 1e-12);
        let expected_mrr = (1.0 + 0.5 + 1.0 / 6.0) / 3.0;
        assert!((m.mrr - expected_mrr).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_worst_cases() {
        let mut perfect = MetricsAccumulator::paper();
        perfect.push(0);
        let m = perfect.finish();
        assert_eq!(m.hr_at(5), 1.0);
        assert_eq!(m.ndcg_at(5), 1.0);
        assert_eq!(m.mrr, 1.0);

        let mut worst = MetricsAccumulator::paper();
        worst.push(10_000);
        let w = worst.finish();
        assert_eq!(w.hr_at(20), 0.0);
        assert_eq!(w.ndcg_at(20), 0.0);
    }

    #[test]
    fn empty_accumulator_finishes_to_zeroes() {
        let m = MetricsAccumulator::paper().finish();
        assert_eq!(m.users, 0);
        assert_eq!(m.hr_at(5), 0.0);
    }
}
