//! Fused loss ops.

use crate::ops::softmax::softmax_rows;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Softmax cross-entropy with integer targets, fused for stability and a
    /// cheap backward: given logits `[N, C]` and `targets[i] ∈ 0..C`,
    /// produces per-row losses `[N]` where
    /// `loss_i = -log softmax(logits_i)[targets_i]`.
    ///
    /// Backward is the classic `softmax - onehot`, scaled by the incoming
    /// per-row gradient. This op is the core of the NT-Xent contrastive loss
    /// (the paper's Eq. 3 is exactly a softmax cross-entropy over
    /// similarities).
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.shape().rank(), 2, "logits must be [N,C], got {}", lv.shape());
        let (n, c) = (lv.shape().dim(0), lv.shape().dim(1));
        assert_eq!(n, targets.len(), "{n} rows vs {} targets", targets.len());
        assert!(targets.iter().all(|&t| (t as usize) < c), "target class out of range 0..{c}");

        // Probabilities are saved for the backward pass.
        let mut probs = vec![0.0f32; n * c];
        softmax_rows(lv.data(), c, &mut probs);
        let probs = Tensor::from_vec([n, c], probs);
        let losses: Vec<f32> = probs
            .data()
            .chunks(c)
            .zip(targets)
            .map(|(row, &t)| -(row[t as usize].max(1e-30)).ln())
            .collect();
        let targets: Vec<u32> = targets.to_vec();
        self.push(
            Tensor::from_vec([n], losses),
            vec![logits],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = probs.clone();
                for ((row, &t), &gv) in dx.data_mut().chunks_mut(c).zip(&targets).zip(g.data()) {
                    row[t as usize] -= 1.0;
                    for v in row.iter_mut() {
                        *v *= gv;
                    }
                }
                vec![dx]
            })),
        )
    }

    /// Binary cross-entropy on a positive and a negative logit
    /// (the paper's Eq. 15): per element,
    /// `loss = -log σ(pos) - log(1 - σ(neg)) = softplus(-pos) + softplus(neg)`.
    /// `pos` and `neg` must have identical shapes; the result keeps that
    /// shape so a validity mask can be applied before reduction.
    pub fn bce_pairwise(&mut self, pos: Var, neg: Var) -> Var {
        let p = self.scale(pos, -1.0);
        let lp = self.softplus(p);
        let ln = self.softplus(neg);
        self.add(lp, ln)
    }

    /// BPR loss: `-log σ(pos - neg) = softplus(neg - pos)` elementwise.
    pub fn bpr(&mut self, pos: Var, neg: Var) -> Var {
        let diff = self.sub(neg, pos);
        self.softplus(diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_c() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::zeros([2, 4]));
        let l = t.softmax_cross_entropy(logits, &[0, 3]);
        for &v in t.value(l).data() {
            assert!((v - 4.0f32.ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_is_small_when_target_dominates() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::from_vec([1, 3], vec![10.0, 0.0, 0.0]));
        let l = t.softmax_cross_entropy(logits, &[0]);
        assert!(t.value(l).item() < 1e-3);
    }

    #[test]
    fn cross_entropy_backward_is_probs_minus_onehot() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::from_vec([1, 2], vec![1.0, -1.0]));
        let l = t.softmax_cross_entropy(logits, &[1]);
        let s = t.sum_all(l);
        let g = t.backward(s);
        let p0 = (1.0f32).exp() / ((1.0f32).exp() + (-1.0f32).exp());
        let dx = g.get(logits).unwrap();
        assert!((dx.at(0) - p0).abs() < 1e-5);
        assert!((dx.at(1) - (1.0 - p0 - 1.0)).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::from_vec([2, 3], vec![0.5, -0.2, 1.0, 2.0, 0.0, -1.0]));
        let l = t.softmax_cross_entropy(logits, &[2, 0]);
        let s = t.sum_all(l);
        let g = t.backward(s);
        for row in g.get(logits).unwrap().data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!(sum.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn cross_entropy_rejects_bad_targets() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::zeros([1, 2]));
        t.softmax_cross_entropy(logits, &[2]);
    }

    #[test]
    fn bce_pairwise_matches_definition() {
        let mut t = Tape::new();
        let pos = t.leaf(Tensor::from_vec([1], vec![2.0]));
        let neg = t.leaf(Tensor::from_vec([1], vec![-1.0]));
        let l = t.bce_pairwise(pos, neg);
        let expected = -(sigmoid(2.0)).ln() - (1.0 - sigmoid(-1.0)).ln();
        assert!((t.value(l).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn bce_decreases_when_scores_separate() {
        let mut t = Tape::new();
        let good_p = t.leaf(Tensor::from_vec([1], vec![5.0]));
        let good_n = t.leaf(Tensor::from_vec([1], vec![-5.0]));
        let bad_p = t.leaf(Tensor::from_vec([1], vec![-5.0]));
        let bad_n = t.leaf(Tensor::from_vec([1], vec![5.0]));
        let good = t.bce_pairwise(good_p, good_n);
        let bad = t.bce_pairwise(bad_p, bad_n);
        assert!(t.value(good).item() < t.value(bad).item());
    }

    #[test]
    fn bpr_prefers_positive_above_negative() {
        let mut t = Tape::new();
        let pos = t.leaf(Tensor::from_vec([1], vec![3.0]));
        let neg = t.leaf(Tensor::from_vec([1], vec![1.0]));
        let l = t.bpr(pos, neg);
        let expected = -sigmoid(2.0).ln();
        assert!((t.value(l).item() - expected).abs() < 1e-5);
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
}
