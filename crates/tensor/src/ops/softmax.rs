//! Softmax over the trailing dimension.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Row-wise softmax over the last dimension, with the classic
    /// max-subtraction trick so fully-masked rows (all `-1e9`) stay finite
    /// (they come out uniform, which is harmless for padded positions).
    ///
    /// Backward: `dx = y ∘ (g - Σ_row(g ∘ y))`.
    pub fn softmax(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last_dim();
        assert!(d > 0, "softmax over empty dimension");
        let out = Tensor::from_vec(xv.shape().clone(), softmax_rows(xv.data(), d));
        let y = out.clone();
        self.push(
            out,
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = g.mul(&y);
                for (drow, yrow) in dx.data_mut().chunks_mut(d).zip(y.data().chunks(d)) {
                    let dot: f32 = drow.iter().sum();
                    for (dv, &yv) in drow.iter_mut().zip(yrow) {
                        *dv -= dot * yv;
                    }
                }
                vec![dx]
            })),
        )
    }
}

/// Stable softmax of every length-`d` row of `x`, written in one pass from
/// the input: `exp(x - max)` per row, then scaled by the row's `1/Σ`.
pub(crate) fn softmax_rows(x: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let start = out.len();
        out.extend(row.iter().map(|&v| {
            let e = (v - max).exp();
            sum += e;
            e
        }));
        let inv = 1.0 / sum;
        for v in &mut out[start..] {
            *v *= inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = t.softmax(x);
        let v = t.value(y);
        let s0: f32 = v.data()[..3].iter().sum();
        let s1: f32 = v.data()[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
        // monotone within the row
        assert!(v.at2(0, 0) < v.at2(0, 1) && v.at2(0, 1) < v.at2(0, 2));
    }

    #[test]
    fn fully_masked_row_is_uniform_and_finite() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([1, 4], vec![-1e9; 4]));
        let y = t.softmax(x);
        let v = t.value(y);
        assert!(v.is_finite());
        for i in 0..4 {
            assert!((v.at2(0, i) - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        // softmax output is scale-invariant to a constant shift, so the
        // gradient of any loss w.r.t. the logits must sum to 0 per row.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([1, 3], vec![0.3, -0.7, 1.1]));
        let y = t.softmax(x);
        // arbitrary non-uniform loss: weighted sum
        let w = Tensor::from_vec([1, 3], vec![1.0, 5.0, -2.0]);
        let l = t.mul_const(y, &w);
        let s = t.sum_all(l);
        let g = t.backward(s);
        let gsum: f32 = g.get(x).unwrap().data().iter().sum();
        assert!(gsum.abs() < 1e-6, "row gradient sum {gsum}");
    }

    #[test]
    fn translation_invariance() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]));
        let b = t.leaf(Tensor::from_vec([1, 3], vec![101.0, 102.0, 103.0]));
        let ya = t.softmax(a);
        let yb = t.softmax(b);
        assert!(t.value(ya).max_diff(t.value(yb)) < 1e-6);
    }
}
