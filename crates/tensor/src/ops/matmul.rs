//! Matrix products, the fused linear layer, and shape plumbing on the tape.
//!
//! Backward passes use the transposed kernels from [`crate::linalg`]
//! directly, never materialising a transposed tensor:
//!
//! * `C = A·B`  ⇒ `dA = dC·Bᵀ`, `dB = Aᵀ·dC`
//! * `C = A·Bᵀ` ⇒ `dA = dC·B`,  `dB = dCᵀ·A`

use super::reduce_rows;
use crate::linalg;
use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// 2-D product against a transposed right operand:
    /// `[m,k]·([n,k])ᵀ -> [m,n]`. This is the scoring kernel
    /// (`user_repr · item_embeddingᵀ`).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = linalg::matmul_nt(&av, &bv);
        self.push(
            out,
            vec![a, b],
            Some(Box::new(move |g: &Tensor| {
                vec![linalg::matmul_nn(g, &bv), linalg::matmul_tn(g, &av)]
            })),
        )
    }

    /// Reinterprets the value under a new shape (same element count); the
    /// gradient is reshaped back. Free: storage is shared.
    pub fn reshape(&mut self, x: Var, shape: impl Into<Shape>) -> Var {
        let shape = shape.into();
        let old = self.value(x).shape().clone();
        let out = self.value(x).reshape(shape);
        self.push(out, vec![x], Some(Box::new(move |g: &Tensor| vec![g.reshape(old.clone())])))
    }

    /// Fully-connected layer over the trailing dimension, one node:
    /// `x·W (+ b)` for `x` shaped `[..., d_in]`, `W` `[d_in, d_out]` and an
    /// optional bias `b` `[d_out]`; leading dims are flattened into GEMM
    /// rows. The GEMM writes a fresh buffer and the bias is added in place
    /// on it, so the node keeps one output tensor.
    ///
    /// Backward: `dx = g·Wᵀ`, `dW = xᵀ·g`, `db = Σ_rows g`.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let xv = self.value(x).clone();
        let wv = self.value(w).clone();
        let xs = xv.shape().clone();
        let (rows, d_in) = (xs.rows(), xs.last_dim());
        assert_eq!(wv.shape().rank(), 2, "linear weight must be rank 2, got {}", wv.shape());
        assert_eq!(wv.shape().dim(0), d_in, "linear weight {} does not take {xs}", wv.shape());
        let d_out = wv.shape().dim(1);
        let xflat = xv.reshape([rows, d_in]);
        let mut y = linalg::matmul_nn(&xflat, &wv);
        if let Some(b) = b {
            let bv = self.value(b);
            assert_eq!(bv.shape().dims(), &[d_out], "linear bias {} for d_out {d_out}", bv.shape());
            for row in y.data_mut().chunks_mut(d_out) {
                for (o, &bias) in row.iter_mut().zip(bv.data()) {
                    *o += bias;
                }
            }
        }
        let mut dims = xs.dims().to_vec();
        *dims.last_mut().expect("rank >= 1") = d_out;
        let mut parents = vec![x, w];
        parents.extend(b);
        self.push(
            y.reshape(dims),
            parents,
            Some(Box::new(move |g: &Tensor| {
                let gflat = g.reshape([rows, d_out]);
                let mut grads = vec![
                    linalg::matmul_nt(&gflat, &wv).reshape(xs.clone()),
                    linalg::matmul_tn(&xflat, &gflat),
                ];
                if b.is_some() {
                    grads.push(reduce_rows(g, d_out));
                }
                grads
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};

    #[test]
    fn nt_variant_agrees_with_explicit_transpose() {
        let mut r = rng(22);
        let a = uniform([3, 4], -1.0, 1.0, &mut r);
        let b = uniform([5, 4], -1.0, 1.0, &mut r);
        let mut t = Tape::new();
        let (va, vb) = (t.leaf(a.clone()), t.leaf(b.clone()));
        let c = t.matmul_nt(va, vb);
        assert!(t.value(c).max_diff(&linalg::matmul_nn(&a, &b.transpose2())) < 1e-6);
    }

    #[test]
    fn reshape_roundtrips_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 3], vec![1.0; 6]));
        let y = t.reshape(x, [3, 2]);
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert_eq!(g.get(x).unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn linear_is_one_node_with_in_place_bias() {
        let mut r = rng(24);
        let x = uniform([2, 3, 4], -1.0, 1.0, &mut r);
        let w = uniform([4, 5], -1.0, 1.0, &mut r);
        let b = uniform([5], -1.0, 1.0, &mut r);
        let mut t = Tape::new();
        let (vx, vw, vb) = (t.leaf(x.clone()), t.leaf(w.clone()), t.leaf(b.clone()));
        let y = t.linear(vx, vw, Some(vb));
        assert_eq!(t.len(), 4, "three leaves and one linear node");
        assert_eq!(t.value(y).shape().dims(), &[2, 3, 5]);
        let mut want = linalg::matmul_nn(&x.reshape([6, 4]), &w);
        for row in want.data_mut().chunks_mut(5) {
            for (o, &bias) in row.iter_mut().zip(b.data()) {
                *o += bias;
            }
        }
        assert_eq!(t.value(y).data(), want.data());
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert_eq!(g.get(vx).unwrap().shape().dims(), &[2, 3, 4]);
        assert_eq!(g.get(vw).unwrap().shape().dims(), &[4, 5]);
        // dL/dy = ones, so the bias gradient counts the six rows.
        assert_eq!(g.get(vb).unwrap().data(), &[6.0; 5]);
    }

    #[test]
    fn linear_without_bias_has_two_parents() {
        let mut r = rng(25);
        let x = uniform([3, 4], -1.0, 1.0, &mut r);
        let w = uniform([4, 2], -1.0, 1.0, &mut r);
        let mut t = Tape::new();
        let (vx, vw) = (t.leaf(x.clone()), t.leaf(w.clone()));
        let y = t.linear(vx, vw, None);
        assert_eq!(t.value(y), &linalg::matmul_nn(&x, &w));
        let s = t.sum_all(y);
        let g = t.backward(s);
        let ones = Tensor::ones([3, 2]);
        assert_eq!(g.get(vx).unwrap(), &linalg::matmul_nt(&ones, &w));
        assert_eq!(g.get(vw).unwrap(), &linalg::matmul_tn(&x, &ones));
    }
}
