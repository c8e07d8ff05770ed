//! Elementwise arithmetic, broadcasts, and reductions on the tape.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// `a + b`, identical shapes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).add(self.value(b));
        self.push(out, vec![a, b], Some(Box::new(|g: &Tensor| vec![g.clone(), g.clone()])))
    }

    /// `a - b`, identical shapes.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).sub(self.value(b));
        self.push(out, vec![a, b], Some(Box::new(|g: &Tensor| vec![g.clone(), g.scale(-1.0)])))
    }

    /// Elementwise `a * b`, identical shapes.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = av.mul(&bv);
        self.push(out, vec![a, b], Some(Box::new(move |g: &Tensor| vec![g.mul(&bv), g.mul(&av)])))
    }

    /// `a * c` for a compile-time constant scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let out = self.value(a).scale(c);
        self.push(out, vec![a], Some(Box::new(move |g: &Tensor| vec![g.scale(c)])))
    }

    /// Adds a constant tensor (no gradient flows to it). Shapes must match.
    pub fn add_const(&mut self, a: Var, c: &Tensor) -> Var {
        let out = self.value(a).add(c);
        self.push(out, vec![a], Some(Box::new(|g: &Tensor| vec![g.clone()])))
    }

    /// Multiplies by a constant tensor elementwise (no gradient flows to it).
    /// Shapes must match. Used for timeline / loss masks.
    pub fn mul_const(&mut self, a: Var, c: &Tensor) -> Var {
        let out = self.value(a).mul(c);
        let c = c.clone();
        self.push(out, vec![a], Some(Box::new(move |g: &Tensor| vec![g.mul(&c)])))
    }

    /// Broadcast-adds a `[T, d]` matrix to every batch of a `[B, T, d]`
    /// tensor (learnable positional embeddings). Gradient to the matrix is
    /// the sum over batches.
    pub fn add_broadcast_batch(&mut self, x: Var, m: Var) -> Var {
        let xv = self.value(x);
        let mv = self.value(m);
        assert_eq!(xv.shape().rank(), 3, "expected [B,T,d], got {}", xv.shape());
        assert_eq!(mv.shape().rank(), 2, "expected [T,d], got {}", mv.shape());
        let (b, t, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        assert_eq!(mv.shape().dims(), &[t, d], "positional shape mismatch");
        let stride = t * d;
        let mut out = Vec::with_capacity(xv.len());
        for batch in xv.data().chunks(stride) {
            out.extend(batch.iter().zip(mv.data()).map(|(&v, &p)| v + p));
        }
        self.push(
            Tensor::from_vec(xv.shape().clone(), out),
            vec![x, m],
            Some(Box::new(move |g: &Tensor| {
                let mut dm = vec![0.0f32; stride];
                for batch in g.data().chunks(stride).take(b) {
                    for (o, &v) in dm.iter_mut().zip(batch) {
                        *o += v;
                    }
                }
                vec![g.clone(), Tensor::from_vec([t, d], dm)]
            })),
        )
    }

    /// Sum of all elements, producing a scalar var.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let shape = xv.shape().clone();
        let out = Tensor::scalar(xv.sum());
        self.push(
            out,
            vec![x],
            Some(Box::new(move |g: &Tensor| vec![Tensor::full(shape.clone(), g.item())])),
        )
    }

    /// Mean of all elements, producing a scalar var.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let n = self.value(x).len();
        assert!(n > 0, "mean of empty tensor");
        let s = self.sum_all(x);
        self.scale(s, 1.0 / n as f32)
    }

    /// Row sums: `[N, d] -> [N]` (used to build dot products:
    /// `dot(a,b) = sum_rows(a ∘ b)`).
    pub fn sum_rows(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 2, "sum_rows expects rank 2, got {}", xv.shape());
        let (n, d) = (xv.shape().dim(0), xv.shape().dim(1));
        let data = xv
            .data()
            .chunks(d)
            .map(|row| row.iter().map(|&v| v as f64).sum::<f64>() as f32)
            .collect();
        self.push(
            Tensor::from_vec([n], data),
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = vec![0.0f32; n * d];
                for (row, &gv) in dx.chunks_mut(d).zip(g.data()) {
                    row.fill(gv);
                }
                vec![Tensor::from_vec([n, d], dx)]
            })),
        )
    }

    /// Masked mean of a vector: `Σ(x ∘ w) / Σw`. `w` is a constant weight
    /// vector (e.g. a 0/1 validity mask); no gradient flows to it.
    ///
    /// # Panics
    /// Panics if the weights sum to zero or shapes differ.
    pub fn masked_mean(&mut self, x: Var, w: &Tensor) -> Var {
        let total: f32 = w.sum();
        assert!(total > 0.0, "masked_mean weights sum to {total}");
        let weighted = self.mul_const(x, w);
        let s = self.sum_all(weighted);
        self.scale(s, 1.0 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn leaf(tape: &mut Tape, shape: impl Into<Shape>, data: Vec<f32>) -> Var {
        tape.leaf(Tensor::from_vec(shape, data))
    }

    #[test]
    fn add_backward_is_identity_both_sides() {
        let mut t = Tape::new();
        let a = leaf(&mut t, [2], vec![1.0, 2.0]);
        let b = leaf(&mut t, [2], vec![3.0, 4.0]);
        let c = t.add(a, b);
        let s = t.sum_all(c);
        let g = t.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.get(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward_swaps_operands() {
        let mut t = Tape::new();
        let a = leaf(&mut t, [2], vec![2.0, 3.0]);
        let b = leaf(&mut t, [2], vec![5.0, 7.0]);
        let c = t.mul(a, b);
        let s = t.sum_all(c);
        let g = t.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn positional_broadcast_sums_over_batch() {
        let mut t = Tape::new();
        let x = leaf(&mut t, [2, 2, 2], vec![0.0; 8]);
        let p = leaf(&mut t, [2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = t.add_broadcast_batch(x, p);
        assert_eq!(t.value(y).data()[..4], [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.value(y).data()[4..], [1.0, 2.0, 3.0, 4.0]);
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert_eq!(g.get(p).unwrap().data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn sum_rows_and_dot_product() {
        let mut t = Tape::new();
        let a = leaf(&mut t, [2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = leaf(&mut t, [2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let prod = t.mul(a, b);
        let dots = t.sum_rows(prod);
        assert_eq!(t.value(dots).data(), &[17.0, 53.0]);
        let s = t.sum_all(dots);
        let g = t.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn masked_mean_ignores_masked_entries() {
        let mut t = Tape::new();
        let x = leaf(&mut t, [4], vec![1.0, 100.0, 3.0, 100.0]);
        let w = Tensor::from_vec([4], vec![1.0, 0.0, 1.0, 0.0]);
        let m = t.masked_mean(x, &w);
        assert_eq!(t.value(m).item(), 2.0);
        let g = t.backward(m);
        assert_eq!(g.get(x).unwrap().data(), &[0.5, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn constants_receive_no_gradient_buffers() {
        let mut t = Tape::new();
        let x = leaf(&mut t, [2], vec![1.0, 2.0]);
        let c = Tensor::from_vec([2], vec![10.0, 20.0]);
        let y = t.add_const(x, &c);
        let z = t.mul_const(y, &c);
        assert_eq!(t.value(z).data(), &[110.0, 440.0]);
        let s = t.sum_all(z);
        let g = t.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[10.0, 20.0]);
    }

    #[test]
    fn mean_all_divides_gradient() {
        let mut t = Tape::new();
        let x = leaf(&mut t, [4], vec![1.0, 2.0, 3.0, 4.0]);
        let m = t.mean_all(x);
        assert_eq!(t.value(m).item(), 2.5);
        let g = t.backward(m);
        assert_eq!(g.get(x).unwrap().data(), &[0.25; 4]);
    }
}
