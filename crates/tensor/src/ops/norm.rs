//! Normalisation ops: LayerNorm, row L2-normalisation, dropout.

use super::reduce_rows;
use crate::init::TensorRng;
use crate::tape::{Tape, Var};
use crate::tensor::{Buf, Tensor};
use rand::Rng;
use rayon::prelude::*;

/// Mask elements one [`Tape::dropout`] work unit draws. Each chunk seeks its
/// own rng clone to its first element's word, so this length sets how the
/// draw is split across the pool, never a drawn bit.
pub const DROPOUT_CHUNK: usize = 8 * 1024;

/// Uniforms a dropout chunk draws before it applies them. Drawing a run
/// first keeps the rng's buffer bookkeeping out of the select loop, which
/// then vectorises; one fused draw-and-select loop took about twice as long
/// per element.
const DRAW_RUN: usize = 64;

impl Tape {
    /// LayerNorm over the last dimension, one node:
    /// `y = ((x - μ)·σ⁻¹)·γ + β` per row, `σ = sqrt(var + eps)`, with gain
    /// `γ` and shift `β` shaped `[d]`. The node keeps its output, the
    /// normalised rows `n = (x - μ)·σ⁻¹` and one `σ⁻¹` per row for the
    /// backward.
    ///
    /// Backward (per row, `g' = g∘γ`):
    /// `dx = (g' - mean(g') - n·mean(g'∘n))·σ⁻¹`, `dγ = Σ_rows g∘n`,
    /// `dβ = Σ_rows g`.
    pub fn layernorm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let gain = self.value(gamma).clone();
        let shift = self.value(beta);
        let d = xv.shape().last_dim();
        assert!(d > 0, "layernorm over empty dimension");
        assert_eq!(gain.shape().dims(), &[d], "layernorm gain {} for rows of {d}", gain.shape());
        assert_eq!(shift.shape().dims(), &[d], "layernorm shift {} for rows of {d}", shift.shape());
        let mut normed = Vec::with_capacity(xv.len());
        let mut out = Vec::with_capacity(xv.len());
        let mut inv_sigmas = Vec::with_capacity(xv.shape().rows());
        for row in xv.data().chunks(d) {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_sigma = 1.0 / (var + eps).sqrt();
            inv_sigmas.push(inv_sigma);
            let start = normed.len();
            normed.extend(row.iter().map(|&v| (v - mean) * inv_sigma));
            let affine = normed[start..].iter().zip(gain.data()).zip(shift.data());
            out.extend(affine.map(|((&n, &g), &b)| n * g + b));
        }
        let shape = xv.shape().clone();
        let normed = Tensor::from_vec(shape.clone(), normed);
        self.push(
            Tensor::from_vec(shape.clone(), out),
            vec![x, gamma, beta],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = Vec::with_capacity(g.len());
                let mut dgamma = vec![0.0f32; d];
                let rows = g.data().chunks(d).zip(normed.data().chunks(d)).zip(&inv_sigmas);
                for ((grow, nrow), &inv_sigma) in rows {
                    for ((dg, &gi), &ni) in dgamma.iter_mut().zip(grow).zip(nrow) {
                        *dg += gi * ni;
                    }
                    let start = dx.len();
                    dx.extend(grow.iter().zip(gain.data()).map(|(&gi, &m)| gi * m));
                    let drow = &mut dx[start..];
                    let gmean = drow.iter().sum::<f32>() / d as f32;
                    let gnmean =
                        drow.iter().zip(nrow).map(|(&gi, &ni)| gi * ni).sum::<f32>() / d as f32;
                    for (gi, &ni) in drow.iter_mut().zip(nrow) {
                        *gi = (*gi - gmean - ni * gnmean) * inv_sigma;
                    }
                }
                let dgamma = Tensor::from_vec([d], dgamma);
                vec![Tensor::from_vec(shape.clone(), dx), dgamma, reduce_rows(g, d)]
            })),
        )
    }

    /// L2-normalises each length-`d` row: `y = x / max(‖x‖, eps)`. Used to
    /// turn projected views into unit vectors so the NT-Xent similarity is a
    /// cosine (Eq. 3 of the paper).
    ///
    /// Backward: `dx = (g - y (y·g)) / ‖x‖`.
    pub fn normalize_rows(&mut self, x: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last_dim();
        let mut out = Vec::with_capacity(xv.len());
        let mut inv_norms = Vec::with_capacity(xv.shape().rows());
        for row in xv.data().chunks(d) {
            let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps);
            let inv = 1.0 / norm;
            inv_norms.push(inv);
            out.extend(row.iter().map(|&v| v * inv));
        }
        let out = Tensor::from_vec(xv.shape().clone(), out);
        let y = out.clone();
        self.push(
            out,
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = g.clone();
                for ((grow, yrow), &inv) in
                    dx.data_mut().chunks_mut(d).zip(y.data().chunks(d)).zip(&inv_norms)
                {
                    let dot: f32 = grow.iter().zip(yrow).map(|(&gv, &yv)| gv * yv).sum();
                    for (gv, &yv) in grow.iter_mut().zip(yrow) {
                        *gv = (*gv - yv * dot) * inv;
                    }
                }
                vec![dx]
            })),
        )
    }

    /// Inverted dropout: during training each element is zeroed with
    /// probability `p` and survivors are scaled by `1/(1-p)` so the expected
    /// activation is unchanged; at inference (`training == false`) it is the
    /// identity.
    ///
    /// Element `i` survives iff word `i` past the rng's current position,
    /// read as `rng.gen::<f32>()`, is below `1 - p`. ChaCha is counter-mode,
    /// so the mask is drawn in [`DROPOUT_CHUNK`]-element chunks on the pool,
    /// each from a clone of `rng` seeked to its chunk's first word, and `rng`
    /// then moves past the `n` words drawn. Output, gradient and the rng's
    /// next draw are those of one serial pass at any pool size. The keep
    /// mask is stored as one byte per element.
    pub fn dropout(&mut self, x: Var, p: f32, training: bool, rng: &mut TensorRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout rate {p} outside [0, 1)");
        if !training || p == 0.0 {
            // Identity node keeps the graph uniform between modes.
            let out = self.value(x).clone();
            return self.push(out, vec![x], Some(Box::new(|g: &Tensor| vec![g.clone()])));
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let xv = self.value(x);
        let n = xv.len();
        let base = rng.get_word_pos();
        let mut out = vec![0.0f32; n];
        let mut kept = vec![0u8; n];
        let stream: &TensorRng = rng;
        out.par_chunks_mut(DROPOUT_CHUNK)
            .zip(kept.par_chunks_mut(DROPOUT_CHUNK))
            .enumerate()
            .for_each(|(c, (out, kept))| {
                let start = c * DROPOUT_CHUNK;
                let x = &xv.data()[start..start + out.len()];
                dropout_draw(stream, base + start as u128, keep, x, out, kept);
            });
        rng.set_word_pos(base + n as u128);
        let out = Tensor::from_vec(xv.shape().clone(), out);
        let kept = Buf::new(kept);
        self.push(
            out,
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let dx = g.data().iter().zip(kept.iter());
                let dx = dx.map(|(&g, &k)| g * if k != 0 { scale } else { 0.0 }).collect();
                vec![Tensor::from_vec(g.shape().clone(), dx)]
            })),
        )
    }
}

/// Draws the dropout keep mask of `x` from words `word0..word0 + x.len()`
/// of `stream` (on a clone seeked to `word0`): element `i` survives iff its
/// word, read as `gen::<f32>()`, is below `keep`. Writes `x * (1/keep)` or
/// `x * 0.0` into `out` and the keep byte into `kept`. [`Tape::dropout`]
/// and [`Tape::attention`] draw every mask through this one function.
pub(crate) fn dropout_draw(
    stream: &TensorRng,
    word0: u128,
    keep: f32,
    x: &[f32],
    out: &mut [f32],
    kept: &mut [u8],
) {
    let scale = 1.0 / keep;
    let mut r = stream.clone();
    r.set_word_pos(word0);
    let mut draws = [0.0f32; DRAW_RUN];
    let runs = out.chunks_mut(DRAW_RUN).zip(kept.chunks_mut(DRAW_RUN));
    for ((out, kept), x) in runs.zip(x.chunks(DRAW_RUN)) {
        let draws = &mut draws[..out.len()];
        draws.iter_mut().for_each(|u| *u = r.gen::<f32>());
        for (((o, k), &v), &u) in out.iter_mut().zip(kept).zip(x).zip(&*draws) {
            let survives = u < keep;
            *k = u8::from(survives);
            *o = v * if survives { scale } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    /// A `[d]` gain/shift leaf pair for the layernorm tests.
    fn affine(t: &mut Tape, gain: Vec<f32>, shift: Vec<f32>) -> (Var, Var) {
        let d = gain.len();
        (t.leaf(Tensor::from_vec([d], gain)), t.leaf(Tensor::from_vec([d], shift)))
    }

    #[test]
    fn layernorm_rows_have_zero_mean_unit_var() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 4], vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0]));
        let (g, b) = affine(&mut t, vec![1.0; 4], vec![0.0; 4]);
        let y = t.layernorm(x, g, b, 1e-8);
        for row in t.value(y).data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_gain_and_shift_apply_per_column() {
        let mut t = Tape::new();
        // Rows normalise to (-1, 1) and (1, -1).
        let x = t.leaf(Tensor::from_vec([2, 2], vec![-1.0, 1.0, 3.0, 1.0]));
        let (g, b) = affine(&mut t, vec![10.0, 100.0], vec![1.0, 2.0]);
        let y = t.layernorm(x, g, b, 0.0);
        assert_eq!(t.value(y).data(), &[-9.0, 102.0, 11.0, -98.0]);
        let s = t.sum_all(y);
        let grads = t.backward(s);
        // dγ sums the normalised columns, dβ counts the rows.
        assert_eq!(grads.get(g).unwrap().data(), &[0.0, 0.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn layernorm_gradient_is_orthogonal_to_shifts() {
        // y is invariant to adding a constant to x, so the gradient must sum
        // to ~0 per row, whatever the gain.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([1, 3], vec![0.2, -1.0, 2.2]));
        let (g, b) = affine(&mut t, vec![0.5, 2.0, -1.5], vec![0.1, 0.2, 0.3]);
        let y = t.layernorm(x, g, b, 1e-8);
        let w = Tensor::from_vec([1, 3], vec![3.0, -1.0, 2.0]);
        let l = t.mul_const(y, &w);
        let s = t.sum_all(l);
        let grads = t.backward(s);
        let sum: f32 = grads.get(x).unwrap().data().iter().sum();
        assert!(sum.abs() < 1e-5, "gradient sum {sum}");
    }

    #[test]
    fn normalized_rows_are_unit_length() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 3], vec![3.0, 0.0, 4.0, 1.0, 1.0, 1.0]));
        let y = t.normalize_rows(x, 1e-12);
        for row in t.value(y).data().chunks(3) {
            let n: f32 = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn normalize_gradient_is_tangent() {
        // y has constant norm, so dL/dx must be orthogonal to y... projected
        // through 1/‖x‖; check y·dx ≈ 0.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([1, 3], vec![1.0, 2.0, -0.5]));
        let y = t.normalize_rows(x, 1e-12);
        let w = Tensor::from_vec([1, 3], vec![0.3, -1.2, 0.9]);
        let l = t.mul_const(y, &w);
        let s = t.sum_all(l);
        let g = t.backward(s);
        let yv = t.value(y).data().to_vec();
        let dot: f32 = yv.iter().zip(g.get(x).unwrap().data()).map(|(a, b)| a * b).sum();
        assert!(dot.abs() < 1e-5, "y·dx = {dot}");
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut r = rng(30);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]));
        let y = t.dropout(x, 0.5, false, &mut r);
        assert_eq!(t.value(y).data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dropout_training_zeroes_and_rescales() {
        let mut r = rng(31);
        let mut t = Tape::new();
        let n = 10_000;
        let x = t.leaf(Tensor::ones([n]));
        let y = t.dropout(x, 0.25, true, &mut r);
        let v = t.value(y);
        let zeros = v.data().iter().filter(|&&e| e == 0.0).count();
        let frac = zeros as f32 / n as f32;
        assert!((frac - 0.25).abs() < 0.02, "zero fraction {frac}");
        // survivors are scaled by 4/3
        let survivor = v.data().iter().find(|&&e| e != 0.0).unwrap();
        assert!((survivor - 4.0 / 3.0).abs() < 1e-6);
        // expectation preserved
        assert!((v.mean() - 1.0).abs() < 0.03);
    }

    #[test]
    fn dropout_gradient_uses_same_mask() {
        let mut r = rng(32);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::ones([64]));
        let y = t.dropout(x, 0.5, true, &mut r);
        let s = t.sum_all(y);
        let fwd = t.value(y).data().to_vec();
        let g = t.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &fwd[..]);
    }
}
