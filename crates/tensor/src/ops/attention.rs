//! Multi-head scaled dot-product attention as one tape node (Eq. 9–10 of
//! the paper).
//!
//! [`Tape::attention`] maps the `[B, Tq, d]` query and `[B, T, d]` key and
//! value projections to the merged `[B, Tq, d]` context. It runs one
//! sequence per pool task; for each head the task copies that head's
//! columns of Q, K and V into task scratch and calls the per-slice GEMM
//! kernels `linalg::{nt,nn,tn}_into` on `[Tq, dh]` and `[T, dh]` slices,
//! with the scale, mask, softmax and dropout in between. A task writes only
//! its own sequence's rows and draws its dropout words from the caller's
//! stream seeked to them, so the output, the gradients and the rng position
//! do not depend on the pool size.
//!
//! The node keeps the softmax output and one dropout keep byte per weight;
//! the backward rebuilds the dropped weights from those two and copies the
//! Q/K/V head slices out of the parents' values again.

use rayon::prelude::*;

use super::norm::dropout_draw;
use super::softmax::softmax_rows;
use crate::init::TensorRng;
use crate::linalg::{nn_into, nt_into, tn_into};
use crate::tape::{Tape, Var};
use crate::tensor::{Buf, Tensor};

/// The per-sequence shapes of one attention call: `tq` query rows, `t`
/// key/value rows, model width `d` cut into `h` heads of width `dh`, and
/// the score scale `c = 1/√dh`.
#[derive(Clone, Copy)]
struct Heads {
    tq: usize,
    t: usize,
    d: usize,
    h: usize,
    dh: usize,
    c: f32,
}

impl Heads {
    /// Elements of one head's `[Tq, T]` weight slice.
    fn slice(self) -> usize {
        self.tq * self.t
    }

    /// Copies head `i`'s columns of the `[rows, d]` block `src` into the
    /// contiguous `[rows, dh]` slice `dst`.
    fn gather(self, src: &[f32], i: usize, dst: &mut [f32]) {
        let cols = i * self.dh..(i + 1) * self.dh;
        for (row, out) in src.chunks(self.d).zip(dst.chunks_mut(self.dh)) {
            out.copy_from_slice(&row[cols.clone()]);
        }
    }

    /// Writes the `[rows, dh]` slice `src` into head `i`'s columns of the
    /// `[rows, d]` block `dst`.
    fn scatter(self, src: &[f32], i: usize, dst: &mut [f32]) {
        let cols = i * self.dh..(i + 1) * self.dh;
        for (row, out) in src.chunks(self.dh).zip(dst.chunks_mut(self.d)) {
            out[cols.clone()].copy_from_slice(row);
        }
    }

    /// One sequence's forward: `q` `[Tq, d]`, `k` and `v` `[T, d]` and its
    /// mask `[Tq, T]` in; the merged context `out` `[Tq, d]`, the softmax
    /// output `probs` `[h, Tq, T]` and, under dropout, the keep bytes
    /// `kept` `[h, Tq, T]` out. `drop` is the caller's stream, the word
    /// of this sequence's first weight, and the keep probability.
    #[allow(clippy::too_many_arguments)] // three inputs, the mask, three outputs, the draw
    fn forward(
        self,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        mask: &[f32],
        out: &mut [f32],
        probs: &mut [f32],
        kept: &mut [u8],
        drop: Option<(&TensorRng, u128, f32)>,
    ) {
        let (tq, t, dh, n) = (self.tq, self.t, self.dh, self.slice());
        let mut scratch = vec![0.0f32; 2 * tq * dh + 2 * t * dh + 2 * n];
        let (qs, rest) = scratch.split_at_mut(tq * dh);
        let (ks, rest) = rest.split_at_mut(t * dh);
        let (vs, rest) = rest.split_at_mut(t * dh);
        let (ctx, rest) = rest.split_at_mut(tq * dh);
        let (scores, dropped) = rest.split_at_mut(n);
        for i in 0..self.h {
            let y = &mut probs[i * n..(i + 1) * n];
            self.gather(q, i, qs);
            self.gather(k, i, ks);
            self.gather(v, i, vs);
            nt_into(qs, ks, scores, tq, dh, t);
            for (s, &m) in scores.iter_mut().zip(mask) {
                *s = *s * self.c + m;
            }
            softmax_rows(scores, t, y);
            let weights: &[f32] = match drop {
                Some((stream, word0, keep)) => {
                    let word = word0 + (i * n) as u128;
                    dropout_draw(stream, word, keep, y, dropped, &mut kept[i * n..(i + 1) * n]);
                    dropped
                }
                None => y,
            };
            nn_into(weights, vs, ctx, tq, t, dh);
            self.scatter(ctx, i, out);
        }
    }

    /// One sequence's backward: the context gradient `g` `[Tq, d]`, the
    /// inputs and the kept `probs` and `kept` of [`Heads::forward`] in
    /// (`kept` empty without dropout, `scale` then unused); `dq` `[Tq, d]`,
    /// `dk` and `dv` `[T, d]` out.
    ///
    /// Per head, with `D` the dropped weights and `Y` the softmax output:
    /// `dV = Dᵀ·g`, `dD = g·Vᵀ`, `dY = dD∘keep·scale`,
    /// `dS = (Y∘dY - Y·Σ_row(Y∘dY))·c`, `dQ = dS·K`, `dK = dSᵀ·Q`.
    #[allow(clippy::too_many_arguments)] // four inputs, the forward's two, three outputs, the scale
    fn backward(
        self,
        g: &[f32],
        q: &[f32],
        k: &[f32],
        v: &[f32],
        probs: &[f32],
        kept: &[u8],
        scale: f32,
        (dq, dk, dv): (&mut [f32], &mut [f32], &mut [f32]),
    ) {
        let (tq, t, dh, n) = (self.tq, self.t, self.dh, self.slice());
        let mut scratch = vec![0.0f32; 4 * tq * dh + 4 * t * dh + 2 * n];
        let (gc, rest) = scratch.split_at_mut(tq * dh);
        let (qs, rest) = rest.split_at_mut(tq * dh);
        let (ks, rest) = rest.split_at_mut(t * dh);
        let (vs, rest) = rest.split_at_mut(t * dh);
        let (dqs, rest) = rest.split_at_mut(tq * dh);
        let (dks, rest) = rest.split_at_mut(t * dh);
        let (dvs, rest) = rest.split_at_mut(t * dh);
        let (ds, dropped) = rest.split_at_mut(n);
        let select = |keep: u8| if keep != 0 { scale } else { 0.0 };
        for i in 0..self.h {
            let y = &probs[i * n..(i + 1) * n];
            let keep = kept.get(i * n..(i + 1) * n);
            self.gather(g, i, gc);
            self.gather(q, i, qs);
            self.gather(k, i, ks);
            self.gather(v, i, vs);
            let weights: &[f32] = match keep {
                Some(keep) => {
                    for ((w, &yv), &kb) in dropped.iter_mut().zip(y).zip(keep) {
                        *w = yv * select(kb);
                    }
                    dropped
                }
                None => y,
            };
            tn_into(weights, gc, dvs, t, tq, dh);
            nt_into(gc, vs, ds, tq, dh, t);
            if let Some(keep) = keep {
                for (gv, &kb) in ds.iter_mut().zip(keep) {
                    *gv *= select(kb);
                }
            }
            for (grow, yrow) in ds.chunks_mut(t).zip(y.chunks(t)) {
                for (gv, &yv) in grow.iter_mut().zip(yrow) {
                    *gv *= yv;
                }
                let dot: f32 = grow.iter().sum();
                for (gv, &yv) in grow.iter_mut().zip(yrow) {
                    *gv = (*gv - dot * yv) * self.c;
                }
            }
            nn_into(ds, ks, dqs, tq, t, dh);
            tn_into(ds, qs, dks, t, tq, dh);
            self.scatter(dqs, i, dq);
            self.scatter(dks, i, dk);
            self.scatter(dvs, i, dv);
        }
    }
}

/// Sequence `s`'s block of `len` elements of a batch-major buffer.
fn seq(x: &[f32], s: usize, len: usize) -> &[f32] {
    &x[s * len..(s + 1) * len]
}

impl Tape {
    /// Multi-head scaled dot-product attention, one node. For sequence `b`
    /// and head `i`, with `Q_i`, `K_i`, `V_i` the columns `i·dh..(i+1)·dh`
    /// (`dh = d/h`) of `q` `[B, Tq, d]` and of `k`, `v` `[B, T, d]`:
    ///
    /// `ctx_i = Dropout_p(softmax((Q_i·K_iᵀ)·c + M_b))·V_i`, `c = 1/√dh`,
    ///
    /// where `M_b` is sequence `b`'s `[Tq, T]` slice of the additive `mask`
    /// `[B, Tq, T]` (the encoder's hold `0` where a query may see a key and
    /// `-1e9` where it may not), shared by the heads and a constant: no
    /// gradient is recorded for it. Scale and mask are two roundings,
    /// `(s·c) + m`, never a fused multiply-add. The output is `[B, Tq, d]`,
    /// head `i`'s context in columns `i·dh..(i+1)·dh`.
    ///
    /// Dropout on the attention weights is [`Tape::dropout`]'s: at
    /// inference (`training == false`) or `p == 0` it is the identity and
    /// draws nothing. Otherwise head slice `s = b·h + i` (`[Tq, T]`) draws
    /// its mask from words `base + s·Tq·T..` of `rng`'s stream, `base`
    /// being its position on entry, and `rng` ends at `base + B·h·Tq·T`:
    /// one dropout's mask over the `[B, h, Tq, T]` weights, drawn per
    /// sequence on the pool.
    ///
    /// The node keeps the `[B, h, Tq, T]` softmax output and, under
    /// dropout, one keep byte per weight. Backward returns `[dq, dk, dv]`.
    ///
    /// # Panics
    /// Panics unless `q` is `[B, Tq, d]`, `k` and `v` are `[B, T, d]`,
    /// `mask` is `[B, Tq, T]` with `Tq, T, d > 0`, `h` divides `d`, and `p`
    /// is in `[0, 1)`.
    #[allow(clippy::too_many_arguments)] // q, k, v, mask and h, then dropout's (p, training, rng)
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        mask: &Tensor,
        h: usize,
        p: f32,
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout rate {p} outside [0, 1)");
        let (qv, kv, vv) = (self.value(q).clone(), self.value(k).clone(), self.value(v).clone());
        assert_eq!(qv.shape().rank(), 3, "attention queries must be [B,Tq,d], got {}", qv.shape());
        let (b, tq, d) = (qv.shape().dim(0), qv.shape().dim(1), qv.shape().dim(2));
        assert_eq!(kv.shape().rank(), 3, "attention keys must be [B,T,d], got {}", kv.shape());
        let t = kv.shape().dim(1);
        assert_eq!(kv.shape().dims(), &[b, t, d], "keys {} for queries {}", kv.shape(), qv.shape());
        assert_eq!(vv.shape(), kv.shape(), "values {} for keys {}", vv.shape(), kv.shape());
        assert_eq!(mask.shape().dims(), &[b, tq, t], "mask {} for [{b}, {tq}, {t}]", mask.shape());
        assert!(tq > 0 && t > 0 && d > 0, "attention over an empty dimension");
        assert!(h > 0 && d % h == 0, "{h} heads do not divide d = {d}");
        let dh = d / h;
        let heads = Heads { tq, t, d, h, dh, c: 1.0 / (dh as f32).sqrt() };
        let per_seq = h * heads.slice();
        let dropout = training && p > 0.0;
        let keep = 1.0 - p;
        let base = if dropout { rng.get_word_pos() } else { 0 };

        let mut out = vec![0.0f32; b * tq * d];
        let mut probs = vec![0.0f32; b * per_seq];
        let mut kept = vec![0u8; if dropout { b * per_seq } else { 0 }];
        let mut kept_rows: Vec<&mut [u8]> = if dropout {
            kept.chunks_mut(per_seq).collect()
        } else {
            (0..b).map(|_| Default::default()).collect()
        };
        let stream: &TensorRng = rng;
        let (qd, kd, vd, md) = (qv.data(), kv.data(), vv.data(), mask.data());
        out.par_chunks_mut(tq * d)
            .zip(probs.par_chunks_mut(per_seq))
            .zip(kept_rows.par_iter_mut())
            .enumerate()
            .for_each(|(s, ((out, probs), kept))| {
                let drop = dropout.then(|| (stream, base + (s * per_seq) as u128, keep));
                heads.forward(
                    seq(qd, s, tq * d),
                    seq(kd, s, t * d),
                    seq(vd, s, t * d),
                    seq(md, s, tq * t),
                    out,
                    probs,
                    kept,
                    drop,
                );
            });
        if dropout {
            rng.set_word_pos(base + (b * per_seq) as u128);
        }
        let probs = Tensor::from_vec([b, h, tq, t], probs);
        let kept = dropout.then(|| Buf::new(kept));
        let scale = 1.0 / keep;
        self.push(
            Tensor::from_vec([b, tq, d], out),
            vec![q, k, v],
            Some(Box::new(move |g: &Tensor| {
                let (qd, kd, vd) = (qv.data(), kv.data(), vv.data());
                let mut dq = vec![0.0f32; b * tq * d];
                let mut dk = vec![0.0f32; b * t * d];
                let mut dv = vec![0.0f32; b * t * d];
                dq.par_chunks_mut(tq * d)
                    .zip(dk.par_chunks_mut(t * d))
                    .zip(dv.par_chunks_mut(t * d))
                    .enumerate()
                    .for_each(|(s, ((dq, dk), dv))| {
                        heads.backward(
                            seq(g.data(), s, tq * d),
                            seq(qd, s, tq * d),
                            seq(kd, s, t * d),
                            seq(vd, s, t * d),
                            seq(probs.data(), s, per_seq),
                            kept.as_ref().map_or(&[], |k| &k[s * per_seq..(s + 1) * per_seq]),
                            scale,
                            (dq, dk, dv),
                        );
                    });
                vec![
                    Tensor::from_vec([b, tq, d], dq),
                    Tensor::from_vec([b, t, d], dk),
                    Tensor::from_vec([b, t, d], dv),
                ]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::causal_padding_mask;

    #[test]
    fn zero_queries_average_the_visible_values_per_head() {
        // Q = 0 makes every allowed score 0, so causal row r weighs keys
        // 0..=r equally, in both heads.
        let v = uniform([1, 3, 4], -1.0, 1.0, &mut rng(40));
        let mask = causal_padding_mask(&[vec![true; 3]], 3);
        let mut t = Tape::new();
        let (q, k) = (t.leaf(Tensor::zeros([1, 3, 4])), t.leaf(Tensor::ones([1, 3, 4])));
        let vv = t.leaf(v.clone());
        let y = t.attention(q, k, vv, &mask, 2, 0.5, false, &mut rng(0));
        assert_eq!(t.len(), 4, "three leaves and one attention node");
        let out = t.value(y);
        for r in 0..3 {
            for col in 0..4 {
                let mean = (0..=r).map(|j| v.data()[j * 4 + col]).sum::<f32>() / (r + 1) as f32;
                assert!((out.data()[r * 4 + col] - mean).abs() < 1e-6, "row {r}, column {col}");
            }
        }
    }

    #[test]
    fn a_query_row_with_no_visible_key_averages_every_value() {
        // Sequence 0's first position is padding: under the causal mask its
        // query row sees no key, every score rounds to -1e9 and the softmax
        // comes out flat, so the row is the mean of all values: finite.
        let mask = causal_padding_mask(&[vec![false, true, true]], 3);
        let v = uniform([1, 3, 2], -1.0, 1.0, &mut rng(45));
        let mut t = Tape::new();
        let q = t.leaf(uniform([1, 3, 2], -1.0, 1.0, &mut rng(46)));
        let k = t.leaf(uniform([1, 3, 2], -1.0, 1.0, &mut rng(47)));
        let vv = t.leaf(v.clone());
        let y = t.attention(q, k, vv, &mask, 1, 0.0, false, &mut rng(0));
        for col in 0..2 {
            let mean = (0..3).map(|j| v.data()[j * 2 + col]).sum::<f32>() / 3.0;
            assert!((t.value(y).data()[col] - mean).abs() < 1e-6, "column {col}");
        }
    }

    #[test]
    fn gradients_take_the_shapes_of_q_k_and_v() {
        // The final block's shape: one query row per sequence.
        let mask = Tensor::zeros([2, 1, 3]);
        let mut t = Tape::new();
        let q = t.leaf(uniform([2, 1, 4], -1.0, 1.0, &mut rng(48)));
        let k = t.leaf(uniform([2, 3, 4], -1.0, 1.0, &mut rng(49)));
        let v = t.leaf(uniform([2, 3, 4], -1.0, 1.0, &mut rng(50)));
        let y = t.attention(q, k, v, &mask, 2, 0.3, true, &mut rng(51));
        assert_eq!(t.value(y).shape().dims(), &[2, 1, 4]);
        let sq = t.mul(y, y);
        let loss = t.sum_all(sq);
        let g = t.backward(loss);
        assert_eq!(g.get(q).unwrap().shape().dims(), &[2, 1, 4]);
        assert_eq!(g.get(k).unwrap().shape().dims(), &[2, 3, 4]);
        assert_eq!(g.get(v).unwrap().shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn training_draws_one_word_per_weight_and_inference_draws_none() {
        let (b, tq, t, d, h) = (2, 3, 3, 4, 2);
        let mask = causal_padding_mask(&[vec![true; 3], vec![false, true, true]], 3);
        let run = |p: f32, training: bool, r: &mut TensorRng| {
            let mut tape = Tape::new();
            let q = tape.leaf(uniform([b, tq, d], -1.0, 1.0, &mut rng(41)));
            let k = tape.leaf(uniform([b, t, d], -1.0, 1.0, &mut rng(42)));
            let v = tape.leaf(uniform([b, t, d], -1.0, 1.0, &mut rng(43)));
            let y = tape.attention(q, k, v, &mask, h, p, training, r);
            tape.value(y).clone()
        };
        let mut r = rng(44);
        let start = r.get_word_pos();
        let eval = run(0.5, false, &mut r);
        assert_eq!(r.get_word_pos(), start, "inference drew words");
        assert_eq!(run(0.0, true, &mut r), eval, "p = 0 is the identity");
        assert_eq!(r.get_word_pos(), start, "p = 0 drew words");
        assert_ne!(run(0.5, true, &mut r), eval);
        assert_eq!(r.get_word_pos(), start + (b * h * tq * t) as u128);
    }
}
