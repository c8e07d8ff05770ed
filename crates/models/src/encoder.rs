//! The Transformer user-representation encoder (§3.4 of the paper).
//!
//! This is the `f(·)` shared by SASRec, SASRec_BPR and CL4SRec: an item +
//! learnable-position embedding layer, `L` stacked blocks of multi-head
//! causal self-attention and a position-wise feed-forward network, each
//! wrapped in `LayerNorm(x + Dropout(sublayer(x)))` (Eq. 12/14). Sequences
//! are **left-padded**, so the output at position `T-1` is the user
//! representation (Eq. 13).
//!
//! The vocabulary has two special ids: `0` is padding and `num_items + 1` is
//! the `[mask]` token used by CL4SRec's item-mask augmentation (Eq. 5).

use seqrec_tensor::init::TensorRng;
use seqrec_tensor::nn::{Embedding, HasParams, LayerNorm, Linear, Param, Step};
use seqrec_tensor::ops::{causal_padding_mask, padding_mask};
use seqrec_tensor::{init, Tensor, Var};
use serde::{Deserialize, Serialize};

/// Transformer encoder hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Catalog size (item ids `1..=num_items`).
    pub num_items: usize,
    /// Model width `d` (the paper uses 128; the scaled experiments 64).
    pub d: usize,
    /// Attention heads (paper: 2).
    pub heads: usize,
    /// Stacked blocks `L` (paper: 2).
    pub layers: usize,
    /// Maximum sequence length `T` (paper: 50).
    pub max_len: usize,
    /// Dropout rate on embeddings, attention weights and sublayers.
    pub dropout: f32,
}

impl EncoderConfig {
    /// The paper's configuration (§4.1.4): `d=128, h=2, L=2, T=50`.
    pub fn paper(num_items: usize) -> Self {
        EncoderConfig { num_items, d: 128, heads: 2, layers: 2, max_len: 50, dropout: 0.2 }
    }

    /// A narrower configuration for CPU-scale experiments; same depth and
    /// length so the architecture is unchanged.
    pub fn small(num_items: usize) -> Self {
        EncoderConfig { num_items, d: 64, heads: 2, layers: 2, max_len: 50, dropout: 0.2 }
    }

    /// The `[mask]` token id (Eq. 5).
    pub fn mask_token(&self) -> u32 {
        (self.num_items + 1) as u32
    }

    /// Vocabulary rows: items + pad + `[mask]`.
    pub fn vocab(&self) -> usize {
        self.num_items + 2
    }

    /// Checks the shape invariants [`TransformerEncoder::new`] relies on,
    /// describing the first one the configuration breaks.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_items == 0 {
            return Err("empty catalog".into());
        }
        if self.d == 0 || !self.d.is_multiple_of(self.heads) {
            return Err(format!("heads ({}) must divide d ({})", self.heads, self.d));
        }
        if self.layers == 0 || self.max_len == 0 {
            return Err(format!(
                "layers ({}) and max_len ({}) must be positive",
                self.layers, self.max_len
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} outside [0, 1)", self.dropout));
        }
        Ok(())
    }
}

struct Block {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ffn1: Linear,
    ffn2: Linear,
    ln_attn: LayerNorm,
    ln_ffn: LayerNorm,
}

impl Block {
    fn new(name: &str, d: usize, rng: &mut TensorRng) -> Self {
        Block {
            wq: Linear::new(&format!("{name}.wq"), d, d, rng),
            wk: Linear::new(&format!("{name}.wk"), d, d, rng),
            wv: Linear::new(&format!("{name}.wv"), d, d, rng),
            wo: Linear::new(&format!("{name}.wo"), d, d, rng),
            ffn1: Linear::new(&format!("{name}.ffn1"), d, d, rng),
            ffn2: Linear::new(&format!("{name}.ffn2"), d, d, rng),
            ln_attn: LayerNorm::new(&format!("{name}.ln_attn"), d),
            ln_ffn: LayerNorm::new(&format!("{name}.ln_ffn"), d),
        }
    }
}

impl HasParams for Block {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        for m in [&self.wq, &self.wk, &self.wv, &self.wo, &self.ffn1, &self.ffn2] {
            m.visit(f);
        }
        self.ln_attn.visit(f);
        self.ln_ffn.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in
            [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo, &mut self.ffn1, &mut self.ffn2]
        {
            m.visit_mut(f);
        }
        self.ln_attn.visit_mut(f);
        self.ln_ffn.visit_mut(f);
    }
}

/// The stacked-Transformer user encoder.
pub struct TransformerEncoder {
    cfg: EncoderConfig,
    item_emb: Embedding,
    pos_emb: Param,
    blocks: Vec<Block>,
}

impl TransformerEncoder {
    /// Builds an encoder with the paper's truncated-normal initialisation.
    ///
    /// # Panics
    /// Panics if `cfg` breaks a shape invariant: `heads` must divide `d`,
    /// and the catalog, `d`, `layers` and `max_len` must be non-empty, with
    /// `dropout` in `[0, 1)`.
    pub fn new(cfg: EncoderConfig, rng: &mut TensorRng) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid encoder config: {e}");
        }
        let item_emb = Embedding::new("enc.item", cfg.vocab(), cfg.d, rng);
        let pos_emb = Param::new("enc.pos", init::paper_default([cfg.max_len, cfg.d], rng));
        let blocks =
            (0..cfg.layers).map(|l| Block::new(&format!("enc.block{l}"), cfg.d, rng)).collect();
        TransformerEncoder { cfg, item_emb, pos_emb, blocks }
    }

    /// The configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// The item-embedding table (shared with the scoring head, and
    /// warm-startable from BPR-MF for the SASRec_BPR baseline).
    pub fn item_embedding(&self) -> &Embedding {
        &self.item_emb
    }

    /// Mutable access to the item-embedding table.
    pub fn item_embedding_mut(&mut self) -> &mut Embedding {
        &mut self.item_emb
    }

    /// Encodes a left-padded batch with **causal** attention (SASRec,
    /// CL4SRec).
    ///
    /// * `ids`: `[B*T]` item ids (0 = pad, possibly `mask_token()`).
    /// * `valid`: per-sequence validity of each position.
    ///
    /// Returns `[B, T, d]` hidden states.
    pub fn encode(
        &self,
        step: &mut Step,
        ids: &[u32],
        valid: &[Vec<bool>],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let mask = causal_padding_mask(valid, self.cfg.max_len);
        self.encode_inner(step, ids, &mask, false, training, rng)
    }

    /// Encodes with **bidirectional** attention (padding mask only) — the
    /// BERT4Rec setting, where every position sees the whole sequence.
    pub fn encode_bidirectional(
        &self,
        step: &mut Step,
        ids: &[u32],
        valid: &[Vec<bool>],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let mask = padding_mask(valid, self.cfg.max_len);
        self.encode_inner(step, ids, &mask, false, training, rng)
    }

    /// The user representation: the hidden state at the final (most recent)
    /// position of each sequence (Eq. 13). Returns `[B, d]`.
    ///
    /// Only that position is read, so the final block runs its queries,
    /// attention row, output projection, LayerNorms and FFN for position
    /// `T-1` alone; its keys and values still cover every position. In eval
    /// mode the result is bit-identical to `last_time(encode(..))`: every op
    /// is per row, and the GEMM dispatch never reads the row count. In
    /// training mode dropout draws masks for the kept rows only.
    pub fn user_repr(
        &self,
        step: &mut Step,
        ids: &[u32],
        valid: &[Vec<bool>],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let mask = causal_padding_mask(valid, self.cfg.max_len);
        self.encode_inner(step, ids, &mask, true, training, rng)
    }

    /// The bidirectional twin of [`Self::user_repr`]: the final position of
    /// [`Self::encode_bidirectional`], `[B, d]` (BERT4Rec inference, which
    /// appends the prediction `[mask]` there).
    pub(crate) fn user_repr_bidirectional(
        &self,
        step: &mut Step,
        ids: &[u32],
        valid: &[Vec<bool>],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let mask = padding_mask(valid, self.cfg.max_len);
        self.encode_inner(step, ids, &mask, true, training, rng)
    }

    /// Runs the embedding layer and every block under the additive
    /// attention `mask` (`[B, T, T]`). Returns `[B, T, d]`, or `[B, d]` when
    /// `last_only`: the final block then takes its query rows from position
    /// `T-1` only.
    fn encode_inner(
        &self,
        step: &mut Step,
        ids: &[u32],
        mask: &Tensor,
        last_only: bool,
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let (b, t, d, h) = (mask.shape().dim(0), self.cfg.max_len, self.cfg.d, self.cfg.heads);
        assert_eq!(ids.len(), b * t, "ids must be [B*T] = [{b}*{t}]");
        let p = self.cfg.dropout;

        // Embedding layer (Eq. 8), with SASRec's √d scaling.
        let mut x = self.item_emb.forward(step, ids, &[b, t]);
        x = step.tape.scale(x, (d as f32).sqrt());
        let pos = self.pos_emb.var(step);
        x = step.tape.add_broadcast_batch(x, pos);
        x = step.tape.dropout(x, p, training, rng);

        let final_block = self.blocks.len() - 1;
        let last_row_mask = last_only.then(|| last_query_row(mask));
        for (l, block) in self.blocks.iter().enumerate() {
            // Query rows: every position, or `[B, 1, d]` at `T-1` in the final
            // block of a `last_only` pass. Keys and values cover all of `x`.
            let (xq, qmask) = match &last_row_mask {
                Some(row) if l == final_block => {
                    let xt = step.tape.select_time(x, t - 1);
                    (step.tape.reshape(xt, [b, 1, d]), row)
                }
                _ => (x, mask),
            };

            // Multi-head self-attention (Eq. 9-10).
            let q = block.wq.forward(step, xq);
            let k = block.wk.forward(step, x);
            let v = block.wv.forward(step, x);
            let qh = step.tape.split_heads(q, h);
            let kh = step.tape.split_heads(k, h);
            let vh = step.tape.split_heads(v, h);
            let scores = step.tape.bmm_nt(qh, kh);
            let scaled = step.tape.scale(scores, 1.0 / ((d / h) as f32).sqrt());
            let masked = step.tape.add_attn_mask(scaled, qmask, h);
            let probs = step.tape.softmax(masked);
            let probs = step.tape.dropout(probs, p, training, rng);
            let ctx = step.tape.bmm(probs, vh);
            let merged = step.tape.merge_heads(ctx, h);
            let mh = block.wo.forward(step, merged);

            // Residual + dropout + LayerNorm (Eq. 12).
            let mh_dropped = step.tape.dropout(mh, p, training, rng);
            let res1 = step.tape.add(xq, mh_dropped);
            let f = block.ln_attn.forward(step, res1);

            // Position-wise FFN (Eq. 11).
            let h1 = block.ffn1.forward(step, f);
            let a1 = step.tape.relu(h1);
            let a1 = step.tape.dropout(a1, p, training, rng);
            let h2 = block.ffn2.forward(step, a1);
            let h2_dropped = step.tape.dropout(h2, p, training, rng);
            let res2 = step.tape.add(f, h2_dropped);
            x = block.ln_ffn.forward(step, res2);
        }
        if last_only {
            step.tape.reshape(x, [b, d])
        } else {
            x
        }
    }
}

/// The final query row of an attention mask: `[B, T, T] -> [B, 1, T]`.
fn last_query_row(mask: &Tensor) -> Tensor {
    let (b, t) = (mask.shape().dim(0), mask.shape().dim(2));
    let data = mask.data().chunks(t * t).flat_map(|m| &m[(t - 1) * t..]).copied().collect();
    Tensor::from_vec([b, 1, t], data)
}

impl HasParams for TransformerEncoder {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.item_emb.visit(f);
        f(&self.pos_emb);
        for b in &self.blocks {
            b.visit(f);
        }
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.item_emb.visit_mut(f);
        f(&mut self.pos_emb);
        for b in &mut self.blocks {
            b.visit_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::batch::pad_left;
    use seqrec_tensor::init::{rng, uniform};

    fn tiny() -> EncoderConfig {
        EncoderConfig { num_items: 20, d: 8, heads: 2, layers: 2, max_len: 6, dropout: 0.1 }
    }

    fn batch_of(seqs: &[&[u32]], t: usize) -> (Vec<u32>, Vec<Vec<bool>>) {
        let mut ids = Vec::new();
        let mut valid = Vec::new();
        for s in seqs {
            let (i, v) = pad_left(s, t);
            ids.extend(i);
            valid.push(v);
        }
        (ids, valid)
    }

    #[test]
    fn encode_shapes() {
        let mut r = rng(70);
        let enc = TransformerEncoder::new(tiny(), &mut r);
        let (ids, valid) = batch_of(&[&[1, 2, 3], &[4, 5, 6, 7, 8, 9]], 6);
        let mut step = Step::new();
        let out = enc.encode(&mut step, &ids, &valid, false, &mut r);
        assert_eq!(step.tape.value(out).shape().dims(), &[2, 6, 8]);
        let repr = step.tape.last_time(out);
        assert_eq!(step.tape.value(repr).shape().dims(), &[2, 8]);
    }

    #[test]
    fn causality_last_position_ignores_nothing_earlier_positions_ignore_future() {
        // Changing the LAST item must change the user representation;
        // changing it must NOT change hidden states at earlier positions.
        let mut r = rng(71);
        let enc = TransformerEncoder::new(tiny(), &mut r);
        let run = |last: u32| {
            let (ids, valid) = batch_of(&[&[1, 2, 3, 4, 5, last]], 6);
            let mut step = Step::new();
            let mut r2 = rng(0);
            let out = enc.encode(&mut step, &ids, &valid, false, &mut r2);
            step.tape.value(out).data().to_vec()
        };
        let a = run(6);
        let b = run(7);
        let d = 8;
        // positions 0..5 identical
        assert_eq!(a[..5 * d], b[..5 * d], "future leaked into the past");
        // final position differs
        assert_ne!(a[5 * d..], b[5 * d..]);
    }

    #[test]
    fn padding_does_not_leak_into_user_repr() {
        // The same sequence with different amounts of left padding must give
        // (nearly) the same final representation... it does NOT in general
        // because positional embeddings shift; but changing the *pad ids*
        // themselves (impossible by API) or adding more pad positions must
        // not make the repr depend on pad-row embedding values. We verify
        // pad keys are masked: two batches whose only difference is another
        // *batch member* produce identical reprs for the shared member.
        let mut r = rng(72);
        let enc = TransformerEncoder::new(tiny(), &mut r);
        let run = |other: &[u32]| {
            let (ids, valid) = batch_of(&[&[1, 2, 3], other], 6);
            let mut step = Step::new();
            let mut r2 = rng(0);
            let repr = enc.user_repr(&mut step, &ids, &valid, false, &mut r2);
            step.tape.value(repr).data()[..8].to_vec()
        };
        assert_eq!(run(&[9, 10]), run(&[11, 12, 13, 14]));
    }

    #[test]
    fn training_mode_is_stochastic_eval_mode_is_not() {
        let mut r = rng(73);
        let enc = TransformerEncoder::new(tiny(), &mut r);
        let (ids, valid) = batch_of(&[&[1, 2, 3]], 6);
        let run = |training: bool, seed: u64| {
            let mut step = Step::new();
            let mut r2 = rng(seed);
            let out = enc.user_repr(&mut step, &ids, &valid, training, &mut r2);
            step.tape.value(out).data().to_vec()
        };
        assert_eq!(run(false, 1), run(false, 2));
        assert_ne!(run(true, 1), run(true, 2));
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut r = rng(74);
        let enc = TransformerEncoder::new(tiny(), &mut r);
        let (ids, valid) = batch_of(&[&[1, 2, 3, 4]], 6);
        let mut step = Step::new();
        let repr = enc.user_repr(&mut step, &ids, &valid, true, &mut r);
        let sq = step.tape.mul(repr, repr);
        let loss = step.tape.sum_all(sq);
        let grads = step.tape.backward(loss);
        let mut missing = Vec::new();
        enc.visit(&mut |p| {
            if p.grad(&step, &grads).is_none() {
                missing.push(p.name().to_string());
            }
        });
        assert!(missing.is_empty(), "no gradient for {missing:?}");
    }

    /// An empty history, one item, exactly `t` items and more than `t`.
    fn edge_batch(t: usize) -> (Vec<u32>, Vec<Vec<bool>>) {
        let seq = |n: usize| -> Vec<u32> { (0..n as u32).map(|i| i * 7 % 20 + 1).collect() };
        let seqs = [seq(0), seq(1), seq(t), seq(t + 3)];
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        batch_of(&refs, t)
    }

    type Pass =
        fn(&TransformerEncoder, &mut Step, &[u32], &[Vec<bool>], bool, &mut TensorRng) -> Var;

    #[test]
    fn user_repr_is_the_last_row_of_the_full_encode_bit_for_bit() {
        // (8, 6) runs the direct GEMM kernels, (64, 50) the packed engine.
        for (d, t) in [(8, 6), (64, 50)] {
            let cfg = EncoderConfig { d, max_len: t, ..tiny() };
            let enc = TransformerEncoder::new(cfg, &mut rng(77));
            let (ids, valid) = edge_batch(t);
            let bits = |pass: Pass, full: bool| -> Vec<u32> {
                let mut step = Step::new();
                let mut out = pass(&enc, &mut step, &ids, &valid, false, &mut rng(0));
                if full {
                    out = step.tape.last_time(out);
                }
                step.tape.value(out).data().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(TransformerEncoder::user_repr, false),
                bits(TransformerEncoder::encode, true),
                "causal user_repr differs from last_time(encode) at d={d}, T={t}"
            );
            assert_eq!(
                bits(TransformerEncoder::user_repr_bidirectional, false),
                bits(TransformerEncoder::encode_bidirectional, true),
                "bidirectional user_repr differs from last_time(encode_bidirectional) at d={d}, T={t}"
            );
        }
    }

    #[test]
    fn user_repr_training_gradients_match_the_full_encode() {
        // Dropout 0 keeps training mode deterministic; two layers send the
        // final block's K/V gradient back into every position of block 0.
        // Parameters are drawn at O(1) scale, as the whole-model gradchecks
        // do, so the gradients are O(1) too.
        let mut enc =
            TransformerEncoder::new(EncoderConfig { dropout: 0.0, ..tiny() }, &mut rng(78));
        let mut r = rng(79);
        enc.visit_mut(&mut |p| {
            let shape = p.value().shape().clone();
            *p.value_mut() = uniform(shape, -0.5, 0.5, &mut r);
        });
        let (ids, valid) = edge_batch(6);
        let run = |pass: Pass, full: bool| {
            let mut step = Step::new();
            let mut repr = pass(&enc, &mut step, &ids, &valid, true, &mut rng(0));
            if full {
                repr = step.tape.last_time(repr);
            }
            let sq = step.tape.mul(repr, repr);
            let loss = step.tape.sum_all(sq);
            let value = step.tape.value(loss).item();
            let grads = step.tape.backward(loss);
            let mut per_param = Vec::new();
            enc.visit(&mut |p| {
                let g =
                    p.grad(&step, &grads).unwrap_or_else(|| panic!("no gradient for {}", p.name()));
                per_param.push((p.name().to_string(), g.clone()));
            });
            (value, per_param)
        };
        // Relative error as in `seqrec_tensor::gradcheck`: |a-b| / max(|a|, |b|, 1).
        let rel = |a: f32, b: f32| (a - b).abs() / a.abs().max(b.abs()).max(1.0);
        let (loss, grads) = run(TransformerEncoder::user_repr, false);
        let (want_loss, want_grads) = run(TransformerEncoder::encode, true);
        assert!(rel(loss, want_loss) <= 1e-5, "loss {loss} vs {want_loss}");
        assert_eq!(grads.len(), want_grads.len());
        for ((name, g), (_, want)) in grads.iter().zip(&want_grads) {
            let err = g.data().iter().zip(want.data()).fold(0.0f32, |m, (&a, &b)| m.max(rel(a, b)));
            assert!(err <= 1e-5, "{name}: gradient relative error {err}");
        }
    }

    #[test]
    fn parameter_count_matches_hand_formula() {
        let cfg = tiny();
        let mut r = rng(75);
        let enc = TransformerEncoder::new(cfg.clone(), &mut r);
        let d = cfg.d;
        let per_block = 6 * (d * d + d) + 2 * (2 * d); // 6 linears + 2 LN
        let expected = cfg.vocab() * d + cfg.max_len * d + cfg.layers * per_block;
        assert_eq!(enc.num_params(), expected);
    }

    #[test]
    fn mask_token_is_in_vocab() {
        let cfg = tiny();
        let mut r = rng(76);
        let enc = TransformerEncoder::new(cfg.clone(), &mut r);
        let (ids, valid) = batch_of(&[&[1, cfg.mask_token(), 3]], 6);
        let mut step = Step::new();
        let out = enc.user_repr(&mut step, &ids, &valid, false, &mut r);
        assert!(step.tape.value(out).is_finite());
    }
}
