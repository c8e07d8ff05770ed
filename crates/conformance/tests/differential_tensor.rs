//! Differential fuzzing of the optimized tensor engine against the scalar
//! oracle, one section per module of `crates/tensor/src/ops/`:
//! activations, attention, basic, embedding, loss, mask, matmul, norm,
//! softmax, window.
//!
//! Shapes are drawn adversarially small and unaligned (every dim down to 1,
//! non-tile-multiple matmul sizes, batch = 1, padded attention rows) because
//! that is where blocked/packed kernels get their edge handling wrong.
//! Structural ops (gathers, reshapes, concats, transposes, masks) must match
//! the oracle bit-for-bit; float ops that reduce or fuse are held to a
//! relative tolerance far below the 1e-3 the gradchecks allow.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use seqrec_conformance::oracle;
use seqrec_tensor::init::rng;
use seqrec_tensor::linalg;
use seqrec_tensor::ops::{causal_padding_mask, padding_mask, softmax_rows};
use seqrec_tensor::{Shape, Tape, Tensor, Var};

/// Deterministic test data: `n` uniform draws in `[-3, 3)` from a seeded
/// ChaCha stream, so proptest shrinks over `(seed, dims)` instead of huge
/// float vectors.
fn data(seed: u64, n: usize) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(-3.0f32..3.0)).collect()
}

fn leaf(tape: &mut Tape, shape: impl Into<Shape>, d: &[f32]) -> Var {
    tape.leaf(Tensor::from_vec(shape, d.to_vec()))
}

/// Engine and oracle agree elementwise within `tol` relative error
/// (`|a-b| / max(1, |a|, |b|)`).
fn assert_close(tag: &str, engine: &[f32], oracle: &[f32], tol: f32) {
    assert_eq!(engine.len(), oracle.len(), "{tag}: length mismatch");
    for (i, (&a, &b)) in engine.iter().zip(oracle).enumerate() {
        let denom = 1.0f32.max(a.abs()).max(b.abs());
        let rel = (a - b).abs() / denom;
        assert!(rel <= tol, "{tag}[{i}]: engine {a} vs oracle {b} (rel {rel:.3e})");
    }
}

/// Structural ops must match bit-for-bit.
fn assert_bits(tag: &str, engine: &[f32], oracle: &[f32]) {
    assert_eq!(engine.len(), oracle.len(), "{tag}: length mismatch");
    for (i, (&a, &b)) in engine.iter().zip(oracle).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag}[{i}]: engine {a} vs oracle {b}");
    }
}

// ---------------------------------------------------------------------------
// ops/activations.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_activations(seed in 0u64..1_000_000, n in 1usize..48) {
        let x = data(seed, n);
        let mut t = Tape::new();
        let v = leaf(&mut t, [n], &x);
        let r = t.relu(v);
        let s = t.sigmoid(v);
        let th = t.tanh(v);
        let sp = t.softplus(v);
        assert_bits("relu", t.value(r).data(), &oracle::relu(&x));
        assert_close("sigmoid", t.value(s).data(), &oracle::sigmoid(&x), 1e-6);
        assert_close("tanh", t.value(th).data(), &oracle::tanh(&x), 1e-6);
        assert_close("softplus", t.value(sp).data(), &oracle::softplus(&x), 1e-6);
    }
}

// ---------------------------------------------------------------------------
// ops/attention.rs
// ---------------------------------------------------------------------------

/// One fuzzed attention case. `flags` picks, bit by bit, queries at the
/// last position only (`Tq = 1`) or at every one, the causal or the
/// padding-only mask, training (dropout at p = 0.2) or inference, and
/// (bit 16) a dense additive mask of values in `[-3, 3)` in place of the
/// 0 / −1e9 one, where a fused multiply-add of scale and mask would show.
struct AttnCase {
    b: usize,
    tq: usize,
    tt: usize,
    d: usize,
    h: usize,
    training: bool,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    mask: Tensor,
}

const ATTN_P: f32 = 0.2;

impl AttnCase {
    fn new(seed: u64, b: usize, tt: usize, h: usize, dh: usize, flags: u8) -> Self {
        let (last_only, causal, training) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let (d, tq) = (h * dh, if last_only { 1 } else { tt });
        let valid = left_padded(seed ^ 22, b, tt);
        let full = if causal { causal_padding_mask(&valid, tt) } else { padding_mask(&valid, tt) };
        let mask = if flags & 16 != 0 {
            Tensor::from_vec([b, tq, tt], data(seed ^ 25, b * tq * tt))
        } else if last_only {
            let rows = full.data().chunks(tt * tt).flat_map(|m| &m[(tt - 1) * tt..]);
            Tensor::from_vec([b, 1, tt], rows.copied().collect())
        } else {
            full
        };
        let (q, k, v) =
            (data(seed, b * tq * d), data(seed ^ 20, b * tt * d), data(seed ^ 21, b * tt * d));
        AttnCase { b, tq, tt, d, h, training, q, k, v, mask }
    }

    /// A stream for the dropout draw, started off a ChaCha block boundary.
    fn stream(seed: u64) -> seqrec_tensor::init::TensorRng {
        let mut r = rng(seed ^ 23);
        for _ in 0..seed % 19 {
            r.next_u32();
        }
        r
    }

    /// `Tape::attention` on this case, its output and its `[dq, dk, dv]`
    /// under the upstream gradient `g`.
    fn engine(&self, g: &[f32], r: &mut seqrec_tensor::init::TensorRng) -> [Vec<f32>; 4] {
        let (b, tq, tt, d) = (self.b, self.tq, self.tt, self.d);
        let mut t = Tape::new();
        let vq = leaf(&mut t, [b, tq, d], &self.q);
        let vk = leaf(&mut t, [b, tt, d], &self.k);
        let vv = leaf(&mut t, [b, tt, d], &self.v);
        let out = t.attention(vq, vk, vv, &self.mask, self.h, ATTN_P, self.training, r);
        let weighted = t.mul_const(out, &Tensor::from_vec([b, tq, d], g.to_vec()));
        let loss = t.sum_all(weighted);
        let grads = t.backward(loss);
        let grad = |v: Var| grads.get(v).expect("gradient").data().to_vec();
        [t.value(out).data().to_vec(), grad(vq), grad(vk), grad(vv)]
    }

    /// The ten-op chain `Tape::attention` replaced, from public kernels:
    /// head split, `linalg::bmm_nt`, `Tensor::scale`, the mask add,
    /// `softmax_rows`, the dropout select, `linalg::bmm_nn` and the head
    /// merge, then that chain's backward, step by step.
    fn unfused(&self, g: &[f32], r: &mut seqrec_tensor::init::TensorRng) -> [Vec<f32>; 4] {
        let (b, tq, tt, d, h) = (self.b, self.tq, self.tt, self.d, self.h);
        let dh = d / h;
        let c = 1.0 / (dh as f32).sqrt();
        let split = |x: &[f32], rows: usize| {
            Tensor::from_vec([b * h, rows, dh], oracle::split_heads(x, b, rows, d, h))
        };
        let merge = |x: &Tensor, rows: usize| oracle::merge_heads(x.data(), b, rows, dh, h);
        let (qh, kh, vh) = (split(&self.q, tq), split(&self.k, tt), split(&self.v, tt));
        let scores = linalg::bmm_nt(&qh, &kh).scale(c);
        let masked = oracle::add_attn_mask(scores.data(), self.mask.data(), b, h);
        let mut y = vec![0.0; masked.len()];
        softmax_rows(&masked, tt, &mut y);
        let keep = self.training.then(|| oracle::dropout_mask(y.len(), ATTN_P, r));
        let dropped = match &keep {
            Some(m) => y.iter().zip(m).map(|(&p, &m)| p * m).collect(),
            None => y.clone(),
        };
        let dropped = Tensor::from_vec([b * h, tq, tt], dropped);
        let out = merge(&linalg::bmm_nn(&dropped, &vh), tq);

        let gc = split(g, tq);
        let dv = linalg::bmm_tn(&dropped, &gc);
        let mut dy = linalg::bmm_nt(&gc, &vh).data().to_vec();
        if let Some(m) = &keep {
            dy.iter_mut().zip(m).for_each(|(g, &m)| *g *= m);
        }
        for (grow, yrow) in dy.chunks_mut(tt).zip(y.chunks(tt)) {
            grow.iter_mut().zip(yrow).for_each(|(g, &y)| *g *= y);
            let dot: f32 = grow.iter().sum();
            grow.iter_mut().zip(yrow).for_each(|(g, &y)| *g -= dot * y);
        }
        let ds = Tensor::from_vec([b * h, tq, tt], dy).scale(c);
        let dq = linalg::bmm_nn(&ds, &kh);
        let dk = linalg::bmm_tn(&ds, &qh);
        [out, merge(&dq, tq), merge(&dk, tt), merge(&dv, tt)]
    }
}

proptest! {
    #[test]
    fn diff_attention(seed in 0u64..1_000_000, b in 1usize..4, tt in 1usize..7, h in 1usize..4, dh in 1usize..5, flags in 0u8..8, dense in 0u8..2) {
        let flags = flags | dense << 4;
        let case = AttnCase::new(seed, b, tt, h, dh, flags);
        let (mut engine_rng, mut oracle_rng) = (AttnCase::stream(seed), AttnCase::stream(seed));
        let [out, ..] = case.engine(&vec![1.0; b * case.tq * case.d], &mut engine_rng);
        let drop = case.training.then_some((ATTN_P, &mut oracle_rng));
        let want = oracle::attention(&case.q, &case.k, &case.v, case.mask.data(), [b, case.tq, tt, case.d], h, drop);
        // A query row with every key masked rounds each of its f32 scores
        // to -1e9, so the engine's softmax there is flat where the f64
        // oracle still sees Q·Kᵀ. No valid position reads such a row (its
        // key/value position is masked for them too), so it is skipped.
        let rows = out.chunks(case.d).zip(want.chunks(case.d)).zip(case.mask.data().chunks(tt));
        for (i, ((e, o), m)) in rows.enumerate() {
            if m.iter().any(|&m| m > -1e8) {
                assert_close(&format!("attention row {i}"), e, o, 1e-4);
            }
        }
        prop_assert_eq!(engine_rng.next_u32(), oracle_rng.next_u32());
    }

    /// The fused op against the chain it replaced: output, the three
    /// gradients and the rng's next draw, bit for bit. Flag bit 8 makes a
    /// wide case, `d/h = 64` and `T >= 17`, whose head products take the
    /// packed GEMM.
    #[test]
    fn attention_matches_the_unfused_chain_bit_for_bit(seed in 0u64..1_000_000, b in 1usize..4, tt in 1usize..9, h in 1usize..4, dh in 1usize..6, flags in 0u8..32) {
        let (tt, dh) = if flags & 8 != 0 { (tt + 16, 64) } else { (tt, dh) };
        let case = AttnCase::new(seed, b, tt, h, dh, flags);
        let g = data(seed ^ 24, b * case.tq * case.d);
        let (mut engine_rng, mut chain_rng) = (AttnCase::stream(seed), AttnCase::stream(seed));
        let engine = case.engine(&g, &mut engine_rng);
        let chain = case.unfused(&g, &mut chain_rng);
        for (tag, (e, c)) in ["output", "dq", "dk", "dv"].iter().zip(engine.iter().zip(&chain)) {
            assert_bits(tag, e, c);
        }
        prop_assert_eq!(engine_rng.next_u32(), chain_rng.next_u32());
    }
}

// ---------------------------------------------------------------------------
// ops/basic.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_elementwise(seed in 0u64..1_000_000, n in 1usize..48) {
        let a = data(seed, n);
        let b = data(seed ^ 0x9e37, n);
        let c = data(seed ^ 0x79b9, 1)[0];
        let mut t = Tape::new();
        let va = leaf(&mut t, [n], &a);
        let vb = leaf(&mut t, [n], &b);
        let add = t.add(va, vb);
        let sub = t.sub(va, vb);
        let mul = t.mul(va, vb);
        let sc = t.scale(va, c);
        assert_bits("add", t.value(add).data(), &oracle::add(&a, &b));
        assert_bits("sub", t.value(sub).data(), &oracle::sub(&a, &b));
        assert_bits("mul", t.value(mul).data(), &oracle::mul(&a, &b));
        assert_bits("scale", t.value(sc).data(), &oracle::scale(&a, c));
    }

    #[test]
    fn diff_broadcast_batch(seed in 0u64..1_000_000, b in 1usize..5, tt in 1usize..7, d in 1usize..9) {
        let x = data(seed, b * tt * d);
        let m = data(seed ^ 2, tt * d);
        let mut t = Tape::new();
        let vx3 = leaf(&mut t, [b, tt, d], &x);
        let vm = leaf(&mut t, [tt, d], &m);
        let bc = t.add_broadcast_batch(vx3, vm);
        assert_bits("add_broadcast_batch", t.value(bc).data(), &oracle::add_broadcast_batch(&x, &m, b, tt, d));
    }

    #[test]
    fn diff_reductions(seed in 0u64..1_000_000, n in 1usize..9, d in 1usize..9) {
        let x = data(seed, n * d);
        // 0/1 weights with at least one survivor (engine panics on all-zero)
        let mut w: Vec<f32> = data(seed ^ 3, n * d).iter().map(|&v| f32::from(v > 0.0)).collect();
        w[0] = 1.0;
        let mut t = Tape::new();
        let vx = leaf(&mut t, [n, d], &x);
        let sa = t.sum_all(vx);
        let ma = t.mean_all(vx);
        let sr = t.sum_rows(vx);
        let mm = t.masked_mean(vx, &Tensor::from_vec([n, d], w.clone()));
        assert_close("sum_all", t.value(sa).data(), &[oracle::sum_all(&x)], 1e-5);
        assert_close("mean_all", t.value(ma).data(), &[oracle::mean_all(&x)], 1e-5);
        assert_close("sum_rows", t.value(sr).data(), &oracle::sum_rows(&x, d), 1e-5);
        assert_close("masked_mean", t.value(mm).data(), &[oracle::masked_mean(&x, &w)], 1e-5);
    }
}

// ---------------------------------------------------------------------------
// ops/embedding.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_embedding_gathers(seed in 0u64..1_000_000, v in 1usize..12, d in 1usize..9, n in 1usize..16) {
        let table = data(seed, v * d);
        let mut r = rng(seed ^ 4);
        let ids: Vec<u32> = (0..n).map(|_| r.gen_range(0..v as u32)).collect();
        let mut t = Tape::new();
        let vt = leaf(&mut t, [v, d], &table);
        let e = t.embedding(vt, &ids, &[n]);
        assert_bits("embedding", t.value(e).data(), &oracle::embedding(&table, d, &ids));
    }

    #[test]
    fn diff_time_slices(seed in 0u64..1_000_000, b in 1usize..4, tt in 1usize..7, d in 1usize..10) {
        let x = data(seed, b * tt * d);
        let mut r = rng(seed ^ 5);
        let ti = r.gen_range(0..tt);
        let positions: Vec<(usize, usize)> =
            (0..b + 1).map(|_| (r.gen_range(0..b), r.gen_range(0..tt))).collect();
        let mut t = Tape::new();
        let vx = leaf(&mut t, [b, tt, d], &x);
        let st = t.select_time(vx, ti);
        let lt = t.last_time(vx);
        let gp = t.gather_positions(vx, &positions);
        assert_bits("select_time", t.value(st).data(), &oracle::select_time(&x, b, tt, d, ti));
        assert_bits("last_time", t.value(lt).data(), &oracle::select_time(&x, b, tt, d, tt - 1));
        assert_bits("gather_positions", t.value(gp).data(), &oracle::gather_positions(&x, tt, d, &positions));
    }

    #[test]
    fn diff_concat_and_scale_rows(seed in 0u64..1_000_000, n in 1usize..7, m in 1usize..7, da in 1usize..8, db in 1usize..8) {
        let a = data(seed, n * da);
        let b = data(seed ^ 6, n * db);
        let c = data(seed ^ 19, m * da);
        let w = data(seed ^ 7, n);
        let mut t = Tape::new();
        let va = leaf(&mut t, [n, da], &a);
        let vb = leaf(&mut t, [n, db], &b);
        let vc = leaf(&mut t, [m, da], &c);
        let c0 = t.concat0(va, vc);
        let cl = t.concat_last(va, vb);
        let sr = t.scale_rows_const(va, &w);
        assert_bits("concat0", t.value(c0).data(), &oracle::concat0(&a, &c));
        assert_bits("concat_last", t.value(cl).data(), &oracle::concat_last(&a, &b, da, db));
        assert_bits("scale_rows_const", t.value(sr).data(), &oracle::scale_rows(&a, &w, da));
    }
}

// ---------------------------------------------------------------------------
// ops/loss.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_losses(seed in 0u64..1_000_000, n in 1usize..9, c in 1usize..9) {
        let logits = data(seed, n * c);
        let pos = data(seed ^ 8, n);
        let neg = data(seed ^ 9, n);
        let mut r = rng(seed ^ 10);
        let targets: Vec<u32> = (0..n).map(|_| r.gen_range(0..c as u32)).collect();
        let mut t = Tape::new();
        let vl = leaf(&mut t, [n, c], &logits);
        let vp = leaf(&mut t, [n], &pos);
        let vn = leaf(&mut t, [n], &neg);
        let ce = t.softmax_cross_entropy(vl, &targets);
        let bce = t.bce_pairwise(vp, vn);
        let bpr = t.bpr(vp, vn);
        assert_close("softmax_cross_entropy", t.value(ce).data(),
            &oracle::softmax_cross_entropy(&logits, c, &targets), 1e-5);
        assert_close("bce_pairwise", t.value(bce).data(), &oracle::bce_pairwise(&pos, &neg), 1e-5);
        assert_close("bpr", t.value(bpr).data(), &oracle::bpr(&pos, &neg), 1e-5);
    }
}

// ---------------------------------------------------------------------------
// ops/mask.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_masks(seed in 0u64..1_000_000, b in 1usize..5, tt in 1usize..7) {
        let valid = left_padded(seed ^ 11, b, tt);
        let causal = causal_padding_mask(&valid, tt);
        let pad = padding_mask(&valid, tt);
        assert_bits("causal_padding_mask", causal.data(), &oracle::causal_padding_mask(&valid, tt));
        assert_bits("padding_mask", pad.data(), &oracle::padding_mask(&valid, tt));
    }
}

/// Left-padded validity rows with at least one real position: the shape
/// every model feeds the mask builders.
fn left_padded(seed: u64, b: usize, tt: usize) -> Vec<Vec<bool>> {
    let mut r = rng(seed);
    (0..b)
        .map(|_| {
            let real = r.gen_range(1..=tt);
            (0..tt).map(|i| i >= tt - real).collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// ops/matmul.rs — the blocked/packed GEMM engine on non-tile-multiple shapes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diff_matmul(seed in 0u64..1_000_000, m in 1usize..34, k in 1usize..34, n in 1usize..34) {
        let a = data(seed, m * k);
        let b = data(seed ^ 12, k * n);
        let bt = data(seed ^ 13, n * k);
        let mut t = Tape::new();
        let va = leaf(&mut t, [m, k], &a);
        let vb = leaf(&mut t, [k, n], &b);
        let vbt = leaf(&mut t, [n, k], &bt);
        let nn = t.linear(va, vb, None);
        let nt = t.matmul_nt(va, vbt);
        assert_close("linear", t.value(nn).data(), &oracle::matmul_nn(&a, &b, m, k, n), 1e-4);
        assert_close("matmul_nt", t.value(nt).data(), &oracle::matmul_nt(&a, &bt, m, k, n), 1e-4);
    }

    #[test]
    fn diff_bmm(seed in 0u64..1_000_000, batch in 1usize..5, m in 1usize..10, k in 1usize..10, n in 1usize..10) {
        let a = data(seed, batch * m * k);
        let b = data(seed ^ 14, batch * k * n);
        let bt = data(seed ^ 15, batch * n * k);
        let va = Tensor::from_vec([batch, m, k], a.clone());
        let nn = linalg::bmm_nn(&va, &Tensor::from_vec([batch, k, n], b.clone()));
        let nt = linalg::bmm_nt(&va, &Tensor::from_vec([batch, n, k], bt.clone()));
        assert_close("bmm_nn", nn.data(), &oracle::bmm_nn(&a, &b, batch, m, k, n), 1e-4);
        assert_close("bmm_nt", nt.data(), &oracle::bmm_nt(&a, &bt, batch, m, k, n), 1e-4);
    }

    #[test]
    fn diff_linear_and_reshape(seed in 0u64..1_000_000, b in 1usize..4, tt in 1usize..6, k in 1usize..10, n in 1usize..10) {
        let x = data(seed, b * tt * k);
        let w = data(seed ^ 16, k * n);
        let bias = data(seed ^ 1, n);
        let mut t = Tape::new();
        let vx = leaf(&mut t, [b, tt, k], &x);
        let vw = leaf(&mut t, [k, n], &w);
        let vb = leaf(&mut t, [n], &bias);
        let plain = t.linear(vx, vw, None);
        let biased = t.linear(vx, vw, Some(vb));
        let rs = t.reshape(vx, [b * tt, k]);
        // linear is matmul on the flattened batch, then a per-row bias add
        let mm = oracle::matmul_nn(&x, &w, b * tt, k, n);
        assert_close("linear", t.value(plain).data(), &mm, 1e-4);
        assert_close("linear+bias", t.value(biased).data(), &oracle::add_bias(&mm, &bias, n), 1e-4);
        // the in-place bias add is exactly the oracle's add over the GEMM output
        let added = oracle::add_bias(t.value(plain).data(), &bias, n);
        assert_bits("linear bias add", t.value(biased).data(), &added);
        prop_assert_eq!(t.value(biased).shape().dims(), &[b, tt, n]);
        assert_bits("reshape", t.value(rs).data(), &x);
        prop_assert_eq!(t.value(rs).shape().dims(), &[b * tt, k]);
    }
}

// ---------------------------------------------------------------------------
// ops/norm.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_norms(seed in 0u64..1_000_000, n in 1usize..9, d in 1usize..17) {
        let x = data(seed, n * d);
        let gain = data(seed ^ 1, d);
        let shift = data(seed ^ 2, d);
        let mut t = Tape::new();
        let vx = leaf(&mut t, [n, d], &x);
        let unit = leaf(&mut t, [d], &vec![1.0; d]);
        let zero = leaf(&mut t, [d], &vec![0.0; d]);
        let vg = leaf(&mut t, [d], &gain);
        let vs = leaf(&mut t, [d], &shift);
        let core = t.layernorm(vx, unit, zero, 1e-5);
        let ln = t.layernorm(vx, vg, vs, 1e-5);
        let nr = t.normalize_rows(vx, 1e-6);
        let oracle_core = oracle::layernorm(&x, d, 1e-5);
        let oracle_ln = oracle::add_bias(&oracle::mul_bias(&oracle_core, &gain, d), &shift, d);
        assert_close("layernorm core", t.value(core).data(), &oracle_core, 1e-4);
        assert_close("layernorm", t.value(ln).data(), &oracle_ln, 1e-4);
        // gain then shift, per element, exactly as the oracle applies them
        let affine = oracle::add_bias(&oracle::mul_bias(t.value(core).data(), &gain, d), &shift, d);
        assert_bits("layernorm gain and shift", t.value(ln).data(), &affine);
        assert_close("normalize_rows", t.value(nr).data(), &oracle::normalize_rows(&x, d, 1e-6), 1e-5);
    }

    #[test]
    fn diff_dropout(seed in 0u64..1_000_000, n in 1usize..48, p in 0.05f32..0.9) {
        let x = data(seed, n);
        // engine and oracle consume the same seeded stream
        let mut engine_rng = rng(seed ^ 17);
        let mut oracle_rng = rng(seed ^ 17);
        let mut t = Tape::new();
        let vx = leaf(&mut t, [n], &x);
        let dr = t.dropout(vx, p, true, &mut engine_rng);
        let mask = oracle::dropout_mask(n, p, &mut oracle_rng);
        let expect: Vec<f32> = x.iter().zip(&mask).map(|(&v, &m)| v * m).collect();
        assert_bits("dropout", t.value(dr).data(), &expect);
        // identity paths must not consume any randomness
        let before = engine_rng.gen::<f32>().to_bits();
        let mut t2 = Tape::new();
        let vx2 = leaf(&mut t2, [n], &x);
        let eval_off = t2.dropout(vx2, p, false, &mut oracle_rng);
        let p_zero = t2.dropout(vx2, 0.0, true, &mut oracle_rng);
        assert_bits("dropout(eval)", t2.value(eval_off).data(), &x);
        assert_bits("dropout(p=0)", t2.value(p_zero).data(), &x);
        prop_assert_eq!(before, oracle_rng.gen::<f32>().to_bits());
    }
}

// ---------------------------------------------------------------------------
// ops/softmax.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_softmax(seed in 0u64..1_000_000, n in 1usize..9, d in 1usize..17) {
        let mut x = data(seed, n * d);
        // adversarial: mask out some entries the way attention does, keeping
        // at least one unmasked entry per row
        let mut r = rng(seed ^ 18);
        for row in x.chunks_mut(d) {
            let keep = r.gen_range(0..d);
            for (i, v) in row.iter_mut().enumerate() {
                if i != keep && r.gen_bool(0.3) {
                    *v += -1e9;
                }
            }
        }
        let mut sm = vec![0.0; n * d];
        softmax_rows(&x, d, &mut sm);
        assert_close("softmax_rows", &sm, &oracle::softmax(&x, d), 1e-5);
    }
}

// ---------------------------------------------------------------------------
// ops/window.rs
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_window_ops(seed in 0u64..1_000_000, b in 1usize..4, tt in 1usize..8, d in 1usize..7, h in 1usize..8) {
        let h = h.min(tt); // unfold needs h <= T
        let x = data(seed, b * tt * d);
        let mut t = Tape::new();
        let vx = leaf(&mut t, [b, tt, d], &x);
        let uf = t.unfold_windows(vx, h);
        let mx = t.max_over_dim1(vx);
        let tr = t.transpose12(vx);
        assert_bits("unfold_windows", t.value(uf).data(), &oracle::unfold_windows(&x, b, tt, d, h));
        assert_bits("max_over_dim1", t.value(mx).data(), &oracle::max_over_dim1(&x, b, tt, d));
        assert_bits("transpose12", t.value(tr).data(), &oracle::transpose12(&x, b, tt, d));
    }
}
