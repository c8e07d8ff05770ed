//! Naive scalar reference implementations ("the oracle").
//!
//! Every function here is written straight from the mathematical definition,
//! independently of the optimized engine in `seqrec-tensor`/`cl4srec`:
//! plain nested loops, no blocking, no fused backward tricks, f64
//! accumulation wherever a sum appears. The differential fuzzers in
//! `tests/` hold the engine to these within tight tolerances on adversarial
//! shapes.
//!
//! Inputs and outputs are plain `&[f32]` slices plus explicit dimensions so
//! the oracle shares no code (not even shape plumbing) with the engine.

use rand::seq::SliceRandom;
use rand::Rng;
use seqrec_tensor::init::TensorRng;

// ---------------------------------------------------------------------------
// activations
// ---------------------------------------------------------------------------

/// `max(0, x)` elementwise.
pub fn relu(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect()
}

/// `1 / (1 + e^{-x})` elementwise, computed in f64 from the definition.
pub fn sigmoid(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| (1.0 / (1.0 + (-v as f64).exp())) as f32).collect()
}

/// `tanh(x)` elementwise (f64).
pub fn tanh(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| (v as f64).tanh() as f32).collect()
}

/// `ln(1 + e^x)` elementwise (f64). Valid for the bounded inputs the
/// fuzzers generate; the engine's stabilised form must agree there.
pub fn softplus(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| (1.0 + (v as f64).exp()).ln() as f32).collect()
}

// ---------------------------------------------------------------------------
// basic elementwise / reductions
// ---------------------------------------------------------------------------

/// Elementwise `a + b`.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Elementwise `a - b`.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Elementwise `a ∘ b`.
pub fn mul(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

/// `c · a` elementwise.
pub fn scale(a: &[f32], c: f32) -> Vec<f32> {
    a.iter().map(|&x| x * c).collect()
}

/// Adds a length-`d` bias to every row of an `[rows, d]` matrix.
pub fn add_bias(x: &[f32], bias: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        for (v, b) in row.iter().zip(bias) {
            out.push(v + b);
        }
    }
    out
}

/// Multiplies every row of an `[rows, d]` matrix by a length-`d` gain.
pub fn mul_bias(x: &[f32], gamma: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        for (v, g) in row.iter().zip(gamma) {
            out.push(v * g);
        }
    }
    out
}

/// `[B, T, d] + [T, d]` broadcast over the batch axis.
pub fn add_broadcast_batch(x: &[f32], m: &[f32], b: usize, t: usize, d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(b * t * d);
    for bi in 0..b {
        for i in 0..t * d {
            out.push(x[bi * t * d + i] + m[i]);
        }
    }
    out
}

/// Sum of all elements, accumulated in f64.
pub fn sum_all(x: &[f32]) -> f32 {
    x.iter().map(|&v| v as f64).sum::<f64>() as f32
}

/// Mean of all elements, accumulated in f64.
pub fn mean_all(x: &[f32]) -> f32 {
    (x.iter().map(|&v| v as f64).sum::<f64>() / x.len() as f64) as f32
}

/// Per-row sums of an `[n, d]` matrix.
pub fn sum_rows(x: &[f32], d: usize) -> Vec<f32> {
    x.chunks(d).map(|row| row.iter().map(|&v| v as f64).sum::<f64>() as f32).collect()
}

/// `Σ(x ∘ w) / Σw` (both sums over every element, f64).
pub fn masked_mean(x: &[f32], w: &[f32]) -> f32 {
    let num: f64 = x.iter().zip(w).map(|(&a, &b)| a as f64 * b as f64).sum();
    let den: f64 = w.iter().map(|&b| b as f64).sum();
    (num / den) as f32
}

// ---------------------------------------------------------------------------
// embedding / structural
// ---------------------------------------------------------------------------

/// Gathers rows of a `[v, d]` table: output `[ids.len(), d]`.
pub fn embedding(table: &[f32], d: usize, ids: &[u32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(ids.len() * d);
    for &id in ids {
        let id = id as usize;
        out.extend_from_slice(&table[id * d..(id + 1) * d]);
    }
    out
}

/// `[B, T, d] -> [B*h, T, d/h]`, heads laid out batch-major then head:
/// output row `(bi*h + hi, ti)` holds input columns `hi*dh..(hi+1)*dh` of
/// `(bi, ti)`.
pub fn split_heads(x: &[f32], b: usize, t: usize, d: usize, h: usize) -> Vec<f32> {
    let dh = d / h;
    let mut out = vec![0.0f32; b * t * d];
    for bi in 0..b {
        for hi in 0..h {
            for ti in 0..t {
                for k in 0..dh {
                    out[((bi * h + hi) * t + ti) * dh + k] = x[(bi * t + ti) * d + hi * dh + k];
                }
            }
        }
    }
    out
}

/// Inverse of [`split_heads`]: `[B*h, T, dh] -> [B, T, dh*h]`.
pub fn merge_heads(x: &[f32], b: usize, t: usize, dh: usize, h: usize) -> Vec<f32> {
    let d = dh * h;
    let mut out = vec![0.0f32; b * t * d];
    for bi in 0..b {
        for hi in 0..h {
            for ti in 0..t {
                for k in 0..dh {
                    out[(bi * t + ti) * d + hi * dh + k] = x[((bi * h + hi) * t + ti) * dh + k];
                }
            }
        }
    }
    out
}

/// Timestep `ti` of every batch row: `[B, T, d] -> [B, d]`.
pub fn select_time(x: &[f32], b: usize, t: usize, d: usize, ti: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(b * d);
    for bi in 0..b {
        out.extend_from_slice(&x[(bi * t + ti) * d..(bi * t + ti) * d + d]);
    }
    out
}

/// Arbitrary `(batch, time)` gathers from `[B, T, d]` into `[N, d]`.
pub fn gather_positions(x: &[f32], t: usize, d: usize, positions: &[(usize, usize)]) -> Vec<f32> {
    let mut out = Vec::with_capacity(positions.len() * d);
    for &(bi, ti) in positions {
        out.extend_from_slice(&x[(bi * t + ti) * d..(bi * t + ti) * d + d]);
    }
    out
}

/// Concatenation along axis 0 of two row-major blocks.
pub fn concat0(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// `[N, da] ++ [N, db] -> [N, da+db]` along the last axis.
pub fn concat_last(a: &[f32], b: &[f32], da: usize, db: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    for (ra, rb) in a.chunks(da).zip(b.chunks(db)) {
        out.extend_from_slice(ra);
        out.extend_from_slice(rb);
    }
    out
}

/// Multiplies row `i` of an `[rows, d]` matrix by `weights[i]`.
pub fn scale_rows(x: &[f32], weights: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for (row, &w) in x.chunks(d).zip(weights) {
        for &v in row {
            out.push(v * w);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// matmul
// ---------------------------------------------------------------------------

/// `[m,k]·[k,n] -> [m,n]` by the definition, f64 accumulators.
pub fn matmul_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
    out
}

/// `[m,k]·([n,k])ᵀ -> [m,n]`.
pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[j * k + p] as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
    out
}

/// Batched `[batch,m,k]·[batch,k,n] -> [batch,m,n]`.
pub fn bmm_nn(a: &[f32], b: &[f32], batch: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(batch * m * n);
    for bi in 0..batch {
        out.extend(matmul_nn(
            &a[bi * m * k..(bi + 1) * m * k],
            &b[bi * k * n..(bi + 1) * k * n],
            m,
            k,
            n,
        ));
    }
    out
}

/// Batched `[batch,m,k]·[batch,n,k] -> [batch,m,n]` (right operand
/// transposed).
pub fn bmm_nt(a: &[f32], b: &[f32], batch: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(batch * m * n);
    for bi in 0..batch {
        out.extend(matmul_nt(
            &a[bi * m * k..(bi + 1) * m * k],
            &b[bi * n * k..(bi + 1) * n * k],
            m,
            k,
            n,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// softmax / norm
// ---------------------------------------------------------------------------

/// Row softmax of an `[rows, d]` matrix, f64 with max subtraction (the
/// subtraction changes nothing mathematically; it keeps the oracle finite on
/// the same masked inputs the engine accepts).
pub fn softmax(x: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let exps: Vec<f64> = row.iter().map(|&v| (v as f64 - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        out.extend(exps.iter().map(|&e| (e / sum) as f32));
    }
    out
}

/// Per-row `(x - μ) / sqrt(var + eps)` of an `[rows, d]` matrix (f64).
pub fn layernorm(x: &[f32], d: usize, eps: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        let mean: f64 = row.iter().map(|&v| v as f64).sum::<f64>() / d as f64;
        let var: f64 =
            row.iter().map(|&v| (v as f64 - mean) * (v as f64 - mean)).sum::<f64>() / d as f64;
        let inv = 1.0 / (var + eps as f64).sqrt();
        out.extend(row.iter().map(|&v| ((v as f64 - mean) * inv) as f32));
    }
    out
}

/// Per-row `x / max(‖x‖₂, eps)` of an `[rows, d]` matrix (f64).
pub fn normalize_rows(x: &[f32], d: usize, eps: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(d) {
        let norm = row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
        let inv = 1.0 / norm.max(eps as f64);
        out.extend(row.iter().map(|&v| (v as f64 * inv) as f32));
    }
    out
}

/// The engine's dropout mask, reproduced draw-for-draw: element `i` survives
/// (scaled by `1/(1-p)`) iff the `i`-th `rng.gen::<f32>()` draw is below
/// `1 - p`. Call with the same seeded RNG state the engine will consume.
pub fn dropout_mask(n: usize, p: f32, rng: &mut TensorRng) -> Vec<f32> {
    let keep = 1.0 - p;
    (0..n).map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 }).collect()
}

// ---------------------------------------------------------------------------
// masks / loss
// ---------------------------------------------------------------------------

/// Causal + padding additive attention mask (0 allowed, −1e9 blocked):
/// query `q` sees key `k` iff `k ≤ q` and `valid[b][k]`.
pub fn causal_padding_mask(valid: &[Vec<bool>], t: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; valid.len() * t * t];
    for (bi, v) in valid.iter().enumerate() {
        for q in 0..t {
            for k in 0..t {
                if k > q || !v[k] {
                    out[(bi * t + q) * t + k] = -1e9;
                }
            }
        }
    }
    out
}

/// Padding-only (bidirectional) additive attention mask.
pub fn padding_mask(valid: &[Vec<bool>], t: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; valid.len() * t * t];
    for (bi, v) in valid.iter().enumerate() {
        for q in 0..t {
            for k in 0..t {
                if !v[k] {
                    out[(bi * t + q) * t + k] = -1e9;
                }
            }
        }
    }
    out
}

/// Adds a `[B, Tq, T]` mask to `[B*h, Tq, T]` scores, broadcast over
/// heads.
pub fn add_attn_mask(scores: &[f32], mask: &[f32], b: usize, h: usize) -> Vec<f32> {
    let stride = mask.len() / b;
    let mut out = scores.to_vec();
    for bi in 0..b {
        for hi in 0..h {
            for i in 0..stride {
                out[(bi * h + hi) * stride + i] += mask[bi * stride + i];
            }
        }
    }
    out
}

/// Multi-head scaled dot-product attention from its definition (Eq. 9–10),
/// in f64. `q` is `[B, Tq, d]`, `k` and `v` are `[B, T, d]`, `mask` is the
/// additive `[B, Tq, T]` mask and `dims` is `[B, Tq, T, d]`. For sequence
/// `b`, head `i` (columns `i·dh..(i+1)·dh`, `dh = d/h`) and query row `r`:
/// `P_r = softmax_j(Q_r·K_j / √dh + mask_rj)` and
/// `ctx_r = Σ_j P_rj·m_rj·V_j`, where `m` is [`dropout_mask`] drawn over
/// the `[B, h, Tq, T]` weights in that order when `drop` is given, and 1
/// otherwise. Returns `[B, Tq, d]`, head `i`'s context in its own columns.
pub fn attention(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: &[f32],
    dims: [usize; 4],
    h: usize,
    drop: Option<(f32, &mut TensorRng)>,
) -> Vec<f32> {
    let [b, tq, t, d] = dims;
    let dh = d / h;
    let keep = match drop {
        Some((p, rng)) => dropout_mask(b * h * tq * t, p, rng),
        None => vec![1.0; b * h * tq * t],
    };
    let scale = 1.0 / (dh as f64).sqrt();
    let mut out = vec![0.0f32; b * tq * d];
    for bi in 0..b {
        for hi in 0..h {
            let col = hi * dh;
            for r in 0..tq {
                let qrow = &q[(bi * tq + r) * d + col..][..dh];
                let logits: Vec<f64> = (0..t)
                    .map(|j| {
                        let krow = &k[(bi * t + j) * d + col..][..dh];
                        let dot: f64 =
                            qrow.iter().zip(krow).map(|(&a, &c)| a as f64 * c as f64).sum();
                        dot * scale + mask[(bi * tq + r) * t + j] as f64
                    })
                    .collect();
                let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
                let sum: f64 = exps.iter().sum();
                let row_keep = &keep[((bi * h + hi) * tq + r) * t..][..t];
                for c in 0..dh {
                    let ctx: f64 = (0..t)
                        .map(|j| {
                            exps[j] / sum
                                * row_keep[j] as f64
                                * v[(bi * t + j) * d + col + c] as f64
                        })
                        .sum();
                    out[(bi * tq + r) * d + col + c] = ctx as f32;
                }
            }
        }
    }
    out
}

/// Per-row `-ln softmax(logits)[target]` of `[n, c]` logits (f64 softmax).
pub fn softmax_cross_entropy(logits: &[f32], c: usize, targets: &[u32]) -> Vec<f32> {
    let probs = softmax(logits, c);
    probs
        .chunks(c)
        .zip(targets)
        .map(|(row, &t)| -((row[t as usize] as f64).max(1e-30).ln()) as f32)
        .collect()
}

/// `-log σ(pos) - log(1 - σ(neg))` elementwise (f64, from the definition).
pub fn bce_pairwise(pos: &[f32], neg: &[f32]) -> Vec<f32> {
    pos.iter()
        .zip(neg)
        .map(|(&p, &n)| {
            let sp = 1.0 / (1.0 + (-p as f64).exp());
            let sn = 1.0 / (1.0 + (-n as f64).exp());
            (-(sp.ln()) - (1.0 - sn).ln()) as f32
        })
        .collect()
}

/// `-log σ(pos - neg)` elementwise (f64).
pub fn bpr(pos: &[f32], neg: &[f32]) -> Vec<f32> {
    pos.iter()
        .zip(neg)
        .map(|(&p, &n)| {
            let s = 1.0 / (1.0 + (-(p as f64 - n as f64)).exp());
            (-s.ln()) as f32
        })
        .collect()
}

// ---------------------------------------------------------------------------
// window (Caser convolutions)
// ---------------------------------------------------------------------------

/// im2col unfolding: `[B, T, d] -> [B, T-h+1, h*d]`.
pub fn unfold_windows(x: &[f32], b: usize, t: usize, d: usize, h: usize) -> Vec<f32> {
    let w = t - h + 1;
    let mut out = Vec::with_capacity(b * w * h * d);
    for bi in 0..b {
        for wi in 0..w {
            for j in 0..h * d {
                out.push(x[(bi * t + wi) * d + j]);
            }
        }
    }
    out
}

/// Max over the time axis: `[B, T, n] -> [B, n]`.
pub fn max_over_dim1(x: &[f32], b: usize, t: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(b * n);
    for bi in 0..b {
        for ni in 0..n {
            let mut best = f32::NEG_INFINITY;
            for ti in 0..t {
                best = best.max(x[(bi * t + ti) * n + ni]);
            }
            out.push(best);
        }
    }
    out
}

/// `[B, T, d] -> [B, d, T]`.
pub fn transpose12(x: &[f32], b: usize, t: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * t * d];
    for bi in 0..b {
        for ti in 0..t {
            for di in 0..d {
                out[(bi * d + di) * t + ti] = x[(bi * t + ti) * d + di];
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// NT-Xent (Eq. 3 / Eq. 13)
// ---------------------------------------------------------------------------

/// The NT-Xent contrastive loss, straight from Eq. 13: L2-normalise the `2N`
/// stacked embeddings `[z1; z2]`, form the cosine-similarity matrix divided
/// by `tau`, exclude self-similarity, and average the cross-entropy of each
/// row against its positive partner (`i ↔ i+n`). All arithmetic in f64.
pub fn nt_xent(z1: &[f32], z2: &[f32], n: usize, d: usize, tau: f32) -> f32 {
    assert!(n >= 2 && z1.len() == n * d && z2.len() == n * d);
    let tau = tau as f64;
    // normalise rows of the stacked [2n, d] matrix
    let mut z = Vec::with_capacity(2 * n);
    for row in z1.chunks(d).chain(z2.chunks(d)) {
        let norm = row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt().max(1e-12);
        z.push(row.iter().map(|&v| v as f64 / norm).collect::<Vec<f64>>());
    }
    let m = 2 * n;
    let mut total = 0.0f64;
    for i in 0..m {
        let partner = if i < n { i + n } else { i - n };
        // log-sum-exp over all similarities except self
        let sims: Vec<f64> = (0..m)
            .filter(|&k| k != i)
            .map(|k| z[i].iter().zip(&z[k]).map(|(a, b)| a * b).sum::<f64>() / tau)
            .collect();
        let max = sims.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = max + sims.iter().map(|s| (s - max).exp()).sum::<f64>().ln();
        let pos = z[i].iter().zip(&z[partner]).map(|(a, b)| a * b).sum::<f64>() / tau;
        total += lse - pos;
    }
    (total / m as f64) as f32
}

// ---------------------------------------------------------------------------
// augmentations (Eq. 4–6)
// ---------------------------------------------------------------------------
//
// The operators are stochastic, so the oracle shares the *randomness source*
// with the engine (same seeded ChaCha stream, same draw order) but applies
// its own independently-written transformation logic. With equal seeds the
// engine must reproduce the oracle exactly.

/// Item crop (Eq. 4): keep `max(1, ⌊η·n⌋)` consecutive items starting at a
/// uniformly drawn offset.
pub fn crop(seq: &[u32], eta: f64, rng: &mut TensorRng) -> Vec<u32> {
    if seq.is_empty() {
        return Vec::new();
    }
    let n = seq.len();
    let mut len = (eta * n as f64).floor() as usize;
    if len < 1 {
        len = 1;
    }
    if len > n {
        len = n;
    }
    let start = rng.gen_range(0..=n - len);
    seq[start..start + len].to_vec()
}

/// Item mask (Eq. 5): replace the first `⌊γ·n⌋` entries of a shuffled
/// position list with `mask_token`.
pub fn mask(seq: &[u32], gamma: f64, mask_token: u32, rng: &mut TensorRng) -> Vec<u32> {
    let n = seq.len();
    let m = (gamma * n as f64).floor() as usize;
    let mut positions: Vec<usize> = (0..n).collect();
    positions.shuffle(rng);
    let mut out = seq.to_vec();
    for &p in positions.iter().take(m) {
        out[p] = mask_token;
    }
    out
}

/// Item reorder (Eq. 6): shuffle a window of `⌊β·n⌋` consecutive items at a
/// uniformly drawn offset (identity when the window has fewer than 2 items).
pub fn reorder(seq: &[u32], beta: f64, rng: &mut TensorRng) -> Vec<u32> {
    let n = seq.len();
    let len = (beta * n as f64).floor() as usize;
    let mut out = seq.to_vec();
    if len < 2 {
        return out;
    }
    let start = rng.gen_range(0..=n - len);
    out[start..start + len].shuffle(rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matmul_identity() {
        // [2,2] identity times arbitrary matrix
        let i = vec![1.0, 0.0, 0.0, 1.0];
        let a = vec![3.0, -1.0, 2.0, 5.0];
        assert_eq!(matmul_nn(&i, &a, 2, 2, 2), a);
        assert_eq!(matmul_nt(&a, &i, 2, 2, 2), a);
    }

    #[test]
    fn oracle_softmax_rows_sum_to_one() {
        let s = softmax(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 3);
        let r0: f32 = s[..3].iter().sum();
        let r1: f32 = s[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-6 && (r1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_attention_over_one_key_returns_its_value() {
        // One key: its softmax weight is 1 whatever the scores, so each
        // head's context is that key's value, times the dropout multiplier.
        let (q, k, v) = ([0.5, -2.0, 1.0, 3.0], [1.5, 0.25, -1.0, 2.0], [4.0, -3.0, 2.0, 1.0]);
        let out = attention(&q, &k, &v, &[0.0], [1, 1, 1, 4], 2, None);
        assert_eq!(out, v.to_vec());
        let mut r = seqrec_tensor::init::rng(12);
        let keep = dropout_mask(2, 0.5, &mut r.clone());
        let dropped = attention(&q, &k, &v, &[0.0], [1, 1, 1, 4], 2, Some((0.5, &mut r)));
        for (c, (&o, &x)) in dropped.iter().zip(&v).enumerate() {
            assert_eq!(o, x * keep[c / 2], "column {c}");
        }
    }

    #[test]
    fn oracle_ntxent_uniform_views_hit_the_ln_baseline() {
        // identical unit embeddings: every similarity is 1, so the loss is
        // exactly ln(2n-1)
        let n = 4;
        let d = 3;
        let z: Vec<f32> = (0..n * d).map(|i| if i % d == 0 { 1.0 } else { 0.0 }).collect();
        let l = nt_xent(&z, &z, n, d, 1.0) as f64;
        let expect = ((2 * n - 1) as f64).ln();
        assert!((l - expect).abs() < 1e-6, "{l} vs {expect}");
    }

    #[test]
    fn oracle_crop_len_and_contiguity() {
        let mut r = seqrec_tensor::init::rng(11);
        let seq: Vec<u32> = (1..=10).collect();
        let out = crop(&seq, 0.5, &mut r);
        assert_eq!(out.len(), 5);
        let start = out[0] as usize - 1;
        assert_eq!(out, seq[start..start + 5].to_vec());
    }
}
