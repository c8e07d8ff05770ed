//! Finite-difference verification of every differentiable op.
//!
//! These are the strongest correctness tests in the workspace: if an op's
//! hand-written backward pass is wrong, training silently converges to the
//! wrong place — a finite-difference check catches it immediately.

use seqrec_tensor::gradcheck::assert_gradients;
use seqrec_tensor::init::{rng, uniform};
use seqrec_tensor::ops::causal_padding_mask;
use seqrec_tensor::Tensor;

const EPS: f32 = 1e-2;
const TOL: f64 = 2e-3;

fn t(seed: u64, shape: impl Into<seqrec_tensor::Shape>) -> Tensor {
    uniform(shape, -1.0, 1.0, &mut rng(seed))
}

#[test]
fn grad_add_sub_mul_scale() {
    assert_gradients(
        |s, v| {
            let a = s.tape.add(v[0], v[1]);
            let b = s.tape.sub(a, v[0]);
            let c = s.tape.mul(b, v[1]);
            let d = s.tape.scale(c, 1.7);
            s.tape.sum_all(d)
        },
        &[t(1, [2, 3]), t(2, [2, 3])],
        EPS,
        TOL,
    );
}

/// `Tape::linear` on an input shaped `x`, into `d_out` features, with or
/// without a bias; the loss squares the output so every gradient depends
/// on the inputs.
fn check_linear(seed: u64, x: &[usize], d_out: usize, bias: bool) {
    let d_in = *x.last().expect("rank >= 1");
    let mut inputs = vec![t(seed, x), t(seed + 1, [d_in, d_out])];
    if bias {
        inputs.push(t(seed + 2, [d_out]));
    }
    assert_gradients(
        |s, v| {
            let y = s.tape.linear(v[0], v[1], v.get(2).copied());
            let sq = s.tape.mul(y, y);
            s.tape.sum_all(sq)
        },
        &inputs,
        EPS,
        TOL,
    );
}

#[test]
fn grad_linear() {
    check_linear(3, &[4, 3], 2, true);
    check_linear(3, &[4, 3], 2, false);
    check_linear(90, &[2, 3, 4], 5, true);
    check_linear(90, &[2, 3, 4], 5, false);
    // NCF's prediction head: one output feature.
    check_linear(93, &[5, 4], 1, true);
}

#[test]
fn grad_broadcast_batch() {
    assert_gradients(
        |s, v| {
            let a = s.tape.add_broadcast_batch(v[0], v[1]);
            let sq = s.tape.mul(a, a);
            s.tape.sum_all(sq)
        },
        &[t(6, [2, 3, 2]), t(7, [3, 2])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_sum_rows_and_masked_mean() {
    let w = Tensor::from_vec([4], vec![1.0, 0.0, 1.0, 1.0]);
    assert_gradients(
        move |s, v| {
            let sq = s.tape.mul(v[0], v[0]);
            let rows = s.tape.sum_rows(sq);
            s.tape.masked_mean(rows, &w)
        },
        &[t(8, [4, 3])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_activations() {
    for (seed, f) in [
        (10u64, 0usize), // relu
        (11, 1),         // sigmoid
        (12, 2),         // tanh
        (13, 3),         // softplus
    ] {
        assert_gradients(
            move |s, v| {
                let y = match f {
                    0 => s.tape.relu(v[0]),
                    1 => s.tape.sigmoid(v[0]),
                    2 => s.tape.tanh(v[0]),
                    _ => s.tape.softplus(v[0]),
                };
                // square to make the loss non-linear in y
                let sq = s.tape.mul(y, y);
                s.tape.sum_all(sq)
            },
            // keep away from relu's kink at 0 by seeding different ranges
            &[t(seed, [3, 3]).map(|x| x + 0.05 * x.signum())],
            EPS,
            TOL,
        );
    }
}

#[test]
fn grad_matmul_nt() {
    assert_gradients(
        |s, v| {
            let c = s.tape.matmul_nt(v[0], v[1]);
            let sq = s.tape.mul(c, c);
            s.tape.sum_all(sq)
        },
        &[t(22, [3, 4]), t(23, [5, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_layernorm() {
    assert_gradients(
        |s, v| {
            let y = s.tape.layernorm(v[0], v[1], v[2], 1e-5);
            let sq = s.tape.mul(y, y);
            let c = s.tape.scale(sq, 0.5);
            let cube = s.tape.mul(c, y);
            s.tape.sum_all(cube)
        },
        // The gain is bounded away from 0 so every column carries signal.
        &[t(31, [3, 6]).scale(2.0), t(4, [6]).map(|g| g + g.signum()), t(5, [6])],
        EPS,
        5e-3, // layernorm FD is noisier: the normalisation amplifies eps
    );
}

#[test]
fn grad_normalize_rows() {
    assert_gradients(
        |s, v| {
            let y = s.tape.normalize_rows(v[0], 1e-12);
            let sq = s.tape.mul(y, y);
            let asym = s.tape.mul(sq, y);
            s.tape.sum_all(asym)
        },
        // rows bounded away from 0 so the norm is smooth
        &[t(32, [3, 4]).map(|x| x + 0.6 * x.signum())],
        EPS,
        5e-3,
    );
}

#[test]
fn grad_embedding_gather() {
    assert_gradients(
        |s, v| {
            let e = s.tape.embedding(v[0], &[2, 0, 2, 1], &[4]);
            let sq = s.tape.mul(e, e);
            s.tape.sum_all(sq)
        },
        &[t(33, [3, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_last_time() {
    assert_gradients(
        |s, v| {
            let last = s.tape.last_time(v[0]);
            let sq = s.tape.mul(last, last);
            s.tape.sum_all(sq)
        },
        &[t(34, [2, 3, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_concat0() {
    assert_gradients(
        |s, v| {
            let c = s.tape.concat0(v[0], v[1]);
            let sq = s.tape.mul(c, c);
            s.tape.sum_all(sq)
        },
        &[t(35, [2, 3]), t(36, [4, 3])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_concat_last() {
    assert_gradients(
        |s, v| {
            let c = s.tape.concat_last(v[0], v[1]);
            let sq = s.tape.mul(c, c);
            s.tape.sum_all(sq)
        },
        &[t(70, [3, 2]), t(71, [3, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_scale_rows_const() {
    assert_gradients(
        |s, v| {
            let y = s.tape.scale_rows_const(v[0], &[1.0, 0.0, 0.5]);
            let sq = s.tape.mul(y, y);
            s.tape.sum_all(sq)
        },
        &[t(37, [3, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_softmax_cross_entropy() {
    assert_gradients(
        |s, v| {
            let l = s.tape.softmax_cross_entropy(v[0], &[1, 0, 2]);
            s.tape.mean_all(l)
        },
        &[t(38, [3, 4])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_bce_and_bpr() {
    assert_gradients(
        |s, v| {
            let l = s.tape.bce_pairwise(v[0], v[1]);
            s.tape.mean_all(l)
        },
        &[t(39, [5]), t(40, [5])],
        EPS,
        TOL,
    );
    assert_gradients(
        |s, v| {
            let l = s.tape.bpr(v[0], v[1]);
            s.tape.mean_all(l)
        },
        &[t(41, [5]), t(42, [5])],
        EPS,
        TOL,
    );
}

/// `Tape::attention` with h = 2 heads of width 2 over T = 3 positions,
/// queries at every position (`Tq = T`) and at the last only (`Tq = 1`),
/// at inference and under a fixed dropout draw (p = 0.2, the stream
/// reseeded on every call so the mask is a constant of the function).
/// Sequence 0 is left-padded by one: every query row sees a masked key,
/// and its first query row sees no key at all. That row's f32 scores all
/// round to −1e9, so its softmax is flat and blind to a finite-difference
/// step in Q or K that the exact softmax, and the analytic gradient, still
/// feel. The models never read such a row (it is a padding position), and
/// neither does this loss: its weight is 0, so the check asserts that the
/// row stays finite and sends no gradient back.
#[test]
fn grad_attention() {
    let valid = [vec![false, true, true], vec![true, true, true]];
    let full = causal_padding_mask(&valid, 3);
    for tq in [3usize, 1] {
        let mask = if tq == 3 {
            full.clone()
        } else {
            let last = full.data().chunks(9).flat_map(|m| &m[6..]).copied().collect();
            Tensor::from_vec([2, 1, 3], last)
        };
        let mut weight = t(54, [2, tq, 4]).map(|w| w + w.signum());
        if tq == 3 {
            weight.data_mut()[..4].fill(0.0);
        }
        for training in [false, true] {
            let (mask, weight) = (mask.clone(), weight.clone());
            assert_gradients(
                move |s, v| {
                    let mut r = rng(61);
                    let y = s.tape.attention(v[0], v[1], v[2], &mask, 2, 0.2, training, &mut r);
                    let sq = s.tape.mul(y, y);
                    let w = s.tape.mul_const(sq, &weight);
                    s.tape.sum_all(w)
                },
                &[t(50, [2, tq, 4]), t(51, [2, 3, 4]), t(52, [2, 3, 4])],
                EPS,
                5e-3,
            );
        }
    }
}

#[test]
fn grad_window_ops() {
    assert_gradients(
        |s, v| {
            let u = s.tape.unfold_windows(v[0], 2);
            let sq = s.tape.mul(u, u);
            s.tape.sum_all(sq)
        },
        &[t(80, [2, 4, 3])],
        EPS,
        TOL,
    );
    assert_gradients(
        |s, v| {
            let tr = s.tape.transpose12(v[0]);
            let sq = s.tape.mul(tr, tr);
            let cube = s.tape.mul(sq, tr);
            s.tape.sum_all(cube)
        },
        &[t(81, [2, 3, 4])],
        EPS,
        TOL,
    );
    // max is piecewise linear: keep entries well separated so the FD step
    // never crosses an argmax boundary.
    let x = Tensor::from_vec([1, 3, 2], vec![0.0, 5.0, 1.0, -2.0, 3.0, 0.5]);
    assert_gradients(
        |s, v| {
            let m = s.tape.max_over_dim1(v[0]);
            let sq = s.tape.mul(m, m);
            s.tape.sum_all(sq)
        },
        &[x],
        1e-3,
        TOL,
    );
}

#[test]
fn grad_gather_positions() {
    assert_gradients(
        |s, v| {
            let g = s.tape.gather_positions(v[0], &[(0, 1), (1, 0), (0, 1)]);
            let sq = s.tape.mul(g, g);
            s.tape.sum_all(sq)
        },
        &[t(82, [2, 3, 2])],
        EPS,
        TOL,
    );
}

#[test]
fn grad_dropout_eval_mode_is_transparent() {
    assert_gradients(
        |s, v| {
            let mut r = rng(60);
            let y = s.tape.dropout(v[0], 0.5, false, &mut r);
            let sq = s.tape.mul(y, y);
            s.tape.sum_all(sq)
        },
        &[t(53, [3, 3])],
        EPS,
        TOL,
    );
}
