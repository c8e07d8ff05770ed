//! Cost of the Transformer encoder: forward only (inference/scoring) vs
//! forward + backward (one training step) at the paper's sequence length.
//!
//! Both arms time `user_repr`, the path CL4SRec pre-training, evaluation
//! and serving take: all blocks but the last run over every position, and
//! the final block runs its queries, attention row, output projection,
//! LayerNorms and FFN at position `T-1` only. Its keys and values still
//! cover all `T` positions.
//!
//! The `attention` group times `Tape::attention` alone, forward and
//! forward + backward, in training at p = 0.2 on the shapes a B = 256,
//! T = 50, d = 64, h = 2 view feeds it: queries at every position
//! (`tq50`, every block but the last) and at the last only (`tq1`, the
//! final block of `user_repr`), keys and values `[B, T, d]`, causal masks
//! over left-padded histories.
//!
//! The `dropout` group times `Tape::dropout` alone at the paper's p = 0.2 on
//! the two mask shapes a B = 256, T = 50, d = 64, h = 2 training view
//! draws: activations `[B, T, d]` and attention weights `[B, h, T, T]`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqrec_data::batch::pad_left;
use seqrec_models::encoder::{EncoderConfig, TransformerEncoder};
use seqrec_tensor::init::{self, rng};
use seqrec_tensor::nn::Step;
use seqrec_tensor::ops::causal_padding_mask;
use seqrec_tensor::{Tape, Tensor};
use std::hint::black_box;

fn make_batch(b: usize, t: usize, num_items: usize) -> (Vec<u32>, Vec<Vec<bool>>) {
    let mut ids = Vec::with_capacity(b * t);
    let mut valid = Vec::with_capacity(b);
    for u in 0..b {
        let seq: Vec<u32> =
            (0..10 + u % 20).map(|i| ((u * 7 + i * 3) % num_items) as u32 + 1).collect();
        let (i, v) = pad_left(&seq, t);
        ids.extend(i);
        valid.push(v);
    }
    (ids, valid)
}

fn bench_attention(c: &mut Criterion) {
    let cfg =
        EncoderConfig { num_items: 1000, d: 64, heads: 2, layers: 2, max_len: 50, dropout: 0.2 };
    let mut r = rng(1);
    let enc = TransformerEncoder::new(cfg, &mut r);

    let mut group = c.benchmark_group("encoder");
    group.sample_size(10);
    for &b in &[32usize, 128] {
        let (ids, valid) = make_batch(b, 50, 1000);
        group.bench_with_input(BenchmarkId::new("forward", b), &b, |bench, _| {
            bench.iter(|| {
                let mut step = Step::new();
                let mut r2 = rng(0);
                let out = enc.user_repr(&mut step, black_box(&ids), &valid, false, &mut r2);
                black_box(step.tape.value(out).at(0));
            });
        });
        group.bench_with_input(BenchmarkId::new("forward_backward", b), &b, |bench, _| {
            bench.iter(|| {
                let mut step = Step::new();
                let mut r2 = rng(0);
                let out = enc.user_repr(&mut step, black_box(&ids), &valid, true, &mut r2);
                let sq = step.tape.mul(out, out);
                let loss = step.tape.sum_all(sq);
                let grads = step.tape.backward(loss);
                black_box(grads.get(out).is_some());
            });
        });
    }
    group.finish();
}

fn bench_fused_attention(c: &mut Criterion) {
    let (b, t, d, h) = (256usize, 50usize, 64usize, 2usize);
    let (_, valid) = make_batch(b, t, 1000);
    let full = causal_padding_mask(&valid, t);
    let last: Vec<f32> =
        full.data().chunks(t * t).flat_map(|m| &m[(t - 1) * t..]).copied().collect();
    let last = Tensor::from_vec([b, 1, t], last);
    let k = init::normal([b, t, d], 1.0, &mut rng(5));
    let v = init::normal([b, t, d], 1.0, &mut rng(6));
    let mut r = rng(3);

    let mut group = c.benchmark_group("attention");
    group.sample_size(10);
    for (tq, mask) in [(t, &full), (1, &last)] {
        let q = init::normal([b, tq, d], 1.0, &mut rng(4));
        let id = format!("tq{tq}");
        group.bench_with_input(BenchmarkId::new("forward", &id), &q, |bench, q| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let (vq, vk, vv) =
                    (tape.leaf(q.clone()), tape.leaf(k.clone()), tape.leaf(v.clone()));
                let y = tape.attention(vq, vk, vv, mask, h, 0.2, true, &mut r);
                black_box(tape.value(y).at(0));
            });
        });
        group.bench_with_input(BenchmarkId::new("forward_backward", &id), &q, |bench, q| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let (vq, vk, vv) =
                    (tape.leaf(q.clone()), tape.leaf(k.clone()), tape.leaf(v.clone()));
                let y = tape.attention(vq, vk, vv, mask, h, 0.2, true, &mut r);
                let loss = tape.sum_all(y);
                let grads = tape.backward(loss);
                black_box(grads.get(vq).is_some());
            });
        });
    }
    group.finish();
}

fn bench_dropout(c: &mut Criterion) {
    let mut group = c.benchmark_group("dropout");
    group.sample_size(10);
    for dims in [vec![256usize, 50, 64], vec![256, 2, 50, 50]] {
        let id = dims.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
        let x = init::normal(dims, 1.0, &mut rng(2));
        let mut r = rng(3);
        group.bench_with_input(BenchmarkId::new("forward", &id), &x, |bench, x| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let v = tape.leaf(x.clone());
                let y = tape.dropout(v, 0.2, true, &mut r);
                black_box(tape.value(y).at(0));
            });
        });
        group.bench_with_input(BenchmarkId::new("forward_backward", &id), &x, |bench, x| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let v = tape.leaf(x.clone());
                let y = tape.dropout(v, 0.2, true, &mut r);
                let loss = tape.sum_all(y);
                let grads = tape.backward(loss);
                black_box(grads.get(v).is_some());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attention, bench_fused_attention, bench_dropout);
criterion_main!(benches);
