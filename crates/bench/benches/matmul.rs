//! Matmul engine benchmarks with GFLOP/s reporting on the shapes the paper's
//! training loop actually produces (DESIGN.md "key design decisions").
//!
//! Two arms per shape:
//! * `blocked_*` — the packed/blocked GEMM engine,
//! * `naive`     — the triple loop, small square shapes only (it is far too
//!   slow at the paper shapes to be worth the bench time).
//!
//! Every benchmark id encodes its dimensions as `<m>x<k>x<n>`, and
//! throughput is declared as `Throughput::Elements(flops)` with
//! `flops = 2·∏dims`, so the reported element rate *is* FLOP/s.
//!
//! Paper shapes (batch 64, seq len 50, d=64, |V|≈4096, NT-Xent batch
//! 2N=512):
//! * output projection `[B·T, d]·[d, |V|]` → nn 3200×64×4096 (and the
//!   smaller 512×64×4096),
//! * NT-Xent similarity `[2N, d]·[2N, d]ᵀ` → nt 512×64×512.
//!
//! The encoder's linear layers, applied to one augmented view of a
//! pre-training batch (256 sequences × 50 positions = 12,800 tokens,
//! d = 64), add a pair: the forward `x·W` (nn 12800×64×64) and its weight
//! gradient `xᵀ·g` (tn 64×12800×64), the shape the engine splits into one
//! row band per worker. Attention's score and context products run inside
//! `Tape::attention`, which `benches/attention.rs` times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seqrec_tensor::init::{rng, uniform};
use seqrec_tensor::linalg;
use seqrec_tensor::Tensor;
use std::hint::black_box;

fn flops2d(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

fn dims_id(dims: &[usize]) -> String {
    dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
}

fn pair(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut r = rng(seed);
    let a = uniform([m, k], -1.0, 1.0, &mut r);
    let b = uniform([k, n], -1.0, 1.0, &mut r);
    (a, b)
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);

    // Square sweep, with the triple loop as the baseline.
    for &n in &[32usize, 128, 256] {
        let (a, b) = pair(n, n, n, 1);
        let id = dims_id(&[n, n, n]);
        group.throughput(Throughput::Elements(flops2d(n, n, n)));
        group.bench_with_input(BenchmarkId::new("blocked_nn", &id), &n, |bench, _| {
            bench.iter(|| linalg::matmul_nn(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("naive", &id), &n, |bench, _| {
            bench.iter(|| linalg::matmul_naive(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("blocked_nt", &id), &n, |bench, _| {
            bench.iter(|| linalg::matmul_nt(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("blocked_tn", &id), &n, |bench, _| {
            bench.iter(|| linalg::matmul_tn(black_box(&a), black_box(&b)));
        });
    }

    // Projection layer [B·T, d]·[d, |V|]: the dominant cost of a training
    // step. 3200×64×4096 is the full batch-64 paper shape.
    for &(m, k, n) in &[(512usize, 64usize, 4096usize), (3200, 64, 4096)] {
        let (a, b) = pair(m, k, n, 2);
        let id = dims_id(&[m, k, n]);
        group.throughput(Throughput::Elements(flops2d(m, k, n)));
        group.bench_with_input(BenchmarkId::new("blocked_nn", &id), &m, |bench, _| {
            bench.iter(|| linalg::matmul_nn(black_box(&a), black_box(&b)));
        });
    }

    // NT-Xent similarity matrix [2N, d]·[2N, d]ᵀ at the paper's 2N=512.
    {
        let (m, k, n) = (512usize, 64usize, 512usize);
        let mut r = rng(3);
        let z1 = uniform([m, k], -1.0, 1.0, &mut r);
        let z2 = uniform([n, k], -1.0, 1.0, &mut r);
        let id = dims_id(&[m, k, n]);
        group.throughput(Throughput::Elements(flops2d(m, k, n)));
        group.bench_with_input(BenchmarkId::new("blocked_nt", &id), &m, |bench, _| {
            bench.iter(|| linalg::matmul_nt(black_box(&z1), black_box(&z2)));
        });
    }

    // Encoder linear layer: forward x·W and weight gradient xᵀ·g over the
    // 12,800 tokens of one pre-training view: the engine's two schedules.
    {
        let (tokens, d) = (12_800usize, 64usize);
        let (x, w) = pair(tokens, d, d, 6);
        let g = uniform([tokens, d], -1.0, 1.0, &mut rng(7));
        group.throughput(Throughput::Elements(flops2d(tokens, d, d)));
        let id = dims_id(&[tokens, d, d]);
        group.bench_with_input(BenchmarkId::new("blocked_nn", &id), &tokens, |bench, _| {
            bench.iter(|| linalg::matmul_nn(black_box(&x), black_box(&w)));
        });
        let id = dims_id(&[d, tokens, d]);
        group.bench_with_input(BenchmarkId::new("blocked_tn", &id), &tokens, |bench, _| {
            bench.iter(|| linalg::matmul_tn(black_box(&x), black_box(&g)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
