//! `eval_full`: full-catalog leave-one-out evaluation
//! (`seqrec_eval::evaluate`, Test target) of a seeded SASRec on the
//! full-size beauty preset. Batch inference only: the encoder forward at
//! batch 256, a 256 × catalog GEMM and `rank_of_target`, no backward pass.
//!
//! Each timed op is one `evaluate` call over one 256-user chunk of a
//! seeded user order. Untimed calls warm up first; the end-to-end timings
//! come from the fastest quarter of the timed calls.

use std::time::Instant;

use seqrec_data::batch::epoch_batches;
use seqrec_data::Split;
use seqrec_eval::{
    evaluate, EvalOptions, EvalTarget, RankingMetrics, SequenceScorer, StatefulScorer,
};
use seqrec_models::{EncoderConfig, SasRec};

use crate::spec::Outcome;
use crate::stats::{fastest_quarter, percentile};
use crate::trace::{out_path, Counters, Tracer};
use crate::{dataset, run_for, timed_setup, Ctx};

/// Chunks whose encode and score calls the traced run times separately.
const SPLIT_CHUNKS: usize = 8;

struct EvalBench {
    split: Split,
    model: SasRec,
    chunks: Vec<Vec<usize>>,
}

impl EvalBench {
    fn new(ctx: &Ctx, generate_ms: &mut Vec<f64>) -> EvalBench {
        let (split, n, ms) = dataset(ctx.scale(1.0), ctx.seed);
        generate_ms.push(ms);
        let users: Vec<usize> = (0..split.num_users()).collect();
        let chunks = epoch_batches(&users, ctx.batch(), ctx.seed)
            .into_iter()
            .filter(|c| c.len() == ctx.batch())
            .collect();
        EvalBench { split, model: SasRec::new(EncoderConfig::small(n), ctx.seed), chunks }
    }

    fn chunk(&self, i: usize) -> &[usize] {
        &self.chunks[i % self.chunks.len()]
    }

    /// Evaluates chunk `i`; returns the wall seconds and the metrics.
    fn op(&self, i: usize) -> (f64, RankingMetrics) {
        let chunk = self.chunk(i);
        let opts = EvalOptions {
            batch_size: chunk.len(),
            users: Some(chunk.to_vec()),
            ..Default::default()
        };
        let t = Instant::now();
        let metrics = {
            let _op = seqrec_obs::span!("eval.batch");
            evaluate(&self.model, &self.split, EvalTarget::Test, &opts)
        };
        (t.elapsed().as_secs_f64(), metrics)
    }

    fn inputs(&self, chunk: &[usize]) -> Vec<Vec<u32>> {
        chunk.iter().map(|&u| self.split.test_input(u)).collect()
    }

    /// Recomputes chunk `i`'s hit counts and MRR from raw catalog scores
    /// with a plain loop and compares them with `evaluate`'s metrics.
    fn brute_force_agrees(&self, i: usize, got: &RankingMetrics) -> bool {
        let chunk = self.chunk(i);
        let inputs = self.inputs(chunk);
        let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let scores = self.model.score_full_catalog(chunk, &refs);
        let mut hits = vec![0u64; got.ks.len()];
        let mut mrr = 0.0;
        for (&u, row) in chunk.iter().zip(&scores) {
            let target = self.split.test_target(u) as usize;
            let seen = self.split.user_items(u);
            // Pessimistic ties: every other unseen item scoring at least the
            // target's score ranks above it.
            let rank = (1..row.len())
                .filter(|&i| i != target && !seen.contains(&(i as u32)) && row[i] >= row[target])
                .count();
            for (h, &k) in hits.iter_mut().zip(&got.ks) {
                *h += u64::from(rank < k);
            }
            mrr += 1.0 / (rank + 1) as f64;
        }
        let n = chunk.len() as f64;
        got.users == chunk.len()
            && hits.iter().zip(&got.hr).all(|(&h, &hr)| (hr * n).round() as u64 == h)
            && (mrr / n - got.mrr).abs() <= 1e-9
    }
}

fn sane(m: &RankingMetrics, users: usize) -> bool {
    m.users == users
        && m.hr.windows(2).all(|w| w[0] <= w[1])
        && m.hr.iter().zip(&m.ndcg).all(|(&hr, &ndcg)| (0.0..=1.0).contains(&hr) && ndcg <= hr)
        && m.mrr > 0.0
        && m.mrr <= 1.0
}

/// The `eval_full` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut generate_ms = Vec::new();
    let (setup_s, bench) = timed_setup(ctx, || EvalBench::new(ctx, &mut generate_ms));
    let batch = ctx.batch();
    let users_per_s = |ops: &[(f64, RankingMetrics)]| {
        (ops.len() * batch) as f64 / ops.iter().map(|o| o.0).sum::<f64>()
    };
    let warmup = run_for(ctx.warmup_s(), |i| bench.op(i));
    for (_, m) in &warmup {
        out.check(sane(m, batch));
    }
    if !ctx.trace {
        let ops = run_for(ctx.seconds, |i| bench.op(i));
        for (_, m) in &ops {
            out.check(sane(m, batch));
        }
        out.check(bench.brute_force_agrees(0, &ops[0].1));
        let best = fastest_quarter(&ops, |o| o.0);
        let ms: Vec<f64> = best.iter().map(|o| o.0 * 1e3).collect();
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", users_per_s(best));
        out.set("p50_ms", percentile(&ms, 50.0));
        return out;
    }

    let untraced = run_for(ctx.seconds / 2.0, |i| bench.op(i));
    let before = Counters::read();
    let tracer = Tracer::start();
    let traced = run_for(ctx.seconds / 2.0, |i| bench.op(i));
    let counts = Counters::read().since(before);
    // The evaluator's `eval.score` span covers encoding and catalog
    // scoring together; time the two halves of `score_full_catalog`
    // separately on a few of the same chunks.
    let split_chunks = traced.len().min(SPLIT_CHUNKS);
    for i in 0..split_chunks {
        let chunk = bench.chunk(i);
        let inputs = bench.inputs(chunk);
        let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let states = {
            let _encode = seqrec_obs::span!("bench.encode");
            bench.model.encode_users(chunk, &refs)
        };
        let _score = seqrec_obs::span!("bench.score");
        std::hint::black_box(bench.model.score_states(&states));
    }
    // Evaluation is pure: the traced pass must reproduce the untraced
    // metrics of every chunk exactly.
    for (i, (_, m)) in traced.iter().enumerate() {
        out.check(sane(m, batch) && untraced.get(i).is_none_or(|u| &u.1 == m));
    }
    let trace = match tracer.finish(&out_path(&ctx.workload, ctx.seed)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("seqrec-bench: trace: {e}");
            out.check(false);
            return out;
        }
    };
    let users = (traced.len() * batch) as f64;
    let split_users = (split_chunks * batch) as f64;
    out.set("data.generate_ms", percentile(&generate_ms, 50.0));
    out.set(
        "obs.trace_overhead_pct",
        (users_per_s(&untraced) / users_per_s(&traced) - 1.0) * 100.0,
    );
    counts.record_compute(&mut out, traced.len() as f64, traced.iter().map(|o| o.0).sum());
    out.set("eval.encode_us_per_user", trace.incl_us("bench.encode", "bench.encode") / split_users);
    out.set("eval.score_us_per_user", trace.incl_us("bench.score", "bench.score") / split_users);
    out.set("eval.rank_us_per_user", trace.incl_us("eval.batch", "eval.rank") / users);
    out
}
