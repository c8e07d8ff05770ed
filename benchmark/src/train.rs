//! Training workloads.
//!
//! `pretrain` times CL4SRec's contrastive pre-training
//! (`Cl4sRec::pretrain_on_users`): two augmented views per sequence
//! (`AugmentationSet::paper_full(0.6, 0.5, 0.5)`), the shared encoder, the
//! projection head and NT-Xent over the 2N in-batch views. `fit_zoo` times
//! the next-item fit loop of every model in the zoo, which runs no
//! augmentation and no NT-Xent.
//!
//! Each timed op is one call into a model's public fit function with
//! `epochs: 1` over full chunks of a seeded epoch order
//! (`seqrec_data::batch::epoch_batches`), so the library's own loop runs
//! the steps of one call with one optimiser, and a run can stop after any
//! call. A `pretrain` call takes one chunk, one optimiser step; a
//! `fit_zoo` round calls every loop once over its [`FIT_METHODS`] step
//! count. What a call costs beyond its steps — a fresh `Adam` allocating
//! its moment buffers at the first step, the fit session — was measured
//! against calls over four chunks: within ±1.5% of a step for every loop
//! but NCF (6%) and BPR-MF (7.5%), whose 2–13 ms steps run five to a call,
//! which divides that cost by five. Traced runs also check that the loop's
//! `batch` spans cover at least 95% of each call.

use std::collections::VecDeque;
use std::time::Instant;

use cl4srec::augment::AugmentationSet;
use cl4srec::model::{Cl4sRec, Cl4sRecConfig, PretrainOptions};
use seqrec_data::batch::epoch_batches;
use seqrec_data::Split;
use seqrec_models::{
    Bert4Rec, Bert4RecConfig, BprMf, BprMfConfig, Caser, CaserConfig, EncoderConfig, Fpmc,
    FpmcConfig, Gru4Rec, Gru4RecConfig, Ncf, NcfConfig, SasRec, TrainOptions, TrainReport,
};

use crate::spec::{Outcome, FIT_BREAKDOWN, FIT_METHODS};
use crate::stats::{fastest_quarter, percentile};
use crate::trace::{out_path, Counters, Trace, Tracer};
use crate::{dataset, run_for, timed_setup, Ctx};

/// Smallest share of a fit call its `batch` span must cover.
const MIN_STEP_COVERAGE: f64 = 0.95;

/// One timed call into a training function.
pub struct CallRecord {
    /// Index into [`FIT_METHODS`] (0 for `pretrain`).
    method: usize,
    secs: f64,
    /// Optimiser steps the call ran.
    steps: usize,
    seqs: usize,
    loss: f32,
    /// The call ran one epoch over all its sequences with a finite loss
    /// and no training anomaly.
    ok: bool,
}

/// Optimiser steps of `calls`.
fn total_steps(calls: &[CallRecord]) -> f64 {
    calls.iter().map(|c| c.steps).sum::<usize>() as f64
}

/// Full chunks of seeded epoch orders over `users`, epoch after epoch.
struct Chunks {
    users: Vec<usize>,
    batch: usize,
    seed: u64,
    epoch: u64,
    queue: VecDeque<Vec<usize>>,
}

impl Chunks {
    fn new(split: &Split, batch: usize, seed: u64) -> Chunks {
        // Every fit loop trains on users with at least one (input, target)
        // pair.
        let users: Vec<usize> =
            (0..split.num_users()).filter(|&u| split.train_sequence(u).len() >= 2).collect();
        assert!(users.len() >= batch, "{} trainable users < one batch of {batch}", users.len());
        Chunks { users, batch, seed, epoch: 0, queue: VecDeque::new() }
    }

    fn next(&mut self) -> Vec<usize> {
        while self.queue.is_empty() {
            let order = epoch_batches(&self.users, self.batch, self.seed.wrapping_add(self.epoch));
            self.queue.extend(order.into_iter().filter(|c| c.len() == self.batch));
            self.epoch += 1;
        }
        self.queue.pop_front().expect("refilled above")
    }
}

/// A training workload: one round of calls at a time.
trait Trainer {
    fn round(&mut self) -> Vec<CallRecord>;
}

struct Pretrain {
    split: Split,
    model: Cl4sRec,
    augs: AugmentationSet,
    chunks: Chunks,
    seed: u64,
    steps: u64,
}

impl Pretrain {
    fn new(ctx: &Ctx, generate_ms: &mut Vec<f64>) -> Pretrain {
        let (split, num_items, ms) = dataset(ctx.scale(0.1), ctx.seed);
        generate_ms.push(ms);
        let model = Cl4sRec::new(Cl4sRecConfig::small(num_items), ctx.seed);
        let augs = AugmentationSet::paper_full(0.6, 0.5, 0.5, model.mask_token());
        let chunks = Chunks::new(&split, ctx.batch(), ctx.seed);
        Pretrain { split, model, augs, chunks, seed: ctx.seed, steps: 0 }
    }
}

impl Trainer for Pretrain {
    fn round(&mut self) -> Vec<CallRecord> {
        let chunk = self.chunks.next();
        let opts = PretrainOptions {
            epochs: 1,
            batch_size: chunk.len(),
            seed: self.seed.wrapping_add(self.steps),
            patience: None,
            ..Default::default()
        };
        self.steps += 1;
        let t = Instant::now();
        let report = {
            let _step = seqrec_obs::span!("pretrain.step");
            self.model.pretrain_on_users(&self.split, &self.augs, &opts, Some(&chunk))
        };
        let secs = t.elapsed().as_secs_f64();
        let loss = report.losses.first().copied().unwrap_or(f32::NAN);
        let ok = report.losses.len() == 1 && loss.is_finite() && report.anomalous_steps == 0;
        vec![CallRecord { method: 0, secs, steps: 1, seqs: chunk.len(), loss, ok }]
    }
}

type Fit = Box<dyn FnMut(&Split, &TrainOptions) -> TrainReport>;

struct Zoo {
    split: Split,
    /// One fit function per [`FIT_METHODS`] entry, in that order.
    fits: Vec<Fit>,
    chunks: Vec<Chunks>,
    calls: Vec<u64>,
    batch: usize,
    seed: u64,
    smoke: bool,
}

impl Zoo {
    fn new(ctx: &Ctx, generate_ms: &mut Vec<f64>) -> Zoo {
        let (split, n, ms) = dataset(ctx.scale(0.1), ctx.seed);
        generate_ms.push(ms);
        let (users, seed) = (split.num_users(), ctx.seed);
        let mut bert4rec = Bert4Rec::new(Bert4RecConfig::small(n), seed);
        let mut sasrec = SasRec::new(EncoderConfig::small(n), seed);
        let mut cl4srec = Cl4sRec::new(Cl4sRecConfig::small(n), seed);
        let mut gru4rec = Gru4Rec::new(Gru4RecConfig::small(n), seed);
        let mut caser = Caser::new(CaserConfig::small(n), users, seed);
        let mut ncf = Ncf::new(NcfConfig::default(), users, n, seed);
        let mut fpmc = Fpmc::new(FpmcConfig::default(), users, n, seed);
        let mut bprmf = BprMf::new(BprMfConfig::default(), users, n, seed);
        let fits: Vec<Fit> = vec![
            Box::new(move |s, o| bert4rec.fit(s, o)),
            Box::new(move |s, o| sasrec.fit(s, o)),
            Box::new(move |s, o| cl4srec.finetune(s, o)),
            Box::new(move |s, o| gru4rec.fit(s, o)),
            Box::new(move |s, o| caser.fit(s, o)),
            Box::new(move |s, o| ncf.fit(s, o)),
            Box::new(move |s, o| fpmc.fit(s, o)),
            Box::new(move |s, o| bprmf.fit(s, o)),
        ];
        let chunks = FIT_METHODS.iter().map(|_| Chunks::new(&split, ctx.batch(), seed)).collect();
        Zoo {
            split,
            fits,
            chunks,
            calls: vec![0; FIT_METHODS.len()],
            batch: ctx.batch(),
            seed,
            smoke: ctx.smoke,
        }
    }
}

impl Trainer for Zoo {
    fn round(&mut self) -> Vec<CallRecord> {
        let mut out = Vec::new();
        for (m, &(_, span, steps)) in FIT_METHODS.iter().enumerate() {
            let steps = if self.smoke { 1 } else { steps };
            let users: Vec<usize> = (0..steps).flat_map(|_| self.chunks[m].next()).collect();
            let seqs = users.len();
            let opts = TrainOptions {
                epochs: 1,
                batch_size: self.batch,
                seed: self.seed.wrapping_add(self.calls[m]),
                patience: None,
                probe_every: 0,
                train_users: Some(users),
                ..Default::default()
            };
            self.calls[m] += 1;
            let t = Instant::now();
            let report = {
                let _call = seqrec_obs::span!(span);
                (self.fits[m])(&self.split, &opts)
            };
            let secs = t.elapsed().as_secs_f64();
            let loss = report.final_loss();
            let ok = report.epochs_run() == 1
                && report.epochs[0].sequences == seqs as u64
                && loss.is_finite()
                && report.anomalous_steps == 0;
            out.push(CallRecord { method: m, secs, steps, seqs, loss, ok });
        }
        out
    }
}

fn rounds(trainer: &mut impl Trainer, seconds: f64) -> Vec<CallRecord> {
    run_for(seconds, |_| trainer.round()).into_iter().flatten().collect()
}

fn seqs_per_s<'a>(calls: impl Iterator<Item = &'a CallRecord>) -> f64 {
    let (seqs, secs) = calls.fold((0, 0.0), |(n, t), c| (n + c.seqs, t + c.secs));
    seqs as f64 / secs
}

/// Runs either training workload. Untraced: rounds for the warm-up, then
/// timed rounds for `--seconds`; the end-to-end timings come from the
/// fastest quarter of the timed rounds. Traced: the warm-up and rounds for
/// half the time untraced, then from a fresh setup the same warm-up rounds
/// and the same calls traced; the traced calls must reproduce the untraced
/// losses bit for bit, and `layers` folds the trace into per-layer metrics.
fn train_workload<T: Trainer>(
    ctx: &Ctx,
    build: impl Fn(&mut Vec<f64>) -> T,
    layers: impl Fn(&Trace, &[CallRecord], &mut Outcome),
) -> Outcome {
    let mut out = Outcome::default();
    let mut generate_ms = Vec::new();
    let (setup_s, mut trainer) = timed_setup(ctx, || build(&mut generate_ms));
    let warmup = run_for(ctx.warmup_s(), |_| trainer.round());
    for c in warmup.iter().flatten() {
        out.check(c.ok);
    }
    if !ctx.trace {
        let rounds = run_for(ctx.seconds, |_| trainer.round());
        for c in rounds.iter().flatten() {
            out.check(c.ok);
        }
        let round_secs = |r: &Vec<CallRecord>| r.iter().map(|c| c.secs).sum::<f64>();
        let best = fastest_quarter(&rounds, round_secs);
        let ms: Vec<f64> = best.iter().map(|r| round_secs(r) * 1e3).collect();
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", seqs_per_s(best.iter().flatten()));
        out.set("p50_ms", percentile(&ms, 50.0));
        return out;
    }
    let untraced = rounds(&mut trainer, ctx.seconds / 2.0);
    drop(trainer);
    let mut fresh = build(&mut Vec::new());
    for _ in 0..warmup.len() {
        fresh.round();
    }
    let before = Counters::read();
    let tracer = Tracer::start();
    let traced = rounds(&mut fresh, ctx.seconds / 2.0);
    let folded = tracer.finish(&out_path(&ctx.workload, ctx.seed));
    let counts = Counters::read().since(before);
    for (i, c) in traced.iter().enumerate() {
        let same = untraced.get(i).is_none_or(|u| u.loss.to_bits() == c.loss.to_bits());
        out.check(c.ok && same);
    }
    let trace = match folded {
        Ok(t) => t,
        Err(e) => {
            eprintln!("seqrec-bench: trace: {e}");
            out.check(false);
            return out;
        }
    };
    let secs: f64 = traced.iter().map(|c| c.secs).sum();
    out.set(
        "obs.trace_overhead_pct",
        (seqs_per_s(untraced.iter()) / seqs_per_s(traced.iter()) - 1.0) * 100.0,
    );
    out.set("data.generate_ms", percentile(&generate_ms, 50.0));
    counts.record_compute(&mut out, total_steps(&traced), secs);
    layers(&trace, &traced, &mut out);
    out
}

/// Per-step µs of the loop's data work (the `batch` span's self time) and
/// of its `forward`, `backward` and `optim` spans, under the benchmark
/// spans `roots`.
fn phases(trace: &Trace, roots: &[&str], steps: f64) -> [f64; 4] {
    let sum = |f: &dyn Fn(&str) -> f64| roots.iter().map(|r| f(r)).sum::<f64>() / steps;
    [
        sum(&|r| trace.self_us(r, "batch")),
        sum(&|r| trace.incl_us(r, "forward")),
        sum(&|r| trace.incl_us(r, "backward")),
        sum(&|r| trace.incl_us(r, "optim")),
    ]
}

/// Checks that the fit loop's `batch` spans cover the calls wrapped in the
/// benchmark span `root`, so the phases account for the timed steps.
fn check_coverage(trace: &Trace, root: &str, out: &mut Outcome) {
    let coverage = trace.incl_us(root, "batch") / trace.incl_us(root, root);
    let ok = (MIN_STEP_COVERAGE..=2.0 - MIN_STEP_COVERAGE).contains(&coverage);
    if !ok {
        eprintln!("seqrec-bench: {root}: batch span covers {:.1}% of the call", coverage * 100.0);
    }
    out.check(ok);
}

fn set_phases<N: Into<String>>(out: &mut Outcome, names: [N; 4], values: [f64; 4]) {
    for (name, value) in names.into_iter().zip(values) {
        out.set(name, value);
    }
}

const POOLED_PHASES: [&str; 4] =
    ["data.batch_us", "forward.us_per_step", "backward.us_per_step", "optim.us_per_step"];

/// The `pretrain` workload.
pub fn pretrain(ctx: &Ctx) -> Outcome {
    train_workload(
        ctx,
        |ms| Pretrain::new(ctx, ms),
        |trace, calls, out| {
            let n = total_steps(calls);
            set_phases(out, POOLED_PHASES, phases(trace, &["pretrain.step"], n));
            check_coverage(trace, "pretrain.step", out);
            out.set("augment.us_per_step", trace.incl_us("pretrain.step", "augment") / n);
            out.set("ntxent.us_per_step", trace.incl_us("pretrain.step", "ntxent") / n);
        },
    )
}

/// The `fit_zoo` workload.
pub fn fit_zoo(ctx: &Ctx) -> Outcome {
    train_workload(
        ctx,
        |ms| Zoo::new(ctx, ms),
        |trace, calls, out| {
            let roots: Vec<&str> = FIT_METHODS.iter().map(|m| m.1).collect();
            set_phases(out, POOLED_PHASES, phases(trace, &roots, total_steps(calls)));
            let total: f64 = calls.iter().map(|c| c.secs).sum();
            for (m, &(method, span, _)) in FIT_METHODS.iter().enumerate() {
                let mine = || calls.iter().filter(move |c| c.method == m);
                out.set(format!("fit.{method}.seqs_per_s"), seqs_per_s(mine()));
                out.set(
                    format!("fit.{method}.share_pct"),
                    mine().map(|c| c.secs).sum::<f64>() / total * 100.0,
                );
                if FIT_BREAKDOWN.contains(&method) {
                    let names = ["data", "forward", "backward", "optim"]
                        .map(|p| format!("fit.{method}.{p}_us_per_step"));
                    let steps = mine().map(|c| c.steps).sum::<usize>() as f64;
                    set_phases(out, names, phases(trace, &[span], steps));
                    check_coverage(trace, span, out);
                }
            }
        },
    )
}
