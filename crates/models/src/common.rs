//! Shared training plumbing: options, per-epoch logs with wall-clock
//! timing, the anomaly-watching [`FitSession`], and [`fit_loop`] — the one
//! epoch/batch loop every model in the workspace trains through.

use std::collections::HashSet;
use std::time::Instant;

use seqrec_data::batch::{epoch_batches, NegativeSampler};
use seqrec_data::Split;
use seqrec_eval::{evaluate, EvalOptions, EvalTarget, SequenceScorer};
use seqrec_obs::ledger::RunLedger;
use seqrec_tensor::dynamics::OptimStepStats;
use seqrec_tensor::nn::{HasParams, Step};
use seqrec_tensor::optim::{Adam, AdamConfig};
use seqrec_tensor::{Tape, Var};
use serde::{Deserialize, Serialize};

/// What a fit loop does when the loss, a gradient, an update or a
/// parameter goes NaN/Inf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AnomalyPolicy {
    /// Record the anomaly (report + metrics + ledger) and keep training.
    #[default]
    Warn,
    /// Stop training at the offending step; the report and run ledger
    /// still complete, naming the step and parameter group.
    Abort,
}

impl AnomalyPolicy {
    /// Parses the CLI spelling (`warn` / `abort`).
    ///
    /// # Errors
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<AnomalyPolicy, String> {
        match s {
            "warn" => Ok(AnomalyPolicy::Warn),
            "abort" => Ok(AnomalyPolicy::Abort),
            other => Err(format!("unknown anomaly policy `{other}` (expected warn|abort)")),
        }
    }
}

impl serde::Serialize for AnomalyPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                AnomalyPolicy::Warn => "warn",
                AnomalyPolicy::Abort => "abort",
            }
            .to_string(),
        )
    }
}

impl serde::Deserialize for AnomalyPolicy {}

/// Record of the first non-finite observation in a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// Optimiser step counter (1-based) at which the anomaly appeared.
    pub step: u64,
    /// 0-based epoch of the offending step.
    pub epoch: usize,
    /// What went non-finite first: `loss`, `gradient`, `update` or
    /// `parameter`.
    pub kind: String,
    /// Offending parameter group (empty for a loss-only anomaly).
    pub group: String,
    /// Batch loss at the offending step.
    pub loss: f32,
    /// Global gradient norm at the offending step.
    pub grad_norm: f64,
    /// Global update:parameter ratio at the offending step.
    pub update_ratio: f64,
}

/// Options shared by every trainable model in this crate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Maximum training epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 256).
    pub batch_size: usize,
    /// Base learning rate (paper: 1e-3 with Adam).
    pub lr: f32,
    /// Seed controlling shuffling, negative sampling and dropout.
    pub seed: u64,
    /// Early stopping: stop after this many epochs without validation
    /// improvement (None disables; the paper trains both stages with early
    /// stopping).
    pub patience: Option<usize>,
    /// How many users to sample for the per-epoch validation probe (full
    /// validation every epoch would dominate runtime); the probe still ranks
    /// the entire catalog.
    pub valid_probe_users: usize,
    /// Probe validation every N epochs (1 = every epoch, the paper setup;
    /// 0 disables probing entirely — early stopping then never triggers).
    pub probe_every: usize,
    /// Restrict training to these user indices (RQ4 data-sparsity sweeps);
    /// None trains on everyone.
    pub train_users: Option<Vec<usize>>,
    /// Console verbosity: 0 = silent (tests), 1 = one line per epoch,
    /// 2 = chatty diagnostics. Lines go through `seqrec_obs` so they are
    /// also captured by any installed sink.
    pub verbosity: u8,
    /// What to do when training dynamics go NaN/Inf (see [`AnomalyPolicy`]).
    pub on_anomaly: AnomalyPolicy,
    /// When set, the fit writes a run ledger (config.json, env.json,
    /// metrics.jsonl, dynamics.jsonl, report.json) into this directory.
    /// None (the default) writes nothing — tests and library callers stay
    /// free of filesystem side effects.
    pub run_dir: Option<String>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 30,
            batch_size: 256,
            lr: 1e-3,
            seed: 42,
            patience: Some(3),
            valid_probe_users: 500,
            probe_every: 1,
            train_users: None,
            verbosity: 0,
            on_anomaly: AnomalyPolicy::Warn,
            run_dir: None,
        }
    }
}

impl TrainOptions {
    /// True when epoch `epoch` (0-based) should run the validation probe.
    pub fn should_probe(&self, epoch: usize) -> bool {
        self.probe_every > 0 && (epoch + 1).is_multiple_of(self.probe_every)
    }
}

/// One epoch of training telemetry.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EpochLog {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Validation HR@10 on the probe subset (None when not probed).
    pub valid_hr10: Option<f64>,
    /// Wall-clock seconds spent training this epoch (excluding the probe).
    pub train_secs: f64,
    /// Wall-clock seconds spent in the validation probe (0 when skipped).
    pub probe_secs: f64,
    /// Training sequences consumed this epoch.
    pub sequences: u64,
    /// Training throughput: `sequences / train_secs`.
    pub seqs_per_sec: f64,
    /// Mean global gradient L2 norm over the epoch's optimiser steps
    /// (0 when dynamics were not recorded).
    pub grad_norm: f64,
    /// Largest global gradient L2 norm seen this epoch (Inf if any step
    /// went non-finite).
    pub max_grad_norm: f64,
    /// Mean global update:parameter ratio over the epoch's steps.
    pub update_ratio: f64,
}

/// Result of a training run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch telemetry.
    pub epochs: Vec<EpochLog>,
    /// Best validation HR@10 observed.
    pub best_valid_hr10: f64,
    /// Whether early stopping triggered.
    pub early_stopped: bool,
    /// Total wall-clock training seconds across epochs (probe excluded).
    pub total_train_secs: f64,
    /// Total wall-clock seconds spent in validation probes.
    pub total_probe_secs: f64,
    /// Sequence throughput over the whole run (`Σ sequences / Σ train_secs`).
    pub mean_seqs_per_sec: f64,
    /// First non-finite observation, if any (the run aborted here under
    /// [`AnomalyPolicy::Abort`]).
    pub anomaly: Option<AnomalyReport>,
    /// How many optimiser steps observed a non-finite quantity.
    pub anomalous_steps: u64,
    /// High-water mark of the `tensor.live_bytes` gauge over the process
    /// so far at session close, in MiB (0 until the fit finishes).
    pub peak_tensor_mib: f64,
}

impl TrainReport {
    /// Number of epochs actually run.
    pub fn epochs_run(&self) -> usize {
        self.epochs.len()
    }

    /// Final training loss (NaN when no epoch ran).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.loss)
    }
}

/// What early stopping watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopOn {
    /// Validation HR@10 from the probe, on the epochs
    /// [`TrainOptions::should_probe`] picks.
    ValidHr10,
    /// The negated mean training loss, every epoch (contrastive
    /// pre-training has no validation target).
    TrainLoss,
}

/// How one model plugs into [`fit_loop`].
pub struct FitSpec {
    /// Model name: the ledger's `"model"` and, lowercased, the tag of the
    /// per-epoch log line (`SASRec` → `[sasrec]`).
    pub name: &'static str,
    /// The model's hyper-parameters as JSON, for the ledger.
    pub config_json: String,
    /// Fewest training items a user needs to be trained on.
    pub min_len: usize,
    /// Smallest chunk worth a step (at least 1): smaller tail chunks are
    /// skipped (in-batch negatives need two rows). Also the fewest
    /// trainable users the fit accepts.
    pub min_batch: usize,
    /// What early stopping watches.
    pub stop_on: StopOn,
}

impl FitSpec {
    /// A next-item fit: every chunk steps, early stopping on the probe.
    pub fn new(name: &'static str, config: &impl Serialize, min_len: usize) -> FitSpec {
        FitSpec {
            name,
            config_json: serde_json::to_string(config).expect("config serializes"),
            min_len,
            min_batch: 1,
            stop_on: StopOn::ValidHr10,
        }
    }
}

/// The fit loop every model trains through (Adam, mini-batches, early
/// stopping — the paper's protocol for every method and both CL4SRec
/// stages).
///
/// Filters `opts.train_users` (everyone when None) to users with at least
/// `spec.min_len` training items, builds the optimiser from
/// `adam(trainable_users)`, then runs up to `opts.epochs` epochs over
/// seeded shuffles (`opts.seed + epoch`, wrapping). Each chunk of users
/// goes to `step`, which builds the loss, backpropagates and applies the
/// Adam update, returning the batch loss and the step statistics. The loop
/// owns everything else: the `epoch`/`batch`/`probe` spans, throughput
/// metering, the anomaly sentinel and its abort, the validation probe,
/// early stopping, the verbosity line and the run ledger.
///
/// Adding a model is a loss builder plus a step closure:
///
/// ```text
/// pub fn fit(&mut self, split: &Split, opts: &TrainOptions) -> TrainReport {
///     let mut sampler = NegativeSampler::new(split.num_items(), opts.seed ^ 0x11);
///     let spec = FitSpec::new("MyModel", &self.cfg, 2);
///     fit_loop(self, split, opts, spec, |_| AdamConfig { lr: opts.lr, ..AdamConfig::default() },
///         |m, adam, chunk| {
///             let batch = /* build from chunk, drawing from sampler */;
///             serial_step(m, adam, |m, step| {
///                 let _fwd = seqrec_obs::span!("forward");
///                 m.loss(step, &batch)
///             })
///         })
/// }
/// ```
///
/// # Panics
/// Panics when fewer than `spec.min_batch` users are trainable, or when `opts.run_dir` is set but the ledger cannot be
/// created.
pub fn fit_loop<M: SequenceScorer>(
    model: &mut M,
    split: &Split,
    opts: &TrainOptions,
    spec: FitSpec,
    adam: impl FnOnce(usize) -> AdamConfig,
    mut step: impl FnMut(&mut M, &mut Adam, &[usize]) -> (f32, OptimStepStats),
) -> TrainReport {
    let users: Vec<usize> = match &opts.train_users {
        Some(users) => users.clone(),
        None => (0..split.num_users()).collect(),
    }
    .into_iter()
    .filter(|&u| split.train_sequence(u).len() >= spec.min_len)
    .collect();
    assert!(
        users.len() >= spec.min_batch,
        "{}: no trainable users (need {} with at least {} training items, have {})",
        spec.name,
        spec.min_batch,
        spec.min_len,
        users.len()
    );
    let mut adam = Adam::new(adam(users.len()));
    let mut session = FitSession::start(spec.name, &spec.config_json, opts);
    let tag = spec.name.to_lowercase();
    let mut stopper = EarlyStopper::new(opts.patience);
    let mut report = TrainReport::default();
    let mut aborted = false;
    for epoch in 0..opts.epochs {
        let _epoch_span = seqrec_obs::span!("epoch");
        let mut clock = EpochClock::start();
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in epoch_batches(&users, opts.batch_size, opts.seed.wrapping_add(epoch as u64)) {
            if chunk.len() < spec.min_batch {
                continue;
            }
            let _batch_span = seqrec_obs::span!("batch");
            let (batch_loss, stats) = step(model, &mut adam, &chunk);
            loss_sum += batch_loss as f64;
            batches += 1;
            clock.batch_done(chunk.len());
            if session.observe_step(epoch, batch_loss, &stats) {
                aborted = true;
                break;
            }
        }
        let mean_loss = (loss_sum / batches.max(1) as f64) as f32;
        let hr10 = (!aborted && spec.stop_on == StopOn::ValidHr10 && opts.should_probe(epoch))
            .then(|| {
                clock.probe(|| probe_valid_hr10(&*model, split, opts.valid_probe_users, opts.seed))
            });
        if opts.verbosity >= 1 {
            match hr10 {
                Some(h) => seqrec_obs::info!(
                    "[{tag}] epoch {epoch}: loss {mean_loss:.4}, valid HR@10 {h:.4}"
                ),
                None => seqrec_obs::info!("[{tag}] epoch {epoch}: loss {mean_loss:.4}"),
            }
        }
        let mut log = clock.finish(epoch, mean_loss, hr10);
        session.stamp_epoch(&mut log);
        report.epochs.push(log);
        if aborted {
            break;
        }
        let watched = match spec.stop_on {
            StopOn::ValidHr10 => hr10,
            StopOn::TrainLoss => Some(-f64::from(mean_loss)),
        };
        if watched.is_some_and(|v| stopper.update(v)) {
            report.early_stopped = true;
            break;
        }
    }
    if spec.stop_on == StopOn::ValidHr10 {
        report.best_valid_hr10 = stopper.best();
    }
    report.total_train_secs = report.epochs.iter().map(|e| e.train_secs).sum();
    report.total_probe_secs = report.epochs.iter().map(|e| e.probe_secs).sum();
    let seqs: u64 = report.epochs.iter().map(|e| e.sequences).sum();
    report.mean_seqs_per_sec =
        if report.total_train_secs > 0.0 { seqs as f64 / report.total_train_secs } else { 0.0 };
    session.finish(&mut report);
    report
}

/// One serial optimiser step for a [`fit_loop`] step closure: builds the
/// loss on a fresh tape, backpropagates it and applies Adam to `model`.
/// Returns the batch loss and the step statistics.
pub fn serial_step<M: HasParams + ?Sized>(
    model: &mut M,
    adam: &mut Adam,
    loss: impl FnOnce(&M, &mut Step) -> Var,
) -> (f32, OptimStepStats) {
    let mut step = Step::new();
    let loss = loss(model, &mut step);
    let grads = step.tape.backward(loss);
    let loss = step.tape.value(loss).item();
    // Each parameter's tape leaf shares that parameter's buffer, so while
    // the tape lives Adam's in-place update would copy every parameter
    // first. `step` stays: its id still resolves `Param::grad`.
    step.tape = Tape::default();
    let stats = adam.step_with_stats(model, &step, &grads);
    (loss, stats)
}

/// `(user, positive, negative)` triples for a chunk of users: every
/// training interaction is a positive, paired with a fresh negative the
/// user never interacted with (one epoch covers the whole training matrix,
/// as in the original BPR and NCF).
pub(crate) fn interaction_triples(
    split: &Split,
    chunk: &[usize],
    sampler: &mut NegativeSampler,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (mut u_ids, mut pos_ids, mut neg_ids) = (Vec::new(), Vec::new(), Vec::new());
    for &u in chunk {
        let seq = split.train_sequence(u);
        let exclude: HashSet<u32> = seq.iter().copied().collect();
        for &item in seq {
            u_ids.push(u as u32);
            pos_ids.push(item);
            neg_ids.push(sampler.sample(&exclude));
        }
    }
    (u_ids, pos_ids, neg_ids)
}

/// Per-epoch stopwatch: meters batches and sequences into the
/// process-global `seqrec_obs` counters, times the validation probe
/// separately from training, and assembles the [`EpochLog`].
struct EpochClock {
    epoch_start: Instant,
    batch_start: Instant,
    sequences: u64,
    probe_secs: f64,
}

impl EpochClock {
    fn start() -> Self {
        let now = Instant::now();
        EpochClock { epoch_start: now, batch_start: now, sequences: 0, probe_secs: 0.0 }
    }

    /// Records one finished batch of `n_seqs` training sequences.
    fn batch_done(&mut self, n_seqs: usize) {
        self.sequences += n_seqs as u64;
        seqrec_obs::metrics::TRAIN_BATCHES.incr();
        seqrec_obs::metrics::TRAIN_SEQUENCES.add(n_seqs as u64);
        let now = Instant::now();
        let us = now.duration_since(self.batch_start).as_micros() as u64;
        seqrec_obs::metrics::TRAIN_BATCH_US.record(us);
        self.batch_start = now;
    }

    /// Runs `f` inside a `"probe"` span, timing it separately so probe cost
    /// never pollutes training throughput.
    fn probe<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let _span = seqrec_obs::span!("probe");
        let t0 = Instant::now();
        let out = f();
        self.probe_secs += t0.elapsed().as_secs_f64();
        out
    }

    /// Closes the epoch and produces its log entry.
    fn finish(self, epoch: usize, loss: f32, valid_hr10: Option<f64>) -> EpochLog {
        let train_secs = (self.epoch_start.elapsed().as_secs_f64() - self.probe_secs).max(0.0);
        EpochLog {
            epoch,
            loss,
            valid_hr10,
            train_secs,
            probe_secs: self.probe_secs,
            sequences: self.sequences,
            seqs_per_sec: if train_secs > 0.0 { self.sequences as f64 / train_secs } else { 0.0 },
            grad_norm: 0.0,
            max_grad_norm: 0.0,
            update_ratio: 0.0,
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Per-run training-dynamics recorder behind [`fit_loop`]: feeds the
/// optimiser-step statistics into the `seqrec_obs` metric registry, watches
/// for NaN/Inf (loss, gradients, updates, parameters) under the configured
/// [`AnomalyPolicy`], and — when [`TrainOptions::run_dir`] is set — writes
/// the run ledger (config/env/metrics/dynamics/report files).
///
/// [`fit_loop`] opens one per fit, feeds it every optimiser step and
/// closes it into the [`TrainReport`]; a model never drives it directly.
pub struct FitSession {
    policy: AnomalyPolicy,
    verbosity: u8,
    ledger: Option<RunLedger>,
    anomaly: Option<AnomalyReport>,
    anomalous_steps: u64,
    epoch_steps: u64,
    grad_norm_sum: f64,
    grad_norm_max: f64,
    ratio_sum: f64,
}

impl FitSession {
    /// Opens the session. `config_json` is the model's own hyperparameter
    /// struct serialised to JSON; it lands in the ledger's `config.json`
    /// under `"config"`, next to the full `TrainOptions` under
    /// `"options"`.
    ///
    /// # Panics
    /// Panics when [`TrainOptions::run_dir`] is set but the ledger
    /// directory cannot be created — a run that silently loses its
    /// provenance record is worse than a crash.
    pub fn start(model: &str, config_json: &str, opts: &TrainOptions) -> FitSession {
        let ledger = opts.run_dir.as_deref().map(|dir| {
            let l = RunLedger::create(dir)
                .unwrap_or_else(|e| panic!("cannot create run ledger at {dir}: {e}"));
            let options_json = serde_json::to_string(opts).expect("train options serialize");
            let mut cfg = String::with_capacity(256 + config_json.len() + options_json.len());
            cfg.push_str("{\"model\":");
            seqrec_obs::json::write_str(&mut cfg, model);
            cfg.push_str(",\"config\":");
            cfg.push_str(config_json);
            cfg.push_str(",\"options\":");
            cfg.push_str(&options_json);
            cfg.push('}');
            l.write_config(&cfg);
            l.write_env_snapshot();
            l
        });
        FitSession {
            policy: opts.on_anomaly,
            verbosity: opts.verbosity,
            ledger,
            anomaly: None,
            anomalous_steps: 0,
            epoch_steps: 0,
            grad_norm_sum: 0.0,
            grad_norm_max: 0.0,
            ratio_sum: 0.0,
        }
    }

    /// Feeds one optimiser step (its batch loss and the stats collected by
    /// `Adam::step_with_stats`). Returns `true` when the fit loop must
    /// abort: a non-finite quantity appeared and the policy is
    /// [`AnomalyPolicy::Abort`].
    pub fn observe_step(&mut self, epoch: usize, loss: f32, stats: &OptimStepStats) -> bool {
        use seqrec_obs::metrics;
        metrics::OPTIM_STEPS.incr();
        let grad_norm = stats.grad_norm();
        let ratio = stats.update_ratio();
        metrics::record_scaled(&metrics::GRAD_NORM_MILLI, grad_norm, 1e3);
        metrics::record_scaled(&metrics::UPDATE_RATIO_MICRO, ratio, 1e6);

        self.epoch_steps += 1;
        if grad_norm.is_finite() {
            self.grad_norm_sum += grad_norm;
            if grad_norm > self.grad_norm_max {
                self.grad_norm_max = grad_norm;
            }
        } else {
            self.grad_norm_max = f64::INFINITY;
        }
        if ratio.is_finite() {
            self.ratio_sum += ratio;
        }

        if let Some(l) = &self.ledger {
            l.append_dynamics(&format!(
                "{{\"step\":{},\"epoch\":{epoch},\"loss\":{},\"grad_norm\":{},\
                 \"update_ratio\":{},\"lr\":{},\"clip_scale\":{}}}",
                stats.step,
                json_num(f64::from(loss)),
                json_num(grad_norm),
                json_num(ratio),
                json_num(f64::from(stats.lr)),
                json_num(f64::from(stats.clip_scale)),
            ));
        }

        let first = if loss.is_finite() {
            stats.first_nonfinite().map(|(g, k)| (g.to_string(), k))
        } else {
            Some((String::new(), "loss"))
        };
        if let Some((group, kind)) = first {
            self.anomalous_steps += 1;
            metrics::TRAIN_ANOMALIES.incr();
            if self.anomaly.is_none() {
                if self.verbosity >= 1 {
                    seqrec_obs::info!(
                        "training anomaly at step {} (epoch {epoch}): non-finite {kind}{}{} \
                         (loss {loss}, grad_norm {grad_norm:.3e}); policy {:?}",
                        stats.step,
                        if group.is_empty() { "" } else { " in group " },
                        group,
                        self.policy,
                    );
                }
                self.anomaly = Some(AnomalyReport {
                    step: stats.step,
                    epoch,
                    kind: kind.to_string(),
                    group,
                    loss,
                    grad_norm,
                    update_ratio: ratio,
                });
            }
            if self.policy == AnomalyPolicy::Abort {
                return true;
            }
        }
        false
    }

    /// Fills the epoch log's dynamics fields from the steps observed since
    /// the previous call, resets the accumulators, and appends the log to
    /// the ledger's `metrics.jsonl`.
    fn stamp_epoch(&mut self, log: &mut EpochLog) {
        if self.epoch_steps > 0 {
            let n = self.epoch_steps as f64;
            log.grad_norm = self.grad_norm_sum / n;
            log.max_grad_norm = self.grad_norm_max;
            log.update_ratio = self.ratio_sum / n;
        }
        self.epoch_steps = 0;
        self.grad_norm_sum = 0.0;
        self.grad_norm_max = 0.0;
        self.ratio_sum = 0.0;
        if let Some(l) = &self.ledger {
            l.append_metrics(&serde_json::to_string(log).expect("epoch log serializes"));
        }
    }

    /// The first recorded anomaly, if any.
    pub fn anomaly(&self) -> Option<&AnomalyReport> {
        self.anomaly.as_ref()
    }

    /// How many optimiser steps observed a non-finite quantity so far.
    pub fn anomalous_steps(&self) -> u64 {
        self.anomalous_steps
    }

    /// Closes the session: moves the anomaly record into the report,
    /// stamps the tensor-memory high-water mark, and writes the ledger's
    /// final `report.json`.
    fn finish(self, report: &mut TrainReport) {
        report.anomaly = self.anomaly;
        report.anomalous_steps = self.anomalous_steps;
        report.peak_tensor_mib =
            seqrec_obs::metrics::TENSOR_LIVE_BYTES.peak() as f64 / (1024.0 * 1024.0);
        if let Some(l) = &self.ledger {
            l.write_report(&serde_json::to_string(report).expect("train report serializes"));
        }
    }
}

/// Tracks the watched value and decides when to stop.
struct EarlyStopper {
    patience: Option<usize>,
    best: f64,
    since_best: usize,
}

impl EarlyStopper {
    /// Creates a stopper; `patience = None` never stops.
    fn new(patience: Option<usize>) -> Self {
        EarlyStopper { patience, best: f64::NEG_INFINITY, since_best: 0 }
    }

    /// Best value seen so far (0 before any).
    fn best(&self) -> f64 {
        if self.best.is_finite() {
            self.best
        } else {
            0.0
        }
    }

    /// Feeds a new value; returns true when training should stop.
    fn update(&mut self, value: f64) -> bool {
        if value > self.best {
            self.best = value;
            self.since_best = 0;
            false
        } else {
            self.since_best += 1;
            self.patience.is_some_and(|p| self.since_best >= p)
        }
    }
}

/// Probes validation HR@10 on a deterministic subset of users.
fn probe_valid_hr10(
    model: &impl SequenceScorer,
    split: &Split,
    probe_users: usize,
    seed: u64,
) -> f64 {
    let users = if probe_users >= split.num_users() {
        None
    } else {
        // reuse the split's deterministic subsetting
        let frac = probe_users as f64 / split.num_users() as f64;
        Some(split.train_user_subset(frac.clamp(1e-9, 1.0), seed))
    };
    let opts = EvalOptions { users, ks: vec![10], ..Default::default() };
    evaluate(model, split, EvalTarget::Valid, &opts).hr_at(10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;
    use crate::sasrec::SasRec;
    use seqrec_data::batch::next_item_batch;
    use seqrec_tensor::init::rng;

    /// Adam updates every parameter in place: no tape still shares a
    /// parameter's buffer when the update runs, so no buffer is copied.
    #[test]
    fn serial_step_updates_parameters_in_place() {
        let cfg =
            EncoderConfig { num_items: 20, d: 8, heads: 2, layers: 1, max_len: 6, dropout: 0.1 };
        let mut model = SasRec::new(cfg, 3);
        let seqs: Vec<Vec<u32>> =
            (0..4).map(|u| (0..6).map(|i| ((u + i) % 20) as u32 + 1).collect()).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        let batch = next_item_batch(&refs, 6, &mut NegativeSampler::new(20, 1));
        let buffers = |m: &SasRec| {
            let mut v = Vec::new();
            m.visit(&mut |p| v.push((p.value().data().as_ptr(), p.value().sum())));
            v
        };
        let before = buffers(&model);
        let mut adam = Adam::paper_default();
        let mut r = rng(4);
        serial_step(&mut model, &mut adam, |m, step| m.next_item_loss(step, &batch, true, &mut r));
        let after = buffers(&model);
        assert!(before.iter().zip(&after).any(|(b, a)| b.1 != a.1), "the step updated nothing");
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b.0, a.0, "parameter {i} was copied to a new buffer");
        }
    }

    #[test]
    fn early_stopper_respects_patience() {
        let mut s = EarlyStopper::new(Some(2));
        assert!(!s.update(0.5));
        assert!(!s.update(0.4)); // 1 bad epoch
        assert!(s.update(0.3)); // 2 bad epochs → stop
        assert_eq!(s.best(), 0.5);
    }

    #[test]
    fn improvement_resets_the_counter() {
        let mut s = EarlyStopper::new(Some(2));
        assert!(!s.update(0.1));
        assert!(!s.update(0.05));
        assert!(!s.update(0.2)); // new best
        assert!(!s.update(0.15));
        assert!(s.update(0.1));
    }

    #[test]
    fn none_patience_never_stops() {
        let mut s = EarlyStopper::new(None);
        for _ in 0..100 {
            assert!(!s.update(0.0));
        }
    }

    #[test]
    fn defaults_match_the_paper() {
        let o = TrainOptions::default();
        assert_eq!(o.batch_size, 256);
        assert!((o.lr - 1e-3).abs() < 1e-9);
    }
}
