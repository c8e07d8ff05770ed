//! Serve workloads: a seeded SASRec goes through `checkpoint::save_to_vec`
//! → `AnyModel::load_from_bytes` → `BatchingServer`, and one process drives
//! it from two sender threads, k = 10. The server keeps the default 500 µs
//! batching window but closes a batch at two requests, as many as two
//! blocking senders can have queued: with the default cap of 64 every
//! batch would wait out the whole window, which would then be about a
//! third of each capacity cycle. A lone request still waits out the window,
//! as it does under the default config (`serve.batch_wait_us_p50`).
//!
//! * `serve_hot` — full-size beauty preset (about 10k items). Repeat users
//!   from a 256-user hot set, drawn with a popularity skew, with unchanged
//!   histories: nearly every request hits the user-state cache, so the
//!   catalog GEMM and top-K dominate.
//! * `serve_append` — beauty ×0.1 (about 1k items). Every request appends
//!   one item to its user's history, so every request misses the cache,
//!   re-encodes and rewrites its entry, while scoring is cheap.
//!
//! Which user asks and what is appended come from `--seed`. After an
//! untimed warm-up at the reference rate, a run alternates half-second
//! slices of two loads for `--seconds`:
//!
//! * reference slices, open-loop at a fixed rate well below capacity (400
//!   req/s hot, 600 append): request `i` of a slice is due `i / rate`
//!   seconds into it whatever happened to earlier requests, and its latency
//!   is timed from that due time, so a stall also counts against the
//!   requests it delays. `p50_ms` is the median over the slices of each
//!   slice's median; traced runs report the tail (`serve.p90_ms`,
//!   `serve.p99_ms`) and how late the senders ran (`gen.lag_ms_p99`);
//! * capacity slices, closed-loop in lockstep: in every cycle both senders
//!   send, then both wait for their replies, so the server sees a batch of
//!   two per cycle. `throughput_per_s` is the completion rate of the
//!   busiest slice, the highest rate two blocking clients get without a
//!   growing backlog while the host lets them. Their latency stays at a
//!   few milliseconds, well inside the repository's default objective
//!   (`SloPolicy`: p99 ≤ 20 ms).
//!
//! The host's slow periods stretch compute by up to 1.6× for seconds at a
//! time. Slices spread both loads over the whole run, and statistics over
//! slices follow those periods less than statistics over one five-second
//! phase: over ten runs the capacity phase's overall rate spread 11–54%
//! (IQR/median), its busiest half second 3–6%. Measuring the saturation
//! rate directly replaces a bisection over offered rates whose p99 test
//! flipped on single host stalls, and the lockstep keeps the senders from
//! drifting between one shared batch and two alternating ones.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use seqrec_data::Split;
use seqrec_eval::SequenceScorer;
use seqrec_models::{checkpoint, EncoderConfig, SasRec};
use seqrec_serve::{AnyModel, BatchingServer, Recommendation, ServerConfig};

use crate::spec::Outcome;
use crate::stats::percentile;
use crate::trace::{out_path, Counters, Tracer};
use crate::{dataset, timed_setup, Ctx};

/// Load-generator threads.
const SENDERS: usize = 2;
/// Recommendations per request.
const K: usize = 10;
/// Untimed warm-up before the timed slices.
const WARMUP_S: f64 = 1.0;
/// Length of one reference or capacity slice.
const SLICE_S: f64 = 0.5;
/// Requests generated per second of a capacity slice: about four times
/// what two blocking senders complete, so a faster server still runs out
/// of time before it runs out of requests.
const CLOSED_LOOP_CAP: f64 = 12_000.0;
/// Every this-many-th timed request is re-scored after the run.
const SAMPLE_EVERY: u64 = 64;
/// Size of `serve_hot`'s repeat-user set.
const HOT_USERS: usize = 256;

/// Deterministic splitmix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The seeded request content of a serve workload.
pub struct Traffic {
    /// Users requests are drawn from, most popular first.
    users: Vec<usize>,
    /// Current history of every user of the split.
    histories: Vec<Vec<u32>>,
    /// `Some(catalog size)`: every request appends a uniform item.
    append_from: Option<usize>,
    rng: SplitMix,
}

impl Traffic {
    /// `serve_hot`'s stream: a seeded hot set of users, picked with an x²
    /// popularity skew, histories unchanged.
    pub fn hot(split: &Split, seed: u64) -> Traffic {
        let mut rng = SplitMix(seed);
        let mut all: Vec<usize> = (0..split.num_users()).collect();
        let hot = HOT_USERS.min(all.len());
        for i in 0..hot {
            let j = i + rng.below(all.len() - i);
            all.swap(i, j);
        }
        all.truncate(hot);
        Traffic { users: all, histories: histories(split), append_from: None, rng }
    }

    /// `serve_append`'s stream: uniform users, each request appending one
    /// uniform item of the catalog to the user's history.
    pub fn append(split: &Split, seed: u64) -> Traffic {
        Traffic {
            users: (0..split.num_users()).collect(),
            histories: histories(split),
            append_from: Some(split.num_items()),
            rng: SplitMix(seed),
        }
    }

    /// The next `n` requests as `(user, history)`.
    pub fn take(&mut self, n: usize) -> Vec<(usize, Vec<u32>)> {
        (0..n)
            .map(|_| {
                let pick = match self.append_from {
                    Some(_) => self.rng.below(self.users.len()),
                    None => {
                        ((self.rng.unit() * self.rng.unit()) * self.users.len() as f64) as usize
                    }
                };
                let user = self.users[pick.min(self.users.len() - 1)];
                if let Some(items) = self.append_from {
                    let item = 1 + self.rng.below(items) as u32;
                    self.histories[user].push(item);
                }
                (user, self.histories[user].clone())
            })
            .collect()
    }
}

fn histories(split: &Split) -> Vec<Vec<u32>> {
    (0..split.num_users()).map(|u| split.test_input(u)).collect()
}

/// A served request kept for the parity check.
struct Sample {
    user: usize,
    history: Vec<u32>,
    served: Vec<Recommendation>,
}

/// How a phase offers its requests.
#[derive(Clone, Copy)]
enum Load {
    /// Request `i` is due `i / rate` seconds into the phase.
    Open { rate: f64, secs: f64 },
    /// In each cycle every sender sends one request and waits for its
    /// reply; cycles repeat until `secs` have passed.
    Closed { secs: f64 },
}

/// What one phase of load measured.
#[derive(Default)]
struct Phase {
    /// Per request, from its due time (open loop) or its send (closed
    /// loop) to its reply.
    latency_ms: Vec<f64>,
    /// Per request, how late its sender sent it.
    lag_ms: Vec<f64>,
    achieved_rps: f64,
    failed: u64,
    samples: Vec<Sample>,
}

/// One sender thread's log.
#[derive(Default)]
struct SenderLog {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    failed: u64,
    samples: Vec<Sample>,
    last_done: Option<Instant>,
}

/// Offers `requests` under `load` from [`SENDERS`] threads; sender `t`
/// sends requests `t`, `t + SENDERS`, …. Request `i` is sampled for the
/// parity check when `first + i` is a multiple of [`SAMPLE_EVERY`]
/// (`first: None` samples nothing).
fn run_phase(
    server: &BatchingServer,
    requests: &[(usize, Vec<u32>)],
    load: Load,
    first: Option<u64>,
) -> Phase {
    // Closed-loop senders meet at a barrier every cycle, so they must all
    // run the same number of cycles.
    assert!(
        matches!(load, Load::Open { .. }) || requests.len().is_multiple_of(SENDERS),
        "a lockstep phase needs a multiple of {SENDERS} requests"
    );
    let start = Instant::now() + Duration::from_millis(5);
    let (barrier, stop) = (Barrier::new(SENDERS), AtomicBool::new(false));
    let logs: Vec<SenderLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|t| {
                let client = server.client();
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut log = SenderLog::default();
                    for i in (t..requests.len()).step_by(SENDERS) {
                        let due = match load {
                            Load::Open { rate, .. } => {
                                start + Duration::from_secs_f64(i as f64 / rate)
                            }
                            Load::Closed { secs } => {
                                // One sender decides between the two
                                // barriers whether this cycle runs; the
                                // second barrier orders that store before
                                // every sender's load.
                                if barrier.wait().is_leader() {
                                    let over =
                                        Instant::now() >= start + Duration::from_secs_f64(secs);
                                    stop.store(over, Ordering::Relaxed);
                                }
                                barrier.wait();
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                Instant::now().max(start)
                            }
                        };
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let (user, history) = &requests[i];
                        let reply = client.recommend(*user, history, K);
                        let done = Instant::now();
                        log.latency_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
                        log.lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                        log.last_done = Some(done);
                        match reply {
                            Some(served) if served.len() == K => {
                                if first
                                    .is_some_and(|f| (f + i as u64).is_multiple_of(SAMPLE_EVERY))
                                {
                                    log.samples.push(Sample {
                                        user: *user,
                                        history: history.clone(),
                                        served,
                                    });
                                }
                            }
                            _ => log.failed += 1,
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut phase = Phase::default();
    let mut last = start;
    for log in logs {
        phase.latency_ms.extend(log.latency_ms);
        phase.lag_ms.extend(log.lag_ms);
        phase.failed += log.failed;
        phase.samples.extend(log.samples);
        last = last.max(log.last_done.unwrap_or(start));
    }
    phase.achieved_rps = phase.latency_ms.len() as f64 / last.duration_since(start).as_secs_f64();
    phase
}

/// A set-up serving stack.
struct ServeBench {
    split: Split,
    /// The model the checkpoint was saved from: the offline reference the
    /// served rankings must match.
    reference: SasRec,
    server: BatchingServer,
}

impl ServeBench {
    fn new(ctx: &Ctx, scale: f64, generate_ms: &mut Vec<f64>, load_ms: &mut Vec<f64>) -> Self {
        let (split, n, ms) = dataset(scale, ctx.seed);
        generate_ms.push(ms);
        let reference = SasRec::new(EncoderConfig::small(n), ctx.seed);
        let bytes = checkpoint::save_to_vec(&reference);
        let t = Instant::now();
        let model = AnyModel::load_from_bytes(&bytes).expect("a freshly saved checkpoint loads");
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let server = BatchingServer::spawn(model, server_config());
        ServeBench { split, reference, server }
    }

    /// Re-scores a served request with `score_full_catalog` and a full
    /// sort by (score desc, item asc); the served top-K must equal it bit
    /// for bit.
    fn parity_holds(&self, s: &Sample) -> bool {
        let scores = self.reference.score_full_catalog(&[s.user], &[&s.history]);
        let row = &scores[0];
        let mut ranked: Vec<(u32, f32)> = (1..row.len()).map(|i| (i as u32, row[i])).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        s.served
            .iter()
            .zip(&ranked)
            .all(|(r, &(item, score))| r.item == item && r.score.to_bits() == score.to_bits())
    }
}

/// Drives one server with one traffic stream, counting every timed
/// request as an op.
struct LoadGen<'a> {
    bench: &'a ServeBench,
    traffic: Traffic,
    timed: u64,
    samples: Vec<Sample>,
    out: &'a mut Outcome,
}

impl LoadGen<'_> {
    /// Runs one phase; `timed` phases count their requests towards
    /// `attempted`/`failed` and feed the parity sample.
    fn phase(&mut self, load: Load, timed: bool) -> Phase {
        let n = match load {
            Load::Open { rate, secs } => (rate * secs).round() as usize,
            Load::Closed { secs } => (CLOSED_LOOP_CAP * secs) as usize,
        };
        let requests = self.traffic.take(n.max(SENDERS).next_multiple_of(SENDERS));
        let mut phase = run_phase(&self.bench.server, &requests, load, timed.then_some(self.timed));
        if timed {
            self.timed += requests.len() as u64;
            self.out.attempted += phase.latency_ms.len() as u64;
            self.out.failed += phase.failed;
            self.samples.append(&mut phase.samples);
        }
        phase
    }

    /// Re-checks the sampled requests (each a failed op when it differs).
    fn check_parity(&mut self) {
        for s in std::mem::take(&mut self.samples) {
            let ok = self.bench.parity_holds(&s);
            self.out.failed += u64::from(!ok);
        }
    }
}

/// Checks that each traced request's six stages tile its server-side
/// latency: stage `i + 1` starts where stage `i` ends. Requests whose
/// trailing events were still being written when tracing stopped (no
/// `reply` stage) are skipped, but at least 95% must be complete.
fn stages_tile(trace: &crate::trace::Trace, requests: usize) -> bool {
    const STAGES: [&str; 6] = ["enqueue", "batch", "encode", "score", "topk", "reply"];
    let mut by_req: BTreeMap<u64, Vec<&seqrec_obs::profile::RequestEvent>> = BTreeMap::new();
    for ev in &trace.requests {
        by_req.entry(ev.req).or_default().push(ev);
    }
    let mut complete = 0usize;
    for evs in by_req.values() {
        if !evs.iter().any(|e| e.stage == "reply") {
            continue;
        }
        complete += 1;
        let ordered = evs.len() == STAGES.len()
            && evs.iter().zip(STAGES).all(|(e, s)| e.stage == s)
            && evs.windows(2).all(|w| w[0].ts_us + w[0].dur_us == w[1].ts_us);
        if !ordered {
            return false;
        }
    }
    complete as f64 >= 0.95 * requests as f64
}

/// The server's batching policy: the default window, closed as soon as
/// every sender has a request in it.
fn server_config() -> ServerConfig {
    ServerConfig { max_batch: SENDERS, ..ServerConfig::default() }
}

/// The `serve_hot` and `serve_append` workloads.
pub fn run(ctx: &Ctx) -> Outcome {
    let append = ctx.workload == "serve_append";
    let (scale, rate) = if append { (0.1, 600.0) } else { (1.0, 400.0) };

    let mut out = Outcome::default();
    let (mut generate_ms, mut load_ms) = (Vec::new(), Vec::new());
    let (setup_s, bench) =
        timed_setup(ctx, || ServeBench::new(ctx, ctx.scale(scale), &mut generate_ms, &mut load_ms));
    let traffic = if append {
        Traffic::append(&bench.split, ctx.seed)
    } else {
        Traffic::hot(&bench.split, ctx.seed)
    };
    let mut loadgen =
        LoadGen { bench: &bench, traffic, timed: 0, samples: Vec::new(), out: &mut out };
    loadgen.phase(Load::Open { rate, secs: if ctx.smoke { 0.1 } else { WARMUP_S } }, false);

    if !ctx.trace {
        let slices = ((ctx.seconds / (2.0 * SLICE_S)).round() as usize).max(1);
        let (mut p50s, mut rates) = (Vec::new(), Vec::new());
        for _ in 0..slices {
            let reference = loadgen.phase(Load::Open { rate, secs: SLICE_S }, true);
            p50s.push(percentile(&reference.latency_ms, 50.0));
            rates.push(loadgen.phase(Load::Closed { secs: SLICE_S }, true).achieved_rps);
        }
        loadgen.check_parity();
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", rates.into_iter().fold(0.0, f64::max));
        out.set("p50_ms", percentile(&p50s, 50.0));
        return out;
    }

    let half = Load::Open { rate, secs: ctx.seconds / 2.0 };
    let untraced = loadgen.phase(half, true);
    let before = Counters::read();
    let tracer = Tracer::start();
    let traced = loadgen.phase(half, true);
    let counts = Counters::read().since(before);
    let folded = tracer.finish(&out_path(&ctx.workload, ctx.seed));
    loadgen.check_parity();
    let trace = match folded {
        Ok(t) => t,
        Err(e) => {
            eprintln!("seqrec-bench: trace: {e}");
            out.check(false);
            return out;
        }
    };
    out.check(stages_tile(&trace, traced.latency_ms.len()));
    for (stage, name) in [
        ("enqueue", "serve.queue_us_p50"),
        ("batch", "serve.batch_wait_us_p50"),
        ("encode", "serve.encode_us_p50"),
        ("score", "serve.score_us_p50"),
        ("topk", "serve.topk_us_p50"),
        ("reply", "serve.reply_us_p50"),
    ] {
        let us: Vec<f64> =
            trace.requests.iter().filter(|e| e.stage == stage).map(|e| e.dur_us as f64).collect();
        if !us.is_empty() {
            out.set(name, percentile(&us, 50.0));
        }
    }
    let lookups = (counts.cache_hits + counts.cache_misses).max(1) as f64;
    out.set("serve.cache_hit_ratio", counts.cache_hits as f64 / lookups);
    out.set(
        "serve.batch_size_mean",
        counts.serve_requests as f64 / counts.serve_batches.max(1) as f64,
    );
    out.set("serve.p90_ms", percentile(&untraced.latency_ms, 90.0));
    out.set("serve.p99_ms", percentile(&untraced.latency_ms, 99.0));
    out.set("gen.lag_ms_p99", percentile(&untraced.lag_ms, 99.0));
    out.set("checkpoint.load_ms", percentile(&load_ms, 50.0));
    out.set("data.generate_ms", percentile(&generate_ms, 50.0));
    out.set(
        "obs.trace_overhead_pct",
        (percentile(&traced.latency_ms, 50.0) / percentile(&untraced.latency_ms, 50.0) - 1.0)
            * 100.0,
    );
    let requests = traced.latency_ms.len() as f64;
    counts.record_compute(&mut out, requests, requests / traced.achieved_rps);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqrec_data::Dataset;

    fn split() -> Split {
        let seqs = (0..40u32).map(|u| (0..6).map(|i| (u + i) % 30 + 1).collect()).collect();
        Split::leave_one_out(&Dataset::new(seqs, 30))
    }

    #[test]
    fn hot_stream_is_seed_determined() {
        let s = split();
        let a = Traffic::hot(&s, 7).take(200);
        assert_eq!(a, Traffic::hot(&s, 7).take(200));
        assert_ne!(a, Traffic::hot(&s, 8).take(200));
        // Histories never change, so a repeat user repeats its request.
        for (user, history) in &a {
            assert_eq!(history, &s.test_input(*user));
        }
    }

    #[test]
    fn append_stream_is_seed_determined_and_grows_one_item_per_request() {
        let s = split();
        let a = Traffic::append(&s, 7).take(300);
        assert_eq!(a, Traffic::append(&s, 7).take(300));
        assert_ne!(a, Traffic::append(&s, 8).take(300));
        let mut last: Vec<Vec<u32>> = (0..s.num_users()).map(|u| s.test_input(u)).collect();
        for (user, history) in &a {
            let before = &last[*user];
            assert_eq!(history.len(), before.len() + 1);
            assert_eq!(&history[..before.len()], before.as_slice());
            let item = *history.last().expect("non-empty");
            assert!((1..=s.num_items() as u32).contains(&item));
            last[*user] = history.clone();
        }
    }

    #[test]
    fn open_loop_schedule_depends_only_on_rate() {
        // Request i is due i / rate seconds after the phase starts, no
        // matter how long earlier requests took: a stalled server cannot
        // slow the offered load.
        let s = split();
        let model = SasRec::new(
            EncoderConfig { num_items: 30, d: 8, heads: 1, layers: 1, max_len: 6, dropout: 0.0 },
            1,
        );
        let server = BatchingServer::spawn(model, server_config());
        let requests = Traffic::append(&s, 3).take(40);
        let t = Instant::now();
        let phase = run_phase(&server, &requests, Load::Open { rate: 200.0, secs: 0.2 }, Some(0));
        assert!(t.elapsed() >= Duration::from_secs_f64(39.0 / 200.0));
        assert_eq!(phase.latency_ms.len(), 40);
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.samples.len(), 1, "request 0 is the only multiple of {SAMPLE_EVERY}");
    }

    #[test]
    fn closed_loop_stops_at_its_deadline() {
        let s = split();
        let model = SasRec::new(
            EncoderConfig { num_items: 30, d: 8, heads: 1, layers: 1, max_len: 6, dropout: 0.0 },
            1,
        );
        let server = BatchingServer::spawn(model, server_config());
        let requests = Traffic::hot(&s, 3).take(100_000);
        let t = Instant::now();
        let phase = run_phase(&server, &requests, Load::Closed { secs: 0.2 }, None);
        assert!(t.elapsed() < Duration::from_secs(2), "senders ran past the deadline");
        assert!(phase.latency_ms.len() < requests.len());
        assert!(phase.achieved_rps > 0.0);
        assert_eq!(phase.failed, 0);
    }
}
