//! End-to-end observability of the serving path: request lifecycle traces
//! reconstruct real requests, and a live TCP scrape mid-serve returns a
//! well-formed, self-consistent snapshot.
//!
//! The sink is process-global; every test that installs one serialises on
//! `SINK_LOCK`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cp4rec_repro::data::synthetic::{generate_dataset, SyntheticConfig};
use cp4rec_repro::data::Split;
use cp4rec_repro::models::{EncoderConfig, SasRec};
use seqrec_obs::profile::RequestProfile;
use seqrec_obs::sink::{self, SharedBuf};
use seqrec_obs::{metrics, trace, JsonlSink};
use seqrec_serve::{expo, slo, BatchingServer, ExpoServer, ServerConfig, SloPolicy};

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn setup() -> (Split, usize) {
    let mut cfg = SyntheticConfig::beauty(0.01);
    cfg.num_users = 60;
    let dataset = generate_dataset(&cfg);
    let n = dataset.num_items();
    (Split::leave_one_out(&dataset), n)
}

fn spawn_server(n: usize) -> BatchingServer {
    let enc = EncoderConfig { num_items: n, d: 16, heads: 2, layers: 1, max_len: 10, dropout: 0.1 };
    BatchingServer::spawn(SasRec::new(enc, 7), ServerConfig::default())
}

const STAGES: [&str; 6] = ["enqueue", "batch", "encode", "score", "topk", "reply"];

/// Every served request leaves a six-stage trace whose stages tile its
/// server-side latency exactly (consecutive stages share a boundary
/// timestamp), and the traced total agrees with what the client measured.
#[test]
fn request_traces_reconstruct_client_observed_latency() {
    let _g = lock();
    let (split, n) = setup();
    let server = spawn_server(n);

    let buf = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let client = server.client();
    let mut client_us: Vec<f64> = Vec::new();
    for user in 0..20 {
        let sent = Instant::now();
        let recs = client.recommend(user, split.train_sequence(user), 5).expect("server alive");
        client_us.push(sent.elapsed().as_secs_f64() * 1e6);
        assert!(!recs.is_empty());
    }
    // The client handle holds a sender clone: drop it first or the worker
    // never sees the channel close and the server join blocks forever.
    drop(client);
    drop(server);
    sink::uninstall();
    let text = buf.contents();

    let trace = trace::read(&text).expect("trace reads");
    let events = trace.requests;
    assert_eq!(events.len(), 20 * STAGES.len(), "six stages per request");

    // Group by request id and check each trace tiles exactly.
    let mut ids: Vec<u64> = events.iter().map(|e| e.req).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 20, "one trace per request");
    let mut totals: Vec<u64> = Vec::new();
    for id in ids {
        let trace: Vec<_> = events.iter().filter(|e| e.req == id).collect();
        let got: Vec<&str> = trace.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(got, STAGES, "stage order for request {id}");
        for pair in trace.windows(2) {
            assert_eq!(
                pair[0].ts_us + pair[0].dur_us,
                pair[1].ts_us,
                "stages must share boundary timestamps (request {id})"
            );
        }
        let span = trace.last().unwrap().ts_us + trace.last().unwrap().dur_us - trace[0].ts_us;
        let sum: u64 = trace.iter().map(|e| e.dur_us).sum();
        assert_eq!(sum, span, "stage durations must telescope (request {id})");
        totals.push(sum);
    }

    // The traced total starts at the client's enqueue stamp and ends just
    // after the reply was sent, so it can only disagree with the client's
    // own stopwatch by scheduling noise — bounded, generously, by 100ms.
    for (total, observed) in totals.iter().zip(&client_us) {
        let diff = (*total as f64 - observed).abs();
        assert!(
            diff < 100_000.0,
            "traced {total}µs vs client-observed {observed:.0}µs: drift {diff:.0}µs"
        );
    }

    // Request events do not become span events, and they fold into a
    // per-stage profile.
    assert!(trace.spans.is_empty());
    let profile = RequestProfile::build(&events);
    assert_eq!(profile.requests(), 20);
    assert_eq!(profile.stages().len(), STAGES.len());
    let rendered = profile.render();
    for stage in STAGES {
        assert!(rendered.contains(stage), "profile table missing {stage}:\n{rendered}");
    }
}

/// Scraping the exposition endpoint while the server is under load
/// returns a parseable, internally consistent snapshot whose rolling
/// windows are populated, and the SLO evaluator agrees with it.
#[test]
fn live_scrape_mid_serve_is_well_formed_and_current() {
    let _g = lock();
    let (split, n) = setup();
    metrics::reset_all();
    let server = spawn_server(n);
    let expo_server = ExpoServer::bind("127.0.0.1:0").expect("bind loopback");

    let client = server.client();
    for user in 0..30 {
        let _ = client.recommend(
            user % split.num_users(),
            split.train_sequence(user % split.num_users()),
            5,
        );
    }
    // Scrape while the server is still up: this is the live path, not the
    // shutdown dump.
    let body = expo::scrape(expo_server.addr()).expect("scrape over TCP");
    let exp = seqrec_obs::expo::parse(&body).expect("exposition parses");
    exp.validate_histograms().expect("histograms well-formed");
    assert_eq!(exp.value("seqrec_serve_requests"), Some(30.0));
    assert!(
        exp.value("seqrec_serve_latency_us_window_count").unwrap_or(0.0) >= 30.0,
        "rolling latency window must hold the traffic just served"
    );
    assert!(exp.value("seqrec_serve_queue_depth_window_count").unwrap_or(0.0) >= 1.0);
    assert!(exp.value("seqrec_serve_cache_hits_window").is_some());
    assert!(exp.value("seqrec_obs_window_us").unwrap_or(0.0) > 0.0);

    // The SLO evaluator reads the same window the scrape rendered.
    let report = slo::evaluate(&SloPolicy { target_us: 5_000_000, budget: 0.0, error_budget: 0.0 });
    assert_eq!(report.total, 30);
    assert!(report.ok, "30 sub-5s requests cannot breach: {report:?}");

    drop(client);
    drop(server);
    drop(expo_server);
    metrics::reset_all();
}
