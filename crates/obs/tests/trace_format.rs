//! Parse-back validation of the emitted trace formats through
//! [`seqrec_obs::trace::read`].
//!
//! The sink is process-global, so every test here grabs `SINK_LOCK` first;
//! the whole file shares one test binary to avoid cross-binary races.

use std::sync::{Arc, Mutex, MutexGuard};

use seqrec_obs::json::{self, Value};
use seqrec_obs::sink::{self, SharedBuf};
use seqrec_obs::trace::{self, Trace};
use seqrec_obs::{ChromeTraceSink, Fanout, JsonlSink};

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a JSONL sink over an in-memory buffer, runs `f`, uninstalls,
/// and returns the captured text.
fn capture_jsonl(f: impl FnOnce()) -> String {
    let buf = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    f();
    sink::uninstall();
    buf.contents()
}

fn capture_chrome(f: impl FnOnce()) -> String {
    let buf = SharedBuf::new();
    sink::install(Arc::new(ChromeTraceSink::to_writer(Box::new(buf.clone()))));
    f();
    sink::uninstall();
    buf.contents()
}

#[test]
fn jsonl_lines_parse_and_spans_pair_up() {
    let _g = lock();
    let text = capture_jsonl(|| {
        let _outer = seqrec_obs::span!("epoch");
        {
            let _inner = seqrec_obs::span!("batch");
            seqrec_obs::metrics::TRAIN_BATCHES.incr();
        }
        seqrec_obs::info!("hello from the test");
    });

    let mut begins = Vec::new();
    let mut ends = Vec::new();
    let mut saw_log = false;
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        match v.get("ev").and_then(Value::as_str) {
            Some("span_begin") => begins.push(v.clone()),
            Some("span_end") => {
                let dur = v.get("dur_us").and_then(Value::as_f64).expect("dur_us");
                assert!(dur >= 0.0, "negative duration in {line}");
                ends.push(v.clone());
            }
            Some("log") => {
                saw_log = true;
                assert_eq!(v.get("msg").and_then(Value::as_str), Some("hello from the test"));
            }
            Some("counter") | Some("mem_alloc") | Some("mem_free") | None => {}
            Some(other) => panic!("unknown event kind {other}"),
        }
    }
    assert!(saw_log, "log line missing from {text}");

    // Every begin has exactly one end with the same name and depth, and
    // nesting depths are what the lexical structure says.
    let name_depth = |v: &Value| {
        (
            v.get("name").and_then(Value::as_str).unwrap().to_string(),
            v.get("depth").and_then(Value::as_f64).unwrap() as u32,
        )
    };
    let mut open: Vec<(String, u32)> = begins.iter().map(name_depth).collect();
    for e in &ends {
        let key = name_depth(e);
        let pos = open
            .iter()
            .position(|k| *k == key)
            .unwrap_or_else(|| panic!("end without begin: {key:?}"));
        open.remove(pos);
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    assert_eq!(begins.len(), 2);
    assert!(begins.iter().any(|b| name_depth(b) == ("epoch".into(), 0)));
    assert!(begins.iter().any(|b| name_depth(b) == ("batch".into(), 1)));
}

#[test]
fn chrome_trace_is_one_valid_json_array_with_paired_events() {
    let _g = lock();
    let text = capture_chrome(|| {
        let _fwd = seqrec_obs::span!("forward");
        let _gemm = seqrec_obs::span!("gemm");
    });

    let doc = json::parse(&text).unwrap_or_else(|e| panic!("chrome trace not JSON: {e}\n{text}"));
    let events = doc.as_arr().expect("top-level array");
    assert!(!events.is_empty());

    // Per-thread B/E events must nest like a well-formed bracket sequence.
    let mut stack: Vec<&str> = Vec::new();
    let mut last_ts = 0.0f64;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        match ph {
            "B" => {
                let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
                assert!(ts >= last_ts, "timestamps must be monotonic");
                last_ts = ts;
                stack.push(ev.get("name").and_then(Value::as_str).expect("name"));
            }
            "E" => {
                let open = stack.pop().expect("E without matching B");
                assert_eq!(Some(open), ev.get("name").and_then(Value::as_str));
            }
            "M" | "i" | "C" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(stack.is_empty(), "unclosed B events: {stack:?}");
    let names: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["forward", "gemm"]);
}

#[test]
fn panicking_code_still_closes_its_spans() {
    let _g = lock();
    let text = capture_jsonl(|| {
        let caught = std::panic::catch_unwind(|| {
            let _span = seqrec_obs::span!("doomed");
            panic!("boom");
        });
        assert!(caught.is_err());
        // Drop ran during unwinding: the thread's depth is back to zero.
        assert_eq!(seqrec_obs::span::current_depth(), 0);
    });
    let kinds: Vec<(String, String)> = text
        .lines()
        .map(|l| {
            let v = json::parse(l).unwrap();
            (
                v.get("ev").and_then(Value::as_str).unwrap().to_string(),
                v.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
            )
        })
        .collect();
    assert!(kinds.contains(&("span_begin".into(), "doomed".into())));
    assert!(kinds.contains(&("span_end".into(), "doomed".into())), "unwind lost the end event");
}

#[test]
fn metrics_snapshot_round_trips_through_the_jsonl_sink() {
    let _g = lock();
    seqrec_obs::metrics::reset_all();
    let text = capture_jsonl(|| {
        seqrec_obs::metrics::GEMM_FLOPS.add(123);
        seqrec_obs::metrics::TENSOR_LIVE_BYTES.add(4096);
        seqrec_obs::metrics::emit_snapshot();
        seqrec_obs::metrics::TENSOR_LIVE_BYTES.add(-4096);
    });
    let mut counters = std::collections::BTreeMap::new();
    for line in text.lines() {
        let v = json::parse(line).unwrap();
        if v.get("ev").and_then(Value::as_str) == Some("counter") {
            counters.insert(
                v.get("name").and_then(Value::as_str).unwrap().to_string(),
                v.get("value").and_then(Value::as_f64).unwrap(),
            );
        }
    }
    assert_eq!(counters.get("gemm.flops"), Some(&123.0));
    assert!(
        counters.get("tensor.live_bytes.peak").is_some_and(|&p| p >= 4096.0),
        "live-bytes peak missing: {counters:?}"
    );
    seqrec_obs::metrics::reset_all();
}

#[test]
fn detail_spans_only_fire_when_requested() {
    let _g = lock();
    let without = capture_jsonl(|| {
        sink::set_detail(false);
        let _k = seqrec_obs::detail_span!("gemm.nn");
    });
    assert!(!without.contains("gemm.nn"));
    let with = capture_jsonl(|| {
        sink::set_detail(true);
        let _k = seqrec_obs::detail_span!("gemm.nn");
        sink::set_detail(false);
    });
    assert!(with.contains("gemm.nn"));
}

#[test]
fn chrome_trace_names_the_process_and_every_thread_lane() {
    let _g = lock();
    seqrec_obs::metrics::reset_all();
    let text = capture_chrome(|| {
        let _s = seqrec_obs::span!("work");
        seqrec_obs::metrics::GEMM_FLOPS.add(7);
        seqrec_obs::metrics::emit_snapshot();
    });
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("chrome trace not JSON: {e}\n{text}"));
    let events = doc.as_arr().expect("top-level array");

    // The very first event names the process.
    let first = &events[0];
    assert_eq!(first.get("ph").and_then(Value::as_str), Some("M"));
    assert_eq!(first.get("name").and_then(Value::as_str), Some("process_name"));
    assert_eq!(
        first.get("args").and_then(|a| a.get("name")).and_then(Value::as_str),
        Some("seqrec")
    );

    // Each tid gets exactly one thread_name metadata event, and it lands
    // before the first real event on that tid (viewers apply it lazily,
    // but emitting it first keeps the invariant checkable).
    let mut named: Vec<f64> = Vec::new();
    for ev in events {
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid");
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        if ph == "M" && name == "thread_name" {
            assert!(!named.contains(&tid), "duplicate thread_name for tid {tid}");
            let label = ev.get("args").and_then(|a| a.get("name")).and_then(Value::as_str);
            assert!(label.is_some_and(|l| !l.is_empty()), "empty thread label: {ev:?}");
            named.push(tid);
        } else if ph != "M" {
            assert!(named.contains(&tid), "event on tid {tid} before its thread_name: {ev:?}");
        }
    }
    // Both lanes appeared: the span's worker thread and the metrics lane
    // (counters are pinned to tid 0, labelled "metrics").
    assert!(named.len() >= 2, "expected worker + metrics lanes, got {named:?}");
    assert!(named.contains(&0.0), "metrics lane (tid 0) never named");
    seqrec_obs::metrics::reset_all();
}

/// Spans emitted from inside a real worker pool land on lanes labelled
/// with the workers' OS thread names (`seqrec-worker-<i>`), so a Chrome
/// trace of a parallel run shows per-worker rows instead of bare tids.
/// (Cross-thread timestamps are not globally ordered; this test only
/// checks labelling, unlike the single-thread monotonicity test above.)
#[test]
fn chrome_trace_labels_pool_worker_lanes() {
    let _g = lock();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool builds");
    let text = capture_chrome(|| {
        pool.install(|| {
            rayon::join(
                || {
                    let _s = seqrec_obs::span!("left");
                    std::hint::black_box(0)
                },
                || {
                    let _s = seqrec_obs::span!("right");
                    std::hint::black_box(1)
                },
            );
        });
    });
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("chrome trace not JSON: {e}\n{text}"));
    let events = doc.as_arr().expect("top-level array");
    let worker_lanes: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("name").and_then(Value::as_str) == Some("thread_name")
        })
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
        .filter(|l| l.starts_with("seqrec-worker-"))
        .collect();
    // `install` runs the closure on a pool worker, so at least one span —
    // and therefore one labelled lane — is guaranteed to be a worker's.
    assert!(!worker_lanes.is_empty(), "no seqrec-worker-* lane in trace:\n{text}");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(span_names.len(), 2, "expected both spans, got {span_names:?}");
    assert!(span_names.contains(&"left") && span_names.contains(&"right"));
}

/// Request lifecycle events carry the full shape on the JSONL sink —
/// stable keys, numeric ids, stage label — and never read back as spans
/// (a serve trace still folds as a flame graph).
#[test]
fn request_events_have_the_documented_jsonl_shape() {
    let _g = lock();
    let text = capture_jsonl(|| {
        for (stage, ts, dur) in [("enqueue", 100, 40), ("batch", 140, 60)] {
            sink::dispatch(&seqrec_obs::Event::Request {
                req: 7,
                user: 3,
                stage,
                tid: 2,
                ts_us: ts,
                dur_us: dur,
            });
        }
    });
    let lines: Vec<Value> = text.lines().map(|l| json::parse(l).expect("valid JSONL")).collect();
    assert_eq!(lines.len(), 2);
    for (v, (stage, ts, dur)) in
        lines.iter().zip([("enqueue", 100.0, 40.0), ("batch", 140.0, 60.0)])
    {
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("request"));
        assert_eq!(v.get("req").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("user").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("stage").and_then(Value::as_str), Some(stage));
        assert_eq!(v.get("tid").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("ts_us").and_then(Value::as_f64), Some(ts));
        assert_eq!(v.get("dur_us").and_then(Value::as_f64), Some(dur));
    }
    // The reader files request lines as requests, not spans.
    let back = trace::read(&text).expect("trace reads");
    assert!(back.spans.is_empty());
    assert_eq!(back.requests.len(), 2);
}

/// On the Chrome sink a request stage is a complete (`X`) slice in the
/// `serve` category, named `req.<stage>`, carrying the ids in `args` — so
/// a trace viewer shows per-stage bars and the reader round-trips it.
#[test]
fn request_events_render_as_chrome_complete_slices() {
    let _g = lock();
    let text = capture_chrome(|| {
        sink::dispatch(&seqrec_obs::Event::Request {
            req: 11,
            user: 5,
            stage: "score",
            tid: 1,
            ts_us: 2_000,
            dur_us: 250,
        });
    });
    let doc = json::parse(&text).expect("chrome trace parses");
    let slice = doc
        .as_arr()
        .expect("array")
        .iter()
        .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .expect("one X slice")
        .clone();
    assert_eq!(slice.get("name").and_then(Value::as_str), Some("req.score"));
    assert_eq!(slice.get("cat").and_then(Value::as_str), Some("serve"));
    assert_eq!(slice.get("ts").and_then(Value::as_f64), Some(2_000.0));
    assert_eq!(slice.get("dur").and_then(Value::as_f64), Some(250.0));
    let args = slice.get("args").expect("args");
    assert_eq!(args.get("req").and_then(Value::as_f64), Some(11.0));
    assert_eq!(args.get("user").and_then(Value::as_f64), Some(5.0));

    let back = trace::read(&text).expect("trace reads");
    assert_eq!(back.requests.len(), 1);
    assert_eq!(back.requests[0].stage, "score");
    assert_eq!(back.requests[0].req, 11);
    // And the trace holds no spans.
    assert!(back.spans.is_empty());
}

/// Mem events on the JSONL sink carry the documented shape — numeric id,
/// bytes, live-bytes level, timestamp, and the owning span path on the
/// alloc — and read back through `trace::read` into a profile, separate
/// from the span events.
#[test]
fn mem_events_have_the_documented_jsonl_shape_and_round_trip() {
    let _g = lock();
    let text = capture_jsonl(|| {
        seqrec_obs::mem::set_sink_mode(Some(1));
        let _epoch = seqrec_obs::span!("epoch");
        let a = seqrec_obs::mem::on_alloc(4096);
        let b = seqrec_obs::mem::on_alloc(1024);
        seqrec_obs::mem::on_free(a, 4096);
        seqrec_obs::mem::on_free(b, 1024);
        seqrec_obs::mem::set_sink_mode(None);
    });

    let mut allocs = Vec::new();
    let mut frees = Vec::new();
    for line in text.lines() {
        let v = json::parse(line).expect("valid JSONL");
        match v.get("ev").and_then(Value::as_str) {
            Some("mem_alloc") => {
                assert_eq!(v.get("path").and_then(Value::as_str), Some("epoch"));
                assert!(v.get("live_bytes").and_then(Value::as_f64).is_some());
                allocs.push((
                    v.get("id").and_then(Value::as_f64).expect("id"),
                    v.get("bytes").and_then(Value::as_f64).expect("bytes"),
                ));
            }
            Some("mem_free") => {
                frees.push((
                    v.get("id").and_then(Value::as_f64).expect("id"),
                    v.get("bytes").and_then(Value::as_f64).expect("bytes"),
                ));
            }
            _ => {}
        }
    }
    assert_eq!(allocs.len(), 2, "expected 2 allocs in {text}");
    assert_eq!(frees.len(), 2, "expected 2 frees in {text}");
    // Every free pairs with an alloc of the same id and size.
    for f in &frees {
        assert!(allocs.contains(f), "unpaired free {f:?} in {text}");
    }

    let back = trace::read(&text).expect("trace reads");
    assert_eq!(back.mem.len(), 4);
    let profile = seqrec_obs::memprof::MemProfile::build(&back.mem).expect("profile builds");
    assert_eq!(profile.allocs, 2);
    assert_eq!(profile.frees, 2);
    assert_eq!(profile.observed_peak_bytes, 4096 + 1024);
    assert_eq!(profile.live_at_end, 0);
    // Attribution sums to the observed peak exactly, and both buffers were
    // inside the `epoch` span when allocated.
    let attributed: u64 = profile.peak_by_path.iter().map(|s| s.bytes).sum();
    assert_eq!(attributed, profile.observed_peak_bytes);
    assert_eq!(profile.peak_by_path[0].key, "epoch");
    // The same read holds the span events apart from the mem lines.
    assert_eq!(back.spans.len(), 2, "span begin+end, mem lines apart");
}

/// On the Chrome sink an allocation is an object-created (`N`) event and
/// its free an object-destroyed (`D`) event in the `mem` category with a
/// hex id, each followed by a `tensor.live_bytes` counter sample — and the
/// pair round-trips through `trace::read`.
#[test]
fn mem_events_render_as_chrome_object_events() {
    let _g = lock();
    let text = capture_chrome(|| {
        seqrec_obs::mem::set_sink_mode(Some(1));
        let _fwd = seqrec_obs::span!("forward");
        let id = seqrec_obs::mem::on_alloc(2048);
        seqrec_obs::mem::on_free(id, 2048);
        seqrec_obs::mem::set_sink_mode(None);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("chrome trace not JSON: {e}\n{text}"));
    let events = doc.as_arr().expect("top-level array");

    let phase = |ph: &str| -> Vec<&Value> {
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph)).collect()
    };
    let created = phase("N");
    let destroyed = phase("D");
    assert_eq!(created.len(), 1, "one N event in {text}");
    assert_eq!(destroyed.len(), 1, "one D event in {text}");
    for ev in created.iter().chain(&destroyed) {
        assert_eq!(ev.get("cat").and_then(Value::as_str), Some("mem"));
        assert_eq!(ev.get("name").and_then(Value::as_str), Some("buf"));
        let id = ev.get("id").and_then(Value::as_str).expect("object id");
        assert!(id.starts_with("0x"), "object id {id} not hex");
        let bytes = ev.get("args").and_then(|a| a.get("bytes")).and_then(Value::as_f64);
        assert_eq!(bytes, Some(2048.0));
    }
    assert_eq!(
        created[0].get("args").and_then(|a| a.get("path")).and_then(Value::as_str),
        Some("forward")
    );
    // Each object event is chased by a live-bytes counter sample.
    let counters = phase("C");
    assert!(
        counters
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("tensor.live_bytes"))
            .count()
            >= 2,
        "missing live-bytes counter samples in {text}"
    );

    let trace = trace::read(&text).expect("trace reads");
    let back = &trace.mem;
    assert_eq!(back.len(), 2);
    assert!(back[0].alloc && !back[1].alloc);
    assert_eq!(back[0].id, back[1].id);
    assert_eq!(back[0].bytes, 2048);
    assert_eq!(back[0].path.as_deref(), Some("forward"));
    // The spans of the full mixed trace read back too.
    assert_eq!(trace.spans.len(), 2);
}

/// The per-thread sink cache in `sink::dispatch` invalidates on
/// re-install: events after a sink swap must reach the new sink, never a
/// stale cached `Arc`.
#[test]
fn reinstalling_a_sink_reaches_threads_with_a_warm_cache() {
    let _g = lock();
    let buf_a = SharedBuf::new();
    let buf_b = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf_a.clone()))));
    seqrec_obs::info!("first"); // warms this thread's cache on sink A
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf_b.clone()))));
    seqrec_obs::info!("second"); // generation moved: must land in sink B
    sink::uninstall();
    let (a, b) = (buf_a.contents(), buf_b.contents());
    assert!(a.contains("first") && !a.contains("second"), "stale cache hit sink A: {a}");
    assert!(b.contains("second") && !b.contains("first"), "sink B missed the event: {b}");
}

/// One run recorded through both sinks at once reads back as the same
/// spans, requests and mem events from either format. The one difference
/// is the live-bytes level, which Chrome object events do not carry.
#[test]
fn both_formats_of_one_run_read_back_the_same_events() {
    let _g = lock();
    let (jsonl, chrome) = (SharedBuf::new(), SharedBuf::new());
    sink::install(Arc::new(Fanout::new(vec![
        Arc::new(JsonlSink::to_writer(Box::new(jsonl.clone()))),
        Arc::new(ChromeTraceSink::to_writer(Box::new(chrome.clone()))),
    ])));
    seqrec_obs::mem::set_sink_mode(Some(1));
    {
        let _epoch = seqrec_obs::span!("epoch");
        let _batch = seqrec_obs::span!("batch");
        let id = seqrec_obs::mem::on_alloc(512);
        let ts_us = sink::now_us();
        sink::dispatch(&seqrec_obs::Event::Request {
            req: 3,
            user: 8,
            stage: "score",
            tid: sink::tid(),
            ts_us,
            dur_us: 17,
        });
        seqrec_obs::mem::on_free(id, 512);
    }
    seqrec_obs::mem::set_sink_mode(None);
    sink::uninstall();

    let mut from_jsonl = trace::read(&jsonl.contents()).expect("JSONL reads");
    let from_chrome = trace::read(&chrome.contents()).expect("Chrome reads");
    let sizes = |t: &Trace| (t.spans.len(), t.requests.len(), t.mem.len());
    assert_eq!(sizes(&from_jsonl), (4, 1, 2));
    assert!(from_jsonl.mem.iter().all(|m| m.live_bytes.is_some()));
    for m in &mut from_jsonl.mem {
        m.live_bytes = None;
    }
    assert_eq!(from_jsonl, from_chrome);
}
