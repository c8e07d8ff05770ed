//! Event sinks: where spans, logs and metric snapshots go.
//!
//! One sink is installed process-wide ([`install`] / [`uninstall`]); a
//! relaxed [`enabled`] flag lets every probe site skip all work with a
//! single atomic load when nothing is listening. Timestamps are
//! microseconds since the first telemetry event of the process (the *trace
//! epoch*), and every OS thread gets a small stable `tid` so traces from
//! rayon workers interleave cleanly.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// A telemetry event. Borrowed fields keep dispatch allocation-free for
/// span events.
pub enum Event<'a> {
    /// A span opened (`B` in Chrome trace terms).
    SpanBegin {
        /// Static span name.
        name: &'static str,
        /// Emitting thread.
        tid: u32,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// Nesting depth on that thread (0 = top level).
        depth: u32,
    },
    /// A span closed (`E` in Chrome trace terms).
    SpanEnd {
        /// Static span name.
        name: &'static str,
        /// Emitting thread.
        tid: u32,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// Wall-clock duration of the span in microseconds.
        dur_us: u64,
        /// Nesting depth on that thread (matches the begin event).
        depth: u32,
    },
    /// A console log line.
    Log {
        /// `LEVEL_*` constant.
        level: u8,
        /// The formatted message.
        msg: &'a str,
        /// Emitting thread.
        tid: u32,
        /// Microseconds since the trace epoch.
        ts_us: u64,
    },
    /// One metric reading from a snapshot flush.
    Counter {
        /// Metric name (flattened: gauges/histograms expand to several).
        name: &'a str,
        /// The reading.
        value: u64,
        /// Microseconds since the trace epoch.
        ts_us: u64,
    },
    /// One completed stage of a serve request's lifecycle
    /// (enqueue → batch → encode → score → topk → reply). Stages of one
    /// request share `req`, so viewers and `seqrec-prof` can correlate
    /// them across lanes.
    Request {
        /// Monotonic request id assigned by the client handle.
        req: u64,
        /// User the request scored.
        user: u64,
        /// Stage name (`"enqueue"`, `"batch"`, `"encode"`, …).
        stage: &'static str,
        /// Thread the stage ran on.
        tid: u32,
        /// Stage start, microseconds since the trace epoch.
        ts_us: u64,
        /// Stage duration in microseconds.
        dur_us: u64,
    },
    /// A tensor buffer came to life (`N` object event in Chrome trace
    /// terms, paired with a `C` counter sample of `tensor.live_bytes`).
    MemAlloc {
        /// Monotonic buffer id; the matching [`Event::MemFree`] carries
        /// the same id.
        id: u64,
        /// Buffer size in bytes.
        bytes: u64,
        /// `tensor.live_bytes` level just after the allocation (signed:
        /// metric resets mid-run can drive it below zero).
        live_bytes: i64,
        /// Allocating thread.
        tid: u32,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// The allocating thread's open-span path (`;`-joined, outermost
        /// first; empty outside all spans).
        path: &'a str,
    },
    /// A tensor buffer was dropped (`D` object event in Chrome trace
    /// terms).
    MemFree {
        /// Buffer id assigned by the matching [`Event::MemAlloc`].
        id: u64,
        /// Buffer size in bytes.
        bytes: u64,
        /// `tensor.live_bytes` level just after the free.
        live_bytes: i64,
        /// Freeing thread.
        tid: u32,
        /// Microseconds since the trace epoch.
        ts_us: u64,
    },
}

/// A destination for telemetry events. Implementations must be
/// `Send + Sync`: events arrive from every thread, including rayon
/// workers inside the GEMM engine.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn event(&self, ev: &Event<'_>);
    /// Flushes buffered output.
    fn flush(&self) {}
    /// Finalises the output (a Chrome trace writes its closing `]`).
    /// Called exactly once, by [`uninstall`].
    fn finish(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);
/// Bumped (under the `SINK` lock) every time the installed sink changes,
/// so per-thread caches know when their `Arc` is stale.
static SINK_GEN: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread cache of the installed sink, keyed by [`SINK_GEN`]. Span
    /// events fire from every pool worker at once; funnelling them all
    /// through the `SINK` mutex would serialise the workers, so
    /// [`dispatch`] only touches the lock when the generation moved.
    static SINK_CACHE: RefCell<(u64, Option<Arc<dyn Sink>>)> =
        const { RefCell::new((0, None)) };
}

thread_local! {
    static TID: u32 = {
        let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        // Record the OS thread's name once, so trace viewers can label the
        // lane ("main", rayon worker names, ...) instead of showing a bare
        // number.
        let label = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{t}"), str::to_string);
        THREAD_NAMES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((t, label));
        t
    };
}

/// The human label registered for a telemetry thread id: the OS thread
/// name when it had one, otherwise `thread-<tid>`. Tid 0 is the synthetic
/// metrics lane.
pub fn thread_label(tid: u32) -> String {
    if tid == 0 {
        return "metrics".to_string();
    }
    THREAD_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .find(|(t, _)| *t == tid)
        .map_or_else(|| format!("thread-{tid}"), |(_, name)| name.clone())
}

/// True when a sink is installed. One relaxed load — this is the gate
/// every [`crate::span!`] site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when per-kernel detail spans were requested in addition to a sink.
#[inline]
pub fn detail() -> bool {
    DETAIL.load(Ordering::Relaxed)
}

/// Enables/disables per-kernel detail spans (normally set by
/// [`crate::init_from_env`] from the `detail` directive).
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Relaxed);
}

/// Microseconds since the trace epoch (the first call in the process).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The calling thread's stable telemetry id.
pub fn tid() -> u32 {
    TID.with(|t| *t)
}

fn sink_slot() -> std::sync::MutexGuard<'static, Option<Arc<dyn Sink>>> {
    // A sink that panicked mid-event must not silence the rest of the run.
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `sink` process-wide, finalising any previous one.
pub fn install(sink: Arc<dyn Sink>) {
    let mut slot = sink_slot();
    if let Some(old) = slot.take() {
        old.flush();
        old.finish();
    }
    *slot = Some(sink);
    SINK_GEN.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed sink after flushing and finalising it. Returns
/// the sink so tests can inspect it.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = sink_slot();
    ENABLED.store(false, Ordering::Release);
    let old = slot.take();
    SINK_GEN.fetch_add(1, Ordering::Release);
    if let Some(s) = &old {
        s.flush();
        s.finish();
    }
    old
}

/// Sends one event to the installed sink, if any.
///
/// Fast path: one relaxed load ([`enabled`]), one acquire load (the sink
/// generation), one thread-local read — no lock and no refcount traffic,
/// so concurrent pool workers never serialise here. The `SINK` mutex is
/// taken only when the generation moved, i.e. once per thread per
/// [`install`]/[`uninstall`]. A thread mid-event when the sink is swapped
/// may deliver that event to the outgoing sink — the same window the old
/// lock-then-clone sequence had; sinks already tolerate events after
/// `finish`.
pub fn dispatch(ev: &Event<'_>) {
    if !enabled() {
        return;
    }
    let generation = SINK_GEN.load(Ordering::Acquire);
    SINK_CACHE.with(|cache| {
        if cache.borrow().0 != generation {
            // Re-read the generation while holding the lock (every bump
            // happens under it), so the cached pair is consistent even
            // when an install races this refresh.
            let slot = sink_slot();
            *cache.borrow_mut() = (SINK_GEN.load(Ordering::Acquire), slot.clone());
        }
        if let Some(s) = &cache.borrow().1 {
            s.event(ev);
        }
    });
}

// --- fan-out -----------------------------------------------------------------

/// Forwards every event to several sinks (e.g. JSONL + Chrome trace at
/// once).
pub struct Fanout {
    sinks: Vec<Arc<dyn Sink>>,
}

impl Fanout {
    /// Wraps `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Fanout { sinks }
    }
}

impl Sink for Fanout {
    fn event(&self, ev: &Event<'_>) {
        for s in &self.sinks {
            s.event(ev);
        }
    }
    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
    fn finish(&self) {
        for s in &self.sinks {
            s.finish();
        }
    }
}

// --- JSONL sink --------------------------------------------------------------

fn level_name(level: u8) -> &'static str {
    match level {
        crate::LEVEL_SILENT => "silent",
        crate::LEVEL_INFO => "info",
        _ => "debug",
    }
}

/// Machine-readable sink: one JSON object per line.
///
/// Line shapes (`ev` discriminates):
///
/// ```text
/// {"ev":"span_begin","name":"batch","tid":1,"ts_us":12,"depth":0}
/// {"ev":"span_end","name":"batch","tid":1,"ts_us":90,"dur_us":78,"depth":0}
/// {"ev":"log","level":"info","msg":"...","tid":1,"ts_us":95}
/// {"ev":"counter","name":"gemm.flops","value":123,"ts_us":99}
/// {"ev":"request","req":7,"user":42,"stage":"encode","tid":2,"ts_us":120,"dur_us":33}
/// {"ev":"mem_alloc","id":9,"bytes":4096,"live_bytes":8192,"tid":1,"ts_us":130,"path":"epoch;batch"}
/// {"ev":"mem_free","id":9,"bytes":4096,"live_bytes":4096,"tid":1,"ts_us":140}
/// ```
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Streams lines to a file at `path` (truncated).
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(f))))
    }

    /// Streams lines to an arbitrary writer (tests use a shared buffer).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlSink { out: Mutex::new(w) }
    }

    fn write_line(&self, line: &str) {
        let mut g = self.out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(g, "{line}");
    }
}

impl Sink for JsonlSink {
    fn event(&self, ev: &Event<'_>) {
        let mut s = String::with_capacity(96);
        match ev {
            Event::SpanBegin { name, tid, ts_us, depth } => {
                s.push_str("{\"ev\":\"span_begin\",\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(",\"tid\":{tid},\"ts_us\":{ts_us},\"depth\":{depth}}}"));
            }
            Event::SpanEnd { name, tid, ts_us, dur_us, depth } => {
                s.push_str("{\"ev\":\"span_end\",\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(
                    ",\"tid\":{tid},\"ts_us\":{ts_us},\"dur_us\":{dur_us},\"depth\":{depth}}}"
                ));
            }
            Event::Log { level, msg, tid, ts_us } => {
                s.push_str("{\"ev\":\"log\",\"level\":");
                json::write_str(&mut s, level_name(*level));
                s.push_str(",\"msg\":");
                json::write_str(&mut s, msg);
                s.push_str(&format!(",\"tid\":{tid},\"ts_us\":{ts_us}}}"));
            }
            Event::Counter { name, value, ts_us } => {
                s.push_str("{\"ev\":\"counter\",\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(",\"value\":{value},\"ts_us\":{ts_us}}}"));
            }
            Event::Request { req, user, stage, tid, ts_us, dur_us } => {
                s.push_str("{\"ev\":\"request\",\"req\":");
                s.push_str(&format!("{req},\"user\":{user},\"stage\":"));
                json::write_str(&mut s, stage);
                s.push_str(&format!(",\"tid\":{tid},\"ts_us\":{ts_us},\"dur_us\":{dur_us}}}"));
            }
            Event::MemAlloc { id, bytes, live_bytes, tid, ts_us, path } => {
                s.push_str(&format!(
                    "{{\"ev\":\"mem_alloc\",\"id\":{id},\"bytes\":{bytes},\
                     \"live_bytes\":{live_bytes},\"tid\":{tid},\"ts_us\":{ts_us},\"path\":"
                ));
                json::write_str(&mut s, path);
                s.push('}');
            }
            Event::MemFree { id, bytes, live_bytes, tid, ts_us } => {
                s.push_str(&format!(
                    "{{\"ev\":\"mem_free\",\"id\":{id},\"bytes\":{bytes},\
                     \"live_bytes\":{live_bytes},\"tid\":{tid},\"ts_us\":{ts_us}}}"
                ));
            }
        }
        self.write_line(&s);
    }

    fn flush(&self) {
        let mut g = self.out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = g.flush();
    }
}

/// A `Write` handle over a shared byte buffer, for capturing a
/// [`JsonlSink`] stream in memory (tests, the golden-neutrality guard).
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured bytes as UTF-8.
    ///
    /// # Panics
    /// Panics if a sink wrote invalid UTF-8 (sinks only write JSON).
    pub fn contents(&self) -> String {
        let g = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        String::from_utf8(g.clone()).expect("sink output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// --- Chrome trace sink -------------------------------------------------------

struct ChromeState {
    w: Box<dyn Write + Send>,
    first: bool,
    finished: bool,
    named_tids: Vec<u32>,
}

/// Writes the Chrome trace-event format (a JSON array of `B`/`E` duration
/// events plus `i` instants and `C` counters) loadable by
/// `chrome://tracing` and Perfetto.
///
/// The closing `]` is written by [`Sink::finish`] — drop the
/// [`crate::ObsGuard`] (or call [`uninstall`]) before reading the file.
/// Chrome itself tolerates a truncated array, but strict JSON parsers do
/// not.
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

impl ChromeTraceSink {
    /// Writes the trace to a file at `path` (truncated).
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(f))))
    }

    /// Writes the trace to an arbitrary writer.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        let sink = ChromeTraceSink {
            state: Mutex::new(ChromeState {
                w,
                first: true,
                finished: false,
                named_tids: Vec::new(),
            }),
        };
        {
            let mut st = sink.lock_state();
            let _ = st.w.write_all(b"[");
        }
        // Name the process so the trace viewer shows something readable.
        sink.write_obj(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"seqrec\"}}",
        );
        sink
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ChromeState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_obj(&self, obj: &str) {
        let mut st = self.lock_state();
        if st.finished {
            return;
        }
        if st.first {
            st.first = false;
        } else {
            let _ = st.w.write_all(b",\n");
        }
        let _ = st.w.write_all(obj.as_bytes());
    }

    /// Emits a `thread_name` metadata event the first time a tid appears,
    /// so trace viewers label each lane with the OS thread's name. Events
    /// for one tid always arrive from the thread that owns it, so the
    /// check-then-write sequence cannot duplicate a metadata line.
    fn ensure_thread_named(&self, tid: u32) {
        {
            let mut st = self.lock_state();
            if st.finished || st.named_tids.contains(&tid) {
                return;
            }
            st.named_tids.push(tid);
        }
        let mut obj = String::with_capacity(96);
        obj.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        ));
        json::write_str(&mut obj, &thread_label(tid));
        obj.push_str("}}");
        self.write_obj(&obj);
    }
}

impl Sink for ChromeTraceSink {
    fn event(&self, ev: &Event<'_>) {
        let ev_tid = match ev {
            Event::SpanBegin { tid, .. }
            | Event::SpanEnd { tid, .. }
            | Event::Log { tid, .. }
            | Event::Request { tid, .. }
            | Event::MemAlloc { tid, .. }
            | Event::MemFree { tid, .. } => *tid,
            Event::Counter { .. } => 0,
        };
        self.ensure_thread_named(ev_tid);
        let mut s = String::with_capacity(96);
        match ev {
            Event::SpanBegin { name, tid, ts_us, .. } => {
                s.push_str("{\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(
                    ",\"cat\":\"seqrec\",\"ph\":\"B\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid}}}"
                ));
            }
            Event::SpanEnd { name, tid, ts_us, .. } => {
                s.push_str("{\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(
                    ",\"cat\":\"seqrec\",\"ph\":\"E\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid}}}"
                ));
            }
            Event::Log { msg, tid, ts_us, .. } => {
                s.push_str("{\"name\":");
                json::write_str(&mut s, msg);
                s.push_str(&format!(
                    ",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\
                     \"pid\":1,\"tid\":{tid}}}"
                ));
            }
            Event::Counter { name, value, ts_us } => {
                s.push_str("{\"name\":");
                json::write_str(&mut s, name);
                s.push_str(&format!(
                    ",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"tid\":0,\
                     \"args\":{{\"value\":{value}}}}}"
                ));
            }
            Event::Request { req, user, stage, tid, ts_us, dur_us } => {
                // `X` complete events: one self-contained slice per stage,
                // correlated across lanes by args.req.
                s.push_str(&format!("{{\"name\":\"req.{stage}\""));
                s.push_str(&format!(
                    ",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"req\":{req},\"user\":{user}}}}}"
                ));
            }
            Event::MemAlloc { id, bytes, live_bytes, tid, ts_us, path } => {
                // `N` object-created event with the payload in args, plus a
                // `C` counter sample so viewers plot the live-bytes curve.
                s.push_str(&format!(
                    "{{\"name\":\"buf\",\"cat\":\"mem\",\"ph\":\"N\",\"id\":\"0x{id:x}\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"bytes\":{bytes},\"path\":"
                ));
                json::write_str(&mut s, path);
                s.push_str("}}");
                self.write_obj(&s);
                s = format!(
                    "{{\"name\":\"tensor.live_bytes\",\"cat\":\"mem\",\"ph\":\"C\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{live_bytes}}}}}"
                );
            }
            Event::MemFree { id, bytes, live_bytes, ts_us, tid } => {
                s.push_str(&format!(
                    "{{\"name\":\"buf\",\"cat\":\"mem\",\"ph\":\"D\",\"id\":\"0x{id:x}\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":{tid},\"args\":{{\"bytes\":{bytes}}}}}"
                ));
                self.write_obj(&s);
                s = format!(
                    "{{\"name\":\"tensor.live_bytes\",\"cat\":\"mem\",\"ph\":\"C\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{live_bytes}}}}}"
                );
            }
        }
        self.write_obj(&s);
    }

    fn flush(&self) {
        let mut st = self.lock_state();
        let _ = st.w.flush();
    }

    fn finish(&self) {
        let mut st = self.lock_state();
        if !st.finished {
            st.finished = true;
            let _ = st.w.write_all(b"]\n");
            let _ = st.w.flush();
        }
    }
}
