//! Memory-trace aggregation: folds the `mem_alloc`/`mem_free` event
//! stream produced by the `SEQREC_OBS=mem=...` sink mode into a peak
//! breakdown, buffer-lifetime statistics, and a **what-if arena report**.
//!
//! The what-if number answers: *if a planned executor reused buffers
//! perfectly, how low could the peak go without changing what is
//! computed?* Lifetimes are kept, allocations stay in program order, and
//! every free is retired as early as validity allows — hoisted before
//! later allocations within its microsecond (slack 0), or up to a slack
//! window earlier (the sweep). Because frees only ever move earlier and
//! allocations keep their order, the what-if peak can never exceed the
//! observed peak, and it can never drop below the largest single buffer —
//! the two invariants the proptests pin. The slack-0 value is the target
//! ROADMAP item 2's memory planner must hit.
//!
//! Like the span aggregator, the mem aggregator is strict: a free without
//! a matching alloc, or a duplicate buffer id, is an error, not a skip.

/// One buffer lifetime: the what-if planner's input, built from a trace by
/// [`MemProfile::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Allocation timestamp (µs since the trace epoch).
    pub start_us: u64,
    /// Free timestamp; `None` when the buffer was still live at the end of
    /// the trace.
    pub end_us: Option<u64>,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Position of the allocation in the event stream (orders events that
    /// share a microsecond).
    pub alloc_seq: u64,
}

/// One buffer alloc/free boundary extracted from a trace file by
/// [`crate::trace::read`].
#[derive(Clone, Debug, PartialEq)]
pub struct MemEvent {
    /// Monotonic buffer id (pairs the alloc with its free).
    pub id: u64,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// `tensor.live_bytes` level after the event, when the format carries
    /// it (JSONL does; the Chrome object events do not).
    pub live_bytes: Option<i64>,
    /// Thread the event fired on.
    pub tid: u64,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Owning span path at allocation (`;`-joined); `None` on frees.
    pub path: Option<String>,
    /// `true` for an allocation, `false` for a free.
    pub alloc: bool,
}

// --- what-if planning --------------------------------------------------------

/// The slack windows (µs) swept by the what-if report: how much earlier
/// each free would have to retire to reach the corresponding peak.
pub const WHATIF_SLACKS_US: &[u64] = &[0, 10, 100, 1_000, 10_000];

/// One planning event in what-if order: allocations in program order,
/// frees retired as early as validity allows.
struct PlanEvent {
    ts: u64,
    /// Within-timestamp ordering: frees enabled by an earlier microsecond
    /// sort first (key 0), allocations keep program order (`2·seq+1`), and
    /// a free whose alloc shares the microsecond lands right behind that
    /// alloc (`2·seq+2`).
    key: u64,
    /// Index into the interval slice.
    idx: usize,
    alloc: bool,
}

fn plan_events(intervals: &[Interval], slack_us: u64) -> Vec<PlanEvent> {
    let mut events = Vec::with_capacity(intervals.len() * 2);
    for (idx, iv) in intervals.iter().enumerate() {
        events.push(PlanEvent { ts: iv.start_us, key: 2 * iv.alloc_seq + 1, idx, alloc: true });
        if let Some(end) = iv.end_us {
            let ts = end.saturating_sub(slack_us).max(iv.start_us);
            let key = if ts == iv.start_us { 2 * iv.alloc_seq + 2 } else { 0 };
            events.push(PlanEvent { ts, key, idx, alloc: false });
        }
    }
    events.sort_by_key(|e| (e.ts, e.key, intervals[e.idx].alloc_seq));
    events
}

/// The theoretical minimum peak (bytes) under perfect reuse: allocations
/// in program order, every free retired as early as validity allows, with
/// frees additionally allowed to move up to `slack_us` earlier. Buffers
/// never freed (`end_us: None`) hold their bytes to the end.
///
/// Guarantees: at `slack_us = 0` the result never exceeds the observed
/// peak of the same schedule, and at any slack it is at least the largest
/// single buffer.
pub fn whatif_peak_bytes(intervals: &[Interval], slack_us: u64) -> u64 {
    let mut live: i64 = 0;
    let mut peak: i64 = 0;
    for ev in plan_events(intervals, slack_us) {
        let bytes = intervals[ev.idx].bytes as i64;
        if ev.alloc {
            live += bytes;
            peak = peak.max(live);
        } else {
            live -= bytes;
        }
    }
    peak.max(0) as u64
}

/// Result of replaying the what-if schedule through a best-fit free-list
/// arena: what a real (non-fungible, fragmenting) arena allocator would
/// need, as opposed to the fungible lower bound of [`whatif_peak_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaReport {
    /// High-watermark arena size in bytes.
    pub arena_bytes: u64,
    /// Buffers placed.
    pub placed: usize,
}

/// Simulates a best-fit free-list arena over the what-if schedule at
/// `slack_us`. `arena_bytes` is always ≥ [`whatif_peak_bytes`] at the same
/// slack; the gap is fragmentation.
pub fn simulate_arena(intervals: &[Interval], slack_us: u64) -> ArenaReport {
    // Allocated blocks by offset; gaps between them are the free list.
    let mut blocks: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut offsets: Vec<Option<u64>> = vec![None; intervals.len()];
    let mut arena_bytes: u64 = 0;
    let mut placed = 0usize;
    for ev in plan_events(intervals, slack_us) {
        let size = intervals[ev.idx].bytes;
        if ev.alloc {
            // Best fit: the smallest gap between consecutive blocks that
            // holds `size`; otherwise extend past the top block.
            let mut best: Option<(u64, u64)> = None; // (gap, offset)
            let mut prev_end = 0u64;
            for (&off, &len) in &blocks {
                let gap = off - prev_end;
                if gap >= size && best.is_none_or(|(g, _)| gap < g) {
                    best = Some((gap, prev_end));
                }
                prev_end = off + len;
            }
            let offset = best.map_or(prev_end, |(_, o)| o);
            blocks.insert(offset, size);
            offsets[ev.idx] = Some(offset);
            arena_bytes = arena_bytes.max(offset + size);
            placed += 1;
        } else if let Some(offset) = offsets[ev.idx].take() {
            blocks.remove(&offset);
        }
    }
    ArenaReport { arena_bytes, placed }
}

// --- folded profile ----------------------------------------------------------

/// Bytes-at-peak attribution for one key (a span path or an op name).
#[derive(Clone, Debug)]
pub struct PeakSlice {
    /// The span path (or leaf op) the bytes belong to.
    pub key: String,
    /// Bytes live at the observed peak under this key.
    pub bytes: u64,
    /// Buffers live at the observed peak under this key.
    pub buffers: u64,
}

/// A folded memory profile: observed peak with attribution, lifetime
/// statistics, leak set, and the what-if sweep inputs.
#[derive(Clone, Debug)]
pub struct MemProfile {
    /// Allocation events folded in.
    pub allocs: u64,
    /// Free events folded in.
    pub frees: u64,
    /// Observed peak of the replayed live-bytes curve.
    pub observed_peak_bytes: u64,
    /// Timestamp (µs) of the event that set the observed peak.
    pub peak_ts_us: u64,
    /// Bytes-at-peak per span path, descending by bytes. Sums exactly to
    /// [`MemProfile::observed_peak_bytes`].
    pub peak_by_path: Vec<PeakSlice>,
    /// Bytes-at-peak per op (leaf span name), descending by bytes. Also
    /// sums exactly to the observed peak.
    pub peak_by_op: Vec<PeakSlice>,
    /// Buffers still live at end of trace (the leak set).
    pub live_at_end: u64,
    /// Bytes still live at end of trace.
    pub live_at_end_bytes: u64,
    /// Lifetimes (µs) of freed buffers: `(min, mean, max)`; zeros when
    /// nothing was freed.
    pub lifetime_us: (u64, f64, u64),
    /// Largest single buffer seen.
    pub max_buffer_bytes: u64,
    /// The alloc/free intervals, ready for [`whatif_peak_bytes`] /
    /// [`simulate_arena`].
    pub intervals: Vec<Interval>,
}

impl MemProfile {
    /// Folds a mem-event stream (in file order, which is emission order).
    ///
    /// # Errors
    /// Returns a message on a free without a matching alloc or a duplicate
    /// live buffer id.
    pub fn build(events: &[MemEvent]) -> Result<MemProfile, String> {
        // id → (bytes, path, interval index) for live buffers.
        let mut live: std::collections::HashMap<u64, (u64, String, usize)> =
            std::collections::HashMap::new();
        let mut intervals: Vec<Interval> = Vec::new();
        let mut allocs = 0u64;
        let mut frees = 0u64;
        let mut running: u64 = 0;
        let mut peak: u64 = 0;
        let mut peak_at: usize = 0;
        let mut peak_ts_us: u64 = 0;
        let mut max_buffer_bytes: u64 = 0;
        for (i, ev) in events.iter().enumerate() {
            if ev.alloc {
                if live.contains_key(&ev.id) {
                    return Err(format!("mem event {i}: duplicate alloc of live buffer {}", ev.id));
                }
                let path = ev.path.clone().unwrap_or_default();
                live.insert(ev.id, (ev.bytes, path, intervals.len()));
                intervals.push(Interval {
                    start_us: ev.ts_us,
                    end_us: None,
                    bytes: ev.bytes,
                    alloc_seq: i as u64,
                });
                allocs += 1;
                running += ev.bytes;
                max_buffer_bytes = max_buffer_bytes.max(ev.bytes);
                if running > peak {
                    peak = running;
                    peak_at = i;
                    peak_ts_us = ev.ts_us;
                }
            } else {
                let (bytes, _, iv) = live
                    .remove(&ev.id)
                    .ok_or_else(|| format!("mem event {i}: free of unknown buffer {}", ev.id))?;
                if bytes != ev.bytes {
                    return Err(format!(
                        "mem event {i}: buffer {} freed with {} bytes, allocated with {bytes}",
                        ev.id, ev.bytes
                    ));
                }
                intervals[iv].end_us = Some(ev.ts_us);
                frees += 1;
                running = running.saturating_sub(bytes);
            }
        }
        let live_at_end = live.len() as u64;
        let live_at_end_bytes = live.values().map(|(b, _, _)| *b).sum();

        // Second pass: replay to the peak event and attribute the live set.
        let mut at_peak: std::collections::HashMap<u64, (u64, &str)> =
            std::collections::HashMap::new();
        for ev in events.iter().take(peak_at + 1) {
            if ev.alloc {
                at_peak.insert(ev.id, (ev.bytes, ev.path.as_deref().unwrap_or("")));
            } else {
                at_peak.remove(&ev.id);
            }
        }
        let fold = |key_of: &dyn Fn(&str) -> String| -> Vec<PeakSlice> {
            let mut slices: Vec<PeakSlice> = Vec::new();
            for (bytes, path) in at_peak.values() {
                let key = key_of(path);
                match slices.iter_mut().find(|s| s.key == key) {
                    Some(s) => {
                        s.bytes += bytes;
                        s.buffers += 1;
                    }
                    None => slices.push(PeakSlice { key, bytes: *bytes, buffers: 1 }),
                }
            }
            slices.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.key.cmp(&b.key)));
            slices
        };
        let whole = |p: &str| if p.is_empty() { "(top)".to_string() } else { p.to_string() };
        let leaf =
            |p: &str| p.rsplit(';').next().filter(|s| !s.is_empty()).unwrap_or("(top)").to_string();
        let peak_by_path = fold(&whole);
        let peak_by_op = fold(&leaf);

        let mut lifetimes =
            intervals.iter().filter_map(|iv| iv.end_us.map(|e| e.saturating_sub(iv.start_us)));
        let lifetime_us = match lifetimes.next() {
            None => (0, 0.0, 0),
            Some(first) => {
                let (mut lo, mut hi, mut sum, mut n) = (first, first, first as f64, 1u64);
                for l in lifetimes {
                    lo = lo.min(l);
                    hi = hi.max(l);
                    sum += l as f64;
                    n += 1;
                }
                (lo, sum / n as f64, hi)
            }
        };

        Ok(MemProfile {
            allocs,
            frees,
            observed_peak_bytes: peak,
            peak_ts_us,
            peak_by_path,
            peak_by_op,
            live_at_end,
            live_at_end_bytes,
            lifetime_us,
            max_buffer_bytes,
            intervals,
        })
    }

    /// Renders the full `--mem` report: header, peak attribution tables
    /// (top `top` rows each), lifetime statistics, and the what-if arena
    /// sweep.
    pub fn render(&self, top: usize) -> String {
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        let mut out = String::new();
        out.push_str(&format!(
            "memory profile: {} allocs, {} frees, {} live at end ({:.2} MiB)\n",
            self.allocs,
            self.frees,
            self.live_at_end,
            mib(self.live_at_end_bytes),
        ));
        out.push_str(&format!(
            "observed peak: {:.2} MiB at t={}us\n",
            mib(self.observed_peak_bytes),
            self.peak_ts_us
        ));
        let total = self.observed_peak_bytes.max(1);
        for (title, slices) in [("span path", &self.peak_by_path), ("op", &self.peak_by_op)] {
            out.push_str(&format!(
                "\nbytes at peak by {title}:\n{:>12} {:>7} {:>9}  {title}\n",
                "MiB", "%", "buffers"
            ));
            for s in slices.iter().take(top) {
                out.push_str(&format!(
                    "{:>12.3} {:>6.1}% {:>9}  {}\n",
                    mib(s.bytes),
                    s.bytes as f64 * 100.0 / total as f64,
                    s.buffers,
                    s.key,
                ));
            }
            if slices.len() > top {
                let rest: u64 = slices.iter().skip(top).map(|s| s.bytes).sum();
                out.push_str(&format!(
                    "{:>12.3} {:>6.1}% {:>9}  ({} more)\n",
                    mib(rest),
                    rest as f64 * 100.0 / total as f64,
                    slices.iter().skip(top).map(|s| s.buffers).sum::<u64>(),
                    slices.len() - top,
                ));
            }
        }
        let (lo, mean, hi) = self.lifetime_us;
        out.push_str(&format!(
            "\nbuffer lifetimes (freed): min {lo}us, mean {mean:.1}us, max {hi}us\n"
        ));
        out.push_str(&format!("largest single buffer: {:.3} MiB\n", mib(self.max_buffer_bytes)));
        out.push_str("\nwhat-if arena (perfect reuse; frees retired eagerly):\n");
        for &slack in WHATIF_SLACKS_US {
            let peak = whatif_peak_bytes(&self.intervals, slack);
            out.push_str(&format!(
                "  slack {slack:>6}us: {:>10.2} MiB  ({:>5.1}% of observed, headroom {:.2} MiB)\n",
                mib(peak),
                peak as f64 * 100.0 / total as f64,
                mib(self.observed_peak_bytes.saturating_sub(peak)),
            ));
        }
        let arena = simulate_arena(&self.intervals, 0);
        let ideal = whatif_peak_bytes(&self.intervals, 0).max(1);
        out.push_str(&format!(
            "  best-fit arena at slack 0: {:.2} MiB ({:+.1}% fragmentation over what-if)\n",
            mib(arena.arena_bytes),
            (arena.arena_bytes as f64 / ideal as f64 - 1.0) * 100.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::read;

    fn iv(start: u64, end: Option<u64>, bytes: u64, seq: u64) -> Interval {
        Interval { start_us: start, end_us: end, bytes, alloc_seq: seq }
    }

    fn alloc(id: u64, bytes: u64, ts: u64, path: &str) -> MemEvent {
        MemEvent {
            id,
            bytes,
            live_bytes: None,
            tid: 1,
            ts_us: ts,
            path: Some(path.to_string()),
            alloc: true,
        }
    }

    fn free(id: u64, bytes: u64, ts: u64) -> MemEvent {
        MemEvent { id, bytes, live_bytes: None, tid: 1, ts_us: ts, path: None, alloc: false }
    }

    #[test]
    fn jsonl_mem_events_parse_back() {
        let text = "\
{\"ev\":\"mem_alloc\",\"id\":3,\"bytes\":256,\"live_bytes\":256,\"tid\":1,\"ts_us\":10,\"path\":\"epoch;batch\"}\n\
{\"ev\":\"span_begin\",\"name\":\"x\",\"tid\":1,\"ts_us\":11,\"depth\":0}\n\
{\"ev\":\"mem_free\",\"id\":3,\"bytes\":256,\"live_bytes\":0,\"tid\":1,\"ts_us\":20}\n";
        let events = read(text).unwrap().mem;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].path.as_deref(), Some("epoch;batch"));
        assert_eq!(events[0].live_bytes, Some(256));
        assert!(!events[1].alloc);
        assert!(read("{\"ev\":\"mem_alloc\",\"id\":1,\"ts_us\":0}").is_err());
    }

    #[test]
    fn chrome_mem_events_parse_back() {
        let text = r#"[
{"name":"buf","cat":"mem","ph":"N","id":"0xa","ts":5,"pid":1,"tid":2,"args":{"bytes":512,"path":"epoch"}},
{"name":"tensor.live_bytes","cat":"mem","ph":"C","ts":5,"pid":1,"tid":0,"args":{"value":512}},
{"name":"buf","cat":"mem","ph":"D","id":"0xa","ts":9,"pid":1,"tid":2,"args":{"bytes":512}}
]"#;
        let events = read(text).unwrap().mem;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].id, 10);
        assert_eq!(events[0].bytes, 512);
        assert_eq!(events[0].path.as_deref(), Some("epoch"));
        assert!(!events[1].alloc);
    }

    #[test]
    fn profile_attributes_the_peak_exactly() {
        // Peak = 300 bytes when buffers 1 (forward) and 2 (backward) are
        // both live; buffer 3 allocates after 1 freed.
        let events = vec![
            alloc(1, 100, 0, "epoch;forward"),
            alloc(2, 200, 5, "epoch;backward"),
            free(1, 100, 10),
            alloc(3, 50, 15, "epoch;forward"),
            free(2, 200, 20),
        ];
        let p = MemProfile::build(&events).unwrap();
        assert_eq!(p.observed_peak_bytes, 300);
        assert_eq!(p.peak_ts_us, 5);
        let attributed: u64 = p.peak_by_path.iter().map(|s| s.bytes).sum();
        assert_eq!(attributed, p.observed_peak_bytes, "attribution must tile the peak");
        assert_eq!(p.peak_by_path[0].key, "epoch;backward");
        assert_eq!(p.peak_by_op[0].key, "backward");
        assert_eq!((p.live_at_end, p.live_at_end_bytes), (1, 50));
        assert_eq!(p.max_buffer_bytes, 200);
        let report = p.render(10);
        assert!(report.contains("epoch;backward"), "{report}");
        assert!(report.contains("what-if arena"), "{report}");
    }

    #[test]
    fn profile_rejects_unpaired_and_mismatched_events() {
        let err = MemProfile::build(&[free(7, 8, 1)]).unwrap_err();
        assert!(err.contains("unknown buffer"), "{err}");
        let err = MemProfile::build(&[alloc(1, 8, 0, ""), alloc(1, 8, 1, "")]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = MemProfile::build(&[alloc(1, 8, 0, ""), free(1, 9, 1)]).unwrap_err();
        assert!(err.contains("freed with"), "{err}");
    }

    #[test]
    fn whatif_reuses_within_a_microsecond() {
        // Two 100-byte buffers: the second allocates in the same µs the
        // first frees, but after it in program order. Observed peak = 200;
        // a planner retiring the free first needs only 100.
        let intervals = vec![iv(0, Some(10), 100, 1), iv(10, Some(20), 100, 3)];
        assert_eq!(whatif_peak_bytes(&intervals, 0), 100);
        // Disjoint-in-time case is unchanged.
        let disjoint = vec![iv(0, Some(5), 100, 1), iv(10, Some(20), 100, 3)];
        assert_eq!(whatif_peak_bytes(&disjoint, 0), 100);
        // Truly overlapping lifetimes still need both.
        let overlap = vec![iv(0, Some(20), 100, 1), iv(10, Some(30), 100, 3)];
        assert_eq!(whatif_peak_bytes(&overlap, 0), 200);
    }

    #[test]
    fn whatif_free_cannot_precede_its_own_alloc() {
        // Both buffers allocate in one µs and free in a later one: hoisting
        // cannot help, both are live together.
        let intervals = vec![iv(0, Some(5), 100, 1), iv(0, Some(5), 100, 2)];
        assert_eq!(whatif_peak_bytes(&intervals, 0), 200);
        // Same-µs alloc→free churn collapses to one slot: each free
        // retires right behind its own alloc.
        let churn = vec![iv(0, Some(0), 100, 1), iv(0, Some(0), 100, 3)];
        assert_eq!(whatif_peak_bytes(&churn, 0), 100);
    }

    #[test]
    fn whatif_slack_shortens_lifetimes() {
        // B allocates 5us before A frees: slack 0 needs 200, slack 10
        // retires A's free early enough to reuse.
        let intervals = vec![iv(0, Some(12), 100, 1), iv(7, Some(20), 100, 3)];
        assert_eq!(whatif_peak_bytes(&intervals, 0), 200);
        assert_eq!(whatif_peak_bytes(&intervals, 10), 100);
    }

    #[test]
    fn unfreed_buffers_hold_their_bytes() {
        let intervals = vec![iv(0, None, 100, 1), iv(10, Some(20), 50, 3)];
        assert_eq!(whatif_peak_bytes(&intervals, 0), 150);
        assert_eq!(whatif_peak_bytes(&intervals, 10_000), 150);
    }

    #[test]
    fn arena_is_at_least_the_fungible_bound() {
        // Fragmentation case: small buffer freed between two big ones.
        let intervals = vec![
            iv(0, Some(30), 64, 1),
            iv(5, Some(15), 8, 2),
            iv(10, Some(40), 64, 3),
            iv(20, Some(50), 8, 5),
        ];
        let ideal = whatif_peak_bytes(&intervals, 0);
        let arena = simulate_arena(&intervals, 0);
        assert!(arena.arena_bytes >= ideal, "{} < {ideal}", arena.arena_bytes);
        assert_eq!(arena.placed, 4);
    }

    #[test]
    fn observed_peak_matches_replay() {
        let events = vec![
            alloc(1, 100, 0, ""),
            alloc(2, 200, 1, ""),
            free(1, 100, 2),
            alloc(3, 250, 3, ""),
            free(2, 200, 4),
            free(3, 250, 5),
        ];
        let p = MemProfile::build(&events).unwrap();
        assert_eq!(p.observed_peak_bytes, 450);
        assert!(whatif_peak_bytes(&p.intervals, 0) <= 450);
    }
}
