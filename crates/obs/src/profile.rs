//! Span-trace aggregation: folds the span events of a trace (as read by
//! [`crate::trace::read`]) into a hierarchical inclusive/exclusive time
//! profile, and its serve request events into a per-stage latency profile.
//!
//! Inclusive time of a call path is the wall-clock sum of all spans at that
//! path; exclusive (self) time subtracts the inclusive time of the path's
//! children. By construction the exclusive times of a subtree sum exactly
//! to the inclusive time of its root — the invariant `seqrec-prof` leans on
//! and the tests assert.
//!
//! The aggregator is strict: an `end` without a matching `begin`, a
//! begin/end name mismatch, or a span still open at end-of-trace is an
//! error, not a silent skip. A trace that does not pair up is a bug in the
//! producer and must not fold into a plausible-looking profile.

/// One span boundary extracted from a trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Stable thread id assigned by the sink layer.
    pub tid: u64,
    /// Timestamp in microseconds since trace start.
    pub ts_us: u64,
    /// `true` for a begin event, `false` for an end event.
    pub begin: bool,
}

/// The span events of a trace: the `spans` of [`crate::trace::read`].
///
/// # Errors
/// Propagates the reader's diagnostics.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanEvent>, String> {
    crate::trace::read(text).map(|t| t.spans)
}

/// One aggregated call-path node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Span name at this path (not the full path).
    pub name: String,
    /// Number of spans folded into this node.
    pub count: u64,
    /// Total wall-clock microseconds inside spans at this path.
    pub inclusive_us: u64,
    /// Arena indices of the node's children, in first-seen order.
    pub children: Vec<usize>,
}

/// A folded hierarchical profile. Nodes live in an arena; index 0 is the
/// synthetic root (name `""`, zero count) whose children are the
/// top-level spans.
#[derive(Clone, Debug)]
pub struct Profile {
    nodes: Vec<Node>,
}

impl Profile {
    /// Folds a span-event stream into a profile. Spans pair up per-thread;
    /// repeated spans with the same call path merge into one node.
    ///
    /// # Errors
    /// Returns a message on an end without a begin, a begin/end name
    /// mismatch, or spans still open when the stream ends.
    pub fn build(events: &[SpanEvent]) -> Result<Profile, String> {
        let mut nodes =
            vec![Node { name: String::new(), count: 0, inclusive_us: 0, children: Vec::new() }];
        // Per-tid stack of (node index, begin timestamp).
        let mut stacks: Vec<(u64, Vec<(usize, u64)>)> = Vec::new();
        for ev in events {
            let stack = match stacks.iter_mut().find(|(tid, _)| *tid == ev.tid) {
                Some((_, s)) => s,
                None => {
                    stacks.push((ev.tid, Vec::new()));
                    &mut stacks.last_mut().expect("just pushed").1
                }
            };
            if ev.begin {
                let parent = stack.last().map_or(0, |&(idx, _)| idx);
                let child = match nodes[parent]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| nodes[c].name == ev.name)
                {
                    Some(c) => c,
                    None => {
                        nodes.push(Node {
                            name: ev.name.clone(),
                            count: 0,
                            inclusive_us: 0,
                            children: Vec::new(),
                        });
                        let c = nodes.len() - 1;
                        nodes[parent].children.push(c);
                        c
                    }
                };
                stack.push((child, ev.ts_us));
            } else {
                let (idx, begin_ts) = stack.pop().ok_or_else(|| {
                    format!("unpaired end of span `{}` on tid {} (no open span)", ev.name, ev.tid)
                })?;
                if nodes[idx].name != ev.name {
                    return Err(format!(
                        "span nesting mismatch on tid {}: `{}` ended while `{}` was open",
                        ev.tid, ev.name, nodes[idx].name
                    ));
                }
                nodes[idx].count += 1;
                nodes[idx].inclusive_us += ev.ts_us.saturating_sub(begin_ts);
            }
        }
        for (tid, stack) in &stacks {
            if let Some(&(idx, _)) = stack.last() {
                return Err(format!(
                    "span `{}` on tid {tid} still open at end of trace",
                    nodes[idx].name
                ));
            }
        }
        Ok(Profile { nodes })
    }

    /// The node arena (index 0 is the synthetic root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Exclusive (self) microseconds of a node: inclusive minus the
    /// inclusive time of its children, floored at zero (clock jitter can
    /// make children appear marginally longer than the parent).
    pub fn exclusive_us(&self, idx: usize) -> u64 {
        let child_sum: u64 =
            self.nodes[idx].children.iter().map(|&c| self.nodes[c].inclusive_us).sum();
        self.nodes[idx].inclusive_us.saturating_sub(child_sum)
    }

    /// Total inclusive microseconds of the top-level spans (the profile's
    /// wall-clock denominator).
    pub fn total_us(&self) -> u64 {
        self.nodes[0].children.iter().map(|&c| self.nodes[c].inclusive_us).sum()
    }

    /// Renders the full hierarchy, children sorted by inclusive time, with
    /// inclusive/exclusive milliseconds, call counts and percent-of-total.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let total = self.total_us().max(1);
        out.push_str(&format!(
            "{:>12} {:>12} {:>7} {:>8}  span\n",
            "incl(ms)", "excl(ms)", "%incl", "calls"
        ));
        let mut order: Vec<usize> = self.nodes[0].children.clone();
        order.sort_by(|&a, &b| self.nodes[b].inclusive_us.cmp(&self.nodes[a].inclusive_us));
        for idx in order {
            self.render_node(&mut out, idx, 0, total);
        }
        out
    }

    fn render_node(&self, out: &mut String, idx: usize, depth: usize, total: u64) {
        let n = &self.nodes[idx];
        out.push_str(&format!(
            "{:>12.3} {:>12.3} {:>6.1}% {:>8}  {}{}\n",
            n.inclusive_us as f64 / 1e3,
            self.exclusive_us(idx) as f64 / 1e3,
            n.inclusive_us as f64 * 100.0 / total as f64,
            n.count,
            "  ".repeat(depth),
            n.name,
        ));
        let mut order = n.children.clone();
        order.sort_by(|&a, &b| self.nodes[b].inclusive_us.cmp(&self.nodes[a].inclusive_us));
        for c in order {
            self.render_node(out, c, depth + 1, total);
        }
    }

    /// The top-`n` call paths by exclusive time, as `(path, exclusive_us,
    /// inclusive_us, count)` tuples with `;`-joined paths.
    pub fn top_exclusive(&self, n: usize) -> Vec<(String, u64, u64, u64)> {
        let mut rows = Vec::new();
        self.collect_paths(0, &mut String::new(), &mut rows);
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows.truncate(n);
        rows
    }

    /// Folded-stack lines (`path;to;span <exclusive_us>`) for
    /// inferno-flamegraph or speedscope. Zero-exclusive interior nodes are
    /// omitted, matching the collapsed-stack convention.
    pub fn folded_stacks(&self) -> String {
        let mut rows = Vec::new();
        self.collect_paths(0, &mut String::new(), &mut rows);
        let mut out = String::new();
        for (path, excl, _incl, _count) in rows {
            if excl > 0 {
                out.push_str(&format!("{path} {excl}\n"));
            }
        }
        out
    }

    fn collect_paths(
        &self,
        idx: usize,
        prefix: &mut String,
        rows: &mut Vec<(String, u64, u64, u64)>,
    ) {
        let n = &self.nodes[idx];
        let saved = prefix.len();
        if idx != 0 {
            if !prefix.is_empty() {
                prefix.push(';');
            }
            prefix.push_str(&n.name);
            rows.push((prefix.clone(), self.exclusive_us(idx), n.inclusive_us, n.count));
        }
        for &c in &n.children {
            self.collect_paths(c, prefix, rows);
        }
        prefix.truncate(saved);
    }
}

// --- request-lifecycle traces ------------------------------------------------

/// One serve-request stage extracted from a trace
/// (`{"ev":"request",...}` JSONL lines, or `"ph":"X"` / `"cat":"serve"`
/// Chrome events named `req.<stage>`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestEvent {
    /// Monotonic request id.
    pub req: u64,
    /// The scored user.
    pub user: u64,
    /// Stage name (`enqueue`, `batch`, `encode`, `score`, `topk`, `reply`).
    pub stage: String,
    /// Thread the stage ran on.
    pub tid: u64,
    /// Stage start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// The request events of a trace: the `requests` of [`crate::trace::read`].
///
/// # Errors
/// Propagates the reader's diagnostics.
pub fn parse_requests_jsonl(text: &str) -> Result<Vec<RequestEvent>, String> {
    crate::trace::read(text).map(|t| t.requests)
}

/// Aggregated timing of one request-lifecycle stage.
#[derive(Clone, Debug)]
pub struct StageStats {
    /// Stage name.
    pub stage: String,
    /// Stage instances folded in.
    pub count: u64,
    /// Total microseconds across instances.
    pub total_us: u64,
    /// Shortest instance.
    pub min_us: u64,
    /// Longest instance.
    pub max_us: u64,
}

/// Per-stage latency profile folded from request events.
#[derive(Clone, Debug, Default)]
pub struct RequestProfile {
    stages: Vec<StageStats>,
    requests: u64,
}

impl RequestProfile {
    /// Folds `events` by stage (first-seen order, which matches lifecycle
    /// order in traces written by the serve worker).
    pub fn build(events: &[RequestEvent]) -> RequestProfile {
        let mut stages: Vec<StageStats> = Vec::new();
        let mut req_ids: Vec<u64> = Vec::new();
        for ev in events {
            if let Err(at) = req_ids.binary_search(&ev.req) {
                req_ids.insert(at, ev.req);
            }
            match stages.iter_mut().find(|s| s.stage == ev.stage) {
                Some(s) => {
                    s.count += 1;
                    s.total_us += ev.dur_us;
                    s.min_us = s.min_us.min(ev.dur_us);
                    s.max_us = s.max_us.max(ev.dur_us);
                }
                None => stages.push(StageStats {
                    stage: ev.stage.clone(),
                    count: 1,
                    total_us: ev.dur_us,
                    min_us: ev.dur_us,
                    max_us: ev.dur_us,
                }),
            }
        }
        RequestProfile { stages, requests: req_ids.len() as u64 }
    }

    /// Per-stage aggregates, in first-seen (lifecycle) order.
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// Distinct request ids seen.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total microseconds across every stage (the per-stage breakdown's
    /// denominator).
    pub fn total_us(&self) -> u64 {
        self.stages.iter().map(|s| s.total_us).sum()
    }

    /// Renders a per-stage table: total/mean/min/max microseconds and
    /// share of the summed stage time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total_us().max(1);
        out.push_str(&format!(
            "{} requests, {} stage events\n",
            self.requests,
            self.stages.iter().map(|s| s.count).sum::<u64>()
        ));
        out.push_str(&format!(
            "{:>12} {:>10} {:>9} {:>9} {:>6} {:>8}  stage\n",
            "total(ms)", "mean(us)", "min(us)", "max(us)", "%", "count"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:>12.3} {:>10.1} {:>9} {:>9} {:>5.1}% {:>8}  {}\n",
                s.total_us as f64 / 1e3,
                s.total_us as f64 / s.count.max(1) as f64,
                s.min_us,
                s.max_us,
                s.total_us as f64 * 100.0 / total as f64,
                s.count,
                s.stage,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::read;

    fn ev(name: &str, ts: u64, begin: bool) -> SpanEvent {
        SpanEvent { name: name.to_string(), tid: 1, ts_us: ts, begin }
    }

    #[test]
    fn jsonl_round_trip_parses_span_events() {
        let text = "\
{\"ev\":\"span_begin\",\"name\":\"epoch\",\"tid\":1,\"ts_us\":10,\"depth\":0}\n\
{\"ev\":\"log\",\"level\":\"info\",\"msg\":\"hi\",\"tid\":1,\"ts_us\":12}\n\
{\"ev\":\"span_end\",\"name\":\"epoch\",\"tid\":1,\"ts_us\":50,\"dur_us\":40,\"depth\":0}\n\
{\"ev\":\"counter\",\"name\":\"gemm.flops\",\"value\":9,\"ts_us\":60}\n";
        let events = read(text).unwrap().spans;
        assert_eq!(events.len(), 2);
        assert!(events[0].begin && !events[1].begin);
        let p = Profile::build(&events).unwrap();
        assert_eq!(p.total_us(), 40);
    }

    #[test]
    fn chrome_parse_skips_metadata_and_counters() {
        let text = r#"[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"seqrec"}},
{"name":"epoch","cat":"seqrec","ph":"B","ts":0,"pid":1,"tid":1},
{"name":"gemm.flops","cat":"metrics","ph":"C","ts":5,"pid":1,"tid":0,"args":{"value":3}},
{"name":"epoch","cat":"seqrec","ph":"E","ts":30,"pid":1,"tid":1}
]"#;
        let events = read(text).unwrap().spans;
        assert_eq!(events.len(), 2);
        let p = Profile::build(&events).unwrap();
        assert_eq!(p.total_us(), 30);
    }

    #[test]
    fn exclusive_subtracts_children_and_sums_back_to_total() {
        // epoch [0,100] contains batch [10,40] and batch [50,90];
        // each batch contains forward taking 20us.
        let events = vec![
            ev("epoch", 0, true),
            ev("batch", 10, true),
            ev("forward", 15, true),
            ev("forward", 35, false),
            ev("batch", 40, false),
            ev("batch", 50, true),
            ev("forward", 55, true),
            ev("forward", 75, false),
            ev("batch", 90, false),
            ev("epoch", 100, false),
        ];
        let p = Profile::build(&events).unwrap();
        assert_eq!(p.total_us(), 100);
        let excl_sum: u64 = (1..p.nodes().len()).map(|i| p.exclusive_us(i)).sum();
        assert_eq!(excl_sum, p.total_us(), "exclusive times must tile the wall clock");
        let top = p.top_exclusive(10);
        // batch merged both instances: inclusive 30+40=70, exclusive 70-40=30.
        let batch = top.iter().find(|r| r.0 == "epoch;batch").unwrap();
        assert_eq!((batch.1, batch.2, batch.3), (30, 70, 2));
        let forward = top.iter().find(|r| r.0 == "epoch;batch;forward").unwrap();
        assert_eq!((forward.1, forward.3), (40, 2));
    }

    #[test]
    fn unpaired_end_is_an_error() {
        let events = vec![ev("loose", 5, false)];
        let err = Profile::build(&events).unwrap_err();
        assert!(err.contains("unpaired end"), "{err}");
    }

    #[test]
    fn name_mismatch_is_an_error() {
        let events = vec![ev("a", 0, true), ev("b", 5, false)];
        let err = Profile::build(&events).unwrap_err();
        assert!(err.contains("nesting mismatch"), "{err}");
    }

    #[test]
    fn span_open_at_eof_is_an_error() {
        let events = vec![ev("a", 0, true)];
        let err = Profile::build(&events).unwrap_err();
        assert!(err.contains("still open"), "{err}");
    }

    #[test]
    fn folded_stacks_use_exclusive_time() {
        let events =
            vec![ev("a", 0, true), ev("b", 10, true), ev("b", 30, false), ev("a", 50, false)];
        let p = Profile::build(&events).unwrap();
        let folded = p.folded_stacks();
        assert!(folded.contains("a 30\n"), "{folded}");
        assert!(folded.contains("a;b 20\n"), "{folded}");
    }

    #[test]
    fn threads_fold_independently() {
        let events = vec![
            SpanEvent { name: "x".into(), tid: 1, ts_us: 0, begin: true },
            SpanEvent { name: "y".into(), tid: 2, ts_us: 0, begin: true },
            SpanEvent { name: "y".into(), tid: 2, ts_us: 7, begin: false },
            SpanEvent { name: "x".into(), tid: 1, ts_us: 5, begin: false },
        ];
        let p = Profile::build(&events).unwrap();
        assert_eq!(p.total_us(), 12);
    }

    #[test]
    fn mem_lines_are_skipped_by_the_span_parser_but_still_validated() {
        let ok = "{\"ev\":\"mem_alloc\",\"id\":1,\"bytes\":64,\"live_bytes\":64,\
                  \"tid\":1,\"ts_us\":5,\"path\":\"a;b\"}\n\
                  {\"ev\":\"mem_free\",\"id\":1,\"bytes\":64,\"live_bytes\":0,\
                  \"tid\":1,\"ts_us\":9}\n";
        let trace = read(ok).unwrap();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.mem.len(), 2);
        let bad = "{\"ev\":\"mem_alloc\",\"bytes\":64,\"ts_us\":5}\n";
        let err = read(bad).unwrap_err();
        assert!(err.contains("line 1") && err.contains("\"id\""), "{err}");
    }

    #[test]
    fn malformed_skipped_lines_are_line_numbered_errors() {
        let text = "{\"ev\":\"span_begin\",\"name\":\"a\",\"tid\":1,\"ts_us\":0,\"depth\":0}\n\
                    {\"ev\":\"counter\",\"name\":\"x\",\"value\":1}\n";
        let err = read(text).unwrap_err();
        assert!(err.contains("line 2") && err.contains("ts_us"), "{err}");
        let neg = "{\"ev\":\"span_begin\",\"name\":\"a\",\"tid\":-1,\"ts_us\":0,\"depth\":0}\n";
        let err = read(neg).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn chrome_parse_skips_mem_object_events() {
        let text = r#"[
{"name":"buf","cat":"mem","ph":"N","id":"0x1","ts":1,"pid":1,"tid":1,"args":{"bytes":64,"path":"a"}},
{"name":"epoch","cat":"seqrec","ph":"B","ts":0,"pid":1,"tid":1},
{"name":"buf","cat":"mem","ph":"D","id":"0x1","ts":9,"pid":1,"tid":1,"args":{"bytes":64}},
{"name":"epoch","cat":"seqrec","ph":"E","ts":30,"pid":1,"tid":1}
]"#;
        let events = read(text).unwrap().spans;
        assert_eq!(events.len(), 2);
        assert_eq!(Profile::build(&events).unwrap().total_us(), 30);
    }

    #[test]
    fn auto_detects_format() {
        assert_eq!(read("[]").unwrap(), crate::trace::Trace::default());
        assert_eq!(read("").unwrap(), crate::trace::Trace::default());
        assert!(read("{oops").is_err());
    }

    #[test]
    fn request_events_parse_from_jsonl_and_fold_by_stage() {
        let text = "\
{\"ev\":\"request\",\"req\":1,\"user\":7,\"stage\":\"enqueue\",\"tid\":1,\"ts_us\":0,\"dur_us\":10}\n\
{\"ev\":\"span_begin\",\"name\":\"x\",\"tid\":1,\"ts_us\":3,\"depth\":0}\n\
{\"ev\":\"span_end\",\"name\":\"x\",\"tid\":1,\"ts_us\":5,\"dur_us\":2,\"depth\":0}\n\
{\"ev\":\"request\",\"req\":1,\"user\":7,\"stage\":\"encode\",\"tid\":2,\"ts_us\":10,\"dur_us\":30}\n\
{\"ev\":\"request\",\"req\":2,\"user\":9,\"stage\":\"enqueue\",\"tid\":1,\"ts_us\":5,\"dur_us\":20}\n";
        // Request lines do not become span events...
        let trace = read(text).unwrap();
        assert_eq!(trace.spans.len(), 2);
        // ...and fold into a per-stage profile.
        let events = trace.requests;
        assert_eq!(events.len(), 3);
        let p = RequestProfile::build(&events);
        assert_eq!(p.requests(), 2);
        assert_eq!(p.total_us(), 60);
        let enqueue = &p.stages()[0];
        assert_eq!(enqueue.stage, "enqueue");
        assert_eq!(
            (enqueue.count, enqueue.total_us, enqueue.min_us, enqueue.max_us),
            (2, 30, 10, 20)
        );
        assert_eq!(p.stages()[1].stage, "encode");
        let table = p.render();
        assert!(table.contains("enqueue"), "{table}");
    }

    #[test]
    fn request_events_parse_from_chrome_x_events() {
        let text = r#"[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"seqrec"}},
{"name":"req.score","cat":"serve","ph":"X","ts":40,"dur":25,"pid":1,"tid":3,"args":{"req":5,"user":11}},
{"name":"epoch","cat":"seqrec","ph":"B","ts":0,"pid":1,"tid":1},
{"name":"epoch","cat":"seqrec","ph":"E","ts":30,"pid":1,"tid":1}
]"#;
        let trace = read(text).unwrap();
        let events = trace.requests;
        assert_eq!(
            events,
            vec![RequestEvent {
                req: 5,
                user: 11,
                stage: "score".to_string(),
                tid: 3,
                ts_us: 40,
                dur_us: 25,
            }]
        );
        // X events do not become span events.
        assert_eq!(trace.spans.len(), 2);
    }
}
