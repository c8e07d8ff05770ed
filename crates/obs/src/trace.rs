//! The trace reader: one pass over a JSONL or Chrome trace written by this
//! crate's sinks, yielding the events every view folds — spans for
//! [`crate::profile::Profile`], serve request stages for
//! [`crate::profile::RequestProfile`], buffer lifetimes for
//! [`crate::memprof::MemProfile`].
//!
//! The format is detected from the text: a document whose first
//! non-whitespace byte is `[` is a Chrome trace-event array, anything else
//! JSONL. Every event is validated whichever view will fold it, so a
//! malformed event is an error naming its line (JSONL) or array index
//! (Chrome) for every report alike, never a silent skip. Logs, counters and
//! metadata feed no view and are skipped, but a JSONL log or counter line
//! must still carry its timestamp.

use crate::json::{self, Value};
use crate::memprof::MemEvent;
use crate::profile::{RequestEvent, SpanEvent};

/// The events of one trace, each kind in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Span begin/end boundaries.
    pub spans: Vec<SpanEvent>,
    /// Serve request stages.
    pub requests: Vec<RequestEvent>,
    /// Tensor buffer allocs and frees.
    pub mem: Vec<MemEvent>,
}

/// Reads a trace file's text, auto-detecting its format.
///
/// # Errors
/// Returns a message naming the offending line or event on malformed JSON,
/// a missing or invalid field, or an unknown event kind or phase.
pub fn read(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    if text.trim_start().starts_with('[') {
        let doc = json::parse(text).map_err(|e| format!("invalid Chrome trace JSON: {e}"))?;
        let events = doc.as_arr().ok_or("Chrome trace must be a JSON array of events")?;
        for (i, ev) in events.iter().enumerate() {
            trace.push_chrome(ev, &format!("event {i}"))?;
        }
    } else {
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at = format!("line {}", i + 1);
            let ev = json::parse(line).map_err(|e| format!("{at}: invalid JSON: {e}"))?;
            trace.push_jsonl(&ev, &at)?;
        }
    }
    Ok(trace)
}

impl Trace {
    fn push_jsonl(&mut self, v: &Value, at: &str) -> Result<(), String> {
        let ev = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{at}: missing \"ev\" field"))?;
        let num = |key| req_u64(v, key, at);
        match ev {
            "span_begin" | "span_end" => self.spans.push(SpanEvent {
                name: req_str(v, "name", at)?,
                tid: num("tid")?,
                ts_us: num("ts_us")?,
                begin: ev == "span_begin",
            }),
            "request" => self.requests.push(RequestEvent {
                req: num("req")?,
                user: num("user")?,
                stage: req_str(v, "stage", at)?,
                tid: num("tid")?,
                ts_us: num("ts_us")?,
                dur_us: num("dur_us")?,
            }),
            "mem_alloc" | "mem_free" => {
                let alloc = ev == "mem_alloc";
                self.mem.push(MemEvent {
                    id: num("id")?,
                    bytes: num("bytes")?,
                    live_bytes: v.get("live_bytes").and_then(Value::as_f64).map(|f| f as i64),
                    tid: num("tid")?,
                    ts_us: num("ts_us")?,
                    path: if alloc { Some(req_str(v, "path", at)?) } else { None },
                    alloc,
                });
            }
            "log" | "counter" => {
                num("ts_us")?;
            }
            other => return Err(format!("{at}: unknown event kind `{other}`")),
        }
        Ok(())
    }

    /// Chrome spans are `B`/`E` events, request stages `X` slices in the
    /// `serve` category named `req.<stage>`, and buffer lifetimes `N`/`D`
    /// object events in the `mem` category with a hex id.
    fn push_chrome(&mut self, v: &Value, at: &str) -> Result<(), String> {
        let ph = v
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{at}: missing \"ph\" field"))?;
        let num = |key| req_u64(v, key, at);
        let args = v.get("args").unwrap_or(&Value::Null);
        match (ph, v.get("cat").and_then(Value::as_str)) {
            ("B" | "E", _) => self.spans.push(SpanEvent {
                name: req_str(v, "name", at)?,
                tid: num("tid")?,
                ts_us: num("ts")?,
                begin: ph == "B",
            }),
            ("X", Some("serve")) => {
                let name = req_str(v, "name", at)?;
                let stage = name.strip_prefix("req.").ok_or_else(|| {
                    format!("{at}: serve X event named `{name}`, want `req.<stage>`")
                })?;
                let args_at = format!("{at} args");
                self.requests.push(RequestEvent {
                    req: req_u64(args, "req", &args_at)?,
                    user: req_u64(args, "user", &args_at)?,
                    stage: stage.to_string(),
                    tid: num("tid")?,
                    ts_us: num("ts")?,
                    dur_us: num("dur")?,
                });
            }
            ("N" | "D", Some("mem")) => {
                let id = req_str(v, "id", at)?;
                let (alloc, args_at) = (ph == "N", format!("{at} args"));
                self.mem.push(MemEvent {
                    id: id
                        .strip_prefix("0x")
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("{at}: mem object id `{id}` is not 0x-hex"))?,
                    bytes: req_u64(args, "bytes", &args_at)?,
                    live_bytes: None,
                    tid: num("tid")?,
                    ts_us: num("ts")?,
                    path: if alloc { Some(req_str(args, "path", &args_at)?) } else { None },
                    alloc,
                });
            }
            ("M" | "i" | "C" | "X" | "N" | "D", _) => {}
            (other, _) => return Err(format!("{at}: unknown phase `{other}`")),
        }
        Ok(())
    }
}

/// Required non-negative integer field with a diagnostic that names the
/// location and distinguishes a missing key from an invalid value.
fn req_u64(v: &Value, key: &str, at: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Err(format!("{at}: missing \"{key}\"")),
        Some(val) => match val.as_f64() {
            Some(f) if f >= 0.0 && f.is_finite() => Ok(f as u64),
            _ => Err(format!("{at}: \"{key}\" must be a non-negative number")),
        },
    }
}

/// Required string field.
fn req_str(v: &Value, key: &str, at: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: missing string \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_errors_name_the_line_whichever_view_folds_it() {
        let text = "\
{\"ev\":\"mem_alloc\",\"id\":1,\"bytes\":64,\"live_bytes\":64,\"tid\":1,\"ts_us\":5,\"path\":\"a\"}\n\
{\"ev\":\"span_begin\",\"name\":\"a\",\"ts_us\":6,\"depth\":0}\n\
{\"ev\":\"mem_free\",\"id\":1,\"bytes\":64,\"live_bytes\":0,\"tid\":1,\"ts_us\":9}\n";
        let err = read(text).unwrap_err();
        assert!(err.contains("line 2") && err.contains("\"tid\""), "{err}");
        let err = read("{\"ev\":\"span\",\"ts_us\":0}\n").unwrap_err();
        assert!(err.contains("line 1") && err.contains("unknown event kind `span`"), "{err}");
    }

    #[test]
    fn chrome_errors_name_the_event_whichever_view_folds_it() {
        let mem = r#"{"name":"buf","cat":"mem","ph":"N","id":"0x1","ts":1,"pid":1,"tid":1,"args":{"bytes":64,"path":"a"}},
{"name":"buf","cat":"mem","ph":"D","id":"0x1","ts":9,"pid":1,"tid":1,"args":{"bytes":64}}"#;
        let err = read(&format!("[{mem},\n{{\"name\":\"a\",\"ph\":\"B\",\"ts\":2,\"pid\":1}}]"))
            .unwrap_err();
        assert!(err.contains("event 2") && err.contains("\"tid\""), "{err}");
        for (event, want) in [
            (r#"{"ph":"Q","ts":0}"#, "unknown phase `Q`"),
            (r#"{"name":"buf","cat":"mem","ph":"D","id":"12","ts":0,"tid":1}"#, "not 0x-hex"),
            (r#"{"name":"score","cat":"serve","ph":"X","ts":0,"dur":1,"tid":1}"#, "want `req."),
        ] {
            let err = read(&format!("[{mem},\n{event}]")).unwrap_err();
            assert!(err.contains("event 2") && err.contains(want), "{err}");
        }
    }
}
