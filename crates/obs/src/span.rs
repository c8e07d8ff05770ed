//! RAII wall-clock spans with a thread-local nesting stack.
//!
//! A [`SpanGuard`] is opened by the [`crate::span!`] macro and closed by
//! `Drop`, which makes nesting automatic and — because `Drop` also runs
//! during unwinding — guarantees that every begin event gets its matching
//! end event even when the instrumented code panics, and that the
//! thread-local span stack returns to where it was.
//!
//! When no sink is installed, entering a span is one relaxed atomic load
//! and a branch: no clock read, no thread-local touch, no allocation.

use crate::sink::{self, Event};
use std::cell::RefCell;

thread_local! {
    /// Names of the live spans on this thread, outermost first; its length
    /// is the nesting depth. Only maintained for live spans, so the no-sink
    /// fast path still touches nothing. Read by the mem tracer to attribute
    /// buffer allocations.
    static NAMES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current span nesting depth (0 = outside all
/// spans). Only maintained while a sink is installed.
pub fn current_depth() -> u32 {
    NAMES.with(|names| names.borrow().len() as u32)
}

/// The calling thread's open-span path, outermost first, joined with `;`
/// (e.g. `"epoch;batch;forward"`). Empty outside all spans or when no
/// sink is installed — the stack is only maintained for live spans.
pub fn current_path() -> String {
    NAMES.with(|names| names.borrow().join(";"))
}

/// An open span; closes (and emits its end event) on drop.
#[must_use = "a span closes when this guard drops — bind it to a named local"]
pub struct SpanGuard {
    name: &'static str,
    start_us: u64,
    depth: u32,
    live: bool,
}

impl SpanGuard {
    /// Opens a span. The fast path (no sink) is a single relaxed load.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !sink::enabled() {
            return SpanGuard { name, start_us: 0, depth: 0, live: false };
        }
        Self::enter_live(name)
    }

    /// Opens a *detail* span: only live when the sink **and** the detail
    /// flag are on. Used on per-kernel-call paths where full traces would
    /// record millions of events.
    #[inline]
    pub fn enter_detail(name: &'static str) -> SpanGuard {
        if !sink::enabled() || !sink::detail() {
            return SpanGuard { name, start_us: 0, depth: 0, live: false };
        }
        Self::enter_live(name)
    }

    #[cold]
    fn enter_live(name: &'static str) -> SpanGuard {
        let depth = NAMES.with(|names| {
            let mut names = names.borrow_mut();
            names.push(name);
            names.len() as u32 - 1
        });
        let start_us = sink::now_us();
        sink::dispatch(&Event::SpanBegin { name, tid: sink::tid(), ts_us: start_us, depth });
        SpanGuard { name, start_us, depth, live: true }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        NAMES.with(|names| {
            names.borrow_mut().pop();
        });
        let ts_us = sink::now_us();
        sink::dispatch(&Event::SpanEnd {
            name: self.name,
            tid: sink::tid(),
            ts_us,
            dur_us: ts_us.saturating_sub(self.start_us),
            depth: self.depth,
        });
    }
}

/// Opens a named RAII span: `let _s = obs::span!("backward");`.
///
/// The name must be a `&'static str` — span emission never allocates.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Opens a span that is only recorded when the `detail` directive of
/// `SEQREC_OBS` is set (per-kernel-call attribution).
#[macro_export]
macro_rules! detail_span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter_detail($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_touch_nothing() {
        // No sink installed in unit tests: depth must stay untouched.
        assert_eq!(current_depth(), 0);
        {
            let _a = SpanGuard::enter("a");
            let _b = SpanGuard::enter("b");
            assert_eq!(current_depth(), 0, "disabled spans must not track depth");
            assert_eq!(current_path(), "", "disabled spans must not track names");
        }
        assert_eq!(current_depth(), 0);
        assert_eq!(current_path(), "");
    }
}
