//! Property-based tests for the what-if arena planner: invariants that
//! must hold for arbitrary alloc/free schedules, not just the hand-picked
//! ones in the unit tests.
//!
//! * `whatif_peak(0) <= observed_peak` — retiring frees earlier while
//!   keeping allocations in program order can never raise the peak;
//! * `whatif_peak(s) >= max single live buffer` — no plan can make a
//!   buffer smaller than itself;
//! * `whatif_peak` is non-increasing in slack — more freedom to retire
//!   early can only help;
//! * the best-fit arena simulation places every buffer and its footprint
//!   is never below the fungible what-if bound (the gap is fragmentation).

use proptest::prelude::*;
use seqrec_obs::memprof::{simulate_arena, whatif_peak_bytes, Interval, WHATIF_SLACKS_US};

/// One step of a random allocation program: `kind < 2` allocates `bytes`
/// (so allocs and frees are roughly balanced), otherwise the step frees a
/// pseudo-randomly chosen live buffer; `dt` advances the clock, with 0
/// keeping events inside the same microsecond to exercise tie-breaking.
type Action = (u8, u64, u64);

/// Replays a random program into buffer-lifetime intervals plus the peak
/// the schedule actually reaches (computed independently of the planner).
fn schedule(actions: &[Action]) -> (Vec<Interval>, u64) {
    let mut ts = 0u64;
    let mut live: Vec<usize> = Vec::new();
    let mut intervals: Vec<Interval> = Vec::new();
    let mut level = 0u64;
    let mut peak = 0u64;
    for (seq, &(kind, bytes, dt)) in (1u64..).zip(actions.iter()) {
        ts += dt;
        if kind < 2 || live.is_empty() {
            intervals.push(Interval { start_us: ts, end_us: None, bytes, alloc_seq: seq });
            live.push(intervals.len() - 1);
            level += bytes;
            peak = peak.max(level);
        } else {
            let idx = live.swap_remove(bytes as usize % live.len());
            intervals[idx].end_us = Some(ts);
            level -= intervals[idx].bytes;
        }
    }
    (intervals, peak)
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec((0u8..4, 1u64..4096, 0u64..3), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn whatif_never_exceeds_the_observed_peak(acts in actions()) {
        let (intervals, observed) = schedule(&acts);
        // The slack-0 plan never exceeds the tracked peak.
        prop_assert!(
            whatif_peak_bytes(&intervals, 0) <= observed,
            "whatif {} > observed {observed}",
            whatif_peak_bytes(&intervals, 0)
        );
    }

    #[test]
    fn whatif_is_at_least_the_largest_single_buffer(acts in actions()) {
        let (intervals, _) = schedule(&acts);
        let max_buf = intervals.iter().map(|iv| iv.bytes).max().unwrap_or(0);
        for &slack in WHATIF_SLACKS_US {
            let w = whatif_peak_bytes(&intervals, slack);
            prop_assert!(w >= max_buf, "whatif({slack}) = {w} < max buffer {max_buf}");
        }
    }

    #[test]
    fn whatif_is_non_increasing_in_slack(acts in actions()) {
        let (intervals, _) = schedule(&acts);
        let peaks: Vec<u64> =
            WHATIF_SLACKS_US.iter().map(|&s| whatif_peak_bytes(&intervals, s)).collect();
        for pair in peaks.windows(2) {
            prop_assert!(pair[1] <= pair[0], "slack sweep not monotone: {peaks:?}");
        }
    }

    #[test]
    fn arena_places_everything_at_or_above_the_fungible_bound(acts in actions()) {
        let (intervals, _observed) = schedule(&acts);
        let report = simulate_arena(&intervals, 0);
        prop_assert_eq!(report.placed, intervals.len());
        let fungible = whatif_peak_bytes(&intervals, 0);
        prop_assert!(
            report.arena_bytes >= fungible,
            "arena {} below fungible bound {fungible}",
            report.arena_bytes
        );
        // Fragmentation can push the arena above the fungible bound, but
        // best-fit extends the arena by at most one buffer's size per
        // placement, so the total byte volume is a hard ceiling.
        let total: u64 = intervals.iter().map(|iv| iv.bytes).sum();
        prop_assert!(report.arena_bytes <= total);
    }
}
