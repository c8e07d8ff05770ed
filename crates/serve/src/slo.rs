//! Service-level objectives over the rolling metric windows.
//!
//! An [`SloPolicy`] states the contract — "p-quantile latency at most
//! `target_us`, with at most `budget` of requests allowed over the target,
//! and at most `error_budget` of requests allowed to fail". Evaluation
//! reads the live rolling windows ([`seqrec_obs::metrics`]); the **burn
//! rate** is the observed breach fraction divided by the budget, so 1.0
//! means the budget is exactly spent and anything above it means the SLO
//! is burning.
//!
//! Latency breaches are counted at histogram-bucket resolution: a request
//! breaches when it lands in a bucket whose bound exceeds the target, so a
//! target aligned with a bucket bound ([`SERVE_LATENCY_BOUNDS`]) is exact
//! and an unaligned target rounds the threshold down to the previous
//! bound.
//!
//! [`SERVE_LATENCY_BOUNDS`]: seqrec_obs::metrics::SERVE_LATENCY_BOUNDS

use seqrec_obs::metrics::{self, WindowSnapshot};

/// One latency/error objective.
#[derive(Clone, Copy, Debug)]
pub struct SloPolicy {
    /// Latency target in microseconds (align with a bucket bound of
    /// `SERVE_LATENCY_US` for exact counting).
    pub target_us: u64,
    /// Fraction of requests allowed above the target (e.g. `0.01` =
    /// "99% of requests under target").
    pub budget: f64,
    /// Fraction of requests allowed to error (`0.0` = none).
    pub error_budget: f64,
}

impl Default for SloPolicy {
    /// The serving default: 99% of requests under 20 ms, no errors.
    fn default() -> Self {
        SloPolicy { target_us: 20_000, budget: 0.01, error_budget: 0.0 }
    }
}

/// The outcome of evaluating an [`SloPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct SloReport {
    /// The evaluated latency target (µs).
    pub target_us: u64,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests above the latency target.
    pub breaches: u64,
    /// `breaches / total` (0 on an empty window).
    pub breach_rate: f64,
    /// `breach_rate / budget`; above 1.0 the latency budget is burning.
    /// Infinite when a zero budget is breached.
    pub burn_rate: f64,
    /// Errors observed (from the error counter delta handed in).
    pub errors: u64,
    /// `errors / total` divided by the error budget, mirroring
    /// `burn_rate`.
    pub error_burn_rate: f64,
    /// The verdict: both burn rates at or under 1.0.
    pub ok: bool,
}

/// Evaluates `policy` against an explicit latency distribution — the pure
/// core of [`evaluate`], also used on cumulative histograms and in tests.
/// `errors` is the error count accumulated over the same span.
pub fn evaluate_counts(
    bounds: &[u64],
    counts: &[u64],
    overflow: u64,
    errors: u64,
    policy: &SloPolicy,
) -> SloReport {
    let total: u64 = counts.iter().sum::<u64>() + overflow;
    let met: u64 =
        bounds.iter().zip(counts).filter(|(b, _)| **b <= policy.target_us).map(|(_, c)| *c).sum();
    let breaches = total - met;
    let rate = |part: u64, budget: f64| -> (f64, f64) {
        if total == 0 {
            return (0.0, 0.0);
        }
        let r = part as f64 / total as f64;
        let burn = if budget > 0.0 {
            r / budget
        } else if r > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        (r, burn)
    };
    let (breach_rate, burn_rate) = rate(breaches, policy.budget);
    let (_, error_burn_rate) = rate(errors, policy.error_budget);
    SloReport {
        target_us: policy.target_us,
        total,
        breaches,
        breach_rate,
        burn_rate,
        errors,
        error_burn_rate,
        ok: burn_rate <= 1.0 && error_burn_rate <= 1.0,
    }
}

/// Evaluates `policy` against a rolling-window latency snapshot.
pub fn evaluate_window(window: &WindowSnapshot, errors: u64, policy: &SloPolicy) -> SloReport {
    evaluate_counts(window.bounds, &window.counts, window.overflow, errors, policy)
}

/// Evaluates `policy` against the live serve-latency rolling window and
/// the current error counter — the "is the SLO burning *right now*" read.
pub fn evaluate(policy: &SloPolicy) -> SloReport {
    let window = metrics::SERVE_LATENCY_US.window_snapshot();
    evaluate_window(&window, metrics::SERVE_ERRORS.get(), policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[u64] = &[1_000, 5_000, 20_000, 100_000];

    #[test]
    fn within_budget_is_ok() {
        // 990 fast, 10 slow, 1% budget at 20ms → exactly spent, still ok.
        let report = evaluate_counts(
            BOUNDS,
            &[500, 490, 0, 10],
            0,
            0,
            &SloPolicy { target_us: 20_000, budget: 0.01, error_budget: 0.0 },
        );
        assert_eq!(report.total, 1_000);
        assert_eq!(report.breaches, 10);
        assert!((report.burn_rate - 1.0).abs() < 1e-12);
        assert!(report.ok);
    }

    #[test]
    fn breaches_above_budget_burn() {
        let report = evaluate_counts(
            BOUNDS,
            &[900, 0, 0, 80],
            20,
            0,
            &SloPolicy { target_us: 20_000, budget: 0.01, error_budget: 0.0 },
        );
        assert_eq!(report.breaches, 100);
        assert!(report.burn_rate > 1.0);
        assert!(!report.ok);
    }

    #[test]
    fn overflow_samples_always_breach() {
        let report = evaluate_counts(BOUNDS, &[0; 4], 5, 0, &SloPolicy::default());
        assert_eq!(report.breaches, 5);
        assert!(!report.ok);
    }

    #[test]
    fn errors_with_zero_budget_fail_the_slo() {
        let fine = evaluate_counts(BOUNDS, &[100, 0, 0, 0], 0, 0, &SloPolicy::default());
        assert!(fine.ok);
        let errored = evaluate_counts(BOUNDS, &[100, 0, 0, 0], 0, 1, &SloPolicy::default());
        assert!(errored.error_burn_rate.is_infinite());
        assert!(!errored.ok);
    }

    #[test]
    fn empty_window_is_vacuously_ok() {
        let report = evaluate_counts(BOUNDS, &[0; 4], 0, 0, &SloPolicy::default());
        assert_eq!(report.total, 0);
        assert!(report.ok);
    }

    #[test]
    fn live_evaluation_reads_the_rolling_window() {
        metrics::SERVE_LATENCY_US.reset();
        for _ in 0..99 {
            metrics::SERVE_LATENCY_US.record(400);
        }
        metrics::SERVE_LATENCY_US.record(3_000_000);
        let report = evaluate(&SloPolicy { target_us: 20_000, budget: 0.02, error_budget: 1.0 });
        assert_eq!(report.total, 100);
        assert_eq!(report.breaches, 1);
        assert!(report.ok, "1% breaches inside a 2% budget: {report:?}");
        metrics::SERVE_LATENCY_US.reset();
    }
}
