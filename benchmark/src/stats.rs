//! Order statistics.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it.
///
/// # Panics
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quarter of `ops` — one of four contiguous runs of ops, in the order
/// they ran — with the least time per op, by `secs`. Empty quarters (fewer
/// than four ops) are skipped.
///
/// # Panics
/// Panics on an empty `ops`.
pub fn fastest_quarter<T>(ops: &[T], secs: impl Fn(&T) -> f64) -> &[T] {
    assert!(!ops.is_empty(), "fastest quarter of no ops");
    let n = ops.len();
    let per_op = |q: &[T]| q.iter().map(&secs).sum::<f64>() / q.len() as f64;
    (0..4)
        .map(|i| &ops[i * n / 4..(i + 1) * n / 4])
        .filter(|q| !q.is_empty())
        .min_by(|a, b| per_op(a).total_cmp(&per_op(b)))
        .expect("a non-empty slice has a non-empty quarter")
}

/// Quartiles `[q1, median, q3]` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so that
/// spreads computed here match the ones an outside checker computes.
///
/// # Panics
/// Panics on fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let n = samples.len();
    assert!(n >= 2, "quartiles need at least two samples, got {n}");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn fastest_quarter_is_contiguous_and_least_per_op() {
        // A slow stretch, then a quiet one: the quiet quarter wins.
        let ops = [9.0, 9.0, 8.0, 9.0, 5.0, 6.0, 9.0, 9.0];
        assert_eq!(fastest_quarter(&ops, |&x| x), &[5.0, 6.0]);
        // Quarters of unequal length compare by time per op.
        let ops = [4.0, 4.0, 4.0, 3.0, 3.0, 9.0, 9.0];
        assert_eq!(fastest_quarter(&ops, |&x| x), &[3.0, 3.0]);
        // Fewer ops than quarters: each op is its own quarter.
        assert_eq!(fastest_quarter(&[2.0, 1.0], |&x| x), &[1.0]);
        assert_eq!(fastest_quarter(&[7.0], |&x| x), &[7.0]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
