//! The row softmax kernel shared by [`Tape::softmax_cross_entropy`] and
//! [`Tape::attention`].
//!
//! [`Tape::softmax_cross_entropy`]: crate::Tape::softmax_cross_entropy
//! [`Tape::attention`]: crate::Tape::attention

/// Stable softmax of every length-`d` row of `x` into the same row of
/// `out`, written in one pass from the input: `exp(x - max)` per row, then
/// scaled by the row's `1/Σ`. The max subtraction keeps a fully masked row
/// (every entry near `-1e9`) finite; it comes out uniform over the entries
/// that tie at the row's maximum.
///
/// # Panics
/// Panics if `d` is 0 or `out` and `x` differ in length.
pub fn softmax_rows(x: &[f32], d: usize, out: &mut [f32]) {
    assert!(d > 0, "softmax over empty dimension");
    assert_eq!(x.len(), out.len(), "softmax input and output lengths differ");
    for (row, orow) in x.chunks(d).zip(out.chunks_mut(d)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row) {
            let e = (v - max).exp();
            sum += e;
            *o = e;
        }
        let inv = 1.0 / sum;
        for v in orow.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax(x: &[f32], d: usize) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        softmax_rows(x, d, &mut out);
        out
    }

    #[test]
    fn rows_sum_to_one() {
        let v = softmax(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 3);
        let s0: f32 = v[..3].iter().sum();
        let s1: f32 = v[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
        // monotone within the row
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn fully_masked_row_is_uniform_and_finite() {
        let v = softmax(&[-1e9; 4], 4);
        assert!(v.iter().all(|p| p.is_finite()));
        for p in v {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn translation_invariance() {
        let a = softmax(&[1.0, 2.0, 3.0], 3);
        let b = softmax(&[101.0, 102.0, 103.0], 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
