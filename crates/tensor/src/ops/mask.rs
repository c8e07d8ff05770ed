//! Additive attention masks for [`Tape::attention`](crate::Tape::attention).

use crate::tensor::Tensor;

/// Builds the additive attention mask for a left-padded batch:
/// position `q` may attend to position `k` iff `k <= q` (causality) and
/// position `k` is not padding. Entries are `0` when allowed and `-1e9`
/// otherwise. `valid[b][t]` is true for real (non-pad) positions.
pub fn causal_padding_mask(valid: &[Vec<bool>], t: usize) -> Tensor {
    const NEG: f32 = -1e9;
    let b = valid.len();
    let mut data = vec![0.0f32; b * t * t];
    for (bi, v) in valid.iter().enumerate() {
        assert_eq!(v.len(), t, "validity row length != T");
        for q in 0..t {
            for k in 0..t {
                if k > q || !v[k] {
                    data[(bi * t + q) * t + k] = NEG;
                }
            }
        }
    }
    Tensor::from_vec([b, t, t], data)
}

/// Builds the additive attention mask for a left-padded batch **without**
/// causality: position `q` may attend to any non-padding position `k`
/// (bidirectional encoders, e.g. BERT4Rec). Entries are `0` when allowed
/// and `-1e9` otherwise.
pub fn padding_mask(valid: &[Vec<bool>], t: usize) -> Tensor {
    const NEG: f32 = -1e9;
    let b = valid.len();
    let mut data = vec![0.0f32; b * t * t];
    for (bi, v) in valid.iter().enumerate() {
        assert_eq!(v.len(), t, "validity row length != T");
        for q in 0..t {
            for k in 0..t {
                if !v[k] {
                    data[(bi * t + q) * t + k] = NEG;
                }
            }
        }
    }
    Tensor::from_vec([b, t, t], data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_mask_blocks_future_and_pads() {
        // one sequence, T=3, first position is padding
        let m = causal_padding_mask(&[vec![false, true, true]], 3);
        let d = m.data();
        // q=1 (real): can attend k=1 only (k=0 is pad, k=2 is future)
        assert_eq!(d[3], -1e9); // (q1,k0) pad
        assert_eq!(d[4], 0.0); // (q1,k1)
        assert_eq!(d[5], -1e9); // (q1,k2) future
                                // q=2: k=1,2 allowed
        assert_eq!(d[6], -1e9);
        assert_eq!(d[7], 0.0);
        assert_eq!(d[8], 0.0);
    }

    #[test]
    fn padding_mask_allows_future_but_not_pads() {
        let m = padding_mask(&[vec![false, true, true]], 3);
        let d = m.data();
        // q=1: k=0 is pad (blocked), k=2 is future but allowed
        assert_eq!(d[3], -1e9);
        assert_eq!(d[4], 0.0);
        assert_eq!(d[5], 0.0);
    }
}
