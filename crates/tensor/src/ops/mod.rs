//! Autograd operations, implemented as methods on [`crate::Tape`].
//!
//! Each submodule groups related ops; every op records a backward closure
//! that maps the incoming gradient to per-parent gradients. Constants
//! (masks) are captured by value and never receive gradients.

mod activations;
mod attention;
mod basic;
mod embedding;
mod loss;
mod mask;
mod matmul;
mod norm;
mod softmax;
mod window;

pub use mask::{causal_padding_mask, padding_mask};
pub use norm::DROPOUT_CHUNK;
pub use softmax::softmax_rows;

use crate::tensor::Tensor;

/// Sums a tensor's length-`d` rows, in row order, into one `[d]` vector:
/// the gradient of a per-row broadcast bias.
fn reduce_rows(g: &Tensor, d: usize) -> Tensor {
    let mut out = vec![0.0f32; d];
    for row in g.data().chunks(d) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    Tensor::from_vec([d], out)
}
