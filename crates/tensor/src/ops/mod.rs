//! Autograd operations, implemented as methods on [`crate::Tape`].
//!
//! Each submodule groups related ops; every op records a backward closure
//! that maps the incoming gradient to per-parent gradients. Constants
//! (masks) are captured by value and never receive gradients.

mod activations;
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
