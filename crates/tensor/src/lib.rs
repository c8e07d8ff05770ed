//! # seqrec-tensor
//!
//! A from-scratch dense-`f32` tensor library with tape-based reverse-mode
//! automatic differentiation, written to train the sequential recommenders
//! in this workspace on CPU. It deliberately implements only what those
//! models need — but implements it carefully:
//!
//! * [`Tensor`]: dense, row-major, `Arc`-backed (O(1) clones, copy-on-write).
//! * [`Tape`] + ops ([`ops`]): matmuls (plain/batched/transposed), softmax,
//!   LayerNorm, activations, embedding gather, attention masking, fused
//!   softmax-cross-entropy — each with a hand-written backward pass that is
//!   verified against finite differences ([`gradcheck`]).
//! * [`nn`]: `Linear`, `LayerNorm`, `Embedding` modules and the
//!   [`nn::Param`]/[`nn::Step`] binding machinery.
//! * [`optim`]: Adam (the paper's optimiser) with linear LR decay and
//!   global-norm clipping.
//! * [`linalg`]: a packed, cache-blocked GEMM engine (`nn`/`nt`/`tn`,
//!   batched) with an AVX2+FMA microkernel and rayon row-band parallelism.
//! * [`topk`]: deterministic SIMD partial-select top-K for the serving
//!   stack's full-catalog ranking.
//!
//! ## Example
//!
//! ```
//! use seqrec_tensor::nn::{Param, Step};
//! use seqrec_tensor::optim::{Adam, AdamConfig};
//! use seqrec_tensor::Tensor;
//!
//! // Fit w to minimise (w - 3)^2.
//! let mut w = Param::new("w", Tensor::scalar(0.0));
//! let mut adam = Adam::new(AdamConfig { lr: 0.1, ..Default::default() });
//! for _ in 0..100 {
//!     let mut step = Step::new();
//!     let wv = w.var(&mut step);
//!     let target = step.tape.leaf(Tensor::scalar(3.0));
//!     let diff = step.tape.sub(wv, target);
//!     let sq = step.tape.mul(diff, diff);
//!     let loss = step.tape.sum_all(sq);
//!     let grads = step.tape.backward(loss);
//!     adam.step(&mut w, &step, &grads);
//! }
//! assert!((w.value().item() - 3.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod dynamics;
pub mod gradcheck;
pub mod init;
pub mod linalg;
pub mod nn;
pub mod ops;
pub mod optim;
mod shape;
mod tape;
mod tensor;
pub mod topk;

pub use shape::Shape;
pub use tape::{set_finite_tripwire, Gradients, Tape, Var};
pub use tensor::Tensor;
