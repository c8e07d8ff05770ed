//! # seqrec-models
//!
//! Every baseline from the paper's Table 2, implemented from scratch on the
//! [`seqrec_tensor`] autograd engine:
//!
//! * [`Pop`] — global popularity (non-personalised).
//! * [`BprMf`] — matrix factorisation with the BPR pairwise loss.
//! * [`Ncf`] — NeuMF: GMF + MLP fusion.
//! * [`Fpmc`] — factorised personalised Markov chains (first-order).
//! * [`Caser`] — convolutional sequence embedding (horizontal + vertical
//!   filters over the embedded "image").
//! * [`Gru4Rec`] — a from-scratch GRU unrolled over user sequences.
//! * [`Bert4Rec`] — bidirectional Transformer with a cloze objective.
//! * [`SasRec`] — the self-attentive sequential recommender (also the user
//!   encoder inside CL4SRec); `SASRec_BPR` is [`SasRec::warm_start_items`]
//!   fed with [`BprMf::item_factors`].
//!
//! All models implement [`seqrec_eval::SequenceScorer`] and share the same
//! training options, optimiser (Adam, lr 1e-3) and early-stopping protocol,
//! mirroring §4.1.4.

#![warn(missing_docs)]

pub mod bert4rec;
pub mod bprmf;
pub mod caser;
pub mod checkpoint;
pub mod common;
pub mod encoder;
pub mod fpmc;
pub mod gru4rec;
pub mod ncf;
pub mod pop;
pub mod sasrec;

pub use bert4rec::{Bert4Rec, Bert4RecConfig};
pub use bprmf::{BprMf, BprMfConfig};
pub use caser::{Caser, CaserConfig};
pub use checkpoint::{CheckpointError, Checkpointable};
pub use common::{TrainOptions, TrainReport};
pub use encoder::{EncoderConfig, TransformerEncoder};
pub use fpmc::{Fpmc, FpmcConfig};
pub use gru4rec::{Gru4Rec, Gru4RecConfig};
pub use ncf::{Ncf, NcfConfig};
pub use pop::Pop;
pub use sasrec::SasRec;
