//! Neural-network building blocks on top of the tape.

pub(crate) mod embedding;
pub(crate) mod layernorm;
pub(crate) mod linear;
pub(crate) mod param;
pub(crate) mod state;

pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use param::{HasParams, Param, Step};
pub use state::{load_state_dict, state_dict, LoadError, NamedTensor, StateDict};
