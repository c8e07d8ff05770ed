//! Kind-dispatched checkpoint loading: any model in the zoo behind one
//! [`StatefulScorer`] value.

use std::path::Path;

use cl4srec::model::Cl4sRec;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_models::checkpoint::{load_from_bytes, manifest_kind, CheckpointError, Checkpointable};
use seqrec_models::{Bert4Rec, BprMf, Caser, Fpmc, Gru4Rec, Ncf, Pop, SasRec};

/// Any checkpointable model in the zoo.
// One long-lived value per serving process; the variant size spread is
// irrelevant and boxing would only add a pointer chase per dispatch.
#[allow(clippy::large_enum_variant)]
pub enum AnyModel {
    /// Popularity baseline.
    Pop(Pop),
    /// BPR matrix factorisation.
    BprMf(BprMf),
    /// Neural collaborative filtering.
    Ncf(Ncf),
    /// Factorised personalised Markov chain.
    Fpmc(Fpmc),
    /// Convolutional sequence embedding.
    Caser(Caser),
    /// GRU session encoder.
    Gru4Rec(Gru4Rec),
    /// Bidirectional transformer.
    Bert4Rec(Bert4Rec),
    /// Unidirectional transformer.
    SasRec(SasRec),
    /// Contrastive-pretrained SASRec.
    Cl4sRec(Cl4sRec),
}

macro_rules! dispatch {
    ($self:expr, $m:pat => $body:expr) => {
        match $self {
            AnyModel::Pop($m) => $body,
            AnyModel::BprMf($m) => $body,
            AnyModel::Ncf($m) => $body,
            AnyModel::Fpmc($m) => $body,
            AnyModel::Caser($m) => $body,
            AnyModel::Gru4Rec($m) => $body,
            AnyModel::Bert4Rec($m) => $body,
            AnyModel::SasRec($m) => $body,
            AnyModel::Cl4sRec($m) => $body,
        }
    };
}

impl AnyModel {
    /// Loads whichever model kind the checkpoint's manifest declares.
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let kind = manifest_kind(bytes)?;
        match kind.as_str() {
            Pop::KIND => Ok(AnyModel::Pop(load_from_bytes(bytes)?)),
            BprMf::KIND => Ok(AnyModel::BprMf(load_from_bytes(bytes)?)),
            Ncf::KIND => Ok(AnyModel::Ncf(load_from_bytes(bytes)?)),
            Fpmc::KIND => Ok(AnyModel::Fpmc(load_from_bytes(bytes)?)),
            Caser::KIND => Ok(AnyModel::Caser(load_from_bytes(bytes)?)),
            Gru4Rec::KIND => Ok(AnyModel::Gru4Rec(load_from_bytes(bytes)?)),
            Bert4Rec::KIND => Ok(AnyModel::Bert4Rec(load_from_bytes(bytes)?)),
            SasRec::KIND => Ok(AnyModel::SasRec(load_from_bytes(bytes)?)),
            Cl4sRec::KIND => Ok(AnyModel::Cl4sRec(load_from_bytes(bytes)?)),
            other => {
                Err(CheckpointError::Format(format!("unknown model kind {other:?} in manifest")))
            }
        }
    }

    /// Loads a checkpoint file of any known kind.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("reading {}: {e}", path.display())))?;
        Self::load_from_bytes(&bytes)
    }

    /// The manifest kind tag of the wrapped model.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyModel::Pop(_) => Pop::KIND,
            AnyModel::BprMf(_) => BprMf::KIND,
            AnyModel::Ncf(_) => Ncf::KIND,
            AnyModel::Fpmc(_) => Fpmc::KIND,
            AnyModel::Caser(_) => Caser::KIND,
            AnyModel::Gru4Rec(_) => Gru4Rec::KIND,
            AnyModel::Bert4Rec(_) => Bert4Rec::KIND,
            AnyModel::SasRec(_) => SasRec::KIND,
            AnyModel::Cl4sRec(_) => Cl4sRec::KIND,
        }
    }
}

impl SequenceScorer for AnyModel {
    fn num_items(&self) -> usize {
        dispatch!(self, m => m.num_items())
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        dispatch!(self, m => m.score_full_catalog(users, inputs))
    }
}

impl StatefulScorer for AnyModel {
    fn state_dim(&self) -> usize {
        dispatch!(self, m => m.state_dim())
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        dispatch!(self, m => m.encode_users(users, inputs))
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        dispatch!(self, m => m.score_states(states))
    }
    fn num_users(&self) -> Option<usize> {
        dispatch!(self, m => StatefulScorer::num_users(m))
    }
}
