//! Versioned model checkpoints: binary weights + a JSON manifest.
//!
//! ## Format (`SQRC`, version 1)
//!
//! ```text
//! bytes 0..4    magic  b"SQRC"
//! bytes 4..8    u32 LE format version
//! bytes 8..16   u64 LE manifest byte length
//! manifest      UTF-8 JSON (see below)
//! data          for each manifest param, in order: raw little-endian f32s
//! ```
//!
//! The manifest records the model kind, its hyper-parameters, and one entry
//! per parameter tensor:
//!
//! ```json
//! {"format_version": 1,
//!  "kind": "sasrec",
//!  "config": {"num_items": 10, "d": 16, ...},
//!  "params": [{"name": "enc.item", "shape": [12, 16],
//!              "fnv1a": "cbf29ce484222325"}, ...]}
//! ```
//!
//! `fnv1a` is the same order-sensitive FNV-1a over little-endian f32 bit
//! patterns the golden training fixtures use, so a checkpoint digest can be
//! compared directly against a golden record. [`load`] verifies magic,
//! version, kind, the encoder and Caser configs against their models' shape
//! invariants, every shape against the freshly built skeleton and every
//! digest against the stored bytes — corruption, truncation, impossible
//! configs and version bumps are rejected with a [`CheckpointError`]
//! diagnostic, never a panic.
//! Saving a just-loaded model reproduces the file byte for byte
//! (`tests/checkpoint_roundtrip.rs`).
//!
//! The manifest is parsed with [`seqrec_obs::json`] (the in-tree
//! `serde_json` shim is serialize-only), which is why each model supplies a
//! small hand-rolled config reader in its [`Checkpointable`] impl.

use std::path::Path;

use seqrec_eval::SequenceScorer;
use seqrec_obs::json::{self, Value};
use seqrec_tensor::nn::HasParams;

use crate::{
    Bert4Rec, Bert4RecConfig, BprMf, BprMfConfig, Caser, CaserConfig, EncoderConfig, Fpmc,
    FpmcConfig, Gru4Rec, Gru4RecConfig, Ncf, NcfConfig, Pop, SasRec,
};

/// Magic prefix of every checkpoint file.
pub const MAGIC: &[u8; 4] = b"SQRC";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(String),
    /// Malformed, truncated or trailing bytes; bad magic; manifest errors.
    Format(String),
    /// The file uses a format version this build does not understand.
    Version {
        /// Version recorded in the file header.
        found: u32,
    },
    /// The checkpoint holds a different model kind.
    Kind {
        /// Kind the caller asked to load.
        expected: &'static str,
        /// Kind recorded in the manifest.
        found: String,
    },
    /// A stored tensor's shape disagrees with the rebuilt model skeleton.
    Shape {
        /// Parameter name.
        name: String,
        /// Shape the skeleton expects.
        expected: Vec<usize>,
        /// Shape recorded in the manifest.
        found: Vec<usize>,
    },
    /// A stored tensor's bytes do not match its recorded digest.
    Digest {
        /// Parameter name.
        name: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(e) => write!(f, "invalid checkpoint: {e}"),
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads {FORMAT_VERSION})"
            ),
            CheckpointError::Kind { expected, found } => {
                write!(f, "checkpoint holds a {found:?} model, expected {expected:?}")
            }
            CheckpointError::Shape { name, expected, found } => write!(
                f,
                "parameter {name:?}: stored shape {found:?} does not match the model's {expected:?}"
            ),
            CheckpointError::Digest { name } => {
                write!(f, "parameter {name:?} failed its digest check (corrupt data)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

// FNV-1a over exact f32 bits — the golden-fixture digest
// (`seqrec_conformance::digest`), reimplemented here because conformance
// depends on this crate.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive FNV-1a over the little-endian bit patterns of `xs`.
pub fn digest_f32s(xs: &[f32]) -> u64 {
    let mut hash = FNV_OFFSET;
    for v in xs {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// One named tensor travelling through save/load.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorData {
    /// Parameter name (also the optimizer-state key).
    pub name: String,
    /// Row-major dimensions.
    pub dims: Vec<usize>,
    /// `dims.product()` values.
    pub values: Vec<f32>,
}

/// A model that can be checkpointed.
///
/// `snapshot` and `restore` must use the same stable order (for
/// [`HasParams`] models: visit order — use [`snapshot_params`] /
/// [`restore_params`]); `from_manifest_config` rebuilds a skeleton whose
/// weights `restore` then overwrites, so any init seed is acceptable.
pub trait Checkpointable: Sized {
    /// Stable model-kind tag stored in the manifest.
    const KIND: &'static str;
    /// Hyper-parameter JSON object for the manifest (must round-trip
    /// through `from_manifest_config` losslessly).
    fn manifest_config(&self) -> String;
    /// Every weight tensor, in stable order.
    fn snapshot(&self) -> Vec<TensorData>;
    /// Builds an untrained skeleton from a parsed manifest config.
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError>;
    /// Overwrites the skeleton's weights with checkpoint tensors.
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError>;
}

/// [`Checkpointable::snapshot`] for [`HasParams`] models: visit order.
pub fn snapshot_params<M: HasParams>(model: &M) -> Vec<TensorData> {
    let mut out = Vec::new();
    model.visit(&mut |p| {
        let shape = p.value().shape();
        out.push(TensorData {
            name: p.name().to_string(),
            dims: (0..shape.rank()).map(|i| shape.dim(i)).collect(),
            values: p.value().data().to_vec(),
        });
    });
    out
}

/// [`Checkpointable::restore`] for [`HasParams`] models: pairs tensors with
/// parameters in visit order, verifying names and shapes.
pub fn restore_params<M: HasParams>(
    model: &mut M,
    tensors: Vec<TensorData>,
) -> Result<(), CheckpointError> {
    let mut iter = tensors.into_iter();
    let mut err: Option<CheckpointError> = None;
    model.visit_mut(&mut |p| {
        if err.is_some() {
            return;
        }
        let Some(t) = iter.next() else {
            err = Some(CheckpointError::Format(
                "checkpoint holds fewer parameters than the model".into(),
            ));
            return;
        };
        if t.name != p.name() {
            err = Some(CheckpointError::Format(format!(
                "parameter order mismatch: checkpoint has {:?} where the model has {:?}",
                t.name,
                p.name()
            )));
            return;
        }
        let shape = p.value().shape();
        let expected: Vec<usize> = (0..shape.rank()).map(|i| shape.dim(i)).collect();
        if t.dims != expected {
            err = Some(CheckpointError::Shape { name: t.name, expected, found: t.dims });
            return;
        }
        p.value_mut().data_mut().copy_from_slice(&t.values);
    });
    if let Some(e) = err {
        return Err(e);
    }
    if iter.next().is_some() {
        return Err(CheckpointError::Format(
            "checkpoint holds more parameters than the model".into(),
        ));
    }
    Ok(())
}

/// Serialises `model` into the checkpoint byte format.
pub fn save_to_vec<M: Checkpointable>(model: &M) -> Vec<u8> {
    let snap = model.snapshot();
    let mut params = String::new();
    for (i, t) in snap.iter().enumerate() {
        if i > 0 {
            params.push(',');
        }
        params.push_str("{\"name\":");
        json::write_str(&mut params, &t.name);
        params.push_str(",\"shape\":[");
        for (j, d) in t.dims.iter().enumerate() {
            if j > 0 {
                params.push(',');
            }
            params.push_str(&d.to_string());
        }
        params.push_str(&format!("],\"fnv1a\":\"{:016x}\"}}", digest_f32s(&t.values)));
    }
    let manifest = format!(
        "{{\"format_version\":{FORMAT_VERSION},\"kind\":\"{}\",\"config\":{},\"params\":[{params}]}}",
        M::KIND,
        model.manifest_config(),
    );
    let data_len: usize = snap.iter().map(|t| t.values.len() * 4).sum();
    let mut out = Vec::with_capacity(16 + manifest.len() + data_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
    out.extend_from_slice(manifest.as_bytes());
    for t in &snap {
        for v in &t.values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// Saves `model` to `path`.
pub fn save<M: Checkpointable>(model: &M, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    std::fs::write(path, save_to_vec(model))
        .map_err(|e| CheckpointError::Io(format!("writing {}: {e}", path.display())))
}

/// Header + manifest of a checkpoint byte stream, plus the data offset.
fn parse_manifest(bytes: &[u8]) -> Result<(Value, usize), CheckpointError> {
    if bytes.len() < 16 {
        return Err(CheckpointError::Format(format!(
            "file is {} bytes, shorter than the 16-byte header",
            bytes.len()
        )));
    }
    if &bytes[0..4] != MAGIC {
        return Err(CheckpointError::Format("bad magic (not a seqrec checkpoint)".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let mlen = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    // Checked arithmetic throughout: a corrupt length field must surface as
    // a Format error, not an overflow panic.
    let mbytes = 16usize
        .checked_add(mlen)
        .and_then(|end| bytes.get(16..end))
        .ok_or_else(|| CheckpointError::Format("truncated manifest".into()))?;
    let text = std::str::from_utf8(mbytes)
        .map_err(|e| CheckpointError::Format(format!("manifest is not UTF-8: {e}")))?;
    let manifest =
        json::parse(text).map_err(|e| CheckpointError::Format(format!("manifest JSON: {e}")))?;
    let fv = req_u64(&manifest, "format_version")?;
    if fv != u64::from(FORMAT_VERSION) {
        return Err(CheckpointError::Version { found: fv as u32 });
    }
    Ok((manifest, 16 + mlen))
}

/// The model kind recorded in a checkpoint byte stream, without loading it.
pub fn manifest_kind(bytes: &[u8]) -> Result<String, CheckpointError> {
    let (manifest, _) = parse_manifest(bytes)?;
    Ok(req_str(&manifest, "kind")?.to_string())
}

/// Deserialises a model of kind `M` from checkpoint bytes.
pub fn load_from_bytes<M: Checkpointable>(bytes: &[u8]) -> Result<M, CheckpointError> {
    let (manifest, mut off) = parse_manifest(bytes)?;
    let kind = req_str(&manifest, "kind")?;
    if kind != M::KIND {
        return Err(CheckpointError::Kind { expected: M::KIND, found: kind.to_string() });
    }
    let cfg = manifest
        .get("config")
        .ok_or_else(|| CheckpointError::Format("manifest missing \"config\"".into()))?;
    let entries = manifest
        .get("params")
        .and_then(Value::as_arr)
        .ok_or_else(|| CheckpointError::Format("manifest missing \"params\" array".into()))?;

    let mut tensors = Vec::with_capacity(entries.len());
    for e in entries {
        let name = req_str(e, "name")?.to_string();
        let dims: Vec<usize> = e
            .get("shape")
            .and_then(Value::as_arr)
            .ok_or_else(|| {
                CheckpointError::Format(format!("param {name:?} missing \"shape\" array"))
            })?
            .iter()
            .map(|d| {
                d.as_f64().map(|v| v as usize).ok_or_else(|| {
                    CheckpointError::Format(format!("param {name:?} has a non-numeric dim"))
                })
            })
            .collect::<Result<_, _>>()?;
        let digest_hex = req_str(e, "fnv1a")?;
        let want = u64::from_str_radix(digest_hex, 16).map_err(|_| {
            CheckpointError::Format(format!("param {name:?} has a malformed digest"))
        })?;
        let truncated =
            || CheckpointError::Format(format!("truncated data for parameter {name:?}"));
        let n = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(truncated)?;
        let end = n.checked_mul(4).and_then(|b| off.checked_add(b)).ok_or_else(truncated)?;
        let data = bytes.get(off..end).ok_or_else(truncated)?;
        off = end;
        let values: Vec<f32> = data
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect();
        if digest_f32s(&values) != want {
            return Err(CheckpointError::Digest { name });
        }
        tensors.push(TensorData { name, dims, values });
    }
    if off != bytes.len() {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after the last parameter",
            bytes.len() - off
        )));
    }
    let mut model = M::from_manifest_config(cfg)?;
    model.restore(tensors)?;
    Ok(model)
}

/// Loads a model of kind `M` from `path`.
pub fn load<M: Checkpointable>(path: impl AsRef<Path>) -> Result<M, CheckpointError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::Io(format!("reading {}: {e}", path.display())))?;
    load_from_bytes(&bytes)
}

// --- manifest field readers -------------------------------------------------

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    v.get(key).ok_or_else(|| CheckpointError::Format(format!("manifest missing {key:?}")))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, CheckpointError> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| CheckpointError::Format(format!("manifest field {key:?} is not a string")))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, CheckpointError> {
    req_f64(v, key).map(|f| f as u64)
}

fn req_f64(v: &Value, key: &str) -> Result<f64, CheckpointError> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| CheckpointError::Format(format!("manifest field {key:?} is not a number")))
}

fn req_usize(v: &Value, key: &str) -> Result<usize, CheckpointError> {
    req_u64(v, key).map(|u| u as usize)
}

fn req_f32(v: &Value, key: &str) -> Result<f32, CheckpointError> {
    req_f64(v, key).map(|f| f as f32)
}

/// A manifest's validation failure, as a checkpoint error.
fn invalid_config(e: String) -> CheckpointError {
    CheckpointError::Format(format!("manifest config: {e}"))
}

/// Reads an [`EncoderConfig`] from a manifest object and checks it the way
/// [`crate::TransformerEncoder::new`] does, so a model built from it cannot
/// panic on its shape invariants.
///
/// # Errors
/// [`CheckpointError::Format`] when a field is missing or not a number, or
/// when the configuration fails validation.
pub fn encoder_config(v: &Value) -> Result<EncoderConfig, CheckpointError> {
    let cfg = EncoderConfig {
        num_items: req_usize(v, "num_items")?,
        d: req_usize(v, "d")?,
        heads: req_usize(v, "heads")?,
        layers: req_usize(v, "layers")?,
        max_len: req_usize(v, "max_len")?,
        dropout: req_f32(v, "dropout")?,
    };
    cfg.validate().map_err(invalid_config)?;
    Ok(cfg)
}

// --- per-model impls --------------------------------------------------------

impl Checkpointable for SasRec {
    const KIND: &'static str = "sasrec";
    fn manifest_config(&self) -> String {
        serde_json::to_string(self.encoder().config()).expect("config serializes")
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        Ok(SasRec::new(encoder_config(cfg)?, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Bert4Rec {
    const KIND: &'static str = "bert4rec";
    fn manifest_config(&self) -> String {
        serde_json::to_string(self.config()).expect("config serializes")
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let cfg = Bert4RecConfig {
            encoder: encoder_config(req(cfg, "encoder")?)?,
            mask_prob: req_f64(cfg, "mask_prob")?,
        };
        Ok(Bert4Rec::new(cfg, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Gru4Rec {
    const KIND: &'static str = "gru4rec";
    fn manifest_config(&self) -> String {
        serde_json::to_string(self.config()).expect("config serializes")
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        Ok(Gru4Rec::new(
            Gru4RecConfig {
                num_items: req_usize(cfg, "num_items")?,
                d: req_usize(cfg, "d")?,
                max_len: req_usize(cfg, "max_len")?,
                dropout: req_f32(cfg, "dropout")?,
            },
            0,
        ))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Caser {
    const KIND: &'static str = "caser";
    fn manifest_config(&self) -> String {
        format!(
            "{{\"model\":{},\"num_users\":{}}}",
            serde_json::to_string(self.config()).expect("config serializes"),
            self.num_users(),
        )
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let m = req(cfg, "model")?;
        let heights = req(m, "heights")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Format("\"heights\" is not an array".into()))?
            .iter()
            .map(|h| {
                h.as_f64().map(|v| v as usize).ok_or_else(|| {
                    CheckpointError::Format("\"heights\" holds a non-numeric entry".into())
                })
            })
            .collect::<Result<_, _>>()?;
        let model_cfg = CaserConfig {
            num_items: req_usize(m, "num_items")?,
            d: req_usize(m, "d")?,
            window: req_usize(m, "window")?,
            heights,
            n_h: req_usize(m, "n_h")?,
            n_v: req_usize(m, "n_v")?,
            dropout: req_f32(m, "dropout")?,
        };
        model_cfg.validate().map_err(invalid_config)?;
        Ok(Caser::new(model_cfg, req_usize(cfg, "num_users")?, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Fpmc {
    const KIND: &'static str = "fpmc";
    fn manifest_config(&self) -> String {
        format!(
            "{{\"model\":{},\"num_users\":{},\"num_items\":{}}}",
            serde_json::to_string(self.config()).expect("config serializes"),
            self.num_users(),
            self.num_items(),
        )
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let m = req(cfg, "model")?;
        let model_cfg =
            FpmcConfig { d: req_usize(m, "d")?, weight_decay: req_f32(m, "weight_decay")? };
        Ok(Fpmc::new(model_cfg, req_usize(cfg, "num_users")?, req_usize(cfg, "num_items")?, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Ncf {
    const KIND: &'static str = "ncf";
    fn manifest_config(&self) -> String {
        format!(
            "{{\"model\":{},\"num_users\":{},\"num_items\":{}}}",
            serde_json::to_string(self.config()).expect("config serializes"),
            self.num_users(),
            self.num_items(),
        )
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let m = req(cfg, "model")?;
        let model_cfg = NcfConfig { d: req_usize(m, "d")? };
        Ok(Ncf::new(model_cfg, req_usize(cfg, "num_users")?, req_usize(cfg, "num_items")?, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for BprMf {
    const KIND: &'static str = "bprmf";
    fn manifest_config(&self) -> String {
        format!(
            "{{\"model\":{},\"num_users\":{},\"num_items\":{}}}",
            serde_json::to_string(self.config()).expect("config serializes"),
            self.num_users(),
            self.num_items(),
        )
    }
    fn snapshot(&self) -> Vec<TensorData> {
        snapshot_params(self)
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let m = req(cfg, "model")?;
        let model_cfg =
            BprMfConfig { d: req_usize(m, "d")?, weight_decay: req_f32(m, "weight_decay")? };
        Ok(BprMf::new(model_cfg, req_usize(cfg, "num_users")?, req_usize(cfg, "num_items")?, 0))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        restore_params(self, tensors)
    }
}

impl Checkpointable for Pop {
    const KIND: &'static str = "pop";
    fn manifest_config(&self) -> String {
        format!("{{\"num_items\":{}}}", self.num_items())
    }
    fn snapshot(&self) -> Vec<TensorData> {
        vec![TensorData {
            name: "pop.scores".into(),
            dims: vec![self.scores().len()],
            values: self.scores().to_vec(),
        }]
    }
    fn from_manifest_config(cfg: &Value) -> Result<Self, CheckpointError> {
        let n = req_usize(cfg, "num_items")?;
        Ok(Pop::from_scores(vec![0.0; n + 1], n))
    }
    fn restore(&mut self, tensors: Vec<TensorData>) -> Result<(), CheckpointError> {
        let n = self.num_items();
        let [t] = <[TensorData; 1]>::try_from(tensors).map_err(|v| {
            CheckpointError::Format(format!("pop checkpoint holds {} tensors, expected 1", v.len()))
        })?;
        if t.name != "pop.scores" {
            return Err(CheckpointError::Format(format!(
                "pop checkpoint holds {:?}, expected \"pop.scores\"",
                t.name
            )));
        }
        if t.dims != [n + 1] {
            return Err(CheckpointError::Shape {
                name: t.name,
                expected: vec![n + 1],
                found: t.dims,
            });
        }
        *self = Pop::from_scores(t.values, n);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncoderConfig;

    // The models themselves don't derive `Debug`, so `unwrap_err` is out.
    fn err_of<M: Checkpointable>(bytes: &[u8]) -> CheckpointError {
        match load_from_bytes::<M>(bytes) {
            Ok(_) => panic!("checkpoint unexpectedly loaded"),
            Err(e) => e,
        }
    }

    fn tiny_sasrec() -> SasRec {
        let cfg =
            EncoderConfig { num_items: 7, d: 8, heads: 2, layers: 1, max_len: 4, dropout: 0.1 };
        SasRec::new(cfg, 42)
    }

    #[test]
    fn roundtrip_preserves_every_bit() {
        let model = tiny_sasrec();
        let bytes = save_to_vec(&model);
        let loaded: SasRec = load_from_bytes(&bytes).expect("loads");
        let (a, b) = (model.snapshot(), loaded.snapshot());
        assert_eq!(a, b);
        assert_eq!(save_to_vec(&loaded), bytes, "resave is not byte-identical");
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = save_to_vec(&tiny_sasrec());
        assert_eq!(manifest_kind(&bytes).as_deref(), Ok("sasrec"));
        let err = err_of::<Gru4Rec>(&bytes);
        assert_eq!(err, CheckpointError::Kind { expected: "gru4rec", found: "sasrec".into() });
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = save_to_vec(&tiny_sasrec());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(err_of::<SasRec>(&bytes), CheckpointError::Version { found: 2 });
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let bytes = save_to_vec(&tiny_sasrec());
        let cut = &bytes[..bytes.len() - 5];
        assert!(matches!(err_of::<SasRec>(cut), CheckpointError::Format(_)));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(err_of::<SasRec>(&flipped), CheckpointError::Digest { .. }));
        assert!(matches!(err_of::<SasRec>(b"nope"), CheckpointError::Format(_)));
    }

    #[test]
    fn pop_roundtrips_without_params() {
        let pop = Pop::from_scores(vec![0.0, 3.0, 1.0], 2);
        let loaded: Pop = load_from_bytes(&save_to_vec(&pop)).expect("loads");
        assert_eq!(loaded.scores(), pop.scores());
    }
}
