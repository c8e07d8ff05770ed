//! Checkpoint format contract, for every model in the zoo:
//!
//! * save → load → save is **byte-identical** (the format is a pure
//!   function of the weights, with no ambient state leaking in);
//! * the loaded model's forward pass is **bit-exact** against the
//!   original on a fixed batch;
//! * corrupted, truncated, or version-bumped files, and manifests whose
//!   config no model could be built from, are rejected with a
//!   [`CheckpointError`] diagnostic — never a panic, never a silent load.

use cp4rec_repro::cl4srec::model::{Cl4sRec, Cl4sRecConfig};
use cp4rec_repro::data::synthetic::{generate_dataset, SyntheticConfig};
use cp4rec_repro::data::Split;
use cp4rec_repro::eval::SequenceScorer;
use cp4rec_repro::models::checkpoint::{load_from_bytes, save_to_vec, CheckpointError};
use cp4rec_repro::models::{
    Bert4Rec, Bert4RecConfig, BprMf, BprMfConfig, Caser, CaserConfig, Checkpointable,
    EncoderConfig, Fpmc, FpmcConfig, Gru4Rec, Gru4RecConfig, Ncf, NcfConfig, Pop, SasRec,
};
use proptest::prelude::*;

fn setup() -> (Split, usize) {
    let mut cfg = SyntheticConfig::beauty(0.01);
    cfg.num_users = 120;
    let dataset = generate_dataset(&cfg);
    let n = dataset.num_items();
    (Split::leave_one_out(&dataset), n)
}

fn enc(n: usize) -> EncoderConfig {
    EncoderConfig { num_items: n, d: 16, heads: 2, layers: 1, max_len: 10, dropout: 0.1 }
}

/// save → load → save byte-identical, and the loaded forward bit-exact.
fn check_roundtrip<M: Checkpointable + SequenceScorer>(model: &M, split: &Split) {
    let bytes = save_to_vec(model);
    let loaded: M = match load_from_bytes(&bytes) {
        Ok(m) => m,
        Err(e) => panic!("{} checkpoint failed to load: {e}", M::KIND),
    };
    assert_eq!(
        save_to_vec(&loaded),
        bytes,
        "{}: resaving a loaded checkpoint must be byte-identical",
        M::KIND
    );
    let users = [0usize, 1, split.num_users() - 1];
    let inputs: Vec<Vec<u32>> = users.iter().map(|&u| split.test_input(u)).collect();
    let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
    let original = model.score_full_catalog(&users, &refs);
    let reloaded = loaded.score_full_catalog(&users, &refs);
    for (a, b) in original.iter().zip(&reloaded) {
        let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{}: loaded model's forward is not bit-exact", M::KIND);
    }
}

#[test]
fn every_model_roundtrips_bit_exactly() {
    let (split, n) = setup();
    let users = split.num_users();
    check_roundtrip(&Pop::fit(&split), &split);
    check_roundtrip(&BprMf::new(BprMfConfig { d: 16, ..Default::default() }, users, n, 1), &split);
    check_roundtrip(&Ncf::new(NcfConfig { d: 16 }, users, n, 2), &split);
    check_roundtrip(&Fpmc::new(FpmcConfig { d: 16, ..Default::default() }, users, n, 3), &split);
    check_roundtrip(
        &Caser::new(
            CaserConfig {
                num_items: n,
                d: 16,
                window: 4,
                heights: vec![2, 3],
                n_h: 4,
                n_v: 2,
                dropout: 0.1,
            },
            users,
            4,
        ),
        &split,
    );
    check_roundtrip(
        &Gru4Rec::new(Gru4RecConfig { num_items: n, d: 16, max_len: 10, dropout: 0.1 }, 5),
        &split,
    );
    check_roundtrip(&Bert4Rec::new(Bert4RecConfig { encoder: enc(n), mask_prob: 0.3 }, 6), &split);
    check_roundtrip(&SasRec::new(enc(n), 7), &split);
    check_roundtrip(&Cl4sRec::new(Cl4sRecConfig { encoder: enc(n), tau: 0.5 }, 8), &split);
}

#[test]
fn kind_and_version_mismatches_are_diagnosed() {
    let (split, n) = setup();
    let bytes = save_to_vec(&SasRec::new(enc(n), 7));
    match load_from_bytes::<Gru4Rec>(&bytes) {
        Err(CheckpointError::Kind { expected, found }) => {
            assert_eq!((expected, found.as_str()), ("gru4rec", "sasrec"));
        }
        Err(e) => panic!("wrong error for a kind mismatch: {e}"),
        Ok(_) => panic!("a sasrec checkpoint must not load as gru4rec"),
    }
    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&9u32.to_le_bytes());
    match load_from_bytes::<SasRec>(&bumped) {
        Err(CheckpointError::Version { found: 9 }) => {}
        Err(e) => panic!("wrong error for a version bump: {e}"),
        Ok(_) => panic!("a future format version must not load"),
    }
    let _ = split;
}

/// Rewrites the first `from` in a checkpoint to the same-length `to`, so the
/// header's manifest length and every weight digest stay valid.
fn patch_manifest(mut bytes: Vec<u8>, from: &str, to: &str) -> Vec<u8> {
    assert_eq!(from.len(), to.len(), "an in-place patch must keep the manifest length");
    let at = bytes
        .windows(from.len())
        .position(|w| w == from.as_bytes())
        .unwrap_or_else(|| panic!("{from} not found in the manifest"));
    bytes[at..at + from.len()].copy_from_slice(to.as_bytes());
    bytes
}

/// Loading `bytes` as `M` fails with a format error that names `field`.
fn assert_invalid_config<M: Checkpointable>(bytes: &[u8], field: &str) {
    match load_from_bytes::<M>(bytes) {
        Err(CheckpointError::Format(msg)) => {
            assert!(msg.contains(field), "{}: error does not name {field:?}: {msg}", M::KIND);
        }
        Err(e) => panic!("{}: wrong error for an invalid config: {e}", M::KIND),
        Ok(_) => panic!("{}: a checkpoint with an invalid config loaded", M::KIND),
    }
}

/// A manifest config that breaks a model's shape invariants (three heads
/// for d = 16, a Caser filter taller than its window) is a format error,
/// not a panic in the model constructor.
#[test]
fn invalid_manifest_configs_are_rejected() {
    let (split, n) = setup();
    let heads3 = |bytes| patch_manifest(bytes, "\"heads\":2", "\"heads\":3");
    let sasrec = save_to_vec(&SasRec::new(enc(n), 7));
    assert_invalid_config::<SasRec>(&heads3(sasrec), "heads");
    let bert = save_to_vec(&Bert4Rec::new(Bert4RecConfig { encoder: enc(n), mask_prob: 0.3 }, 6));
    assert_invalid_config::<Bert4Rec>(&heads3(bert), "heads");
    let cl4srec = save_to_vec(&Cl4sRec::new(Cl4sRecConfig { encoder: enc(n), tau: 0.5 }, 8));
    assert_invalid_config::<Cl4sRec>(&heads3(cl4srec), "heads");
    let caser_cfg = CaserConfig {
        num_items: n,
        d: 16,
        window: 4,
        heights: vec![2, 3],
        n_h: 4,
        n_v: 2,
        dropout: 0.1,
    };
    let caser = save_to_vec(&Caser::new(caser_cfg, split.num_users(), 4));
    let tall = patch_manifest(caser, "\"heights\":[2,3]", "\"heights\":[2,5]");
    assert_invalid_config::<Caser>(&tall, "heights");
}

fn small_checkpoint() -> Vec<u8> {
    let cfg = EncoderConfig { num_items: 9, d: 8, heads: 2, layers: 1, max_len: 6, dropout: 0.1 };
    save_to_vec(&SasRec::new(cfg, 11))
}

proptest! {
    /// Every strict prefix of a checkpoint is rejected with an error —
    /// truncation can never panic or load.
    #[test]
    fn truncation_is_always_rejected(cut in 0usize..4096) {
        let bytes = small_checkpoint();
        let cut = cut % bytes.len();
        match load_from_bytes::<SasRec>(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncated checkpoint loaded at {cut}/{}", bytes.len()),
        }
    }

    /// Flipping any byte of the header or the weight data is rejected with
    /// an error (digest or format check); flips inside the JSON manifest
    /// must at worst error — nothing may panic.
    #[test]
    fn corruption_never_panics(offset in 0usize..65536, mask in 1u8..=255) {
        let mut bytes = small_checkpoint();
        let manifest_len =
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let offset = offset % bytes.len();
        bytes[offset] ^= mask;
        let result = load_from_bytes::<SasRec>(&bytes);
        if offset < 16 || offset >= 16 + manifest_len {
            // Header and data corruption is always caught: magic/version
            // checks up front, per-tensor digests behind the manifest.
            prop_assert!(result.is_err(), "corrupt byte {offset} loaded silently");
        }
        // Manifest corruption may legitimately parse (e.g. a flipped digit
        // inside a hyper-parameter) — reaching here without a panic is the
        // property under test.
    }
}
