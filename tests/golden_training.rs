//! Golden training-step fixtures (tier-1 trajectory pinning).
//!
//! Each scenario in `seqrec_conformance::golden` seeds everything — init,
//! negative sampling, dropout, augmentations — runs six Adam steps on a
//! fixed 4-user batch, and records every step loss as raw f32 bits plus an
//! FNV-1a digest of every final parameter. These tests assert the recorded
//! trajectory matches the fixtures committed under `tests/golden/`
//! **bit-for-bit**, and that two consecutive in-process runs agree, so any
//! engine, RNG, or optimizer change that alters training is caught here
//! rather than showing up later as silent HR/NDCG drift. The fit-level
//! scenarios (`FIT_GOLDENS`) do the same through each model's public fit
//! entry point, one fixture per loop, recording per-epoch losses.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_training
//! ```
//!
//! (exactly `1`: any other value fails the run), then review the fixture
//! diff like any other code change (see TESTING.md).

use seqrec_conformance::golden::{
    run_cl4srec_golden, run_sasrec_golden, GoldenRecord, FIT_GOLDENS,
};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Explains the first divergence between two records in human terms.
fn explain_diff(got: &GoldenRecord, want: &GoldenRecord) -> String {
    for (i, (g, w)) in got.losses.iter().zip(&want.losses).enumerate() {
        if g != w {
            return format!(
                "first divergence at step {i}: loss {} (bits {g:08x}) vs fixture {} (bits {w:08x})",
                f32::from_bits(*g),
                f32::from_bits(*w)
            );
        }
    }
    if got.losses.len() != want.losses.len() {
        return format!(
            "step count changed: {} vs fixture {}",
            got.losses.len(),
            want.losses.len()
        );
    }
    for (g, w) in got.params.iter().zip(&want.params) {
        if g != w {
            return format!(
                "losses match but parameter {:?} digest {:016x} vs fixture {:?} {:016x}",
                g.0, g.1, w.0, w.1
            );
        }
    }
    format!("parameter count changed: {} vs fixture {}", got.params.len(), want.params.len())
}

/// `GOLDEN_REGEN=1` rewrites the fixtures; unset compares against them.
/// Any other value (`0`, empty, `true`, …) fails instead of guessing, so a
/// stray setting can never silently rewrite every fixture.
fn regen_requested() -> bool {
    match std::env::var_os("GOLDEN_REGEN") {
        None => false,
        Some(v) if v == "1" => true,
        Some(v) => panic!(
            "GOLDEN_REGEN={v:?} is not recognised: set GOLDEN_REGEN=1 to regenerate \
             the fixtures, or unset it to check them"
        ),
    }
}

fn check_golden(name: &str, run: impl Fn() -> GoldenRecord) {
    let rec = run();
    let again = run();
    assert_eq!(
        rec,
        again,
        "{name}: two consecutive in-process runs disagree — \
         the training path is nondeterministic ({})",
        explain_diff(&again, &rec)
    );

    let path = fixture_path(name);
    if regen_requested() {
        std::fs::write(&path, rec.to_text())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); generate it with \
             `GOLDEN_REGEN=1 cargo test --test golden_training`",
            path.display()
        )
    });
    let want = GoldenRecord::from_text(&text)
        .unwrap_or_else(|e| panic!("corrupt fixture {}: {e}", path.display()));
    assert_eq!(
        rec,
        want,
        "{name}: training trajectory drifted from the committed fixture. {}\n\
         If the change is intentional, regenerate with \
         `GOLDEN_REGEN=1 cargo test --test golden_training` and review the diff.",
        explain_diff(&rec, &want)
    );
}

/// SASRec: six Adam steps of the next-item BCE loss (Eq. 15), dropout 0.1 —
/// pins init, the forward/backward engine, Adam, and the dropout RNG stream.
#[test]
fn golden_sasrec_trajectory() {
    check_golden("sasrec.golden", run_sasrec_golden);
}

/// CL4SRec: six Adam steps of the joint objective (Eq. 16, λ = 0.1) — pins
/// everything the SASRec scenario does plus the crop/mask/reorder
/// augmentation stream and the NT-Xent branch.
#[test]
fn golden_cl4srec_trajectory() {
    check_golden("cl4srec.golden", run_cl4srec_golden);
}

/// Every fit loop through its public entry point: three epochs on a tiny
/// split with dropout and the validation probe on, per-epoch loss bits plus
/// final parameter digests — pins shuffling, negative sampling, RNG order,
/// tail-batch handling and the `data_parallel: 2` shard paths.
#[test]
fn golden_fit_trajectories() {
    for (name, run) in FIT_GOLDENS {
        check_golden(name, run);
    }
}
