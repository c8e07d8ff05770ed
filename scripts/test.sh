#!/usr/bin/env bash
# The tier-1 verification gate.
#
# `cargo test -q` at the repo root runs ONLY the root package's 16
# integration tests, because the workspace root also has a [package]
# section. The kernel suites that actually exercise the blocked GEMM
# engine — linalg unit tests, tests/proptest_linalg.rs, the gradchecks —
# plus every member crate's and shim's tests need `--workspace`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with a real diagnostic if the cd above did not land in the
# workspace root (broken symlink to this script, copied out of the repo,
# partial checkout): otherwise cargo walks up to whatever workspace happens
# to enclose $PWD and "tier-1" silently tests the wrong tree.
if ! grep -qs '^\[workspace\]' Cargo.toml; then
    echo "scripts/test.sh: $PWD is not the seqrec workspace root" >&2
    echo "  (expected a Cargo.toml with a [workspace] section next to scripts/;" >&2
    echo "   run this script from a full checkout, not a copy of the script)" >&2
    exit 2
fi

# The gate compares against the committed golden fixtures; with
# GOLDEN_REGEN set (to any value) it would rewrite them instead and pass.
if [[ -n "${GOLDEN_REGEN+set}" ]]; then
    echo "scripts/test.sh: GOLDEN_REGEN is set (to '${GOLDEN_REGEN}');" >&2
    echo "  the gate checks the committed fixtures and never regenerates them." >&2
    echo "  Unset it, or regenerate on purpose with" >&2
    echo "  GOLDEN_REGEN=1 cargo test --test golden_training" >&2
    exit 2
fi

cargo build --release --workspace
cargo test --workspace -q "$@"
