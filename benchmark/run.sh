#!/usr/bin/env bash
# Builds the benchmark from source (release profile, offline) and runs it.
# Run from the repository root:
#
#   benchmark/run.sh --workload pretrain --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh --smoke                 # every workload, tiny, checked
#   benchmark/run.sh compare PARENT/ CHANGE/ # judge two sets of saved runs
#
# The worker pool is pinned to SEQREC_THREADS=2 so runs compare across
# machines; each run records the pool size it used and `compare` refuses
# to mix sizes. Build output goes to stderr; stdout carries only the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/seqrec-bench"

export SEQREC_THREADS=2
if [[ "${1:-}" == "--smoke" ]]; then
    shift
    exec "$bin" smoke "$@"
fi
exec "$bin" "$@"
