#!/usr/bin/env bash
# The full CI gate: formatting, lints, warning-free docs, then the tier-1 test suite.
#
# Kept strictly ordered cheapest-first so a style slip fails in seconds
# instead of after a release build. Clippy runs with -D warnings across
# every target (tests, benches, examples) — the gate is green or it isn't.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Docs build warning-free too, so a doc link to a deleted or private item
# (or a bracketed citation rustdoc reads as a link) fails the gate.
echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The training path is designed to be bit-identical at any thread count
# (disjoint-write parallelism, dropout chunks seeked into one stream), so
# the whole tier-1 suite — goldens included — runs twice: on the serial
# pool, then on 2 workers. Pinning the first pass keeps the two distinct on
# a 2-core host, where the default pool size is already 2. The release
# build is shared between the passes; only test execution repeats.
echo "== scripts/test.sh (SEQREC_THREADS=1: the serial pool)"
SEQREC_THREADS=1 bash scripts/test.sh

echo "== scripts/test.sh (SEQREC_THREADS=2: thread-count invariance)"
SEQREC_THREADS=2 bash scripts/test.sh

# Tier-1 tests run the debug profile, but the benchmark and the bench bins
# run release (thin LTO). The tensor crate carries the unsafe SIMD kernels
# and the allocator-policy FFI call, so its suite — including the
# resident-memory fault test — also runs optimised.
echo "== seqrec-tensor tests (release profile)"
cargo test --release --offline -p seqrec-tensor -q

# The benchmark package is its own workspace, so the steps above never
# build it — yet it drives the public fit API. Build, unit-test and smoke
# it here so a signature change in crates/* cannot break it silently.
echo "== benchmark package tests"
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "== benchmark smoke (every workload, tiny, checked)"
bash benchmark/run.sh --smoke

# The instrumented smoke runs `table2x`, the experiment binary that trains
# every fit loop (the seven next-item baselines, SASRec_BPR's two stages,
# CL4SRec pre-training and fine-tuning) and evaluates each method, with the
# JSONL sink, the full allocation trace and the exposition dump switched on.
# Its markdown (stdout) and JSON results are kept per pool size and compared
# after the loop.
SMOKE_RUNS="target/ci_smoke_runs"
for SMOKE_THREADS in 1 2; do
echo "== instrumented smoke run of table2x at SEQREC_THREADS=$SMOKE_THREADS (JSONL sink + mem trace + exposition dump + run ledger)"
SMOKE_JSONL="target/ci_smoke_obs_t${SMOKE_THREADS}.jsonl"
SMOKE_EXPO="target/ci_smoke_expo_t${SMOKE_THREADS}.prom"
SMOKE_MD="target/ci_smoke_table2x_t${SMOKE_THREADS}.md"
SMOKE_OUT="target/ci_smoke_table2x_t${SMOKE_THREADS}.json"
rm -rf "$SMOKE_JSONL" "$SMOKE_EXPO" "$SMOKE_MD" "$SMOKE_OUT" "$SMOKE_RUNS"
SEQREC_THREADS="$SMOKE_THREADS" \
SEQREC_OBS="console=silent,jsonl=$SMOKE_JSONL,mem=all,expo=$SMOKE_EXPO" \
    cargo run --offline --release -p seqrec-experiments --bin table2x -- \
    --scale 0.005 --epochs 2 --pretrain-epochs 1 --datasets beauty \
    --runs-dir "$SMOKE_RUNS" --out "$SMOKE_OUT" >"$SMOKE_MD"
python3 - "$SMOKE_JSONL" <<'PY'
import json
import sys

# Every line must parse, every span_begin must meet a matching span_end at
# the same name+depth, durations must be non-negative, and every mem_free
# must pair with a mem_alloc of the same id and size (mem=all: the full
# unsampled allocation stream).
open_spans = {}
live_bufs = {}
events = mem_allocs = mem_frees = 0
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        ev = json.loads(line)  # raises on malformed JSONL
        events += 1
        kind = ev.get("ev")
        if kind == "span_begin":
            key = (ev["tid"], ev["name"], ev["depth"])
            open_spans[key] = open_spans.get(key, 0) + 1
        elif kind == "span_end":
            key = (ev["tid"], ev["name"], ev["depth"])
            assert open_spans.get(key, 0) > 0, f"line {n}: end without begin: {key}"
            open_spans[key] -= 1
            assert ev["dur_us"] >= 0, f"line {n}: negative duration"
        elif kind == "mem_alloc":
            assert ev["id"] not in live_bufs, f"line {n}: duplicate alloc id {ev['id']}"
            assert "path" in ev, f"line {n}: mem_alloc without span path"
            live_bufs[ev["id"]] = ev["bytes"]
            mem_allocs += 1
        elif kind == "mem_free":
            got = live_bufs.pop(ev["id"], None)
            assert got == ev["bytes"], (
                f"line {n}: free of id {ev['id']} with {ev['bytes']}B, allocated with {got}"
            )
            mem_frees += 1
unclosed = {k: c for k, c in open_spans.items() if c}
assert not unclosed, f"unclosed spans: {unclosed}"
assert events > 100, f"suspiciously few telemetry events: {events}"
assert mem_allocs > 100, f"suspiciously few mem events under mem=all: {mem_allocs}"
# No leaks: every traced buffer is freed by exit.
assert not live_bufs, f"{len(live_bufs)} buffers never freed: {sorted(live_bufs)[:5]}..."
print(
    f"smoke run OK: {events} well-formed JSONL events, "
    f"{mem_allocs} allocs / {mem_frees} frees, all paired"
)
PY

# SEQREC_OBS=expo=PATH makes the ObsGuard write the final Prometheus-text
# rendering of the metric registry when the binary exits.
python3 - "$SMOKE_EXPO" <<'PY'
import sys

samples = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)  # raises on a malformed sample line
inf_buckets = {k[: -len('_bucket{le="+Inf"}')]: v for k, v in samples.items()
               if k.endswith('_bucket{le="+Inf"}')}
assert inf_buckets, "no histogram in the exposition dump"
for hist, total in inf_buckets.items():
    count = samples.get(f"{hist}_count")
    assert count == total, f"{hist}: +Inf bucket {total} but _count {count}"
assert samples.get("seqrec_train_batches", 0) > 0, "seqrec_train_batches missing or zero"
assert "seqrec_obs_window_us" in samples, "window-length gauge missing"
print(f"exposition dump OK: {len(samples)} samples, {len(inf_buckets)} histograms consistent")
PY

echo "== seqrec-prof --mem on the smoke trace (peak attribution + what-if report)"
PROF_OUT="$(cargo run --offline --release -p seqrec-obs --bin seqrec-prof -- "$SMOKE_JSONL" --mem --top 5)"
echo "$PROF_OUT" | grep -q "bytes at peak by span path" || { echo "missing peak breakdown"; exit 1; }
echo "$PROF_OUT" | grep -q "what-if arena" || { echo "missing what-if report"; exit 1; }
echo "$PROF_OUT" | head -3

# The span view folds strictly: an unpaired end, a nesting mismatch or a
# span still open at the end of the trace fails the run.
echo "== seqrec-prof span view on the smoke trace (strict span fold + folded stacks)"
SMOKE_FOLDED="target/ci_smoke_folded_t${SMOKE_THREADS}.txt"
rm -f "$SMOKE_FOLDED"
PROF_OUT="$(cargo run --offline --release -p seqrec-obs --bin seqrec-prof -- "$SMOKE_JSONL" --top 5 --folded "$SMOKE_FOLDED")"
echo "$PROF_OUT" | grep -q "== span hierarchy ==" || { echo "missing span hierarchy"; exit 1; }
[ -s "$SMOKE_FOLDED" ] || { echo "empty folded stacks in $SMOKE_FOLDED"; exit 1; }
echo "$PROF_OUT" | head -1
done

# Training and evaluation are bit-exact at any pool size, so the smoke's
# printed tables and its full-precision JSON results must not depend on it.
echo "== table2x smoke output identical at SEQREC_THREADS=1 and 2"
for ext in md json; do
    cmp "target/ci_smoke_table2x_t1.$ext" "target/ci_smoke_table2x_t2.$ext"
done
echo "table2x smoke output OK: markdown and JSON results byte-identical"

echo "== run-ledger validation"
python3 - "$SMOKE_RUNS/table2x-42" <<'PY'
import json
import math
import os
import sys

# The smoke run must leave a complete, parseable ledger behind: config with
# the full argument set, an environment snapshot, the final report, and one
# complete sub-ledger per fit.
root = sys.argv[1]
assert os.path.isdir(root), f"missing ledger directory {root}"

def load(*path):
    with open(os.path.join(root, *path)) as f:
        return json.load(f)

config = load("config.json")
assert config["binary"] == "table2x", config
args = config["args"]
for key in ("scale", "epochs", "pretrain_epochs", "seed", "datasets", "on_anomaly"):
    assert key in args, f"config.json args missing {key!r}"
assert (args["scale"], args["epochs"], args["pretrain_epochs"]) == (0.005, 2, 1), args
assert args["datasets"] == ["beauty"], args

env = load("env.json")
for key in ("os", "arch", "package_version", "unix_time_secs"):
    assert key in env, f"env.json missing {key!r}"
# The surviving ledger is from the SEQREC_THREADS=2 smoke pass: the env
# snapshot must record the override, not the hardware default.
assert env.get("threads_used") == 2, f"env.json threads_used: {env}"
assert env.get("threads_source") == "SEQREC_THREADS", f"env.json threads_source: {env}"

report = load("report.json")
assert len(report) == 1 and report[0]["dataset"] == "beauty", report
methods = [name for name, _ in report[0]["methods"]]
expected = ["Pop", "BPR-MF", "FPMC", "NCF", "GRU4Rec", "Caser", "BERT4Rec",
            "SASRec", "SASRec_BPR", "CL4SRec"]
assert methods == expected, f"report.json methods: {methods}"
for name, m in report[0]["methods"]:
    for v in m["hr"] + m["ndcg"]:
        assert 0.0 <= v <= 1.0, f"{name}: metric {v} outside [0, 1]"

fits = sorted(os.listdir(os.path.join(root, "fits")))
assert len(fits) == 11, f"expected 11 fit ledgers, got {fits}"
for fit in fits:
    r = load("fits", fit, "report.json")
    assert r["anomalous_steps"] == 0, f"{fit}: {r['anomalous_steps']} anomalous steps"
    assert r["epochs"], f"{fit}: no epochs"
    for e in r["epochs"]:
        assert math.isfinite(e["loss"]), f"{fit}: non-finite loss {e['loss']}"
    assert r["peak_tensor_mib"] > 0, f"{fit}: non-positive peak_tensor_mib"
print(f"run ledger OK: {root} (config, env, report with {len(methods)} methods, {len(fits)} fits)")
PY

echo "CI gate green."
