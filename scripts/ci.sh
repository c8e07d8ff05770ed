#!/usr/bin/env bash
# The full CI gate: formatting, lints, then the tier-1 test suite.
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

echo "== scripts/test.sh (default pool size)"
bash scripts/test.sh

# Second pass on a 2-worker pool: the training path is designed to be
# bit-identical at any thread count (disjoint-write parallelism only), so
# the whole tier-1 suite — goldens included — must stay green here. The
# release build is shared with the first pass; only test execution repeats.
echo "== scripts/test.sh (SEQREC_THREADS=2: thread-count invariance)"
SEQREC_THREADS=2 bash scripts/test.sh

# The benchmark package is its own workspace, so the steps above never
# build it — yet it drives the public fit API. Build, unit-test and smoke
# it here so a signature change in crates/* cannot break it silently.
echo "== benchmark package tests"
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "== benchmark smoke (every workload, tiny, checked)"
bash benchmark/run.sh --smoke

SMOKE_RUNS="target/ci_smoke_runs"
for SMOKE_THREADS in 1 2; do
echo "== instrumented smoke train at SEQREC_THREADS=$SMOKE_THREADS (JSONL sink + mem trace + run ledger)"
SMOKE_JSONL="target/ci_smoke_obs_t${SMOKE_THREADS}.jsonl"
rm -rf "$SMOKE_JSONL" "$SMOKE_RUNS"
SEQREC_THREADS="$SMOKE_THREADS" SEQREC_OBS="console=silent,jsonl=$SMOKE_JSONL,mem=all" \
    cargo run --offline --release -p seqrec-experiments --bin bench_train -- \
    --scale 0.005 --epochs 2 --pretrain-epochs 1 --datasets beauty \
    --runs-dir "$SMOKE_RUNS" >/dev/null
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
# The leak sentinel's trace-level twin: every traced buffer freed by exit.
assert not live_bufs, f"{len(live_bufs)} buffers never freed: {sorted(live_bufs)[:5]}..."
print(
    f"smoke train OK: {events} well-formed JSONL events, "
    f"{mem_allocs} allocs / {mem_frees} frees, all paired"
)
PY

echo "== seqrec-prof --mem on the smoke trace (peak attribution + what-if report)"
PROF_OUT="$(cargo run --offline --release -p seqrec-obs --bin seqrec-prof -- "$SMOKE_JSONL" --mem --top 5)"
echo "$PROF_OUT" | grep -q "bytes at peak by span path" || { echo "missing peak breakdown"; exit 1; }
echo "$PROF_OUT" | grep -q "what-if arena" || { echo "missing what-if report"; exit 1; }
echo "$PROF_OUT" | head -3
done

echo "== run-ledger validation"
python3 - "$SMOKE_RUNS/bench_train-42" <<'PY'
import json
import os
import sys

# The smoke run must leave a complete, parseable ledger behind: config with
# the full argument set, an environment snapshot, and the final report.
root = sys.argv[1]
assert os.path.isdir(root), f"missing ledger directory {root}"

with open(os.path.join(root, "config.json")) as f:
    config = json.load(f)
assert config["binary"] == "bench_train", config
for key in ("scale", "epochs", "pretrain_epochs", "seed", "on_anomaly"):
    assert key in config["args"], f"config.json args missing {key!r}"

with open(os.path.join(root, "env.json")) as f:
    env = json.load(f)
for key in ("os", "arch", "package_version", "unix_time_secs"):
    assert key in env, f"env.json missing {key!r}"
# The surviving ledger is from the SEQREC_THREADS=2 smoke pass: the env
# snapshot must record the override, not the hardware default.
assert env.get("threads_used") == 2, f"env.json threads_used: {env}"
assert env.get("threads_source") == "SEQREC_THREADS", f"env.json threads_source: {env}"

with open(os.path.join(root, "report.json")) as f:
    report = json.load(f)
assert report["rows"], "report.json has no benchmark rows"
assert report.get("threads") == 2, f"report.json threads: {report.get('threads')!r}"
for key in ("secs_per_epoch", "seqs_per_sec", "gemm_gflops_per_sec", "peak_mib"):
    assert key in report["rows"][0], f"report row missing {key!r}"
# Memory columns: the what-if floor never exceeds the observed peak (both
# come from the same recorder replay), and the leak sentinel stayed quiet.
for r in report["rows"]:
    m = r["method"]
    assert r["peak_mib"] > 0, f"{m}: non-positive peak_mib"
    assert 0 < r["whatif_peak_mib"] <= r["peak_mib"], (
        f"{m}: whatif_peak_mib {r['whatif_peak_mib']} vs peak_mib {r['peak_mib']}"
    )
    assert r["leaked_mib"] < 0.0625, f"{m}: leak sentinel tripped ({r['leaked_mib']} MiB)"
print(f"run ledger OK: {root} (config, env, report with {len(report['rows'])} rows)")
PY

echo "== serve smoke (train -> checkpoint -> load -> score -> scrape -> report shape)"
SERVE_SMOKE="target/ci_serve_smoke.json"
SERVE_RUNS="target/ci_serve_runs"
SERVE_EXPO="target/ci_serve_expo.prom"
rm -rf "$SERVE_SMOKE" "$SERVE_RUNS" "$SERVE_EXPO"
# --expo makes the bench serve the live exposition endpoint and scrape it
# over real TCP halfway through the request stream; the scrape is parsed
# and validated in-process (crates/obs/src/expo.rs, the same hand-rolled
# parser the tests use) and any malformed or stale snapshot aborts the
# run. SEQREC_OBS=expo additionally dumps the final rendering to a file.
SEQREC_OBS="console=silent,expo=$SERVE_EXPO" \
    cargo run --offline --release -p seqrec-serve --bin bench_serve -- \
    --scale 0.005 --epochs 1 --requests 500 --qps 4000 \
    --expo 127.0.0.1:0 --runs-dir "$SERVE_RUNS" \
    --out "$SERVE_SMOKE" >/dev/null
python3 - "$SERVE_SMOKE" "$SERVE_RUNS/bench_serve-42" "$SERVE_EXPO" <<'PY'
import json
import os
import sys

# The smoke run trains a small SASRec for one epoch, saves it through the
# versioned checkpoint format, loads it back behind AnyModel, and serves a
# paced workload — so a green run certifies the whole serving path. The
# report must have the exact shape `bench_diff --specs serve` gates.
with open(sys.argv[1]) as f:
    report = json.load(f)
assert isinstance(report.get("threads"), int), report.get("threads")
assert report.get("epochs") == 1, "smoke must serve a trained checkpoint"
rows = report["rows"]
assert {r["method"] for r in rows} == {"SASRec", "Pop"}, rows
for r in rows:
    assert r["dataset"] == "beauty", r
    assert r["requests"] == 500, r
    for key in ("p50_us", "p99_us", "mean_us", "items_per_sec"):
        assert r[key] > 0, f"{r['method']}: non-positive {key}"
    assert r["p50_us"] <= r["p99_us"], f"{r['method']}: p50 above p99"
    assert 0.0 <= r["cache_hit_rate"] <= 1.0, r["cache_hit_rate"]
    assert 0 < r["batches"] <= r["requests"], r["batches"]
    for key in ("queue_depth_p50", "queue_depth_p99", "batch_occupancy_mean_pct"):
        assert key in r, f"{r['method']}: missing {key!r}"
    assert r["slo_ok"] in (0.0, 1.0), f"{r['method']}: slo_ok {r['slo_ok']!r}"
    assert r["slo_target_us"] > 0 and r["slo_burn_rate"] >= 0, r

# The serve run ledger must record the SLO verdict per method.
ledger = sys.argv[2]
with open(os.path.join(ledger, "config.json")) as f:
    config = json.load(f)
assert config["bin"] == "bench_serve" and "slo_target_us" in config, config
with open(os.path.join(ledger, "report.json")) as f:
    ledger_report = json.load(f)
verdicts = {r["method"]: r["slo_ok"] for r in ledger_report["rows"]}
assert set(verdicts) == {"SASRec", "Pop"}, verdicts
assert os.path.exists(os.path.join(ledger, "env.json")), "env snapshot missing"

# The offline exposition dump is well-formed Prometheus text: cumulative
# buckets ending in +Inf, a _count per histogram, and the serve series.
with open(sys.argv[3]) as f:
    expo = f.read()
assert "seqrec_serve_requests 500\n" in expo, "cumulative request counter missing"
assert 'seqrec_serve_latency_us_bucket{le="+Inf"}' in expo, "+Inf bucket missing"
assert "seqrec_serve_latency_us_count" in expo, "_count series missing"
assert "seqrec_obs_window_us" in expo, "window-length gauge missing"
print(
    f"serve smoke OK: {len(rows)} rows, SLO verdicts {verdicts}, "
    f"mid-serve scrape validated, exposition dump well-formed"
)
PY

echo "== bench regression gate (smoke tolerances)"
bash scripts/bench_gate.sh --smoke

echo "CI gate green."
