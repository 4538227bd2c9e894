#!/usr/bin/env bash
# Runs the microbenchmark suite and records the results as JSON.
#
# Usage: bench/run_micro.sh [build-dir] [output-json]
#
# Defaults to ./build and ./BENCH_micro.json (repo root). The JSON is the
# native google-benchmark format; the batched-ingest acceptance numbers
# live in the BM_IngestPerEvent / BM_IngestBatch/* entries
# (items_per_second). The flight-recorder overhead pair lands in
# <build-dir>/bench_micro_metrics.json and is appended to
# BENCH_history.jsonl when desis_inspect is built.
#
# The optimizer suites ride along: bench_correlated (10k-query factor
# rewriting, sidecar BENCH_correlated.json) and bench_query_churn (runtime
# add/remove latency, sidecar BENCH_query_churn.json). Both self-check
# their acceptance contracts (byte-identical results, >= 2x operator-eval
# reduction, full churn histograms) and fail this script on violation;
# their sidecars are appended to BENCH_history.jsonl too. DESIS_BENCH_SCALE
# scales every suite.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_json="${2:-$repo_root/BENCH_micro.json}"
micro_json="$build_dir/bench_micro_metrics.json"
bin="$build_dir/bench/bench_micro"

if [[ ! -x "$bin" ]]; then
  echo "bench_micro not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

DESIS_METRICS_OUT="$micro_json" "$bin" \
  --benchmark_format=json \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

echo "Wrote $out_json"

inspect="$build_dir/tools/desis_inspect"
if [[ -x "$inspect" && -s "$micro_json" ]]; then
  "$inspect" summary "$micro_json"
  "$inspect" history "$micro_json" --append="$repo_root/BENCH_history.jsonl"
fi

# Optimizer and bounded-memory suites: each exits non-zero when its
# acceptance contract fails (set -e propagates that), then lands in the
# shared history file. memory_sweep is the cluster-level budget x
# cardinality grid (BENCH_memory_sweep.json).
for suite in correlated query_churn memory_cap memory_sweep; do
  suite_bin="$build_dir/bench/bench_${suite}"
  suite_json="$repo_root/BENCH_${suite}.json"
  if [[ -x "$suite_bin" ]]; then
    DESIS_METRICS_OUT="$suite_json" "$suite_bin"
    echo "Wrote $suite_json"
    if [[ -x "$inspect" && -s "$suite_json" ]]; then
      "$inspect" summary "$suite_json"
      "$inspect" history "$suite_json" --append="$repo_root/BENCH_history.jsonl"
    fi
  fi
done
