#!/usr/bin/env bash
# Record the perf baseline for the E1 (tree query), E2 (optimizer ablation +
# vectorization), E3 (federated integration), E9 (end-to-end workflow),
# E10 (multi-session serving), E14 (sharded scale-out), and E15 (adaptive
# planning) benches. Each run writes two artifacts into
# baselines/: BENCH_<name>.json (the process metric registry snapshot via
# --metrics-json) and BENCH_<name>.txt (the human-readable tables), so later
# PRs can diff the perf trajectory against this one. The vectorized
# throughput smoke's row-vs-batch speedup is recorded as text as well, and
# the E16 telemetry timeline (bench_server --telemetry) is recorded as the
# reference artifact for scripts/perf_gate.sh. Every JSON artifact is
# checked to exist and be non-empty; a bench that silently writes nothing
# fails the script.
#
# Usage: scripts/bench_baseline.sh [build-dir]   (default: build)
# Env:
#   BENCH_OUT_DIR  where the artifacts land (default: baselines). Point it
#                  at a scratch dir to snapshot a fresh run for comparison.
#   BENCH_LIST     the metrics-bearing benches to run (default: all five).
#   BENCH_SMOKE    0 skips the vectorized throughput smoke (default: 1).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${BENCH_OUT_DIR:-baselines}"
BENCH_LIST="${BENCH_LIST:-bench_integration bench_end_to_end bench_server \
bench_tree_query bench_optimizer_ablation bench_shard bench_adaptive}"
mkdir -p "${OUT_DIR}"

if [[ ! -d "${BUILD_DIR}" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi
SMOKE="${BENCH_SMOKE:-1}"
SMOKE_TARGET=""
if [[ "${SMOKE}" == "1" ]]; then
  SMOKE_TARGET="bench_vectorized_smoke bench_encoding"
fi
# shellcheck disable=SC2086
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target ${BENCH_LIST} ${SMOKE_TARGET}

for name in ${BENCH_LIST}; do
  bin="${BUILD_DIR}/bench/${name}"
  echo "== ${name} -> ${OUT_DIR}/BENCH_${name}.{json,txt}"
  rm -f "${OUT_DIR}/BENCH_${name}.json"
  "${bin}" --metrics-json="${OUT_DIR}/BENCH_${name}.json" \
    | tee "${OUT_DIR}/BENCH_${name}.txt"
  # A bench that exits zero but writes no registry snapshot would silently
  # record an empty baseline that every later comparison would "pass".
  if [[ ! -s "${OUT_DIR}/BENCH_${name}.json" ]]; then
    echo "bench_baseline: FAIL — ${name} produced no metrics JSON artifact" \
         "at ${OUT_DIR}/BENCH_${name}.json" >&2
    exit 1
  fi
done

if [[ "${SMOKE}" == "1" ]]; then
  echo "== bench_vectorized_smoke -> ${OUT_DIR}/BENCH_bench_vectorized_smoke.txt"
  "${BUILD_DIR}/bench/bench_vectorized_smoke" \
    | tee "${OUT_DIR}/BENCH_bench_vectorized_smoke.txt"
  # E13 encoding sweep: compression ratios are deterministic; timings vary
  # with the machine but the recorded speedups show the trajectory.
  echo "== bench_encoding -> ${OUT_DIR}/BENCH_bench_encoding.txt"
  "${BUILD_DIR}/bench/bench_encoding" \
    | tee "${OUT_DIR}/BENCH_bench_encoding.txt"
fi

# E12 memory-pressure saturation sweep: virtual clock, so the recorded
# table is bit-stable and diffable across PRs. Skipped on targeted
# re-records whose BENCH_LIST leaves bench_server unbuilt.
if [[ " ${BENCH_LIST} " == *" bench_server "* ]]; then
  echo "== bench_server --memsweep -> ${OUT_DIR}/BENCH_bench_server_memsweep.txt"
  "${BUILD_DIR}/bench/bench_server" --memsweep \
    | tee "${OUT_DIR}/BENCH_bench_server_memsweep.txt"

  # E16 telemetry timeline: the brown-out scenario on the virtual clock is
  # bit-deterministic, so the recorded timeline + alert transitions are the
  # reference artifact for scripts/perf_gate.sh.
  echo "== bench_server --telemetry -> ${OUT_DIR}/BENCH_bench_server_timeline.json"
  rm -f "${OUT_DIR}/BENCH_bench_server_timeline.json"
  "${BUILD_DIR}/bench/bench_server" --telemetry \
    --timeline-json="${OUT_DIR}/BENCH_bench_server_timeline.json" \
    | tee "${OUT_DIR}/BENCH_bench_server_telemetry.txt"
  if [[ ! -s "${OUT_DIR}/BENCH_bench_server_timeline.json" ]]; then
    echo "bench_baseline: FAIL — bench_server --telemetry produced no" \
         "timeline artifact" >&2
    exit 1
  fi
fi

echo "baselines written to ${OUT_DIR}/"
