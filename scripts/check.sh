#!/usr/bin/env bash
# Tier-1 gate, run from anywhere: configure + build + ctest, first in the
# default configuration with FEDCAV_WERROR=ON (the -Wall -Wextra set
# every target gets is an error here, so an orphaned static helper or an
# unused parameter left behind by a deletion fails the gate), then with
# FEDCAV_SANITIZE=ON (ASan+UBSan), and
# finally with FEDCAV_SANITIZE=thread (TSan) over the concurrency-heavy
# suites (thread pool, the round pipeline's WaveScheduler, obs
# tracer/registry, server rounds, the fault-injection chaos/golden
# suites — the retry protocol runs on pool threads, so TSan coverage
# there is mandatory — and the in-memory fabric's Network suite: every
# pool thread reads and reference-counts the round's one shared
# downlink image in phase ①). Kernels are serial (DESIGN.md §13), but
# under TSan they still run concurrently on separate replicas: GoldenRun
# trains lenet5 clients on the multi-worker global pool, and
# RoundEngineServer.*AcrossPoolSizes (selected by "Server") repeats
# rounds at several pool sizes. Each configuration gets its own build
# tree so they never thrash one cache. The plain stage also compares the
# fedbench and cohort_scale smoke digests with the pins in
# scripts/check_digests.py.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local build_dir="$1"
  local filter="$2"
  shift 2
  local cmake_flags=("$@")
  echo "==> configure ${build_dir} ${cmake_flags[*]:-}"
  cmake -B "${build_dir}" -S "${repo}" "${cmake_flags[@]}" >/dev/null
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> ctest ${build_dir}"
  local filter_args=()
  [[ -n "${filter}" ]] && filter_args=(-R "${filter}")
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    "${filter_args[@]}" "${ctest_args[@]}"
}

ctest_args=("$@")

run_config "${repo}/build" "" -DFEDCAV_WERROR=ON
# Cohort-scaling memory gate (replica-pool bound, DESIGN.md §11 + §15):
# a smoke run of the bench enforces that peak round memory does not
# scale with the cohort, up to a 4096-client round, dense and int8, in
# both the plain and sanitized builds. The bench also self-gates --seed
# reproducibility.
echo "==> cohort_scale smoke (plain)"
timeout 300 "${repo}/build/bench/cohort_scale" --smoke \
  --out "${repo}/build/BENCH_cohort_smoke.json"
# Compression ablation (DESIGN.md §13): within each wire codec, uplink
# bytes per round, measured on the wire, must fall strictly as the top-k
# keep ratio falls; the bench exits nonzero otherwise. Under a second.
echo "==> ablation_compression --fast (plain)"
timeout 300 "${repo}/build/bench/ablation_compression" --fast
# Time-boxed chaos-search smoke (DESIGN.md §12): a short adaptive search
# over the fault-plan space must find zero invariant violations. The
# budget keeps this inside a few seconds; the full regression corpus is
# replayed by ctest (label: chaos).
echo "==> chaos_search smoke (plain)"
timeout 300 "${repo}/build/tools/chaos_search" --budget 25 --seed 1
# Multi-process federation smoke (DESIGN.md §14/§16): daemon + workers
# over a real Unix socket, then over an authenticated TCP loopback
# (which also exercises the wrong-token fail-fast reject); the watchdog
# timeout turns a protocol hang into a gate failure instead of a wedged
# CI job.
echo "==> multiproc smoke (plain)"
timeout 300 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build"
echo "==> multiproc smoke, tcp (plain)"
timeout 300 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build" 4 2 tcp
# Frozen-benchmark guard (BENCHMARK.json, fedbench/): the repo benchmark
# builds from this checkout into .bench_build/ and must still run and
# self-check correct (exit 0) on its multi-process TCP workload, the
# dense in-memory fabric at cohort scale (its dense_bytes_exact check
# meters every byte) and the quantized one. One-second runs: about a
# minute cold, seconds warm.
for workload in federation_tcp cohort_mlp_1k cohort_mlp_1k_int8; do
  echo "==> fedbench ${workload} (plain)"
  timeout 600 python3 "${repo}/fedbench/run.py" --workload "${workload}" \
    --seed 1 --seconds 1 --trace 0
done
# Pinned results: those three runs' digests and bytes per round, and the
# cohort_scale smoke's row digests, must equal the values committed in
# scripts/check_digests.py, so a change meant to be byte-identical is
# checked on every run instead of by hand.
echo "==> pinned digests (plain)"
python3 "${repo}/scripts/check_digests.py"

run_config "${repo}/build-sanitize" "" -DFEDCAV_SANITIZE=ON
echo "==> cohort_scale smoke (sanitize)"
timeout 600 "${repo}/build-sanitize/bench/cohort_scale" --smoke \
  --out "${repo}/build-sanitize/BENCH_cohort_smoke.json"
echo "==> chaos_search smoke (sanitize)"
timeout 600 "${repo}/build-sanitize/tools/chaos_search" --budget 10 --seed 1
echo "==> multiproc smoke (sanitize)"
timeout 600 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build-sanitize" 2 2
echo "==> multiproc smoke, tcp (sanitize)"
timeout 600 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build-sanitize" 2 2 tcp

run_config "${repo}/build-tsan" \
  "ThreadPool|WaveScheduler|Obs|CheckpointResume|Server|Integration|Chaos|Faults|GoldenRun|Network" \
  -DFEDCAV_SANITIZE=thread

echo "OK: plain, sanitized, and thread-sanitized tier-1 suites passed"
