#!/usr/bin/env bash
# Builds the threading-sensitive tests under ThreadSanitizer and runs them.
#
#   scripts/run_tsan.sh [build-dir]
#
# Uses a dedicated build tree (default build-tsan/) so the instrumented
# objects never mix with the regular build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . -DSSIN_THREAD_SANITIZER=ON
cmake --build "${BUILD_DIR}" -j --target thread_pool_test \
  parallel_equivalence_test inference_equivalence_test telemetry_test \
  kernel_differential_test serve_test knn_shielding_test

echo "== thread_pool_test (TSan) =="
"${BUILD_DIR}/tests/thread_pool_test"

echo "== telemetry_test (TSan) =="
"${BUILD_DIR}/tests/telemetry_test"

echo "== parallel_equivalence_test (TSan) =="
# Four-thread data-parallel training against the serial run
# (ParallelTrainingEquivalence.FourThreadsMatchSerial).
"${BUILD_DIR}/tests/parallel_equivalence_test"

echo "== kernel_differential_test (TSan) =="
# Single-threaded: the SIMD and serving row kernels against the ScalarOps
# reference, run on the instrumented build (no threading of its own since
# MatMul lost its thread pool).
"${BUILD_DIR}/tests/kernel_differential_test"

echo "== inference_equivalence_test (TSan) =="
# Death tests fork, which TSan dislikes; run the concurrency-relevant ones.
"${BUILD_DIR}/tests/inference_equivalence_test" \
  --gtest_filter=-InferenceValidationDeath.*

echo "== knn_shielding_test (TSan) =="
# SetNeighborK flips plan construction while the layout cache may be read
# from serving threads; the parallel trainer builds per-item limited plans
# concurrently.
"${BUILD_DIR}/tests/knn_shielding_test"

echo "== serve_test (TSan) =="
# The serving core's whole point is concurrency: admission vs batcher vs
# hot-swap promotions must be race-free. TSan is the gate for the queue,
# the registry swap protocol, and the atomic serving-precision toggle.
"${BUILD_DIR}/tests/serve_test"

echo "TSan run clean."
