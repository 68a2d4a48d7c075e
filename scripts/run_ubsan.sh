#!/usr/bin/env bash
# Builds the kernel-heavy tests and the serving-core tests under
# UndefinedBehaviorSanitizer (alone, without ASan — see SSIN_UB_SANITIZER)
# and runs them: the SIMD kernels' pointer arithmetic, tail handling, and
# f32 narrowing conversions must be free of UB at every sweep shape,
# including the empty and single-row operands, and so must every
# concurrent serving path, the thread pool and the pooled trainer and
# evaluator.
#
#   scripts/run_ubsan.sh [build-dir]
#
# Uses a dedicated build tree (default build-ubsan/) so the instrumented
# objects never mix with the regular build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "${BUILD_DIR}" -S . -DSSIN_UB_SANITIZER=ON
cmake --build "${BUILD_DIR}" -j --target kernel_differential_test \
  ops_test attention_test inference_equivalence_test geo_test \
  knn_shielding_test serve_test telemetry_test thread_pool_test \
  trainer_test parallel_equivalence_test

echo "== kernel_differential_test (UBSan) =="
"${BUILD_DIR}/tests/kernel_differential_test"

echo "== ops_test (UBSan) =="
"${BUILD_DIR}/tests/ops_test"

echo "== attention_test (UBSan) =="
"${BUILD_DIR}/tests/attention_test"

echo "== inference_equivalence_test (UBSan) =="
"${BUILD_DIR}/tests/inference_equivalence_test"

echo "== geo_test (UBSan) =="
# Grid-cell index arithmetic (negative offsets, clamped casts) must be
# UB-free.
"${BUILD_DIR}/tests/geo_test"

echo "== knn_shielding_test (UBSan) =="
"${BUILD_DIR}/tests/knn_shielding_test"

echo "== serve_test (UBSan) =="
# Admission, coalescing, shutdown drain, hot-swap under load and the
# health monitor, including the paper-config replay at L=123.
"${BUILD_DIR}/tests/serve_test"

echo "== telemetry_test (UBSan) =="
# Window-slot arithmetic on the NowNs clock, reservoir replacement and the
# bucket search must be UB-free.
"${BUILD_DIR}/tests/telemetry_test"

echo "== thread_pool_test (UBSan) =="
"${BUILD_DIR}/tests/thread_pool_test"

echo "== trainer_test (UBSan) =="
# Slot-gradient buffers and their reduction run at every thread count,
# one included.
"${BUILD_DIR}/tests/trainer_test"

echo "== parallel_equivalence_test (UBSan) =="
"${BUILD_DIR}/tests/parallel_equivalence_test"

echo "UBSan run clean."
