#!/usr/bin/env bash
# Builds the kernel-heavy tests under UndefinedBehaviorSanitizer (alone,
# without ASan — see SSIN_UB_SANITIZER) and runs them: the SIMD kernels'
# pointer arithmetic, tail handling, and f32 narrowing conversions must be
# free of UB at every sweep shape, including the empty and single-row
# operands.
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
  knn_shielding_test

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

echo "UBSan run clean."
