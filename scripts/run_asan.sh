#!/usr/bin/env bash
# Builds the serializer/loader robustness tests under ASan+UBSan and runs
# them: the corrupt-checkpoint sweeps (truncation at every offset, byte
# flips, hostile lengths) and the ragged/non-finite CSV tests must be clean
# of memory errors, not merely return false.
#
#   scripts/run_asan.sh [build-dir]
#
# Uses a dedicated build tree (default build-asan/) so the instrumented
# objects never mix with the regular build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "${BUILD_DIR}" -S . -DSSIN_ADDRESS_SANITIZER=ON
cmake --build "${BUILD_DIR}" -j --target serialize_test csv_loader_test \
  checkpoint_resume_test inference_equivalence_test \
  kernel_differential_test serve_test geo_test knn_shielding_test

echo "== kernel_differential_test (ASan+UBSan) =="
# The SIMD kernels' unrolled tails and row-split partitions must not read
# or write a single byte out of bounds at any sweep shape.
"${BUILD_DIR}/tests/kernel_differential_test"

echo "== serialize_test (ASan+UBSan) =="
"${BUILD_DIR}/tests/serialize_test"

echo "== csv_loader_test (ASan+UBSan) =="
"${BUILD_DIR}/tests/csv_loader_test"

echo "== checkpoint_resume_test (ASan+UBSan) =="
"${BUILD_DIR}/tests/checkpoint_resume_test"

echo "== inference_equivalence_test (ASan+UBSan) =="
# The inference engine's workspace arena and layout cache must be clean of
# memory errors, including across cache invalidation and reuse.
"${BUILD_DIR}/tests/inference_equivalence_test"

echo "== geo_test (ASan+UBSan) =="
# The spatial index's grid-cell arithmetic and ring walks must stay in
# bounds for queries outside the indexed bounding box and degenerate
# (empty / coincident / collinear) point sets.
"${BUILD_DIR}/tests/geo_test"

echo "== knn_shielding_test (ASan+UBSan) =="
# Neighbor-limited plans address SRPE rows by legal-pair index, and
# RelposForPairs decodes their int64 (query, key) codes; every gather
# must be clean.
"${BUILD_DIR}/tests/knn_shielding_test"

echo "== serve_test (ASan+UBSan) =="
# Queued requests, promise lifetimes, and the double-buffered registry
# swap must be clean of use-after-free across shutdown and hot-swap.
"${BUILD_DIR}/tests/serve_test"

echo "ASan run clean."
