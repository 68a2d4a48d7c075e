#!/usr/bin/env bash
# Scalar-build gate: configures a build with -DSSIN_SIMD=OFF, builds every
# target (library, tests, benches, examples) and runs the tier-1 ctest
# suite. The OFF build adds no ISA flags and no -fopenmp-simd, and
# simd::VecOps is an alias of simd::ScalarOps there, so production runs the
# reference arithmetic (kernel_differential_test pins the alias). Without
# -fopenmp-simd a compiled '#pragma omp simd' is an unknown pragma, so the
# gate makes that warning an error.
#
#   scripts/check_simd_off.sh [build-dir]
#
# Uses a dedicated build tree (default build-nosimd/) so the scalar objects
# never mix with the regular build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-nosimd}"
JOBS="$(nproc)"

cmake -B "${BUILD_DIR}" -S . -DSSIN_SIMD=OFF \
  -DCMAKE_CXX_FLAGS=-Werror=unknown-pragmas
cmake --build "${BUILD_DIR}" -j "${JOBS}"

(cd "${BUILD_DIR}" && ctest --output-on-failure -j "${JOBS}")

echo "SIMD-off build compiles and passes ctest."
