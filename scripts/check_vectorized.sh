#!/usr/bin/env bash
# Vectorization gate for src/common/simd.h. GCC compiles one translation
# unit that instantiates every simd::VecOps primitive, once for float and
# once for double, with the flags the root project compiles src/ with (read
# from the build tree's compile_commands.json) plus
# -fopt-info-vec-optimized. The gate fails unless GCC reports "loop
# vectorized" for every '#pragma omp simd' loop of simd.h in both element
# types. A loop the compiler leaves scalar computes the same values, so no
# test can see it: a clamp fused into VecOps::ExpShifted's polynomial loop
# passes every test, gains nothing, and fails here.
#
#   scripts/check_vectorized.sh [build-dir]
#
# Configures build-vec/ (default) with the project's default options
# (SSIN_SIMD=ON); builds nothing else. Needs GCC: -fopt-info is its report.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-vec}"
HEADER=src/common/simd.h

cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

# The compiler and flags of one src/ translation unit, without its -o and
# -c operands.
mapfile -t COMPILE < <(python3 - "${BUILD_DIR}/compile_commands.json" <<'EOF'
import json, shlex, sys

for entry in json.load(open(sys.argv[1])):
    if entry["file"].endswith("src/tensor/ops.cc"):
        args, skip = [], False
        for arg in shlex.split(entry["command"]):
            if skip:
                skip = False
            elif arg in ("-o", "-c"):
                skip = True
            else:
                args.append(arg)
        print("\n".join(args))
        break
EOF
)
if [[ ${#COMPILE[@]} -eq 0 ]]; then
  echo "no compile command for src/tensor/ops.cc in ${BUILD_DIR}" >&2
  exit 1
fi
if ! "${COMPILE[0]}" -v 2>&1 | grep -q '^gcc version'; then
  echo "${COMPILE[0]} is not GCC; the gate reads GCC's -fopt-info" >&2
  exit 1
fi
for arg in "${COMPILE[@]}"; do
  if [[ "${arg}" == -DSSIN_SIMD_DISABLED ]]; then
    echo "${BUILD_DIR} is configured with SSIN_SIMD=OFF" >&2
    exit 1
  fi
done

PROBE="${BUILD_DIR}/vectorize_probe.cc"
cat >"${PROBE}" <<'EOF'
#include "common/simd.h"

namespace ssin::simd {
using T = SSIN_PROBE_T;
template T VecOps::Dot<T>(const T*, const T*, int);
template T VecOps::Dot3<T>(const T*, const T*, const T*, int);
template void VecOps::Axpy<T>(T, const T*, T*, int);
template void VecOps::Axpy4<T>(T, T, T, T, const T*, const T*, const T*,
                               const T*, T*, int);
template void VecOps::Add<T>(const T*, T*, int);
template void VecOps::Relu<T>(T*, int);
template T VecOps::Sum<T>(const T*, int);
template T VecOps::SumSqDiff<T>(const T*, T, int);
template void VecOps::NormScale<T>(const T*, T, T, const T*, const T*, T*,
                                   T*, int);
template void VecOps::ExpShifted<T>(T*, T, int);
}  // namespace ssin::simd
EOF

# Each pragma's loop as a line range: from the pragma to the end of its
# function ("  }" at member indentation) or to the next pragma. GCC reports
# a vectorized loop at its pragma, its "for" or its first statement.
mapfile -t LOOPS < <(awk '
  /^[[:space:]]*#pragma omp simd/ {
    if (start) print start, NR - 1
    start = NR
    next
  }
  start && /^  }$/ { print start, NR; start = 0 }
' "${HEADER}")
if [[ ${#LOOPS[@]} -eq 0 ]]; then
  echo "no '#pragma omp simd' loop found in ${HEADER}" >&2
  exit 1
fi

status=0
for type in float double; do
  if ! report=$("${COMPILE[@]}" -DSSIN_PROBE_T="${type}" \
                  -fopt-info-vec-optimized -c "${PROBE}" -o /dev/null \
                  2>&1); then
    echo "${report}" >&2
    echo "the probe does not compile for ${type}" >&2
    exit 1
  fi
  vectorized=$(grep -o 'simd.h:[0-9]*:[0-9]*: optimized: loop vectorized' \
                 <<<"${report}" | cut -d: -f2 | sort -un || true)
  for range in "${LOOPS[@]}"; do
    read -r first last <<<"${range}"
    found=0
    for line in ${vectorized}; do
      if ((line >= first && line <= last)); then found=1; fi
    done
    if ((!found)); then
      echo "NOT vectorized (${type}): the loop at ${HEADER}:${first}"
      status=1
    fi
  done
done

if [[ ${status} -ne 0 ]]; then
  echo "vectorization gate failed" >&2
  exit 1
fi
echo "All ${#LOOPS[@]} '#pragma omp simd' loops of ${HEADER} vectorized" \
     "for float and double."
