#!/usr/bin/env bash
# Compile-out gate: configures a build with -DSSIN_TELEMETRY=OFF, builds
# every target (library, tests, benches, examples) and runs the tier-1
# ctest suite. Disabled builds turn every SSIN_TRACE_SPAN into a no-op and
# pin telemetry::Enabled() to a constexpr false; the metrics registry and
# the report writers stay compiled and must keep working.
#
#   scripts/check_telemetry_off.sh [build-dir]
#
# Uses a dedicated build tree (default build-notel/) so the telemetry-off
# objects never mix with the regular build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-notel}"
JOBS="$(nproc)"

cmake -B "${BUILD_DIR}" -S . -DSSIN_TELEMETRY=OFF
cmake --build "${BUILD_DIR}" -j "${JOBS}"

(cd "${BUILD_DIR}" && ctest --output-on-failure -j "${JOBS}")

echo "Telemetry-off build compiles and passes ctest."
