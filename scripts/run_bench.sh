#!/usr/bin/env bash
# Runs the recorded benchmark suites:
#  * the attention kernel sweep (paper Figure 7 plus the full-sequence
#    training-step cost at the paper configuration L=123, T=3, H=2,
#    d_k=16) -> BENCH_attention.json, including a
#    "serve_hot_path" summary with the active SIMD ISA, the
#    scalar-vs-SIMD / f64-vs-f32 serving-kernel speedups, and a "fused"
#    block with the fused-kernel speedups and the real Predict /
#    PredictF32 workspace arena bytes (their ceilings are tier-1 tests)
#  * the model-cost bench (paper Table 5) with the serving-throughput
#    section comparing the graph-free inference engine against the
#    autograd forward, plus the accuracy-gated f32 serving mode
#    -> BENCH_inference.json (includes the active SIMD ISA and an
#    embedded "telemetry" snapshot of the serving phase)
#  * the telemetry overhead bench -> BENCH_telemetry_overhead.json
#  * a telemetry-instrumented evaluation pass -> telemetry/telemetry_train.json
#    and telemetry/telemetry_serve.json (versioned metric reports that are also Chrome
#    trace_event files — load them in chrome://tracing or Perfetto)
# All JSON reports land in the repo root and are checked in.
#
# The benches always run from a dedicated `build-bench` tree configured
# Release + native ISA, regardless of how the developer's main `build`
# tree is configured — checked-in numbers must never come from a debug
# binary, and the script refuses to write JSON if the binary reports a
# non-Release library build.
#
#   scripts/run_bench.sh [build-dir] [extra benchmark flags...]
#
# Pass a benchmark filter to restrict the Figure 7 run, e.g.
#   scripts/run_bench.sh build-bench --benchmark_filter=SpaFormerSeq
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-bench}
shift || true

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DSSIN_NATIVE_ARCH=ON \
  >/dev/null
cmake --build "$BUILD" -j --target bench_fig7_attention_kernel \
  --target bench_table5_model_cost --target bench_telemetry_overhead \
  --target bench_serving --target bench_scaling --target quickstart

# Provenance gate: a debug-built benchmark binary must not overwrite the
# checked-in reports. The bench main records the compile flags of the
# ssin kernels as "ssin_build_type" in the JSON context; probe it before
# running anything expensive.
"$BUILD"/bench/bench_fig7_attention_kernel \
  --benchmark_filter='BM_BuildPlan/123$' \
  --benchmark_min_time=0.001 \
  --benchmark_out=.bench_probe.json \
  --benchmark_out_format=json >/dev/null
python3 - <<'EOF'
import json, sys

with open(".bench_probe.json") as f:
    context = json.load(f).get("context", {})
# "library_build_type" describes the system benchmark harness library
# (distro packages ship it debug); "ssin_build_type" records the flags
# this repo's kernels were compiled with — that is the provenance gate.
build_type = context.get("ssin_build_type", "unknown")
if build_type != "release":
    sys.exit("refusing to record benchmarks: ssin_build_type=%r "
             "(want 'release') — the bench tree is misconfigured"
             % build_type)
print("bench provenance OK: ssin_build_type=release, simd_isa=%s"
      % context.get("simd_isa", "unknown"))
EOF
rm -f .bench_probe.json

"$BUILD"/bench/bench_fig7_attention_kernel \
  --benchmark_out=BENCH_attention.json \
  --benchmark_out_format=json \
  --benchmark_repetitions=1 \
  "$@"

# Summarize the serving hot-path family into a top-level "serve_hot_path"
# block: the active ISA (bench main records it in the context), the
# scalar-vs-SIMD / f64-vs-f32 speedups, and the fused block (fusion
# speedups plus the measured Predict / PredictF32 arena bytes), so the
# headline numbers don't have to be re-derived from the raw benchmark
# entries.
python3 - <<'EOF'
import json, sys

with open("BENCH_attention.json") as f:
    report = json.load(f)

build_type = report.get("context", {}).get("ssin_build_type", "unknown")
if build_type != "release":
    sys.exit("refusing to keep BENCH_attention.json: ssin_build_type=%r"
             % build_type)

serve = {
    b["name"]: b
    for b in report.get("benchmarks", [])
    if b["name"].startswith("BM_ServeHotPath_")
}
times = {name: b["real_time"] for name, b in serve.items()}
ns_per_pair = {name: b.get("ns_per_pair") for name, b in serve.items()}
scalar = times.get("BM_ServeHotPath_Scalar")
simd = times.get("BM_ServeHotPath_Simd")
f32 = times.get("BM_ServeHotPath_SimdF32")
if scalar and simd and f32:
    summary = {
        "simd_isa": report.get("context", {}).get("simd_isa", "unknown"),
        "config": "L=123 T=3 H=2 d_k=16 d_ff=256",
        "scalar_us": scalar,
        "simd_f64_us": simd,
        "simd_f32_us": f32,
        "ns_per_pair": ns_per_pair,
        "simd_f64_speedup_vs_scalar": scalar / simd,
        "simd_f32_speedup_vs_scalar": scalar / f32,
        "f32_speedup_vs_f64": simd / f32,
    }
    fused = times.get("BM_ServeHotPath_Fused")
    fused_f32 = times.get("BM_ServeHotPath_FusedF32")
    if fused and fused_f32:
        fused_block = {
            "fused_f64_us": fused,
            "fused_f32_us": fused_f32,
            "fused_f64_speedup_vs_simd": simd / fused,
            "fused_f64_speedup_vs_scalar": scalar / fused,
            "fused_f32_speedup_vs_simd_f32": f32 / fused_f32,
            "arena_bytes_f64": serve["BM_ServeHotPath_Fused"].get(
                "arena_bytes"),
            "arena_bytes_f32": serve["BM_ServeHotPath_FusedF32"].get(
                "arena_bytes"),
        }
        summary["fused"] = fused_block
        print("fused serving: f64 %.1fus (%.2fx vs simd), f32 %.1fus "
              "(%.2fx vs simd f32), arena f64 %.0f / f32 %.0f bytes" % (
                  fused, fused_block["fused_f64_speedup_vs_simd"],
                  fused_f32, fused_block["fused_f32_speedup_vs_simd_f32"],
                  fused_block["arena_bytes_f64"] or 0,
                  fused_block["arena_bytes_f32"] or 0))
    report["serve_hot_path"] = summary
    with open("BENCH_attention.json", "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("serve hot path [%s]: scalar %.1fus, simd f64 %.1fus (%.2fx), "
          "simd f32 %.1fus (%.2fx)" % (
              summary["simd_isa"], scalar, simd,
              summary["simd_f64_speedup_vs_scalar"], f32,
              summary["simd_f32_speedup_vs_scalar"]))
else:
    print("serve hot path: benches filtered out of this run; summary skipped")
EOF

echo "Wrote BENCH_attention.json"

# Neighbor-limited scaling study (ROADMAP item 3): ms-vs-L at L in
# {123, 1k, 5k, 10k} and accuracy-vs-k at L=1000. The bench embeds its own
# ssin_build_type provenance; gate on it, sanity-check the curve, and merge
# it into BENCH_attention.json as the "scaling" block.
SSIN_BENCH_SCALING_JSON=.bench_scaling.json "$BUILD"/bench/bench_scaling
python3 - <<'EOF'
import json, sys

with open(".bench_scaling.json") as f:
    scaling = json.load(f)
if scaling.get("ssin_build_type") != "release":
    sys.exit("refusing to merge scaling block: ssin_build_type=%r"
             % scaling.get("ssin_build_type"))

curve = scaling.get("ms_vs_l", [])
knn = {p["length"]: p for p in curve if p["neighbor_k"] > 0}
if sorted(knn) != [123, 1000, 5000, 10000]:
    sys.exit("scaling ms-vs-L lengths %r != [123, 1k, 5k, 10k]" % sorted(knn))
k = scaling.get("neighbor_k", 0)
for length, p in knn.items():
    if not p.get("timed") or p.get("warm_serve_ms", 0) <= 0:
        sys.exit("scaling point L=%d was not timed" % length)
    if p["pairs"] > length * (k + 2):
        sys.exit("scaling point L=%d has %d pairs, above the O(L*k) bound"
                 % (length, p["pairs"]))

points = scaling.get("accuracy_vs_k", {}).get("points", [])
if [p["neighbor_k"] for p in points] != [4, 8, 16, 32, 64, 0]:
    sys.exit("scaling accuracy sweep ks are wrong: %r"
             % [p["neighbor_k"] for p in points])

with open("BENCH_attention.json") as f:
    report = json.load(f)
report["scaling"] = scaling
with open("BENCH_attention.json", "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print("scaling: " + ", ".join(
    "L=%d %.0fms" % (length, knn[length]["warm_serve_ms"])
    for length in sorted(knn)) + " (k=%d warm serve); accuracy full rmse "
    "%.4f vs k=32 %.4f" % (
        k, [p for p in points if p["neighbor_k"] == 0][0]["rmse"],
        [p for p in points if p["neighbor_k"] == 32][0]["rmse"]))
EOF
rm -f .bench_scaling.json
echo "Merged scaling block into BENCH_attention.json"

SSIN_BENCH_INFERENCE_JSON=BENCH_inference.json \
  "$BUILD"/bench/bench_table5_model_cost

echo "Wrote BENCH_inference.json"

SSIN_BENCH_TELEMETRY_JSON=BENCH_telemetry_overhead.json \
  "$BUILD"/bench/bench_telemetry_overhead

echo "Wrote BENCH_telemetry_overhead.json"

# Serving-core load replay: the throughput-vs-latency curve at the three
# target rates. The bench embeds its own ssin_build_type provenance; gate
# on it the same way as the kernel benches before keeping the report.
SSIN_BENCH_SERVING_JSON=BENCH_serving.json "$BUILD"/bench/bench_serving
python3 - <<'EOF'
import json, sys

with open("BENCH_serving.json") as f:
    report = json.load(f)
if report.get("ssin_build_type") != "release":
    sys.exit("refusing to keep BENCH_serving.json: ssin_build_type=%r"
             % report.get("ssin_build_type"))
curve = report.get("curve", [])
targets = [point.get("target_qps") for point in curve]
if targets != [1000.0, 10000.0, 100000.0]:
    sys.exit("BENCH_serving.json curve targets %r != [1k, 10k, 100k] qps"
             % targets)
for point in curve:
    if point.get("accepted", 0) <= 0 or point.get("p99_us", 0) <= 0:
        sys.exit("BENCH_serving.json curve point %r served nothing"
                 % point.get("target_qps"))
print("serving curve [%s]: " % report.get("simd_isa", "unknown") +
      ", ".join("%gqps -> %.0f achieved, p99 %.0fus, shed %d"
                % (p["target_qps"], p["achieved_qps"], p["p99_us"],
                   p["rejected"]) for p in curve))
EOF

echo "Wrote BENCH_serving.json"

# Telemetry reports from an instrumented end-to-end run (the quickstart
# example runs EvaluateInterpolator with EvalOptions::telemetry on when
# SSIN_TELEMETRY_DIR is set).
SSIN_TELEMETRY_DIR=telemetry "$BUILD"/examples/quickstart >/dev/null

# The serving report must carry the arena gauges (per-call bytes and the
# process-wide peak) — the memory half of the serving story.
python3 - <<'EOF'
import json, sys

with open("telemetry/telemetry_serve.json") as f:
    gauges = json.load(f).get("gauges", {})
for name in ("serve.workspace_arena_bytes", "serve.arena_peak_bytes"):
    if gauges.get(name, 0) <= 0:
        sys.exit("telemetry_serve.json lacks a positive %s gauge" % name)
print("serve arena gauges: per-call %d bytes, peak %d bytes"
      % (gauges["serve.workspace_arena_bytes"],
         gauges["serve.arena_peak_bytes"]))
EOF

echo "Wrote telemetry/telemetry_train.json and telemetry/telemetry_serve.json"
