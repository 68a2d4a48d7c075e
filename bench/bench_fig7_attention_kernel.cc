/// Reproduces paper Figure 7: time and memory of the naive full-attention
/// implementation of shielded attention vs. the packed kernel (the CPU
/// analog of the paper's TVM CUDA kernel), as the sequence length L grows
/// with a fixed observed set of 123 stations.
///
/// Expected shape: the naive implementation grows ~quadratically in L in
/// both time and workspace; the packed kernel grows ~linearly in time and
/// its private workspace is orders of magnitude smaller. The paper's
/// absolute numbers (38.6ms / 16.4GB vs 9.2ms / 5.2GB at L=7000 on a
/// V100) differ from CPU numbers; the crossover shape is the target.
///
/// The naive benchmark is capped at L=3000: beyond that its dense
/// [L*L, d] SRPE table alone exceeds a GB, which is exactly the paper's
/// point.
///
/// Beyond the kernel-only sweep, BM_SpaFormerSeq_Optimized measures the
/// cost of a whole training sequence (embeddings + T*H attention
/// invocations, forward AND backward, through SpaFormer::ForwardWithPlan)
/// at the paper configuration L=123, T=3, H=2, d_k=16; the SRPE embedding
/// runs over the legal pairs only.
/// BM_ServeHotPath_* times the graph-free serving arithmetic at the same
/// configuration, composed from the serving chain's row kernels
/// (nn/serving_kernels.h) under simd::ScalarOps (f64) and simd::VecOps
/// (f64, f32), so the vector kernels' speedup on the build's ISA is visible
/// next to the training numbers. The two VecOps benches also report the
/// real workspace arena high-water mark of SpaFormer::Predict (f64) /
/// PredictF32 (f32).
/// scripts/run_bench.sh drives this binary and records
/// BENCH_attention.json (including the active ISA and the derived
/// speedups).
///
/// `--smoke` runs a tier-1 correctness check instead of timings: a tiny
/// model's served predictions must match the autograd forward to 1e-12 in
/// f64 and to the 1e-3 mm f32 serving gate in f32 (exit 1 on the first
/// violation).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/simd.h"
#include "core/inference_engine.h"
#include "core/spaformer.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "nn/inference.h"
#include "nn/serving_kernels.h"
#include "tensor/attention_kernels.h"
#include "tensor/ops.h"

namespace {

using namespace ssin;

constexpr int kDk = 16;
constexpr int kObserved = 123;  // HK station count, as in the paper.

// Deterministic cheap fill (Randn over L^2 * d entries would dominate
// setup time at L=7000).
void Fill(Tensor* t, double salt) {
  for (int64_t i = 0; i < t->numel(); ++i) {
    (*t)[i] = 0.01 * ((i * 37 + static_cast<int64_t>(salt)) % 101) - 0.5;
  }
}

std::vector<uint8_t> MakeObserved(int length) {
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < kObserved && i < length; ++i) observed[i] = 1;
  return observed;
}

// ns per legal attention pair, from a per-iteration pair count.
benchmark::Counter NsPerPair(int64_t pairs_per_iteration) {
  return benchmark::Counter(
      static_cast<double>(pairs_per_iteration) / 1e9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_BuildPlan(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const std::vector<uint8_t> observed = MakeObserved(length);
  AttentionPlan plan;
  for (auto _ : state) {
    BuildAttentionPlan(observed, /*shielded=*/true, &plan);
    benchmark::DoNotOptimize(plan.key_index.data());
  }
  state.counters["pairs"] =
      benchmark::Counter(static_cast<double>(plan.num_pairs()));
}

void BM_FullAttentionNaive(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  Tensor q({length, kDk}), k({length, kDk}), v({length, kDk});
  Tensor c({length * length, kDk});
  Fill(&q, 1);
  Fill(&k, 2);
  Fill(&v, 3);
  Fill(&c, 4);
  const std::vector<uint8_t> observed = MakeObserved(length);
  AttentionConfig cfg;  // SRPE + shielded (mask applied after scoring).
  for (auto _ : state) {
    Tensor z = NaiveAttentionForward(q, k, v, &c, observed, cfg);
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["workspace_MB"] = benchmark::Counter(
      NaiveAttentionWorkspaceBytes(length, kDk, true) / 1e6);
}

void BM_PackedShielded(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  AttentionPlan plan;
  BuildAttentionPlan(MakeObserved(length), /*shielded=*/true, &plan);
  const int pairs = static_cast<int>(plan.num_pairs());
  Tensor q({length, kDk}), k({length, kDk}), v({length, kDk});
  Tensor c({pairs, kDk});  // Packed SRPE: one row per legal pair.
  Fill(&q, 1);
  Fill(&k, 2);
  Fill(&v, 3);
  Fill(&c, 4);
  AttentionConfig cfg;
  AttentionContext ctx;
  for (auto _ : state) {
    Tensor z = PackedAttentionForward(q, k, v, &c, plan, cfg, &ctx);
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["workspace_MB"] = benchmark::Counter(
      PackedAttentionWorkspaceBytes(length, std::min(kObserved, length),
                                    kDk) /
      1e6);
  state.counters["ns_per_pair"] = NsPerPair(pairs);
}

// ------------------------------------------------- full-sequence training

/// One training step's compute for a single sequence (no optimizer):
/// plan build, forward through value/SRPE embeddings, T encoder layers,
/// prediction head, then full backward. Half the stations are masked, the
/// paper's representative self-supervised masking level.
void BM_SpaFormerSeq_Optimized(benchmark::State& state) {
  SpaFormerConfig config;  // L=123 inputs, T=3, H=2, d_k=16 defaults.
  Rng rng(7);
  SpaFormer model(config, &rng);

  const int length = kObserved;
  std::vector<uint8_t> observed(length, 1);
  for (int i = 0; i < length; i += 2) observed[i] = 0;
  AttentionPlan plan;
  BuildAttentionPlan(observed, config.shielded, &plan);

  Tensor x({length, 1}), relpos({static_cast<int>(plan.num_pairs()), 2});
  Tensor abspos({length, 2}), target({length, 1});
  Fill(&x, 1);
  Fill(&relpos, 2);
  Fill(&abspos, 3);
  Fill(&target, 4);

  for (auto _ : state) {
    model.ZeroGrad();
    // Training builds one plan per (dynamically masked) sequence.
    auto step_plan = std::make_shared<AttentionPlan>();
    BuildAttentionPlan(observed, config.shielded, step_plan.get());
    Graph graph;
    Var pred =
        model.ForwardWithPlan(&graph, x, std::move(step_plan), relpos, abspos);
    Var loss = MseLoss(pred, target);
    graph.Backward(loss);
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  // Legal pairs actually scored per step: every layer and head reuses the
  // same per-sequence plan.
  state.counters["ns_per_pair"] = NsPerPair(
      plan.num_pairs() * config.num_layers * config.num_heads);
}

// ------------------------------------------------------ serving hot path

/// One graph-free serving pass at the paper configuration (L=123, T=3,
/// H=2, d_k=16, d_ff=256, 10 query stations), composed from the row
/// kernels of the serving chain (nn/serving_kernels.h) the way
/// nn/serving.cc runs them: one QKV pass over the rows, each head's packed
/// shielded attention written straight into its concat column block, the
/// output projection + residual + LayerNorm per row, and the FFN with its
/// [d_ff] hidden activation in a reusable tile, on one thread like a
/// serving worker. Templated on the Ops policy so the ScalarOps reference
/// and the SIMD arithmetic are timed side by side, in both precisions.
template <typename T, typename Ops>
void RunServeHotPath(benchmark::State& state) {
  constexpr int kLayers = 3;
  constexpr int kHeads = 2;
  constexpr int kDff = 256;
  const int length = kObserved;      // L = 123 HK stations.
  const int num_observed = 113;      // 10 query stations, a serving mix.
  const int d = kDk;
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < num_observed; ++i) observed[i] = 1;
  AttentionPlan plan;
  BuildAttentionPlan(observed, /*shielded=*/true, &plan);
  const int pairs = static_cast<int>(plan.num_pairs());

  auto fill = [](std::vector<T>* v, int64_t salt) {
    for (size_t i = 0; i < v->size(); ++i) {
      (*v)[i] = static_cast<T>(
          0.01 * ((static_cast<int64_t>(i) * 37 + salt) % 101) - 0.5);
    }
  };

  // Per-layer weights (identical values across layers and heads are fine
  // for timing; softmax keeps activations bounded).
  std::vector<T> wq(d * d), wk(d * d), wv(d * d);
  std::vector<T> wo(kHeads * d * d), w1(d * kDff), w2(kDff * d);
  std::vector<T> gamma(d), beta(d);
  std::vector<T> srpe(static_cast<size_t>(pairs) * d);
  fill(&wq, 11);
  fill(&wk, 12);
  fill(&wv, 13);
  fill(&wo, 14);
  fill(&w1, 15);
  fill(&w2, 16);
  fill(&srpe, 17);
  std::fill(gamma.begin(), gamma.end(), T(1));
  std::fill(beta.begin(), beta.end(), T(0));
  const std::vector<const T*> wq_p(kHeads, wq.data());
  const std::vector<const T*> wk_p(kHeads, wk.data());
  const std::vector<const T*> wv_p(kHeads, wv.data());

  const size_t numel = static_cast<size_t>(length) * d;
  std::vector<T> x0(numel), x(numel), x1(numel);
  std::vector<T> q(static_cast<size_t>(kHeads) * numel);
  std::vector<T> kv(static_cast<size_t>(2 * kHeads) * numel);
  std::vector<T> concat(static_cast<size_t>(length) * kHeads * d);
  std::vector<T> hidden(kDff), tmp(d), scores;
  fill(&x0, 1);

  for (auto _ : state) {
    std::copy(x0.begin(), x0.end(), x.begin());
    for (int layer = 0; layer < kLayers; ++layer) {
      fused::FusedQkvProjectRows<T, Ops>(
          x.data(), /*begin=*/0, length, d, /*q_begin=*/0, wq_p.data(),
          wk_p.data(), wv_p.data(), kHeads, d, q.data(), kv.data());
      for (int head = 0; head < kHeads; ++head) {
        PackedAttentionForwardRowsStrided<T, Ops>(
            q.data() + static_cast<size_t>(head) * numel,
            kv.data() + static_cast<size_t>(2 * head) * numel,
            kv.data() + static_cast<size_t>(2 * head + 1) * numel,
            srpe.data(), plan, d, /*tail_begin=*/0, &scores,
            /*alpha_out=*/nullptr,
            concat.data() + static_cast<int64_t>(head) * d,
            /*z_stride=*/int64_t{kHeads} * d);
      }
      fused::FusedAttentionEpilogueRows<T, Ops>(
          concat.data(), length, kHeads * d, wo.data(), /*wo_bias=*/nullptr,
          d, /*residual=*/x.data(), gamma.data(), beta.data(),
          static_cast<T>(1e-5), tmp.data(), x1.data());
      fused::FusedFfnRows<T, Ops>(
          x1.data(), length, d, kDff, w1.data(), /*b1=*/nullptr, w2.data(),
          /*b2=*/nullptr, /*relu=*/true, gamma.data(), beta.data(),
          static_cast<T>(1e-5), hidden.data(), tmp.data(), x.data());
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_pair"] =
      NsPerPair(static_cast<int64_t>(pairs) * kLayers * kHeads);
}

/// Workspace arena high-water mark of one real SpaFormer::Predict (T =
/// double) or PredictF32 (T = float) at the paper serving config (L=123,
/// m=113), measured on a fresh workspace and attached to the VecOps bench
/// of that precision as a counter so BENCH_attention.json carries the
/// memory story next to the timings.
template <typename T>
size_t MeasureServeArena() {
  RainfallGenerator generator(HkRegionConfig());  // 123 gauges.
  SpatialDataset data = generator.GenerateHours(1, 7);
  std::vector<int> observed_ids, query_ids;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i < 113 ? observed_ids : query_ids).push_back(i);
  }
  SpatialContext context;
  context.Build(data, observed_ids);
  SpaFormerConfig config;  // Paper defaults.
  Rng rng(7);
  SpaFormer model(config, &rng);
  InferenceWorkspace layout_ws;
  std::shared_ptr<const SequenceLayout> layout = BuildSequenceLayout(
      &model, context, observed_ids, query_ids, &layout_ws);
  Tensor x({layout->length(), 1});
  Fill(&x, 1);

  InferenceWorkspace ws;
  if constexpr (std::is_same_v<T, float>) {
    F32WeightCache weights;
    model.PredictF32(x, *layout, *weights.EnsureFrom(&model), &ws);
  } else {
    model.Predict(x, *layout, &ws);
  }
  return ws.ArenaBytes();
}

template <typename T>
void RunServeHotPathWithArena(benchmark::State& state) {
  RunServeHotPath<T, simd::VecOps>(state);
  static const size_t arena_bytes = MeasureServeArena<T>();
  state.counters["arena_bytes"] =
      benchmark::Counter(static_cast<double>(arena_bytes));
}

void BM_ServeHotPath_Scalar(benchmark::State& state) {
  // Kernel reference arithmetic: strictly sequential ScalarOps row
  // products and reductions.
  RunServeHotPath<double, simd::ScalarOps>(state);
}

void BM_ServeHotPath_Simd(benchmark::State& state) {
  RunServeHotPathWithArena<double>(state);
}

void BM_ServeHotPath_SimdF32(benchmark::State& state) {
  RunServeHotPathWithArena<float>(state);
}

// ------------------------------------------------------------- smoke mode

/// Tier-1 `--smoke`: serves a tiny untrained model and demands that every
/// prediction match the autograd forward — to 1e-12 in f64, within the
/// 1e-3 mm f32 serving gate in f32 — the bench binary's own correctness
/// gate, run by ctest so a serving-chain regression fails fast without the
/// full benchmark suite.
int RunServingSmoke() {
  constexpr double kF64Tol = 1e-12;
  constexpr double kF32Gate = 1e-3;
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 24;
  region.width_km = 30.0;
  region.height_km = 24.0;
  RainfallGenerator generator(region);
  SpatialDataset data = generator.GenerateHours(4, 7);
  std::vector<int> observed_ids, query_ids;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
  }

  SpaFormerConfig config;
  config.num_layers = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  TrainConfig train_config;
  train_config.seed = 13;
  SsinInterpolator ssin_model(config, train_config);
  ssin_model.Prepare(data, observed_ids);  // Random weights serve fine.

  for (int t = 0; t < data.num_timestamps(); ++t) {
    const std::vector<double> reference =
        ssin_model.InterpolateTimestampAutograd(data.Values(t), observed_ids,
                                                query_ids);
    for (const bool f32 : {false, true}) {
      ssin_model.set_serving_precision(
          f32 ? SsinInterpolator::ServingPrecision::kFloat32
              : SsinInterpolator::ServingPrecision::kFloat64);
      const std::vector<double> served = ssin_model.InterpolateTimestamp(
          data.Values(t), observed_ids, query_ids);
      if (served.size() != reference.size()) {
        std::fprintf(stderr, "smoke FAIL: size mismatch at t=%d\n", t);
        return 1;
      }
      for (size_t i = 0; i < served.size(); ++i) {
        if (!(std::fabs(served[i] - reference[i]) <=
              (f32 ? kF32Gate : kF64Tol))) {
          std::fprintf(stderr,
                       "smoke FAIL: t=%d query %zu %s served=%.17g "
                       "autograd=%.17g\n",
                       t, i, f32 ? "f32" : "f64", served[i], reference[i]);
          return 1;
        }
      }
    }
  }
  std::printf("smoke PASS: served == autograd (f64 <= 1e-12, f32 <= 1e-3) "
              "on %d timestamps\n",
              data.num_timestamps());
  return 0;
}

}  // namespace

BENCHMARK(BM_BuildPlan)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(123)
    ->Arg(1000)
    ->Arg(7000);

BENCHMARK(BM_FullAttentionNaive)
    ->Unit(benchmark::kMillisecond)
    ->Arg(123)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(3000)
    ->Iterations(2);

BENCHMARK(BM_PackedShielded)
    ->Unit(benchmark::kMillisecond)
    ->Arg(123)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(3000)
    ->Arg(5000)
    ->Arg(7000)
    ->Iterations(5);

BENCHMARK(BM_SpaFormerSeq_Optimized)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServeHotPath_Scalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeHotPath_Simd)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeHotPath_SimdF32)->Unit(benchmark::kMicrosecond);

// Custom main (instead of BENCHMARK_MAIN) so the JSON context records
// which ISA the build dispatches to — a BENCH_attention.json is then
// self-describing about what "Simd" meant on the machine that wrote it.
// `--smoke` short-circuits into the served-vs-autograd correctness gate.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunServingSmoke();
  }
  benchmark::AddCustomContext("simd_isa", ssin::simd::IsaName());
  // The stock "library_build_type" context key describes the *benchmark
  // harness library* (distro packages ship it built without NDEBUG), not
  // this repo's code. Record whether the ssin kernels in this binary were
  // compiled with optimization so run_bench.sh can refuse debug-built
  // numbers. (NDEBUG is not the signal: this repo's Release flags are
  // "-O3" without it, keeping assertions alive.)
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("ssin_build_type", "release");
#else
  benchmark::AddCustomContext("ssin_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
