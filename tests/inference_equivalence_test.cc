/// Pins the contract of the graph-free serving chain: SpaFormer::Predict
/// (through SsinInterpolator::InterpolateTimestamp / InterpolateBatch)
/// reproduces the autograd reference forward to <= 1e-12 across the
/// Table 6 ablation variants, fill modes and thread counts
/// (PredictF32 within the f32 serving gate), and the layout cache serves
/// repeated station sets without rebuilding plans or embeddings — until a
/// weight mutation invalidates it.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "core/inference_engine.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "eval/runner.h"
#include "nn/inference.h"
#include "tensor/attention_kernels.h"

namespace ssin {
namespace {

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 24;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

// Tiny dimensions over `config`'s architecture switches (embeddings,
// position mode, shielding, head count).
SpaFormerConfig TinyModel(SpaFormerConfig config = SpaFormerConfig()) {
  config.num_layers = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(bool mean_fill) {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = 13;
  config.mean_fill = mean_fill;
  return config;
}

struct Fixture {
  Fixture() : generator(TinyRegion()), data(generator.GenerateHours(16, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
    }
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
};

// Accuracy budget for f32 serving on the tiny fixture, in output units
// (mm): single-precision arithmetic through a 2-layer encoder stays well
// under this, and a regression (e.g. accidental f32 accumulation in the
// destandardize path) blows through it.
constexpr double kF32ServingGate = 1e-3;

// ------------------------------------------- engine == autograd reference

struct EquivalenceParams {
  std::string variant;  ///< Table 6 ablation (or head-count) variant.
  SpaFormerConfig model;
  bool mean_fill;
};

// Every Table 6 named constructor plus a single-head model, each with both
// fill modes: the linear-embedding, SAPE, unshielded and one-head paths of
// the serving chain all stay pinned.
std::vector<EquivalenceParams> AllEquivalenceParams() {
  SpaFormerConfig one_head;
  one_head.num_heads = 1;
  const std::vector<std::pair<std::string, SpaFormerConfig>> variants = {
      {"Paper", SpaFormerConfig::Paper()},
      {"EmbPosLinear", SpaFormerConfig::EmbPosLinear()},
      {"EmbInputLinear", SpaFormerConfig::EmbInputLinear()},
      {"EmbBothLinear", SpaFormerConfig::EmbBothLinear()},
      {"WithSape", SpaFormerConfig::WithSape()},
      {"WithoutShield", SpaFormerConfig::WithoutShield()},
      {"NaiveTransformer", SpaFormerConfig::NaiveTransformer()},
      {"OneHead", one_head},
  };
  std::vector<EquivalenceParams> params;
  for (const auto& [name, config] : variants) {
    for (bool mean_fill : {true, false}) {
      params.push_back({name, config, mean_fill});
    }
  }
  return params;
}

class InferenceEquivalence
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(InferenceEquivalence, EngineMatchesAutogradReference) {
  const EquivalenceParams p = GetParam();
  Fixture f;
  SsinInterpolator ssin(TinyModel(p.model),
                        FastTraining(p.mean_fill));
  ssin.Fit(f.data, f.observed_ids);

  for (int t = 0; t < 6; ++t) {
    const std::vector<double> reference = ssin.InterpolateTimestampAutograd(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
    const std::vector<double> engine = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
    const std::vector<double> engine_f32 = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ASSERT_EQ(reference.size(), engine.size());
    ASSERT_EQ(reference.size(), engine_f32.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      EXPECT_NEAR(engine[q], reference[q], 1e-12)
          << "timestamp " << t << " query " << q;
      EXPECT_NEAR(engine_f32[q], reference[q], kF32ServingGate)
          << "f32 timestamp " << t << " query " << q;
    }
  }
}

TEST_P(InferenceEquivalence, BatchMatchesSerialAcrossThreadCounts) {
  const EquivalenceParams p = GetParam();
  Fixture f;
  SsinInterpolator ssin(TinyModel(p.model),
                        FastTraining(p.mean_fill));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  const std::vector<std::vector<double>> serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const std::vector<double> single = ssin.InterpolateTimestamp(
        *batch[i], f.observed_ids, f.query_ids);
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    ASSERT_EQ(serial[i].size(), single.size());
    for (size_t q = 0; q < serial[i].size(); ++q) {
      EXPECT_NEAR(parallel[i][q], serial[i][q], 1e-12);
      EXPECT_NEAR(single[q], serial[i][q], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AblationsAndFillModes, InferenceEquivalence,
    ::testing::ValuesIn(AllEquivalenceParams()),
    [](const ::testing::TestParamInfo<EquivalenceParams>& info) {
      return info.param.variant +
             (info.param.mean_fill ? "MeanFill" : "ZeroFill");
    });

TEST(InferenceEquivalenceTelemetry, TelemetryOnChangesNoPrediction) {
  // The serve-path instrumentation (latency histogram, spans, cache
  // counters) is read-only: predictions with telemetry enabled are
  // bit-identical to a disabled run, serial and parallel.
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  telemetry::SetEnabled(false);
  const std::vector<std::vector<double>> off =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  telemetry::SetEnabled(true);
  const std::vector<std::vector<double>> on_serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> on_parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  telemetry::SetEnabled(false);

  ASSERT_EQ(off.size(), on_serial.size());
  ASSERT_EQ(off.size(), on_parallel.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].size(), on_serial[i].size());
    for (size_t q = 0; q < off[i].size(); ++q) {
      EXPECT_EQ(on_serial[i][q], off[i][q]);  // Bit-identical.
      EXPECT_NEAR(on_parallel[i][q], off[i][q], 1e-12);
    }
  }
  if (telemetry::CompiledIn()) {
    // The per-call latency histogram saw every prediction of the two
    // enabled sweeps.
    EXPECT_GE(telemetry::GetHistogram("serve.predict_us")->Snapshot().count,
              static_cast<int64_t>(2 * batch.size()));
  }
}

// ------------------------------------------------------- layout caching

TEST(LayoutCacheBehavior, RepeatedStationSetHitsWithoutPlanRebuild) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().misses(), 1);
  EXPECT_EQ(ssin.layout_cache().hits(), 0);
  EXPECT_EQ(ssin.layout_cache().size(), 1u);

  // Repeated timestamps with the same station set: the layout (plan,
  // geometry, embedded SRPE) is served from the cache — no plan rebuild.
  const int64_t plans_before = AttentionPlanBuildCount();
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  ssin.InterpolateTimestamp(f.data.Values(2), f.observed_ids, f.query_ids);
  EXPECT_EQ(AttentionPlanBuildCount(), plans_before);
  EXPECT_EQ(ssin.layout_cache().hits(), 2);
  EXPECT_EQ(ssin.layout_cache().misses(), 1);

  // A different station split is a different layout.
  std::vector<int> fewer_observed(f.observed_ids.begin(),
                                  f.observed_ids.end() - 1);
  ssin.InterpolateTimestamp(f.data.Values(0), fewer_observed, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().misses(), 2);
  EXPECT_EQ(ssin.layout_cache().size(), 2u);
}

TEST(LayoutCacheBehavior, WeightMutationsInvalidate) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 1u);

  // Continued training rewrites the weights the cached SRPE was embedded
  // with — the cache must drop it and rebuild on the next request.
  ssin.ContinueTraining(f.data, f.observed_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  const std::vector<double> after_training = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  const std::vector<double> reference = ssin.InterpolateTimestampAutograd(
      f.data.Values(0), f.observed_ids, f.query_ids);
  for (size_t q = 0; q < reference.size(); ++q) {
    EXPECT_NEAR(after_training[q], reference[q], 1e-12);
  }

  // Parameter copy from another model likewise invalidates.
  SsinInterpolator other(TinyModel(), FastTraining(/*mean_fill=*/true));
  other.Fit(f.data, f.observed_ids);
  ssin.CopyParametersFrom(other);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  const std::vector<double> copied = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  const std::vector<double> other_pred = other.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  for (size_t q = 0; q < copied.size(); ++q) {
    EXPECT_NEAR(copied[q], other_pred[q], 1e-12);
  }
}

// ------------------------------------------------- float32 serving mode

TEST(F32ServingTest, GatedEnableMatchesF64WithinBudget) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }

  // Measuring alone must not switch the precision.
  const double delta =
      ssin.MeasureF32ServingDelta(batch, f.observed_ids, f.query_ids);
  EXPECT_LE(delta, kF32ServingGate);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);

  // An unreachable gate keeps f64; the checked-in gate enables f32.
  ssin.EnableF32Serving(batch, f.observed_ids, f.query_ids,
                        /*max_abs_delta=*/-1.0);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);
  const double enabled_delta = ssin.EnableF32Serving(
      batch, f.observed_ids, f.query_ids, kF32ServingGate);
  EXPECT_LE(enabled_delta, kF32ServingGate);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat32);

  // f32 serving is deterministic: serial == parallel bit-for-bit, and both
  // stay within the gate of the f64 reference.
  const std::vector<std::vector<double>> serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
  const std::vector<std::vector<double>> reference =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  ASSERT_EQ(serial.size(), reference.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), reference[i].size());
    for (size_t q = 0; q < serial[i].size(); ++q) {
      EXPECT_EQ(serial[i][q], parallel[i][q]);
      EXPECT_NEAR(serial[i][q], reference[i][q], kF32ServingGate);
    }
  }
}

TEST(F32ServingTest, NonNegativeClampAppliesInF32) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.set_non_negative(true);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);

  // Rainfall data is non-negative, so the fitted dataset turns the clamp
  // on; the f32 path must apply the same f64-side clamp.
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    const std::vector<double> out = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    for (double v : out) EXPECT_GE(v, 0.0);
  }
}

TEST(F32ServingTest, WeightSnapshotConvertsOnceAndInvalidates) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  // Fit leaves no stale snapshot and nothing converted yet.
  EXPECT_TRUE(ssin.f32_weights().empty());
  EXPECT_EQ(ssin.f32_weights().conversions(), 0);

  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  // One conversion serves every subsequent prediction.
  EXPECT_FALSE(ssin.f32_weights().empty());
  EXPECT_EQ(ssin.f32_weights().conversions(), 1);

  // Weight mutations evict the snapshot: continued training...
  const int64_t invalidations_before = ssin.f32_weights().invalidations();
  ssin.ContinueTraining(f.data, f.observed_ids);
  EXPECT_TRUE(ssin.f32_weights().empty());
  EXPECT_GT(ssin.f32_weights().invalidations(), invalidations_before);

  // ...and the next prediction reconverts from the *new* weights: it must
  // agree with the fresh f64 reference, not the stale pre-training one.
  const std::vector<double> f32_pred = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.f32_weights().conversions(), 2);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
  const std::vector<double> f64_pred = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  ASSERT_EQ(f32_pred.size(), f64_pred.size());
  for (size_t q = 0; q < f32_pred.size(); ++q) {
    EXPECT_NEAR(f32_pred[q], f64_pred[q], kF32ServingGate);
  }

  // Checkpoint load and trainer resume are weight mutations too.
  const std::string model_path = ::testing::TempDir() + "f32_model.ssin";
  const std::string trainer_path = ::testing::TempDir() + "f32_trainer.ssin";
  ASSERT_TRUE(ssin.Save(model_path));
  ASSERT_TRUE(ssin.SaveTrainerCheckpoint(trainer_path));

  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_FALSE(ssin.f32_weights().empty());
  ASSERT_TRUE(ssin.Load(model_path));
  EXPECT_TRUE(ssin.f32_weights().empty());

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_FALSE(ssin.f32_weights().empty());
  ASSERT_TRUE(ssin.ResumeTrainerFrom(trainer_path));
  EXPECT_TRUE(ssin.f32_weights().empty());
}

TEST(F32ServingTest, MeasureDeltaRestoresPrecisionUnderConcurrentReaders) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }

  // serving_precision_ is an atomic: threads observing the precision while
  // MeasureF32ServingDelta flips it mid-measurement must only ever see one
  // of the two enumerators (TSan is the gate for this test), and the
  // measurement must restore the caller's precision when it finishes.
  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SsinInterpolator::ServingPrecision p = ssin.serving_precision();
        if (p != SsinInterpolator::ServingPrecision::kFloat64 &&
            p != SsinInterpolator::ServingPrecision::kFloat32) {
          torn_reads.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    ssin.MeasureF32ServingDelta(batch, f.observed_ids, f.query_ids);
    EXPECT_EQ(ssin.serving_precision(),
              SsinInterpolator::ServingPrecision::kFloat32)
        << "measurement " << i << " leaked its precision flip";
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn_reads.load(), 0);
}

TEST(F32ServingTest, ScopedPrecisionRestoreIsExceptionSafe) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);

  // The guard restores on the exceptional exit path — the failure mode the
  // old measure-then-restore-by-hand code had.
  EXPECT_THROW(
      {
        SsinInterpolator::ScopedPrecisionRestore restore(&ssin);
        ssin.set_serving_precision(
            SsinInterpolator::ServingPrecision::kFloat64);
        throw std::runtime_error("mid-measurement failure");
      },
      std::runtime_error);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat32);
}

TEST(ServingArenaPeak, InstancePeakResetsOnWeightMutation) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  SsinInterpolator other(TinyModel(), FastTraining(/*mean_fill=*/true));
  other.Fit(f.data, f.observed_ids);

  EXPECT_EQ(ssin.arena_peak_bytes(), 0u);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  const size_t peak = ssin.arena_peak_bytes();
  EXPECT_GT(peak, 0u);

  // The peak is tied to this instance's serving caches: a weight mutation
  // (hot-swap path) resets it instead of letting a stale high-water mark
  // from the previous weight generation linger...
  ssin.CopyParametersFrom(other);
  EXPECT_EQ(ssin.arena_peak_bytes(), 0u);
  if (telemetry::CompiledIn()) {
    EXPECT_EQ(telemetry::GetGauge("serve.arena_peak_bytes")->Value(), 0.0);
    // ...while the clearly-labeled process-lifetime aggregate stays
    // monotone across the reset.
    EXPECT_GE(telemetry::GetGauge("serve.arena_peak_bytes_process")->Value(),
              static_cast<double>(peak));
  }

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.arena_peak_bytes(), peak);  // Same geometry, same arena.
}

TEST(ServingArenaPeak, EmptyQueryStillObservesLatency) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  // An empty query list is a legal request; the early return that skips
  // the network must not skip the serve.predict_us observation the call
  // already started.
  telemetry::SetEnabled(true);
  const int64_t count_before =
      telemetry::GetHistogram("serve.predict_us")->Snapshot().count;
  const std::vector<double> out = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, /*query_ids=*/{});
  telemetry::SetEnabled(false);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(telemetry::GetHistogram("serve.predict_us")->Snapshot().count,
            count_before + 1);
}

// ------------------------------------------------- arena footprint

TEST(ServingArenaPeak, PaperConfigStaysUnderCeilings) {
  // Workspace arena high-water mark of one prediction at the paper's
  // serving geometry (L=123, m=113, d_ff=256), per precision. The
  // ceilings are the footprint of the serving chain as built: the FFN
  // hidden activation lives in a [d_ff] row tile and the per-head q/k/v
  // projections in two head-major slots, so any new [L, *] intermediate
  // in the arena breaks them.
  RainfallGenerator generator(HkRegionConfig());  // 123 gauges.
  SpatialDataset data = generator.GenerateHours(1, 7);
  std::vector<int> observed_ids, query_ids;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i < 113 ? observed_ids : query_ids).push_back(i);
  }
  SpatialContext context;
  context.Build(data, observed_ids);
  Rng rng(7);
  SpaFormer model(SpaFormerConfig::Paper(), &rng);
  InferenceWorkspace layout_ws;
  std::shared_ptr<const SequenceLayout> layout = BuildSequenceLayout(
      &model, context, observed_ids, query_ids, &layout_ws);
  const Tensor x({layout->length(), 1});

  InferenceWorkspace f64_ws;
  model.Predict(x, *layout, &f64_ws);
  EXPECT_GT(f64_ws.ArenaBytes(), 0u);
  EXPECT_LE(f64_ws.ArenaBytes(), 420560u);

  F32WeightCache f32_weights;
  InferenceWorkspace f32_ws;
  model.PredictF32(x, *layout, *f32_weights.EnsureFrom(&model), &f32_ws);
  EXPECT_GT(f32_ws.ArenaBytes(), 0u);
  EXPECT_LE(f32_ws.ArenaBytes(), 210772u);
}

// ------------------------------------------------- workspace + validation

TEST(InferenceWorkspaceTest, ArenaReusesSlotsAfterReset) {
  InferenceWorkspace ws;
  Tensor* a = ws.Acquire({4, 8});
  Tensor* b = ws.Acquire({4, 8});
  EXPECT_NE(a, b);
  EXPECT_EQ(ws.num_slots(), 2u);

  ws.Reset();
  Tensor* a2 = ws.Acquire({4, 8});
  Tensor* b2 = ws.Acquire({4, 8});
  EXPECT_EQ(a, a2);  // Same storage handed out again.
  EXPECT_EQ(b, b2);
  EXPECT_EQ(ws.num_slots(), 2u);  // Steady state: no growth.

  ws.Reset();
  Tensor* c = ws.Acquire({2, 3});  // Shape change reshapes in place.
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->dim(0), 2);
  EXPECT_EQ(c->dim(1), 3);
}

TEST(InferenceWorkspaceTest, F32ArenaIsIndependentOfF64Arena) {
  InferenceWorkspace ws;
  Tensor* a = ws.Acquire({4, 8});
  TensorF32* fa = ws.AcquireF32({4, 8});
  TensorF32* fb = ws.AcquireF32({2, 2});
  EXPECT_NE(fa, fb);
  EXPECT_EQ(ws.num_slots(), 1u);
  EXPECT_EQ(ws.num_f32_slots(), 2u);
  EXPECT_EQ(ws.ArenaBytes(),
            32 * sizeof(double) + (32 + 4) * sizeof(float));

  ws.Reset();  // Rewinds both cursors.
  EXPECT_EQ(ws.Acquire({4, 8}), a);
  EXPECT_EQ(ws.AcquireF32({4, 8}), fa);
  EXPECT_EQ(ws.num_f32_slots(), 2u);
  (void)a;
}

TEST(InferenceValidationDeath, RejectsMalformedIdLists) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  const std::vector<double>& values = f.data.Values(0);

  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 9999}, {2}),
               "outside station network");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, -1}, {2}),
               "outside station network");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 1}, {2}),
               "duplicate observed id");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 2}, {2}),
               "both observed and queried");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 2}, {3, 3}),
               "queried twice");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {}, {2}),
               "at least one observed");
}

TEST(InferenceValidationDeath, EmptyF32CalibrationBatchRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  // Gating f32 serving on zero calibration points would report delta 0.0
  // and enable the narrowed path with no accuracy evidence at all: loud
  // rejection, not silent enablement.
  EXPECT_DEATH(ssin.EnableF32Serving({}, f.observed_ids, f.query_ids,
                                     kF32ServingGate),
               "empty calibration batch");
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);
}

}  // namespace
}  // namespace ssin
