/// Proves the determinism contract of the thread-parallel paths: with a
/// fixed seed, multi-threaded training and evaluation reproduce the
/// single-threaded results — epoch losses and metrics bit-identically
/// (they are reduced in item/timestamp order), final parameters to 1e-12
/// (per-slot gradient buffers change only the fp association of the
/// batch-gradient sum).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/idw.h"
#include "baselines/kriging.h"
#include "baselines/tin.h"
#include "baselines/tps.h"
#include "common/telemetry.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "eval/runner.h"

namespace ssin {
namespace {

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 26;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 1;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(int num_threads) {
  TrainConfig config;
  config.epochs = 3;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 30;
  config.lr_factor = 0.2;
  config.seed = 11;
  config.num_threads = num_threads;
  return config;
}

/// Trains a fresh tiny model with the given thread count and masking mode
/// and returns (epoch losses, flattened final parameters).
std::pair<std::vector<double>, std::vector<double>> TrainOnce(
    const SpatialDataset& data, const std::vector<int>& train_ids,
    int num_threads, bool dynamic_masking) {
  TrainConfig config = FastTraining(num_threads);
  config.dynamic_masking = dynamic_masking;
  SsinInterpolator ssin(TinyModel(), config);
  ssin.Fit(data, train_ids);
  std::vector<double> flat;
  for (Parameter* p : ssin.model()->Parameters()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      flat.push_back(p->value[i]);
    }
  }
  return {ssin.train_stats().epoch_loss, flat};
}

class ParallelTrainingEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelTrainingEquivalence, FourThreadsMatchSerial) {
  const bool dynamic_masking = GetParam();
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(20, 1);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);

  const auto [serial_loss, serial_params] =
      TrainOnce(data, train_ids, /*num_threads=*/1, dynamic_masking);
  const auto [parallel_loss, parallel_params] =
      TrainOnce(data, train_ids, /*num_threads=*/4, dynamic_masking);

  ASSERT_EQ(serial_loss.size(), parallel_loss.size());
  for (size_t e = 0; e < serial_loss.size(); ++e) {
    EXPECT_NEAR(parallel_loss[e], serial_loss[e], 1e-12) << "epoch " << e;
  }
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_NEAR(parallel_params[i], serial_params[i], 1e-12)
        << "parameter scalar " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(DynamicAndStaticMasking,
                         ParallelTrainingEquivalence,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DynamicMasking"
                                             : "StaticMasking";
                         });

TEST(ParallelEvalEquivalence, RunnerMatchesSerialBitwise) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(30, 2);
  std::vector<int> train_ids, test_ids;
  for (int i = 0; i < 26; ++i) {
    (i % 5 == 4 ? test_ids : train_ids).push_back(i);
  }
  NodeSplit split;
  split.train_ids = train_ids;
  split.test_ids = test_ids;

  SsinInterpolator ssin(TinyModel(), FastTraining(/*num_threads=*/2));
  ssin.Fit(data, train_ids);

  EvalOptions serial;
  const EvalResult a = EvaluateWithoutFit(&ssin, data, split, serial);

  EvalOptions parallel;
  parallel.num_threads = 4;
  const EvalResult b = EvaluateWithoutFit(&ssin, data, split, parallel);

  EXPECT_EQ(a.timestamps_evaluated, b.timestamps_evaluated);
  // Same model, same inputs, order-preserving reduction: bit-identical.
  EXPECT_DOUBLE_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_DOUBLE_EQ(a.metrics.mae, b.metrics.mae);
  EXPECT_DOUBLE_EQ(a.metrics.nse, b.metrics.nse);
}

TEST(ParallelEvalEquivalence, RunnerHonorsBeginEndStrideInParallel) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(25, 3);
  std::vector<int> train_ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  NodeSplit split;
  split.train_ids = train_ids;
  split.test_ids = {10, 11, 12};

  IdwInterpolator serial_idw, parallel_idw;
  EvalOptions serial;
  serial.begin = 3;
  serial.end = 22;
  serial.stride = 2;
  EvalOptions parallel = serial;
  parallel.num_threads = 3;

  const EvalResult a = EvaluateInterpolator(&serial_idw, data, split, serial);
  const EvalResult b =
      EvaluateInterpolator(&parallel_idw, data, split, parallel);
  EXPECT_EQ(a.timestamps_evaluated, b.timestamps_evaluated);
  EXPECT_DOUBLE_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_DOUBLE_EQ(a.metrics.mae, b.metrics.mae);
  EXPECT_DOUBLE_EQ(a.metrics.nse, b.metrics.nse);
}

TEST(ParallelEvalEquivalence, TinTpsAndKrigingMatchSerialBitwise) {
  // The default InterpolateBatch fans InterpolateTimestamp over the pool on
  // one object, and TIN/TPS build their plan once per batch: nothing a
  // worker runs may write the interpolator. run_tsan.sh runs this case.
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 60;  // Enough work per call for the workers to overlap.
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(24, 9);
  NodeSplit split;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i % 5 == 4 ? split.test_ids : split.train_ids).push_back(i);
  }

  auto evaluate = [&](const std::string& method, int num_threads) {
    std::unique_ptr<SpatialInterpolator> interpolator;
    if (method == "TIN") interpolator = std::make_unique<TinInterpolator>();
    if (method == "TPS") interpolator = std::make_unique<TpsInterpolator>();
    if (method == "OK") {
      interpolator = std::make_unique<KrigingInterpolator>();
    }
    EvalOptions options;
    options.num_threads = num_threads;
    return EvaluateInterpolator(interpolator.get(), data, split, options);
  };

  for (const std::string method : {"TIN", "TPS", "OK"}) {
    SCOPED_TRACE(method);
    const EvalResult a = evaluate(method, /*num_threads=*/1);
    const EvalResult b = evaluate(method, /*num_threads=*/4);
    EXPECT_EQ(a.method, method);
    EXPECT_EQ(a.timestamps_evaluated, 24);
    EXPECT_EQ(a.timestamps_evaluated, b.timestamps_evaluated);
    EXPECT_TRUE(std::isfinite(a.metrics.rmse));
    // Same inputs, order-preserving reduction: bit-identical.
    EXPECT_EQ(a.metrics.rmse, b.metrics.rmse);
    EXPECT_EQ(a.metrics.mae, b.metrics.mae);
    EXPECT_EQ(a.metrics.nse, b.metrics.nse);
  }
}

TEST(ParallelTrainingEquivalenceMisc, TelemetryOnPreservesEquivalence) {
  // The parallel-vs-serial contract holds with telemetry recording: the
  // thread-pool probes, spans and train.* metrics never touch numerics.
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(12, 8);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);

  telemetry::SetEnabled(false);
  const auto [off_loss, off_params] =
      TrainOnce(data, train_ids, /*num_threads=*/1, /*dynamic=*/true);
  telemetry::SetEnabled(true);
  const auto [on_loss, on_params] =
      TrainOnce(data, train_ids, /*num_threads=*/4, /*dynamic=*/true);
  telemetry::SetEnabled(false);

  ASSERT_EQ(off_loss.size(), on_loss.size());
  for (size_t e = 0; e < off_loss.size(); ++e) {
    EXPECT_NEAR(on_loss[e], off_loss[e], 1e-12) << "epoch " << e;
  }
  ASSERT_EQ(off_params.size(), on_params.size());
  for (size_t i = 0; i < off_params.size(); ++i) {
    EXPECT_NEAR(on_params[i], off_params[i], 1e-12)
        << "parameter scalar " << i;
  }
}

TEST(ParallelTrainingEquivalenceMisc, HardwareThreadCountAlsoMatches) {
  // num_threads = 0 ("one per hardware thread") obeys the same contract,
  // whatever this machine resolves it to.
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(10, 6);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);

  const auto [serial_loss, serial_params] =
      TrainOnce(data, train_ids, /*num_threads=*/1, /*dynamic=*/true);
  const auto [hw_loss, hw_params] =
      TrainOnce(data, train_ids, /*num_threads=*/0, /*dynamic=*/true);
  ASSERT_EQ(serial_loss.size(), hw_loss.size());
  for (size_t e = 0; e < serial_loss.size(); ++e) {
    EXPECT_NEAR(hw_loss[e], serial_loss[e], 1e-12);
  }
  ASSERT_EQ(serial_params.size(), hw_params.size());
  for (size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_NEAR(hw_params[i], serial_params[i], 1e-12);
  }
}

}  // namespace
}  // namespace ssin
