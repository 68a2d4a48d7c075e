#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>

#include "baselines/idw.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "eval/metrics.h"
#include "eval/runner.h"

namespace ssin {
namespace {

TEST(MetricsTest, HandComputedValues) {
  const Metrics m = ComputeMetrics({1, 2, 3, 4}, {1, 2, 3, 8});
  EXPECT_NEAR(m.rmse, 2.0, 1e-12);         // sqrt(16/4).
  EXPECT_NEAR(m.mae, 1.0, 1e-12);          // 4/4.
  // NSE = 1 - 16 / sum((y - 2.5)^2) = 1 - 16/5.
  EXPECT_NEAR(m.nse, 1.0 - 16.0 / 5.0, 1e-12);
  EXPECT_EQ(m.count, 4);
}

TEST(MetricsTest, PerfectPredictorHasNseOne) {
  const Metrics m = ComputeMetrics({1, 5, 9}, {1, 5, 9});
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.nse, 1.0);
}

TEST(MetricsTest, MeanPredictorHasNseZero) {
  const Metrics m = ComputeMetrics({1, 2, 3}, {2, 2, 2});
  EXPECT_NEAR(m.nse, 0.0, 1e-12);
}

TEST(MetricsTest, EmptyIsSafe) {
  MetricsAccumulator acc;
  const Metrics m = acc.Compute();
  EXPECT_EQ(m.count, 0);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
}

TEST(MetricsTest, NseNeverExceedsOne) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> truth, pred;
    for (int i = 0; i < 30; ++i) {
      truth.push_back(rng.Normal());
      pred.push_back(rng.Normal());
    }
    EXPECT_LE(ComputeMetrics(truth, pred).nse, 1.0);
  }
}

/// Trivial interpolator predicting the mean of observed values.
class MeanInterpolator : public SpatialInterpolator {
 public:
  std::string Name() const override { return "Mean"; }
  void Fit(const SpatialDataset&, const std::vector<int>&) override {}
  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override {
    double mean = 0.0;
    for (int o : observed_ids) mean += all_values[o];
    mean /= observed_ids.size();
    return std::vector<double>(query_ids.size(), mean);
  }
};

TEST(RunnerTest, EvaluatesProtocolCorrectly) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 25;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(30, 1);
  Rng rng(10);
  const NodeSplit split = RandomNodeSplit(25, 0.2, &rng);

  MeanInterpolator mean;
  const EvalResult result = EvaluateInterpolator(&mean, data, split);
  EXPECT_EQ(result.method, "Mean");
  EXPECT_EQ(result.timestamps_evaluated, 30);
  EXPECT_EQ(result.metrics.count,
            30 * static_cast<int64_t>(split.test_ids.size()));
  EXPECT_GT(result.metrics.rmse, 0.0);
}

TEST(RunnerTest, StrideAndRangeRespected) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 20;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(20, 2);
  Rng rng(11);
  const NodeSplit split = RandomNodeSplit(20, 0.2, &rng);

  MeanInterpolator mean;
  EvalOptions options;
  options.begin = 4;
  options.end = 16;
  options.stride = 3;
  const EvalResult result =
      EvaluateInterpolator(&mean, data, split, options);
  EXPECT_EQ(result.timestamps_evaluated, 4);  // t = 4, 7, 10, 13.
}

TEST(RunnerTest, IdwBeatsMeanOnRainfall) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 50;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(40, 3);
  Rng rng(12);
  const NodeSplit split = RandomNodeSplit(50, 0.2, &rng);

  MeanInterpolator mean;
  IdwInterpolator idw;
  const EvalResult mean_result = EvaluateInterpolator(&mean, data, split);
  const EvalResult idw_result = EvaluateInterpolator(&idw, data, split);
  EXPECT_LT(idw_result.metrics.rmse, mean_result.metrics.rmse);
  EXPECT_GT(idw_result.metrics.nse, mean_result.metrics.nse);
}

TEST(RunnerTest, SelectedTimestampsAsymmetricRange) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 6;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(23, 4);

  EvalOptions options;
  options.begin = 3;
  options.end = 19;
  options.stride = 5;
  EXPECT_EQ(SelectedTimestamps(data, options),
            (std::vector<int>{3, 8, 13, 18}));

  options.end = -1;  // Open end clamps to num_timestamps().
  EXPECT_EQ(SelectedTimestamps(data, options),
            (std::vector<int>{3, 8, 13, 18}));

  options.begin = 22;
  options.stride = 1;
  EXPECT_EQ(SelectedTimestamps(data, options), (std::vector<int>{22}));
}

/// Records which timestamps it was asked to interpolate. The dataset is
/// built so station 0's value at timestamp t is exactly t.
class TimestampRecorder : public SpatialInterpolator {
 public:
  std::string Name() const override { return "Recorder"; }
  void Fit(const SpatialDataset&, const std::vector<int>&) override {}
  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>&,
      const std::vector<int>& query_ids) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      visited_.push_back(static_cast<int>(all_values[0]));
    }
    return std::vector<double>(query_ids.size(), 0.0);
  }
  std::vector<int> SortedVisits() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int> v = visited_;
    std::sort(v.begin(), v.end());
    return v;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    visited_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<int> visited_;
};

TEST(RunnerTest, SerialAndParallelVisitIdenticalTimestampSets) {
  std::vector<Station> stations(4);
  for (int i = 0; i < 4; ++i) {
    stations[i].position = {static_cast<double>(i), 0.0};
  }
  SpatialDataset data(stations);
  for (int t = 0; t < 17; ++t) {
    data.AddTimestamp({static_cast<double>(t), 1.0, 2.0, 3.0});
  }
  NodeSplit split;
  split.train_ids = {0, 1, 2};
  split.test_ids = {3};

  // Asymmetric range: begin/end/stride all non-default, with end not on a
  // stride boundary. Both branches must iterate SelectedTimestamps.
  EvalOptions options;
  options.begin = 2;
  options.end = 15;
  options.stride = 4;

  TimestampRecorder recorder;
  options.num_threads = 1;
  EvaluateInterpolator(&recorder, data, split, options);
  const std::vector<int> serial = recorder.SortedVisits();

  recorder.Clear();
  options.num_threads = 4;
  EvaluateInterpolator(&recorder, data, split, options);
  const std::vector<int> parallel = recorder.SortedVisits();

  EXPECT_EQ(serial, (std::vector<int>{2, 6, 10, 14}));
  EXPECT_EQ(parallel, serial);
}

TEST(NonNegativeClampTest, RainfallDatasetsDefaultOn) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 6;
  RainfallGenerator gen(config);
  const SpatialDataset data = gen.GenerateHours(5, 5);
  EXPECT_TRUE(data.non_negative());
  // Concatenations (bench_fig11's growing history) keep the
  // physical-quantity flag.
  EXPECT_TRUE(data.ConcatTimestamps(data).non_negative());

  std::vector<Station> stations(2);
  stations[0].position = {0.0, 0.0};
  stations[1].position = {1.0, 0.0};
  SpatialDataset signed_data(stations);  // E.g. traffic residuals.
  EXPECT_FALSE(signed_data.non_negative());
}

TEST(NonNegativeClampTest, ClampedPredictionIsMaxOfZeroAndUnclamped) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 20;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(12, 6);
  Rng rng(14);
  const NodeSplit split = RandomNodeSplit(20, 0.25, &rng);

  SpaFormerConfig model;
  model.num_layers = 2;
  model.num_heads = 1;
  model.d_model = 8;
  model.d_k = 8;
  model.d_ff = 32;
  TrainConfig training;
  training.epochs = 2;
  training.masks_per_sequence = 2;
  training.batch_size = 8;
  training.warmup_steps = 20;
  SsinInterpolator ssin(model, training);
  ssin.Fit(data, split.train_ids);
  EXPECT_TRUE(ssin.non_negative());  // Captured from the rainfall dataset.

  for (int t = 0; t < data.num_timestamps(); ++t) {
    ssin.set_non_negative(false);
    const std::vector<double> raw = ssin.InterpolateTimestamp(
        data.Values(t), split.train_ids, split.test_ids);
    ssin.set_non_negative(true);
    const std::vector<double> clamped = ssin.InterpolateTimestamp(
        data.Values(t), split.train_ids, split.test_ids);
    ASSERT_EQ(raw.size(), clamped.size());
    for (size_t q = 0; q < raw.size(); ++q) {
      EXPECT_DOUBLE_EQ(clamped[q], std::max(0.0, raw[q]));
      EXPECT_GE(clamped[q], 0.0);
    }
  }
}

}  // namespace
}  // namespace ssin
