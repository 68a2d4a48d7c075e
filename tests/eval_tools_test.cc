#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "baselines/idw.h"
#include "data/rainfall_generator.h"
#include "eval/outage.h"
#include "eval/runner.h"
#include "eval/tuner.h"

namespace ssin {
namespace {

// ------------------------------------------------------------------ Outage

TEST(OutageTest, ZeroOutageMatchesPlainEvaluation) {
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 40;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(20, 1);
  Rng rng(2);
  const NodeSplit split = RandomNodeSplit(40, 0.2, &rng);

  IdwInterpolator idw;
  idw.Fit(data, split.train_ids);
  Rng outage_rng(3);
  const OutageResult zero = EvaluateUnderOutage(&idw, data, split, 0.0,
                                                &outage_rng);
  const EvalResult plain = EvaluateWithoutFit(&idw, data, split);
  EXPECT_NEAR(zero.metrics.rmse, plain.metrics.rmse, 1e-12);
}

TEST(OutageTest, ErrorGrowsWithOutage) {
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 50;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(40, 4);
  Rng rng(5);
  const NodeSplit split = RandomNodeSplit(50, 0.2, &rng);

  IdwInterpolator idw;
  idw.Fit(data, split.train_ids);
  std::vector<OutageResult> sweep;
  for (double fraction : {0.0, 0.5, 0.9}) {
    Rng outage_rng(6);  // Same outage draws at every level.
    sweep.push_back(
        EvaluateUnderOutage(&idw, data, split, fraction, &outage_rng));
  }
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].metrics.rmse, sweep[2].metrics.rmse);
  for (const OutageResult& r : sweep) {
    EXPECT_TRUE(std::isfinite(r.metrics.rmse));
  }
}

TEST(OutageDeathTest, RefusesSplitWithOneTrainingStation) {
  // Two survivors are drawn per timestamp; with one training station the
  // refill loop could never find a second.
  std::vector<Station> stations(2);
  stations[1].position = {1.0, 0.0};
  SpatialDataset data(stations);
  data.AddTimestamp({1.0, 2.0});
  Rng rng(4);
  const NodeSplit split = RandomNodeSplit(2, 0.5, &rng);
  ASSERT_EQ(split.train_ids.size(), 1u);

  IdwInterpolator idw;
  idw.Fit(data, split.train_ids);
  Rng outage_rng(6);
  EXPECT_DEATH(EvaluateUnderOutage(&idw, data, split, 0.0, &outage_rng),
               "train_ids");
}

// ------------------------------------------------------------------- Tuner

TEST(TunerTest, SamplesWithinTable3Ranges) {
  Rng rng(10);
  const std::set<int> hidden_grid = {4, 8, 16, 32, 64, 128};
  const std::set<double> kernel_grid = {10.0, 5.0, 1.0, 0.5,
                                        0.1,  0.05, 0.01};
  for (int i = 0; i < 200; ++i) {
    const HyperParams hp = SampleHyperParams(&rng);
    EXPECT_GT(hp.learning_rate, 0.0);
    EXPECT_LT(hp.learning_rate, 0.01);
    EXPECT_GT(hp.weight_decay, 0.0);
    EXPECT_LT(hp.weight_decay, 1e-3);
    EXPECT_GE(hp.dropout, 0.0);
    EXPECT_LT(hp.dropout, 0.5);
    EXPECT_TRUE(hidden_grid.count(hp.hidden_dim));
    EXPECT_TRUE(kernel_grid.count(hp.kernel_length));
  }
}

TEST(TunerTest, RandomSearchPicksBestTrial) {
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 30;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(15, 11);
  std::vector<int> train_ids;
  for (int i = 0; i < 24; ++i) train_ids.push_back(i);

  // Use IDW with the sampled "kernel length" as the IDW power so the
  // search machinery is exercised quickly (the GNN factories are used in
  // the bench, not the unit test).
  Rng rng(12);
  const TuningResult result = RandomSearch(
      [](const HyperParams& hp) {
        return std::make_unique<IdwInterpolator>(
            std::max(0.5, hp.kernel_length));
      },
      data, train_ids, /*trials=*/5, &rng);
  ASSERT_EQ(result.tried.size(), 5u);
  ASSERT_EQ(result.metrics.size(), 5u);
  double best = 1e18;
  for (const Metrics& m : result.metrics) best = std::min(best, m.rmse);
  EXPECT_DOUBLE_EQ(result.best_metrics.rmse, best);
}

TEST(TunerTest, ValidationStaysInsideTrainingStations) {
  // The search must never touch stations outside train_ids. We verify by
  // handing it a dataset whose non-train stations are poisoned with NaN:
  // any accidental use would propagate into the metrics.
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 20;
  RainfallGenerator gen(region);
  SpatialDataset clean = gen.GenerateHours(8, 13);
  SpatialDataset poisoned(
      std::vector<Station>(clean.stations().begin(),
                           clean.stations().end()));
  std::vector<int> train_ids;
  for (int i = 0; i < 14; ++i) train_ids.push_back(i);
  for (int t = 0; t < clean.num_timestamps(); ++t) {
    std::vector<double> row = clean.Values(t);
    for (int s = 14; s < 20; ++s) {
      row[s] = std::numeric_limits<double>::quiet_NaN();
    }
    poisoned.AddTimestamp(row);
  }
  Rng rng(14);
  const TuningResult result = RandomSearch(
      [](const HyperParams&) {
        return std::make_unique<IdwInterpolator>();
      },
      poisoned, train_ids, /*trials=*/2, &rng);
  EXPECT_TRUE(std::isfinite(result.best_metrics.rmse));
}

}  // namespace
}  // namespace ssin
