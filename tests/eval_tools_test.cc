#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "baselines/idw.h"
#include "data/rainfall_generator.h"
#include "eval/crossval.h"
#include "eval/outage.h"
#include "eval/raster.h"
#include "eval/tuner.h"

namespace ssin {
namespace {

// ------------------------------------------------------------------ Raster

TEST(RasterTest, GeometryAndAccess) {
  Raster raster(4, 3, 10.0, 20.0, 2.0);
  EXPECT_EQ(raster.width(), 4);
  EXPECT_EQ(raster.height(), 3);
  const PointKm c = raster.CellCenter(0, 0);
  EXPECT_DOUBLE_EQ(c.x, 11.0);
  EXPECT_DOUBLE_EQ(c.y, 21.0);
  const PointKm far = raster.CellCenter(3, 2);
  EXPECT_DOUBLE_EQ(far.x, 17.0);
  EXPECT_DOUBLE_EQ(far.y, 25.0);
  EXPECT_EQ(raster.CellCenters().size(), 12u);
}

TEST(RasterTest, ValuesAndStats) {
  Raster raster(2, 2, 0, 0, 1.0);
  raster.SetValues({1.0, 2.0, 3.0, 6.0});
  EXPECT_DOUBLE_EQ(raster.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(raster.MaxValue(), 6.0);
  EXPECT_DOUBLE_EQ(raster.MeanValue(), 3.0);
  EXPECT_DOUBLE_EQ(raster.FractionAbove(2.5), 0.5);
  EXPECT_DOUBLE_EQ(raster.FractionAbove(0.0), 1.0);
  EXPECT_DOUBLE_EQ(raster.FractionAbove(10.0), 0.0);
}

TEST(RasterTest, PgmRoundTripHeader) {
  Raster raster(5, 4, 0, 0, 1.0);
  std::vector<double> values(20);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 0.5;
  raster.SetValues(values);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ssin_raster.pgm").string();
  ASSERT_TRUE(raster.WritePgm(path));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxv, 255);
  std::remove(path.c_str());
}

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
  const std::vector<OutageResult> sweep =
      OutageSweep(&idw, data, split, {0.0, 0.5, 0.9}, 6);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].metrics.rmse, sweep[2].metrics.rmse);
  for (const OutageResult& r : sweep) {
    EXPECT_TRUE(std::isfinite(r.metrics.rmse));
  }
}

// ---------------------------------------------------------- Cross-validate

TEST(CrossValTest, FoldsPartitionStations) {
  Rng rng(7);
  const auto folds = MakeFolds(23, 4, &rng);
  ASSERT_EQ(folds.size(), 4u);
  std::set<int> seen;
  for (const auto& fold : folds) {
    EXPECT_GE(fold.size(), 5u);
    EXPECT_LE(fold.size(), 6u);
    for (int id : fold) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate station " << id;
    }
  }
  EXPECT_EQ(seen.size(), 23u);
}

TEST(CrossValTest, PooledMetricsAreFinite) {
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 30;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(15, 8);
  Rng rng(9);
  const CrossValidationResult result = CrossValidate(
      [] { return std::make_unique<IdwInterpolator>(); }, data, 3, &rng);
  ASSERT_EQ(result.folds.size(), 3u);
  EXPECT_TRUE(std::isfinite(result.pooled.rmse));
  EXPECT_EQ(result.pooled.count, 3u * 15u * 10u);
  // Pooled error should be in the range spanned by the folds.
  double lo = 1e18, hi = -1e18;
  for (const EvalResult& fold : result.folds) {
    lo = std::min(lo, fold.metrics.rmse);
    hi = std::max(hi, fold.metrics.rmse);
  }
  EXPECT_GE(result.pooled.rmse, lo - 1e-9);
  EXPECT_LE(result.pooled.rmse, hi + 1e-9);
}

// Plain IDW that counts the timestamps it is asked to predict.
class CountingIdw : public IdwInterpolator {
 public:
  explicit CountingIdw(std::atomic<int>* calls) : calls_(calls) {}

  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override {
    calls_->fetch_add(1);
    return IdwInterpolator::InterpolateTimestamp(all_values, observed_ids,
                                                 query_ids);
  }

 private:
  std::atomic<int>* calls_;
};

TEST(CrossValTest, PredictsEachFoldTimestampOnce) {
  // The pooled metrics come from the folds' own evaluation pass: k folds x
  // T timestamps is k*T predictions, not one more pass on top.
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 24;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(20, 13);
  std::atomic<int> calls{0};
  Rng rng(3);
  const CrossValidationResult result = CrossValidate(
      [&calls] { return std::make_unique<CountingIdw>(&calls); }, data,
      /*k=*/4, &rng);
  EXPECT_EQ(calls.load(), 4 * 20);
  // Every station is held out once per timestamp.
  EXPECT_EQ(result.pooled.count, 24 * 20);
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
