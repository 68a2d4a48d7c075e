/// Edge cases and failure paths across modules: degenerate inputs,
/// truncated files, boundary parameters.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/stats.h"
#include "core/interpolation.h"
#include "data/rainfall_generator.h"
#include "eval/metrics.h"
#include "eval/outage.h"
#include "nn/attention.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace ssin {
namespace {

// ------------------------------------------------------------------ tensor

TEST(OpsEdgeTest, ConcatSinglePartIsIdentityValues) {
  Graph g;
  Rng rng(1);
  Tensor x = Tensor::Randn({3, 2}, &rng);
  Var v = g.Constant(x);
  const Tensor& out = ConcatCols({v}).value();
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_DOUBLE_EQ(out[i], x[i]);
}

TEST(OpsEdgeTest, GatherRowsRepeatedIndexAccumulatesGradient) {
  Tensor x({2, 1}, {1.0, 2.0});
  Tensor grad({2, 1});
  Graph g;
  Var leaf = g.Leaf(x, &grad);
  Var gathered = GatherRows(leaf, {0, 0, 0});
  g.Backward(Sum(gathered));
  EXPECT_DOUBLE_EQ(grad[0], 3.0);  // Row 0 selected three times.
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

TEST(OpsEdgeTest, MseLossAcceptsColumnAndFlatShapes) {
  Graph g;
  Var flat = g.Constant(Tensor({3}, {1, 2, 3}));
  Var column = g.Constant(Tensor({3, 1}, {1, 2, 3}));
  const Tensor target({3}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(MseLoss(flat, target).value()[0],
                   MseLoss(column, target).value()[0]);
}

TEST(OpsEdgeTest, ScaleByZeroKillsGradient) {
  Tensor x({2}, {5.0, -3.0});
  Tensor grad({2});
  Graph g;
  g.Backward(Sum(Scale(g.Leaf(x, &grad), 0.0)));
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

// ---------------------------------------------------------------------- nn

TEST(AttentionEdgeTest, SingleHeadSkipsConcat) {
  Rng rng(2);
  AttentionConfig cfg;
  MultiHeadSpaAttention attn(8, /*num_heads=*/1, 8, cfg, &rng);
  const int length = 5;
  Graph g;
  Var e = g.Constant(Tensor::Randn({length, 8}, &rng));
  std::vector<uint8_t> observed(length, 1);
  auto plan = std::make_shared<AttentionPlan>();
  BuildAttentionPlan(observed, cfg.shielded, plan.get());
  Var c = g.Constant(
      Tensor::Randn({static_cast<int>(plan->num_pairs()), 8}, &rng));
  Var out = attn.Forward(e, c, plan);
  EXPECT_EQ(out.value().dim(1), 8);
}

TEST(SerializeEdgeTest, TruncatedFileRejected) {
  Rng rng(3);
  Fcn2 module(2, 4, 2, false, true, &rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ssin_trunc.bin").string();
  ASSERT_TRUE(SaveModule(&module, path));
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(LoadModule(&module, path));
  std::remove(path.c_str());
}

TEST(SerializeEdgeTest, GarbageMagicRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ssin_garbage.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close............";
  }
  Rng rng(4);
  Fcn2 module(2, 4, 2, false, true, &rng);
  EXPECT_FALSE(LoadModule(&module, path));
  std::remove(path.c_str());
}

// -------------------------------------------------------------------- data

TEST(GeneratorEdgeTest, AnisotropyElongatesAlongAdvection) {
  // With a fixed prevailing direction, time-series correlation between
  // station pairs aligned with the advection axis should exceed the
  // correlation of equally distant pairs across it.
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 80;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(150, 21);

  auto series = [&](int s) {
    std::vector<double> v(data.num_timestamps());
    for (int t = 0; t < data.num_timestamps(); ++t) v[t] = data.Value(t, s);
    return v;
  };
  const double axis = config.prevailing_direction_rad;
  RunningStats along, across;
  for (int i = 0; i < data.num_stations(); ++i) {
    for (int j = i + 1; j < data.num_stations(); ++j) {
      const double d = DistanceKm(data.station(i).position,
                                  data.station(j).position);
      if (d < 4.0 || d > 14.0) continue;
      double az = AzimuthRad(data.station(i).position,
                             data.station(j).position);
      // Angle between the pair axis and the advection axis, mod pi.
      double delta = std::fabs(std::fmod(az - axis + 3.0 * kPi, kPi));
      delta = std::min(delta, kPi - delta);
      const double corr = PearsonCorrelation(series(i), series(j));
      if (delta < kPi / 7.0) {
        along.Add(corr);
      } else if (delta > kPi / 2.0 - kPi / 7.0) {
        across.Add(corr);
      }
    }
  }
  ASSERT_GT(along.count(), 10u);
  ASSERT_GT(across.count(), 10u);
  EXPECT_GT(along.mean(), across.mean() + 0.03);
}

TEST(GeneratorEdgeTest, MinimumViableRegion) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 4;
  config.width_km = 5.0;
  config.height_km = 5.0;
  RainfallGenerator gen(config);
  SpatialDataset data = gen.GenerateHours(3, 1);
  EXPECT_EQ(data.num_stations(), 4);
  EXPECT_EQ(data.num_timestamps(), 3);
}

// -------------------------------------------------------------------- eval

TEST(MetricsEdgeTest, ConstantTruthGivesNanNse) {
  // Zero truth variance leaves NSE undefined: the contract is NaN (not
  // -inf), which renderers turn into "n/a" and JSON writers into null.
  const Metrics m = ComputeMetrics({2, 2, 2}, {1, 2, 3});
  EXPECT_TRUE(std::isnan(m.nse));
  EXPECT_GT(m.rmse, 0.0);
}

TEST(StationGeometryEdgeTest, FallsBackToEuclidWithoutTravel) {
  std::vector<Station> stations(2);
  stations[0].position = {0, 0};
  stations[1].position = {3, 4};
  SpatialDataset data(stations);
  data.AddTimestamp({1.0, 2.0});
  StationGeometry geometry;
  geometry.Capture(data, /*use_travel_distance=*/true);  // None present.
  EXPECT_FALSE(geometry.using_travel_distance());
  EXPECT_DOUBLE_EQ(geometry.Distance(0, 1), 5.0);
}

class OutageDeterminismTest : public ::testing::TestWithParam<double> {};

TEST_P(OutageDeterminismTest, SameSeedSameMetrics) {
  RainfallRegionConfig region = HkRegionConfig();
  region.num_gauges = 30;
  RainfallGenerator gen(region);
  SpatialDataset data = gen.GenerateHours(10, 5);
  Rng rng(6);
  const NodeSplit split = RandomNodeSplit(30, 0.2, &rng);

  class NearestInterpolator : public SpatialInterpolator {
   public:
    std::string Name() const override { return "Nearest"; }
    void Fit(const SpatialDataset& data,
             const std::vector<int>&) override {
      geometry_.Capture(data, false);
    }
    std::vector<double> InterpolateTimestamp(
        const std::vector<double>& all_values,
        const std::vector<int>& observed_ids,
        const std::vector<int>& query_ids) override {
      std::vector<double> out;
      for (int q : query_ids) {
        int best = observed_ids[0];
        for (int o : observed_ids) {
          if (geometry_.Distance(q, o) < geometry_.Distance(q, best)) {
            best = o;
          }
        }
        out.push_back(all_values[best]);
      }
      return out;
    }

   private:
    StationGeometry geometry_;
  } nearest;
  nearest.Fit(data, split.train_ids);

  Rng a(77), b(77);
  const OutageResult ra =
      EvaluateUnderOutage(&nearest, data, split, GetParam(), &a);
  const OutageResult rb =
      EvaluateUnderOutage(&nearest, data, split, GetParam(), &b);
  EXPECT_DOUBLE_EQ(ra.metrics.rmse, rb.metrics.rmse);
}

INSTANTIATE_TEST_SUITE_P(Levels, OutageDeterminismTest,
                         ::testing::Values(0.1, 0.3, 0.6));

}  // namespace
}  // namespace ssin
