/// Parameterized property sweeps across modules: invariants that must hold
/// for whole families of random inputs, not just hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/delaunay.h"
#include "baselines/variogram.h"
#include "core/spatial_context.h"
#include "data/traffic_generator.h"
#include "tensor/attention_kernels.h"
#include "tests/test_util.h"

namespace ssin {
namespace {

using testing_util::CheckGradients;

// ---------------------------------------------------------- Delaunay sweep

class DelaunayPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayPropertyTest, EmptyCircumcircleAndHullCoverage) {
  Rng rng(1000 + GetParam());
  const int n = 25 + GetParam() * 7;
  std::vector<PointKm> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 50), rng.Uniform(0, 50)});
  }
  DelaunayTriangulation tri(pts);
  ASSERT_FALSE(tri.triangles().empty());
  for (const Triangle& t : tri.triangles()) {
    for (int p = 0; p < n; ++p) {
      if (p == t.a || p == t.b || p == t.c) continue;
      ASSERT_FALSE(InCircumcircle(pts[t.a], pts[t.b], pts[t.c], pts[p]));
    }
  }
  // Interior points (mixtures of triangle vertices) are locatable.
  for (const Triangle& t : tri.triangles()) {
    PointKm mix{0.2 * pts[t.a].x + 0.3 * pts[t.b].x + 0.5 * pts[t.c].x,
                0.2 * pts[t.a].y + 0.3 * pts[t.b].y + 0.5 * pts[t.c].y};
    int idx;
    double w[3];
    EXPECT_TRUE(tri.Locate(mix, &idx, w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayPropertyTest,
                         ::testing::Range(0, 6));

// --------------------------------------------------------- Variogram sweep

class VariogramFitTest
    : public ::testing::TestWithParam<VariogramModel::Type> {};

TEST_P(VariogramFitTest, RecoversKnownModel) {
  VariogramModel truth;
  truth.type = GetParam();
  truth.nugget = 0.15;
  truth.partial_sill = 1.8;
  truth.range = 14.0;
  std::vector<VariogramBin> bins;
  for (int i = 1; i <= 16; ++i) {
    bins.push_back({i * 1.4, truth(i * 1.4), 30 + i});
  }
  VariogramModel fit;
  ASSERT_TRUE(FitVariogram(bins, GetParam(), &fit));
  // The fitted curve must track the truth closely over the sampled lags.
  for (const VariogramBin& b : bins) {
    EXPECT_NEAR(fit(b.lag), truth(b.lag), 0.12 * (truth.nugget +
                                                  truth.partial_sill));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, VariogramFitTest,
                         ::testing::Values(
                             VariogramModel::Type::kSpherical,
                             VariogramModel::Type::kExponential,
                             VariogramModel::Type::kGaussian,
                             VariogramModel::Type::kLinear));

// --------------------------------------------------- Attention equivalence

class AttentionEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AttentionEquivalenceTest, PackedEqualsNaiveOnRandomInstances) {
  Rng rng(2000 + GetParam());
  const int length = 5 + GetParam() * 4;
  const int d = 2 + GetParam() % 5;
  Tensor q = Tensor::Randn({length, d}, &rng);
  Tensor k = Tensor::Randn({length, d}, &rng);
  Tensor v = Tensor::Randn({length, d}, &rng);
  Tensor c = Tensor::Randn({length * length, d}, &rng);
  std::vector<uint8_t> observed(length, 1);
  for (int i = 0; i < length; ++i) {
    if (rng.Bernoulli(0.3)) observed[i] = 0;
  }
  observed[0] = 1;  // Keep at least one observation.

  for (bool use_srpe : {true, false}) {
    for (bool shielded : {true, false}) {
      AttentionConfig cfg;
      cfg.use_srpe = use_srpe;
      cfg.shielded = shielded;
      AttentionPlan plan;
      BuildAttentionPlan(observed, shielded, &plan);
      const Tensor c_packed = testing_util::PackRows(c, plan);
      AttentionContext ctx;
      Tensor packed = PackedAttentionForward(
          q, k, v, use_srpe ? &c_packed : nullptr, plan, cfg, &ctx);
      Tensor naive = NaiveAttentionForward(
          q, k, v, use_srpe ? &c : nullptr, observed, cfg);
      for (int64_t i = 0; i < packed.numel(); ++i) {
        ASSERT_NEAR(packed[i], naive[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AttentionEquivalenceTest,
                         ::testing::Range(0, 8));

// ----------------------------------------------- Autograd composition sweep

class GradSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(GradSweepTest, RandomCompositionGradcheck) {
  const int seed = GetParam();
  Rng rng(3000 + seed);
  const int m = 2 + seed % 4;
  const int k = 2 + (seed * 3) % 5;
  // n >= 3: LayerNorm over 2 features is degenerate (outputs exactly +-1
  // regardless of input scale), which makes finite differences useless.
  const int n = 3 + (seed * 7) % 4;
  Tensor target = Tensor::Randn({m, n}, &rng);
  std::vector<Tensor> inputs = {
      Tensor::Randn({m, k}, &rng), Tensor::Randn({k, n}, &rng),
      Tensor::Randn({n}, &rng), Tensor::Randn({n}, &rng),
      Tensor::Randn({n}, &rng)};
  auto r = CheckGradients(
      inputs, [&](Graph*, const std::vector<Var>& v) {
        Var h = AddRow(MatMul(v[0], v[1]), v[2]);
        // No ReLU here: LayerNorm centers activations around 0, where the
        // ReLU kink breaks finite differences.
        h = LayerNorm(h, v[3], v[4]);
        return MseLoss(Mul(h, h), target);
      });
  EXPECT_LT(r.max_rel_err, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradSweepTest, ::testing::Range(0, 10));

// ------------------------------------------- Spatial context with travel

TEST(SpatialContextTravelTest, UsesRoadDistances) {
  TrafficNetworkConfig network;
  network.corridors_ew = 3;
  network.corridors_ns = 3;
  network.extent_km = 20.0;
  network.num_sensors = 40;
  TrafficGenerator gen(network);
  SpatialDataset data = gen.Generate(3, 1);

  std::vector<int> train_ids;
  for (int i = 0; i < 30; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);

  // Destandardizing the relpos distance must recover the *travel*
  // distance, not the Euclidean one. Pair row 1 of the two-station
  // sequence is (0, 1): stations 0 -> 17.
  const std::vector<int> subset = {0, 17};
  const Tensor relpos = context.RelposForPairs(subset, /*pair_rows=*/{1});
  const RelPosStats& stats = context.relpos_stats();
  const double recovered =
      relpos[0] * stats.distance.std + stats.distance.mean;
  EXPECT_NEAR(recovered, data.travel_distance()(0, 17), 1e-9);
}

TEST(SpatialContextTravelTest, AllTravelDistancesFinite) {
  // The generator must produce a connected network; otherwise the relpos
  // standardization would be poisoned by infinities.
  TrafficNetworkConfig network;
  network.corridors_ew = 4;
  network.corridors_ns = 4;
  network.extent_km = 30.0;
  network.num_sensors = 60;
  network.interchange_prob = 0.15;  // Sparse: stress connectivity.
  TrafficGenerator gen(network);
  SpatialDataset data = gen.Generate(1, 2);
  const Matrix& travel = data.travel_distance();
  for (int i = 0; i < data.num_stations(); ++i) {
    for (int j = 0; j < data.num_stations(); ++j) {
      EXPECT_TRUE(std::isfinite(travel(i, j)))
          << "sensors " << i << "," << j << " disconnected";
    }
  }
}

}  // namespace
}  // namespace ssin
