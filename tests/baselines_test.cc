#include <gtest/gtest.h>

#include <cmath>

#include "baselines/delaunay.h"
#include "baselines/idw.h"
#include "baselines/kriging.h"
#include "baselines/tin.h"
#include "baselines/tps.h"
#include "baselines/variogram.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace ssin {
namespace {

/// A dataset whose values are a fixed linear field a + b*x + c*y, which
/// TIN (inside the hull) and TPS reproduce exactly.
SpatialDataset LinearFieldDataset(int num_stations, uint64_t seed,
                                  double a = 1.0, double b = 0.5,
                                  double c = -0.25) {
  Rng rng(seed);
  std::vector<Station> stations(num_stations);
  for (int i = 0; i < num_stations; ++i) {
    stations[i].id = std::string("S").append(std::to_string(i));
    stations[i].position = {rng.Uniform(0, 30), rng.Uniform(0, 30)};
  }
  SpatialDataset data(std::move(stations));
  std::vector<double> values(num_stations);
  for (int i = 0; i < num_stations; ++i) {
    const PointKm& p = data.station(i).position;
    values[i] = a + b * p.x + c * p.y;
  }
  data.AddTimestamp(values);
  return data;
}

std::vector<int> Range(int begin, int end) {
  std::vector<int> out;
  for (int i = begin; i < end; ++i) out.push_back(i);
  return out;
}

// ---------------------------------------------------------------- Delaunay

TEST(DelaunayTest, SquareHasTwoTriangles) {
  DelaunayTriangulation tri({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(tri.triangles().size(), 2u);
}

TEST(DelaunayTest, EmptyCircumcircleProperty) {
  Rng rng(50);
  std::vector<PointKm> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  DelaunayTriangulation tri(pts);
  EXPECT_GT(tri.triangles().size(), 60u);  // ~2n triangles expected.
  for (const Triangle& t : tri.triangles()) {
    for (int p = 0; p < 60; ++p) {
      if (p == t.a || p == t.b || p == t.c) continue;
      EXPECT_FALSE(InCircumcircle(pts[t.a], pts[t.b], pts[t.c], pts[p]))
          << "point " << p << " violates the Delaunay property";
    }
  }
}

TEST(DelaunayTest, LocateInteriorPoints) {
  Rng rng(51);
  std::vector<PointKm> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  DelaunayTriangulation tri(pts);
  // The centroid of any triangle must be located inside that triangle
  // (or one sharing it in degenerate ties).
  for (const Triangle& t : tri.triangles()) {
    PointKm centroid{(pts[t.a].x + pts[t.b].x + pts[t.c].x) / 3.0,
                     (pts[t.a].y + pts[t.b].y + pts[t.c].y) / 3.0};
    int idx = -1;
    double w[3];
    ASSERT_TRUE(tri.Locate(centroid, &idx, w));
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-9);
  }
}

TEST(DelaunayTest, LocateOutsideHullFails) {
  DelaunayTriangulation tri({{0, 0}, {1, 0}, {0, 1}});
  int idx;
  double w[3];
  EXPECT_FALSE(tri.Locate({5, 5}, &idx, w));
}

TEST(DelaunayTest, DegenerateInputs) {
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}, {1, 1}}).triangles().empty());
  // Collinear points: no triangles, no crash.
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}, {1, 0}, {2, 0}, {3, 0}})
                  .triangles()
                  .empty());
  // Duplicates tolerated.
  DelaunayTriangulation dup({{0, 0}, {0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(dup.triangles().size(), 1u);
}

TEST(BarycentricTest, VerticesAndCenter) {
  const PointKm a{0, 0}, b{1, 0}, c{0, 1};
  double w[3];
  ASSERT_TRUE(Barycentric(a, b, c, a, w));
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  ASSERT_TRUE(Barycentric(a, b, c, {1.0 / 3, 1.0 / 3}, w));
  EXPECT_NEAR(w[0], 1.0 / 3, 1e-9);
  EXPECT_NEAR(w[1], 1.0 / 3, 1e-9);
  // Degenerate triangle rejected.
  EXPECT_FALSE(Barycentric(a, b, {2, 0}, a, w));
}

// --------------------------------------------------------------------- IDW

TEST(IdwTest, ExactHitReturnsObservation) {
  SpatialDataset data = LinearFieldDataset(10, 52);
  IdwInterpolator idw;
  idw.Fit(data, Range(0, 10));
  // Query a station that is also observed: exact value.
  const auto out =
      idw.InterpolateTimestamp(data.Values(0), Range(0, 10), {3});
  EXPECT_DOUBLE_EQ(out[0], data.Value(0, 3));
}

TEST(IdwTest, WithinObservedRange) {
  SpatialDataset data = LinearFieldDataset(20, 53);
  IdwInterpolator idw;
  idw.Fit(data, Range(0, 15));
  const auto out =
      idw.InterpolateTimestamp(data.Values(0), Range(0, 15), {16, 17});
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 15; ++i) {
    lo = std::min(lo, data.Value(0, i));
    hi = std::max(hi, data.Value(0, i));
  }
  for (double v : out) {
    EXPECT_GE(v, lo);  // IDW is a convex combination.
    EXPECT_LE(v, hi);
  }
}

TEST(IdwTest, NearestStationDominates) {
  std::vector<Station> stations(3);
  stations[0].position = {0, 0};
  stations[1].position = {10, 0};
  stations[2].position = {0.1, 0};  // Query target near station 0.
  SpatialDataset data(stations);
  data.AddTimestamp({100.0, 0.0, 0.0});
  IdwInterpolator idw;
  idw.Fit(data, {0, 1});
  const auto out = idw.InterpolateTimestamp(data.Values(0), {0, 1}, {2});
  EXPECT_GT(out[0], 95.0);
}

// --------------------------------------------------------------------- TIN

TEST(TinTest, ReproducesLinearFieldInsideHull) {
  SpatialDataset data = LinearFieldDataset(40, 54);
  TinInterpolator tin;
  tin.Fit(data, Range(0, 30));
  // Queries 30..39; check only those inside the hull via error size.
  const auto out =
      tin.InterpolateTimestamp(data.Values(0), Range(0, 30), Range(30, 40));
  int exact = 0;
  for (int q = 0; q < 10; ++q) {
    if (std::fabs(out[q] - data.Value(0, 30 + q)) < 1e-6) ++exact;
  }
  EXPECT_GE(exact, 5);  // Most random queries land inside the hull.
}

TEST(TinTest, BatchMatchesPerTimestampCalls) {
  // InterpolateBatch triangulates once for the whole batch; each
  // InterpolateTimestamp call triangulates on its own. Both must agree.
  SpatialDataset data = LinearFieldDataset(25, 55);
  data.AddTimestamp(data.Values(0));  // Second timestamp, same values.
  TinInterpolator tin;
  tin.Fit(data, Range(0, 20));
  const auto a =
      tin.InterpolateTimestamp(data.Values(0), Range(0, 20), {21, 23});
  const auto b =
      tin.InterpolateTimestamp(data.Values(1), Range(0, 20), {21, 23});
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  const auto batch = tin.InterpolateBatch({&data.Values(0), &data.Values(1)},
                                          Range(0, 20), {21, 23});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], a);
  EXPECT_EQ(batch[1], b);
}

// --------------------------------------------------------------------- TPS

TEST(TpsTest, KernelBasics) {
  EXPECT_DOUBLE_EQ(TpsInterpolator::Kernel(0.0), 0.0);
  EXPECT_DOUBLE_EQ(TpsInterpolator::Kernel(1.0), 0.0);  // log(1) = 0.
  EXPECT_GT(TpsInterpolator::Kernel(3.0), 0.0);
  EXPECT_LT(TpsInterpolator::Kernel(0.5), 0.0);  // r<1: negative log.
}

TEST(TpsTest, ReproducesLinearFieldExactly) {
  // The affine part of TPS captures any linear field with zero bending
  // energy, regardless of smoothing.
  SpatialDataset data = LinearFieldDataset(30, 56);
  TpsInterpolator tps;
  tps.Fit(data, Range(0, 25));
  const auto out =
      tps.InterpolateTimestamp(data.Values(0), Range(0, 25), Range(25, 30));
  for (int q = 0; q < 5; ++q) {
    EXPECT_NEAR(out[q], data.Value(0, 25 + q), 1e-6);
  }
}

TEST(TpsTest, InterpolatesSmoothNonlinearField) {
  Rng rng(57);
  std::vector<Station> stations(60);
  for (auto& s : stations) s.position = {rng.Uniform(0, 20), rng.Uniform(0, 20)};
  SpatialDataset data(std::move(stations));
  std::vector<double> values(60);
  for (int i = 0; i < 60; ++i) {
    const PointKm& p = data.station(i).position;
    values[i] = std::sin(p.x / 5.0) + std::cos(p.y / 4.0);
  }
  data.AddTimestamp(values);
  TpsInterpolator tps;
  tps.Fit(data, Range(0, 50));
  const auto out =
      tps.InterpolateTimestamp(data.Values(0), Range(0, 50), Range(50, 60));
  for (int q = 0; q < 10; ++q) {
    EXPECT_NEAR(out[q], data.Value(0, 50 + q), 0.15);
  }
}

// --------------------------------------------------------------- Variogram

TEST(VariogramModelTest, ShapesAndLimits) {
  VariogramModel m;
  m.type = VariogramModel::Type::kSpherical;
  m.nugget = 0.2;
  m.partial_sill = 1.0;
  m.range = 10.0;
  EXPECT_DOUBLE_EQ(m(0.0), 0.0);           // Exactly zero at zero lag.
  EXPECT_NEAR(m(1e-9), 0.2, 1e-6);         // Nugget discontinuity.
  EXPECT_DOUBLE_EQ(m(10.0), 1.2);          // Sill reached at range.
  EXPECT_DOUBLE_EQ(m(50.0), 1.2);          // Flat beyond.
  EXPECT_LT(m(3.0), m(6.0));               // Monotone within range.

  m.type = VariogramModel::Type::kExponential;
  EXPECT_NEAR(m(10.0), 0.2 + 1.0 * (1.0 - std::exp(-3.0)), 1e-12);
  m.type = VariogramModel::Type::kGaussian;
  EXPECT_LT(m(1.0), 0.35);  // Gaussian is flat near the origin.
  m.type = VariogramModel::Type::kLinear;
  EXPECT_NEAR(m(5.0), 0.7, 1e-12);
}

TEST(EmpiricalVariogramTest, RecoversIncreasingStructure) {
  // Values from a smooth field: semivariance must grow with lag.
  Rng rng(58);
  std::vector<PointKm> pts;
  std::vector<double> values;
  for (int i = 0; i < 120; ++i) {
    PointKm p{rng.Uniform(0, 40), rng.Uniform(0, 40)};
    pts.push_back(p);
    values.push_back(std::sin(p.x / 8.0) * std::cos(p.y / 9.0));
  }
  const auto bins = EmpiricalVariogram(pts, values, 10);
  ASSERT_GE(bins.size(), 5u);
  EXPECT_LT(bins.front().gamma, bins.back().gamma);
  for (size_t i = 1; i < bins.size(); ++i) {
    EXPECT_GT(bins[i].lag, bins[i - 1].lag);
    EXPECT_GT(bins[i].count, 0);
  }
}

TEST(FitVariogramTest, RecoversSyntheticParameters) {
  // Bins generated directly from a known spherical model.
  VariogramModel truth;
  truth.type = VariogramModel::Type::kSpherical;
  truth.nugget = 0.1;
  truth.partial_sill = 2.0;
  truth.range = 12.0;
  std::vector<VariogramBin> bins;
  for (int i = 1; i <= 15; ++i) {
    VariogramBin b;
    b.lag = i * 1.5;
    b.gamma = truth(b.lag);
    b.count = 40;
    bins.push_back(b);
  }
  VariogramModel fit;
  ASSERT_TRUE(
      FitVariogram(bins, VariogramModel::Type::kSpherical, &fit));
  EXPECT_NEAR(fit.nugget, truth.nugget, 0.15);
  EXPECT_NEAR(fit.partial_sill, truth.partial_sill, 0.3);
  EXPECT_NEAR(fit.range, truth.range, 3.0);
}

TEST(FitVariogramTest, ConstantFieldFails) {
  std::vector<VariogramBin> bins;
  for (int i = 1; i <= 8; ++i) {
    bins.push_back({i * 1.0, 0.0, 10});
  }
  VariogramModel fit;
  EXPECT_FALSE(FitVariogram(bins, VariogramModel::Type::kSpherical, &fit));
}

// ----------------------------------------------------------------- Kriging

TEST(KrigingTest, WeightsSumToOneImpliesUnbiasedConstant) {
  // For a constant field, OK must return exactly that constant.
  SpatialDataset data = LinearFieldDataset(25, 59, 5.0, 0.0, 0.0);
  KrigingInterpolator ok;
  ok.Fit(data, Range(0, 20));
  const auto out =
      ok.InterpolateTimestamp(data.Values(0), Range(0, 20), Range(20, 25));
  for (double v : out) EXPECT_NEAR(v, 5.0, 1e-6);
}

TEST(KrigingTest, InterpolatesSmoothField) {
  Rng rng(60);
  std::vector<Station> stations(80);
  for (auto& s : stations) {
    s.position = {rng.Uniform(0, 30), rng.Uniform(0, 30)};
  }
  SpatialDataset data(std::move(stations));
  std::vector<double> values(80);
  for (int i = 0; i < 80; ++i) {
    const PointKm& p = data.station(i).position;
    values[i] = 3.0 + std::sin(p.x / 6.0) + std::cos(p.y / 7.0);
  }
  data.AddTimestamp(values);
  KrigingInterpolator ok;
  ok.Fit(data, Range(0, 70));
  const auto out =
      ok.InterpolateTimestamp(data.Values(0), Range(0, 70), Range(70, 80));
  for (int q = 0; q < 10; ++q) {
    EXPECT_NEAR(out[q], data.Value(0, 70 + q), 0.25);
  }
}

TEST(KrigingTest, BeatsGlobalMeanOnStructuredField) {
  Rng rng(61);
  std::vector<Station> stations(60);
  for (auto& s : stations) {
    s.position = {rng.Uniform(0, 30), rng.Uniform(0, 30)};
  }
  SpatialDataset data(std::move(stations));
  std::vector<double> values(60);
  double mean = 0.0;
  for (int i = 0; i < 60; ++i) {
    const PointKm& p = data.station(i).position;
    values[i] = p.x * 0.3 + std::sin(p.y / 3.0);
    mean += values[i];
  }
  mean /= 60;
  data.AddTimestamp(values);
  KrigingInterpolator ok;
  ok.Fit(data, Range(0, 50));
  const auto out =
      ok.InterpolateTimestamp(data.Values(0), Range(0, 50), Range(50, 60));
  double ok_err = 0.0, mean_err = 0.0;
  for (int q = 0; q < 10; ++q) {
    ok_err += std::fabs(out[q] - data.Value(0, 50 + q));
    mean_err += std::fabs(mean - data.Value(0, 50 + q));
  }
  EXPECT_LT(ok_err, mean_err);
}

}  // namespace
}  // namespace ssin
