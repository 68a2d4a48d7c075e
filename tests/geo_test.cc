#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "geo/coords.h"
#include "geo/road_graph.h"
#include "geo/spatial_index.h"

namespace ssin {
namespace {

TEST(HaversineTest, KnownDistances) {
  // One degree of latitude is ~111.2 km.
  const LatLon a{22.0, 114.0};
  const LatLon b{23.0, 114.0};
  EXPECT_NEAR(HaversineKm(a, b), 111.2, 0.5);
  EXPECT_DOUBLE_EQ(HaversineKm(a, a), 0.0);
}

TEST(HaversineTest, Symmetry) {
  const LatLon a{22.3, 114.2}, b{22.5, 113.9};
  EXPECT_DOUBLE_EQ(HaversineKm(a, b), HaversineKm(b, a));
}

TEST(AzimuthTest, CardinalDirections) {
  const LatLon origin{22.0, 114.0};
  EXPECT_NEAR(AzimuthRad(origin, LatLon{23.0, 114.0}), 0.0, 1e-6);  // North.
  EXPECT_NEAR(AzimuthRad(origin, LatLon{22.0, 115.0}), kPi / 2.0,
              0.01);  // East.
  EXPECT_NEAR(AzimuthRad(origin, LatLon{21.0, 114.0}), kPi, 1e-6);  // South.
  EXPECT_NEAR(AzimuthRad(origin, LatLon{22.0, 113.0}), 3.0 * kPi / 2.0,
              0.01);  // West.
}

TEST(AzimuthTest, PlanarCardinals) {
  const PointKm origin{0, 0};
  EXPECT_NEAR(AzimuthRad(origin, PointKm{0, 5}), 0.0, 1e-12);
  EXPECT_NEAR(AzimuthRad(origin, PointKm{5, 0}), kPi / 2.0, 1e-12);
  EXPECT_NEAR(AzimuthRad(origin, PointKm{0, -5}), kPi, 1e-12);
  EXPECT_NEAR(AzimuthRad(origin, PointKm{-5, 0}), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(AzimuthRad(origin, PointKm{3, 3}), kPi / 4.0, 1e-12);
}

TEST(ProjectionTest, ConsistentWithHaversine) {
  const LatLon origin{22.0, 114.0};
  const LatLon p{22.3, 114.4};
  const PointKm projected = ProjectEquirectangular(p, origin);
  const double planar =
      DistanceKm(ProjectEquirectangular(origin, origin), projected);
  EXPECT_NEAR(planar, HaversineKm(origin, p), 0.2);  // City scale: < 200 m.
}

TEST(RoadGraphTest, DijkstraOnLine) {
  RoadGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode({static_cast<double>(i), 0.0});
  for (int i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1);
  std::vector<double> dist = g.ShortestPathsFrom(0);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(dist[i], i, 1e-12);
}

TEST(RoadGraphTest, PrefersShorterPath) {
  RoadGraph g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddNode({2, 0});
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(0, 2, 5.0);  // Direct but longer.
  std::vector<double> dist = g.ShortestPathsFrom(0);
  EXPECT_NEAR(dist[2], 2.0, 1e-12);
}

TEST(RoadGraphTest, DisconnectedIsUnreachable) {
  RoadGraph g;
  g.AddNode({0, 0});
  g.AddNode({100, 100});
  std::vector<double> dist = g.ShortestPathsFrom(0);
  EXPECT_EQ(dist[1], RoadGraph::kUnreachable);
}

// ------------------------------------------------------- SpatialIndex

TEST(SpatialIndexTest, MatchesBruteForceOnRandomNetworks) {
  Rng rng(101);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 60 + trial * 80;
    std::vector<PointKm> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.Uniform(0, 120), rng.Uniform(0, 90)});
    }
    // Force exact duplicates (co-located gauges) so the (d2, index)
    // tie-break is actually exercised.
    for (int i = 0; i < n / 10; ++i) pts[n / 2 + i] = pts[i];
    const SpatialIndex index(pts);
    ASSERT_EQ(index.size(), n);
    for (int q = 0; q < 30; ++q) {
      // Queries inside and well outside the indexed bounding box.
      const PointKm query{rng.Uniform(-40, 160), rng.Uniform(-40, 130)};
      const int exclude = q % 3 == 0 ? q % n : -1;
      for (int k : {1, 7, 23, n, n + 9}) {
        EXPECT_EQ(index.KNearest(query, k, exclude),
                  BruteForceKNearest(pts, query, k, exclude))
            << "trial " << trial << " query " << q << " k " << k;
      }
    }
  }
}

TEST(SpatialIndexTest, TieBreaksByAscendingIndex) {
  // Four points exactly 5 km from the origin plus one closer point.
  const std::vector<PointKm> pts = {
      {5, 0}, {0, 5}, {-5, 0}, {0, -5}, {3, 0}};
  const SpatialIndex index(pts);
  EXPECT_EQ(index.KNearest({0, 0}, 3), (std::vector<int>{4, 0, 1}));
  EXPECT_EQ(index.KNearest({0, 0}, 5), (std::vector<int>{4, 0, 1, 2, 3}));
  // Excluding a tie member promotes the next index.
  EXPECT_EQ(index.KNearest({0, 0}, 3, /*exclude=*/0),
            (std::vector<int>{4, 1, 2}));
}

TEST(SpatialIndexTest, KBeyondSetSizeReturnsEveryPoint) {
  const std::vector<PointKm> pts = {{0, 0}, {1, 0}, {2, 0}};
  const SpatialIndex index(pts);
  EXPECT_EQ(index.KNearest({-1, 0}, 100), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(index.KNearest({-1, 0}, 100, /*exclude=*/1),
            (std::vector<int>{0, 2}));
  EXPECT_TRUE(index.KNearest({0, 0}, 0).empty());
}

TEST(SpatialIndexTest, RadiusQueriesAreInclusiveSortedAndCanBeEmpty) {
  std::vector<PointKm> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
  const SpatialIndex index(pts);
  // Inclusive boundary: the point at exactly radius distance is returned.
  EXPECT_EQ(index.WithinRadius({0, 0}, 3.0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(index.WithinRadius({0, 0}, 3.0, /*exclude=*/0),
            (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(index.WithinRadius({100, 100}, 5.0).empty());
  EXPECT_TRUE(index.WithinRadius({0, 0}, -1.0).empty());

  // Differential check against a brute-force filter on a random cloud.
  Rng rng(55);
  std::vector<PointKm> cloud;
  for (int i = 0; i < 150; ++i) {
    cloud.push_back({rng.Uniform(0, 60), rng.Uniform(0, 60)});
  }
  const SpatialIndex cloud_index(cloud);
  for (int q = 0; q < 20; ++q) {
    const PointKm query{rng.Uniform(-10, 70), rng.Uniform(-10, 70)};
    const double radius = rng.Uniform(0, 25);
    std::vector<std::pair<double, int>> expected;
    for (int i = 0; i < static_cast<int>(cloud.size()); ++i) {
      const double dx = cloud[i].x - query.x, dy = cloud[i].y - query.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= radius * radius) expected.emplace_back(d2, i);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<int> expected_ids;
    for (const auto& [d2, i] : expected) expected_ids.push_back(i);
    EXPECT_EQ(cloud_index.WithinRadius(query, radius), expected_ids);
  }
}

TEST(SpatialIndexTest, DegenerateGeometriesStayCorrect) {
  // Empty set.
  const SpatialIndex empty((std::vector<PointKm>()));
  EXPECT_TRUE(empty.KNearest({0, 0}, 5).empty());
  EXPECT_TRUE(empty.WithinRadius({0, 0}, 5.0).empty());

  // All points coincident: pure index-order ties, zero-area grid.
  const std::vector<PointKm> same(7, PointKm{3.0, 4.0});
  const SpatialIndex same_index(same);
  EXPECT_EQ(same_index.KNearest({0, 0}, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(same_index.WithinRadius({3, 4}, 0.0),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));

  // Collinear points: one axis degenerates to a single cell.
  std::vector<PointKm> line;
  for (int i = 0; i < 40; ++i) line.push_back({static_cast<double>(i), 2.0});
  const SpatialIndex line_index(line);
  for (int k : {1, 5, 40, 60}) {
    EXPECT_EQ(line_index.KNearest({17.2, -3.0}, k),
              BruteForceKNearest(line, {17.2, -3.0}, k));
  }

  // Single point excluded: nothing remains.
  const SpatialIndex one(std::vector<PointKm>{{1, 1}});
  EXPECT_TRUE(one.KNearest({0, 0}, 3, /*exclude=*/0).empty());
}

TEST(RoadGraphTest, AllPairsSymmetricAndTriangle) {
  Rng rng(32);
  RoadGraph g;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    g.AddNode({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n);  // Ring.
    if (i % 3 == 0) g.AddEdge(i, (i + 5) % n);  // Chords.
  }
  Matrix d = g.AllPairsTravelDistance();
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (int j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
      // Travel distance is at least the straight-line distance.
      EXPECT_GE(d(i, j) + 1e-9, DistanceKm(g.position(i), g.position(j)));
      for (int k = 0; k < n; ++k) {
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-9);  // Triangle.
      }
    }
  }
}

}  // namespace
}  // namespace ssin
