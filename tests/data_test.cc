#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/stats.h"
#include "data/dataset.h"
#include "data/rainfall_generator.h"
#include "data/traffic_generator.h"

namespace ssin {
namespace {

TEST(DatasetTest, AddAndSlice) {
  std::vector<Station> stations(3);
  SpatialDataset data(stations);
  for (int t = 0; t < 5; ++t) {
    data.AddTimestamp({t * 1.0, t * 2.0, t * 3.0});
  }
  EXPECT_EQ(data.num_timestamps(), 5);
  EXPECT_DOUBLE_EQ(data.Value(2, 1), 4.0);

  SpatialDataset merged = data.ConcatTimestamps(data);
  EXPECT_EQ(merged.num_timestamps(), 10);
  EXPECT_DOUBLE_EQ(merged.Value(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(merged.Value(5, 2), 0.0);  // The appended t = 0.
  EXPECT_DOUBLE_EQ(merged.Value(7, 1), 4.0);
  EXPECT_EQ(data.num_timestamps(), 5);  // The source is untouched.
}

TEST(DatasetTest, TravelDistancePropagatesThroughSlice) {
  std::vector<Station> stations(2);
  SpatialDataset data(stations);
  data.AddTimestamp({1.0, 2.0});
  Matrix travel(2, 2);
  travel(0, 1) = travel(1, 0) = 7.0;
  data.SetTravelDistance(travel);
  SpatialDataset merged = data.ConcatTimestamps(data);
  ASSERT_TRUE(merged.has_travel_distance());
  EXPECT_DOUBLE_EQ(merged.travel_distance()(0, 1), 7.0);
}

TEST(NodeSplitTest, DisjointAndComplete) {
  Rng rng(41);
  const NodeSplit split = RandomNodeSplit(123, 0.2, &rng);
  EXPECT_EQ(split.test_ids.size(), 25u);  // round(123 * 0.2).
  EXPECT_EQ(split.train_ids.size(), 98u);
  std::set<int> all;
  all.insert(split.train_ids.begin(), split.train_ids.end());
  all.insert(split.test_ids.begin(), split.test_ids.end());
  EXPECT_EQ(all.size(), 123u);
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), 122);
}

TEST(NodeSplitTest, AtLeastOneEach) {
  Rng rng(42);
  const NodeSplit tiny = RandomNodeSplit(2, 0.01, &rng);
  EXPECT_EQ(tiny.test_ids.size(), 1u);
  EXPECT_EQ(tiny.train_ids.size(), 1u);
}

TEST(PlaceStationsTest, InsideDomainAndCorrectCount) {
  RainfallRegionConfig config = HkRegionConfig();
  Rng rng(config.station_seed);
  std::vector<PointKm> pts = PlaceStations(config, &rng);
  EXPECT_EQ(static_cast<int>(pts.size()), config.num_gauges);
  for (const PointKm& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, config.width_km);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, config.height_km);
  }
}

TEST(SmoothFieldTest, CorrelationDecaysWithDistance) {
  Rng rng(43);
  RunningStats near_diff, far_diff;
  for (int trial = 0; trial < 30; ++trial) {
    SmoothField field(10.0, 48, &rng);
    const double base = field.At({25.0, 20.0});
    near_diff.Add(std::fabs(field.At({26.0, 20.0}) - base));
    far_diff.Add(std::fabs(field.At({60.0, 55.0}) - base));
  }
  EXPECT_LT(near_diff.mean(), far_diff.mean());
}

class RainfallGeneratorTest : public ::testing::Test {
 protected:
  RainfallGeneratorTest() : generator_(HkRegionConfig()) {}
  RainfallGenerator generator_;
};

TEST_F(RainfallGeneratorTest, StationNetworkMatchesConfig) {
  EXPECT_EQ(static_cast<int>(generator_.stations().size()), 123);
  // Lat/lon roundtrip: station 0's latlon should project back close to its
  // planar position.
  const Station& s = generator_.stations()[5];
  EXPECT_GT(s.latlon.lat, 21.9);
  EXPECT_LT(s.latlon.lat, 22.7);
}

TEST_F(RainfallGeneratorTest, ValuesQuantizedAndNonNegative) {
  SpatialDataset data = generator_.GenerateHours(20, 1);
  EXPECT_EQ(data.num_timestamps(), 20);
  for (int t = 0; t < data.num_timestamps(); ++t) {
    for (int s = 0; s < data.num_stations(); ++s) {
      const double v = data.Value(t, s);
      EXPECT_GE(v, 0.0);
      // 0.1-mm precision.
      EXPECT_NEAR(v * 10.0, std::round(v * 10.0), 1e-9);
    }
  }
}

TEST_F(RainfallGeneratorTest, EveryHourIsRainy) {
  SpatialDataset data = generator_.GenerateHours(30, 2);
  const int min_wet = static_cast<int>(0.08 * 123);
  for (int t = 0; t < data.num_timestamps(); ++t) {
    int wet = 0;
    for (int s = 0; s < data.num_stations(); ++s) {
      if (data.Value(t, s) > 0.0) ++wet;
    }
    EXPECT_GE(wet, min_wet);
  }
}

TEST_F(RainfallGeneratorTest, DeterministicBySeed) {
  SpatialDataset a = generator_.GenerateHours(5, 7);
  SpatialDataset b = generator_.GenerateHours(5, 7);
  for (int t = 0; t < 5; ++t) {
    for (int s = 0; s < a.num_stations(); ++s) {
      EXPECT_DOUBLE_EQ(a.Value(t, s), b.Value(t, s));
    }
  }
  SpatialDataset c = generator_.GenerateHours(5, 8);
  int differing = 0;
  for (int s = 0; s < a.num_stations(); ++s) {
    if (a.Value(0, s) != c.Value(0, s)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST_F(RainfallGeneratorTest, SpatialCorrelationDecaysWithDistance) {
  // The defining property for interpolation: nearby gauges co-vary more
  // than distant ones.
  SpatialDataset data = generator_.GenerateHours(120, 3);
  const auto& stations = generator_.stations();
  auto series = [&](int s) {
    std::vector<double> v(data.num_timestamps());
    for (int t = 0; t < data.num_timestamps(); ++t) v[t] = data.Value(t, s);
    return v;
  };
  RunningStats near_corr, far_corr;
  for (int i = 0; i < 123; i += 7) {
    double best_near = 1e9, best_far = -1.0;
    int near_j = -1, far_j = -1;
    for (int j = 0; j < 123; ++j) {
      if (j == i) continue;
      const double d =
          DistanceKm(stations[i].position, stations[j].position);
      if (d < best_near) {
        best_near = d;
        near_j = j;
      }
      if (d > best_far) {
        best_far = d;
        far_j = j;
      }
    }
    near_corr.Add(PearsonCorrelation(series(i), series(near_j)));
    far_corr.Add(PearsonCorrelation(series(i), series(far_j)));
  }
  EXPECT_GT(near_corr.mean(), far_corr.mean() + 0.1);
}

TEST_F(RainfallGeneratorTest, OrographyCreatesPersistentBias) {
  // Stations with high terrain multiplier should accumulate more rain.
  SpatialDataset data = generator_.GenerateHours(150, 4);
  const auto& stations = generator_.stations();
  std::vector<double> totals(123, 0.0), orography(123);
  for (int s = 0; s < 123; ++s) {
    orography[s] = generator_.OrographyAt(stations[s].position);
    for (int t = 0; t < data.num_timestamps(); ++t) {
      totals[s] += data.Value(t, s);
    }
  }
  EXPECT_GT(PearsonCorrelation(totals, orography), 0.3);
}

TEST_F(RainfallGeneratorTest, ExtraPointsSeeTheSameField) {
  // Query points collocated with gauges must receive near-identical values
  // (up to independent gauge noise).
  const auto& stations = generator_.stations();
  std::vector<PointKm> extra = {stations[0].position,
                                stations[50].position};
  SpatialDataset data = generator_.GenerateHoursAt(extra, 25, 5);
  ASSERT_EQ(data.num_stations(), 125);
  RunningStats rel_err;
  for (int t = 0; t < data.num_timestamps(); ++t) {
    rel_err.Add(std::fabs(data.Value(t, 123) - data.Value(t, 0)) /
                (data.Value(t, 0) + 1.0));
  }
  EXPECT_LT(rel_err.mean(), 0.25);  // Same field, only gauge noise differs.
}

TEST(RainfallRegionsTest, BwIsLighterThanHk) {
  RainfallGenerator hk(HkRegionConfig());
  RainfallGenerator bw(BwRegionConfig());
  auto mean_rain = [](const SpatialDataset& d) {
    double sum = 0.0;
    int64_t n = 0;
    for (int t = 0; t < d.num_timestamps(); ++t) {
      for (int s = 0; s < d.num_stations(); ++s) {
        sum += d.Value(t, s);
        ++n;
      }
    }
    return sum / n;
  };
  const double hk_mean = mean_rain(hk.GenerateHours(60, 11));
  const double bw_mean = mean_rain(bw.GenerateHours(60, 11));
  EXPECT_GT(hk_mean, 1.5 * bw_mean);  // Paper: HK errors ~2-3x BW errors.
}

class TrafficGeneratorTest : public ::testing::Test {
 protected:
  static TrafficNetworkConfig SmallConfig() {
    TrafficNetworkConfig config;
    config.corridors_ew = 4;
    config.corridors_ns = 4;
    config.extent_km = 30.0;
    config.num_sensors = 80;
    return config;
  }
};

TEST_F(TrafficGeneratorTest, NetworkAndSensors) {
  TrafficGenerator gen(SmallConfig());
  EXPECT_EQ(gen.num_sensors(), 80);
  SpatialDataset data = gen.Generate(50, 1);
  EXPECT_EQ(data.num_stations(), 80);
  EXPECT_TRUE(data.has_travel_distance());
}

TEST_F(TrafficGeneratorTest, TravelDistanceDominatesEuclidean) {
  TrafficGenerator gen(SmallConfig());
  SpatialDataset data = gen.Generate(1, 2);
  const Matrix& travel = data.travel_distance();
  int strict = 0, comparable = 0;
  for (int i = 0; i < data.num_stations(); ++i) {
    for (int j = i + 1; j < data.num_stations(); ++j) {
      const double euclid = DistanceKm(data.station(i).position,
                                       data.station(j).position);
      if (!std::isfinite(travel(i, j))) continue;
      EXPECT_GE(travel(i, j) + 1e-6, euclid * 0.9);
      if (travel(i, j) > euclid * 1.5) ++strict;
      ++comparable;
    }
  }
  // A meaningful fraction of pairs require real detours.
  EXPECT_GT(strict, comparable / 10);
}

TEST_F(TrafficGeneratorTest, SpeedsInPlausibleRange) {
  TrafficGenerator gen(SmallConfig());
  SpatialDataset data = gen.Generate(100, 3);
  double min_v = 1e9, max_v = -1e9;
  for (int t = 0; t < data.num_timestamps(); ++t) {
    for (int s = 0; s < data.num_stations(); ++s) {
      min_v = std::min(min_v, data.Value(t, s));
      max_v = std::max(max_v, data.Value(t, s));
    }
  }
  EXPECT_GE(min_v, 3.0);
  EXPECT_LE(max_v, 80.0);
  EXPECT_LT(min_v, 50.0);  // Congestion actually happens.
  EXPECT_GT(max_v, 55.0);  // Free flow actually happens.
}

TEST_F(TrafficGeneratorTest, CorrelationFollowsTravelNotEuclid) {
  // The PEMS-BAY property the paper's §4.3 relies on: among pairs that are
  // geographically close, the travel-connected ones co-vary more.
  TrafficGenerator gen(SmallConfig());
  SpatialDataset data = gen.Generate(400, 4);
  const Matrix& travel = data.travel_distance();
  auto series = [&](int s) {
    std::vector<double> v(data.num_timestamps());
    for (int t = 0; t < data.num_timestamps(); ++t) v[t] = data.Value(t, s);
    return v;
  };
  RunningStats connected, detour;
  for (int i = 0; i < data.num_stations(); ++i) {
    for (int j = i + 1; j < data.num_stations(); ++j) {
      const double euclid = DistanceKm(data.station(i).position,
                                       data.station(j).position);
      if (euclid > 6.0 || !std::isfinite(travel(i, j))) continue;
      const double corr = PearsonCorrelation(series(i), series(j));
      if (travel(i, j) < euclid * 1.3) {
        connected.Add(corr);
      } else if (travel(i, j) > euclid * 2.5) {
        detour.Add(corr);
      }
    }
  }
  ASSERT_GT(connected.count(), 10u);
  ASSERT_GT(detour.count(), 10u);
  EXPECT_GT(connected.mean(), detour.mean() + 0.05);
}

TEST_F(TrafficGeneratorTest, DeterministicBySeed) {
  TrafficGenerator gen(SmallConfig());
  SpatialDataset a = gen.Generate(5, 9);
  SpatialDataset b = gen.Generate(5, 9);
  for (int t = 0; t < 5; ++t) {
    for (int s = 0; s < a.num_stations(); ++s) {
      EXPECT_DOUBLE_EQ(a.Value(t, s), b.Value(t, s));
    }
  }
}

}  // namespace
}  // namespace ssin
