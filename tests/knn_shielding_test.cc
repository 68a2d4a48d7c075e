/// Pins the neighbor-limited shielding contract at every layer it crosses:
///
///  * plan level — BuildAttentionPlanLimited reproduces the full shielded
///    plan bit for bit (key order, offsets, pair rows) whenever the
///    neighbor lists cover every observed station, and caps per-query key
///    counts at k+1 otherwise;
///  * geometry level — SpatialContext::NearestObservedKeys returns the
///    geometric k nearest observed stations (by road distance on
///    travel-distance networks), ascending by sequence position, self
///    excluded; RelposForPairs row t is the standardized RawRelPos of
///    legal pair t; RawRelPos keeps the self-pair, symmetry,
///    opposite-azimuth and travel-distance conventions; the streaming
///    Build statistics match the retired transient-vector computation;
///  * system level — serving (engine and autograd) under
///    SetNeighborK(k >= num_observed) is bit-identical to full shielding,
///    the engine still matches autograd under a real cap, four threads
///    serving an overlapping pool of limited layouts through one shared
///    pair store match the serial results bit for bit, and training
///    runs (and is bit-identical when k covers the sequence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/inference_engine.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "tensor/attention_kernels.h"

namespace ssin {
namespace {

RainfallRegionConfig SmallRegion(int gauges) {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = gauges;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining() {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = 13;
  return config;
}

/// A dataset of stations at the given planar positions (no timestamps).
SpatialDataset PointsDataset(const std::vector<PointKm>& points) {
  std::vector<Station> stations;
  for (const PointKm& p : points) {
    Station s;
    s.id = "S";
    s.id += std::to_string(stations.size());
    s.position = p;
    stations.push_back(std::move(s));
  }
  return SpatialDataset(std::move(stations));
}

/// A dataset whose stations sit on a line at x = 0, 1, ..., n-1 km, so the
/// k nearest stations of any query are known by inspection.
SpatialDataset LineDataset(int n) {
  std::vector<PointKm> points;
  for (int i = 0; i < n; ++i) points.push_back({static_cast<double>(i), 0.0});
  SpatialDataset data = PointsDataset(points);
  std::vector<double> values(n, 1.0);
  data.AddTimestamp(std::move(values));
  return data;
}

std::vector<int> AllIds(int n) {
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

void ExpectPlansIdentical(const AttentionPlan& a, const AttentionPlan& b) {
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.num_observed, b.num_observed);
  EXPECT_EQ(a.shielded, b.shielded);
  EXPECT_EQ(a.key_index, b.key_index);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.pair_rows, b.pair_rows);
}

// ----------------------------------------------------------- plan level

TEST(LimitedPlanTest, EqualsFullPlanWhenNeighborListsCoverObserved) {
  Rng rng(211);
  for (int length : {1, 2, 5, 24, 57}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<uint8_t> observed(length, 0);
      for (int i = 0; i < length; ++i) {
        // Sweep from sparse to fully observed, including the all-observed
        // and (for trial 3) the no-observed patterns.
        observed[i] = trial == 3 ? 0 : rng.Uniform() < 0.3 * (trial + 1);
      }
      // Neighbor lists = all observed stations minus self, the maximal
      // legal input (what NearestObservedKeys returns for k >= observed).
      std::vector<std::vector<int>> neighbors(length);
      for (int i = 0; i < length; ++i) {
        for (int j = 0; j < length; ++j) {
          if (observed[j] && j != i) neighbors[i].push_back(j);
        }
      }
      AttentionPlan full, limited;
      BuildAttentionPlan(observed, /*shielded=*/true, &full);
      BuildAttentionPlanLimited(observed, neighbors, &limited);
      ExpectPlansIdentical(full, limited);
    }
  }
}

TEST(LimitedPlanTest, CapsPerQueryKeysAtKPlusSelf) {
  const int length = 30;
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < length; i += 2) observed[i] = 1;  // 15 observed.

  SpatialContext context;
  context.Build(LineDataset(length), AllIds(length));
  const int k = 4;
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = k;
  const std::shared_ptr<const AttentionPlan> plan =
      BuildSequencePlan(config, context, AllIds(length), observed);

  for (int i = 0; i < length; ++i) {
    const int64_t keys = plan->offset[i + 1] - plan->offset[i];
    EXPECT_LE(keys, k + 1) << "query " << i;
    bool saw_self = false;
    for (int64_t t = plan->offset[i]; t < plan->offset[i + 1]; ++t) {
      const int j = plan->key_index[t];
      EXPECT_TRUE(j == i || observed[j]);
      EXPECT_EQ(plan->pair_rows[t],
                static_cast<int64_t>(i) * length + j);
      saw_self = saw_self || j == i;
    }
    EXPECT_TRUE(saw_self) << "self must stay legal for query " << i;
  }
  EXPECT_LE(plan->num_pairs(), static_cast<int64_t>(length) * (k + 1));
}

// ------------------------------------------------------- geometry level

TEST(NearestObservedKeysTest, ReturnsGeometricNearestAscending) {
  const int length = 12;
  const SpatialDataset data = LineDataset(length);
  SpatialContext context;
  context.Build(data, AllIds(length));

  // Stations 0..9 observed; 10 and 11 are queries at x=10, x=11.
  std::vector<uint8_t> observed(length, 1);
  observed[10] = observed[11] = 0;
  const std::vector<std::vector<int>> keys =
      context.NearestObservedKeys(AllIds(length), observed, 3);

  // Query at x=11: nearest observed are x=9, 8, 7.
  EXPECT_EQ(keys[11], (std::vector<int>{7, 8, 9}));
  // Observed station at x=0: nearest others are x=1, 2, 3 — never itself.
  EXPECT_EQ(keys[0], (std::vector<int>{1, 2, 3}));
  // Middle station: x=4 and x=6 at distance 1, then the x=3 / x=7 tie at
  // distance 2 breaks toward the lower sequence position; the final list
  // is sorted ascending by position.
  EXPECT_EQ(keys[5], (std::vector<int>{3, 4, 6}));
  for (const std::vector<int>& list : keys) {
    for (size_t t = 1; t < list.size(); ++t) {
      EXPECT_LT(list[t - 1], list[t]);  // Strictly ascending positions.
    }
  }
}

TEST(NearestObservedKeysTest, KBeyondObservedCountReturnsAllMinusSelf) {
  const int length = 9;
  SpatialContext context;
  context.Build(LineDataset(length), AllIds(length));
  std::vector<uint8_t> observed(length, 1);
  observed[4] = 0;
  const std::vector<std::vector<int>> keys =
      context.NearestObservedKeys(AllIds(length), observed, 100);
  for (int i = 0; i < length; ++i) {
    std::vector<int> expected;
    for (int j = 0; j < length; ++j) {
      if (observed[j] && j != i) expected.push_back(j);
    }
    EXPECT_EQ(keys[i], expected) << "query " << i;
  }
}

TEST(NearestObservedKeysTest, TravelDistanceOrdersByRoad) {
  // Five stations on a line, but the road network ranks station 0's
  // neighbours 4, then 2 and 3 (tied), then 1 — the reverse of the planar
  // order for 4 and 1.
  const int length = 5;
  SpatialDataset data = LineDataset(length);
  Matrix travel(length, length);
  for (int a = 0; a < length; ++a) {
    for (int b = 0; b < length; ++b) {
      if (a != b) travel(a, b) = 10.0 + std::abs(a - b);
    }
  }
  const double from_zero[length] = {0.0, 9.0, 2.0, 2.0, 1.0};
  for (int j = 1; j < length; ++j) {
    travel(0, j) = travel(j, 0) = from_zero[j];
  }
  data.SetTravelDistance(travel);
  SpatialContext context;
  context.Build(data, AllIds(length));
  ASSERT_TRUE(context.has_travel_distance());

  const std::vector<uint8_t> observed(length, 1);
  const auto keys_of_zero = [&](int k) {
    return context.NearestObservedKeys(AllIds(length), observed, k)[0];
  };
  EXPECT_EQ(keys_of_zero(1), (std::vector<int>{4}));
  // The 2 km tie between stations 2 and 3 breaks by sequence position.
  EXPECT_EQ(keys_of_zero(2), (std::vector<int>{2, 4}));
  EXPECT_EQ(keys_of_zero(3), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(keys_of_zero(4), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(keys_of_zero(100), (std::vector<int>{1, 2, 3, 4}));
}

TEST(SpatialContextTest, RelposForPairsStandardizesRawRelPosOfEachPair) {
  RainfallGenerator generator(SmallRegion(26));
  const SpatialDataset data = generator.GenerateHours(1, 3);
  SpatialContext context;
  context.Build(data, AllIds(20));
  const RelPosStats& stats = context.relpos_stats();

  // Reversed ids: sequence position a holds station 25 - a, so the oracle
  // also pins the position -> station mapping.
  std::vector<int> ids = AllIds(26);
  std::reverse(ids.begin(), ids.end());
  std::vector<uint8_t> observed(26, 1);
  for (int i = 20; i < 26; ++i) observed[i] = 0;

  for (int k : {3, 7, 1000}) {
    SpaFormerConfig config = TinyModel();
    config.neighbor_k = k;
    const std::shared_ptr<const AttentionPlan> plan =
        BuildSequencePlan(config, context, ids, observed);
    const Tensor rows = context.RelposForPairs(ids, plan->pair_rows);
    ASSERT_EQ(rows.dim(0), plan->num_pairs());
    // Row t of legal pair (i, key_index[t]) is that station pair's raw
    // geometry standardized with the context's global statistics.
    for (int i = 0; i < plan->length; ++i) {
      for (int64_t t = plan->offset[i]; t < plan->offset[i + 1]; ++t) {
        const auto [dist, azim] =
            context.RawRelPos(ids[i], ids[plan->key_index[t]]);
        EXPECT_EQ(rows[t * 2],
                  (dist - stats.distance.mean) / stats.distance.std)
            << "k=" << k << " pair " << t;
        EXPECT_EQ(rows[t * 2 + 1],
                  (azim - stats.azimuth.mean) / stats.azimuth.std)
            << "k=" << k << " pair " << t;
      }
    }
  }
}

TEST(SpatialContextTest, RawRelPosConventions) {
  SpatialContext context;
  context.Build(PointsDataset({{0, 0}, {3, 4}, {-1, 2}}), AllIds(3));
  // Self pairs: zero distance, zero azimuth.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(context.RawRelPos(i, i).first, 0.0);
    EXPECT_DOUBLE_EQ(context.RawRelPos(i, i).second, 0.0);
  }
  // Pair (0, 1): distance 5.
  EXPECT_NEAR(context.RawRelPos(0, 1).first, 5.0, 1e-12);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      // Distances symmetric.
      EXPECT_DOUBLE_EQ(context.RawRelPos(a, b).first,
                       context.RawRelPos(b, a).first);
      // Opposite azimuths differ by pi (mod 2 pi) — Figure 4 of the paper.
      const double diff = std::fabs(context.RawRelPos(a, b).second -
                                    context.RawRelPos(b, a).second);
      EXPECT_NEAR(std::fmod(diff, 2.0 * kPi), kPi, 1e-9);
    }
  }
}

TEST(SpatialContextTest, RawRelPosTravelDistanceOverridesEuclid) {
  SpatialDataset data = PointsDataset({{0, 0}, {1, 0}});
  Matrix travel(2, 2);
  travel(0, 1) = travel(1, 0) = 9.0;  // Long way around on the road.
  data.SetTravelDistance(travel);
  SpatialContext context;
  context.Build(data, AllIds(2));
  EXPECT_DOUBLE_EQ(context.RawRelPos(0, 1).first, 9.0);
  // Azimuth still from the planar coordinates: due east.
  EXPECT_NEAR(context.RawRelPos(0, 1).second, kPi / 2.0, 1e-12);
}

TEST(SpatialContextTest, StreamingBuildStatsMatchVectorReference) {
  RainfallGenerator generator(SmallRegion(30));
  const SpatialDataset data = generator.GenerateHours(1, 5);
  std::vector<int> train_ids;
  for (int i = 0; i < 30; i += 2) train_ids.push_back(i);

  SpatialContext context;
  context.Build(data, train_ids);

  // The retired implementation: materialize every ordered off-diagonal
  // train pair into vectors, then two-pass mean / population std.
  std::vector<double> dists, azims;
  for (int a : train_ids) {
    for (int b : train_ids) {
      if (a == b) continue;
      const auto [dist, azim] = context.RawRelPos(a, b);
      dists.push_back(dist);
      azims.push_back(azim);
    }
  }
  const auto two_pass = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    const double mean = sum / v.size();
    double sq = 0.0;
    for (double x : v) sq += (x - mean) * (x - mean);
    return std::pair<double, double>(
        mean, std::max(std::sqrt(sq / v.size()), 1e-8));
  };
  const auto [dist_mean, dist_std] = two_pass(dists);
  const auto [azim_mean, azim_std] = two_pass(azims);
  EXPECT_NEAR(context.relpos_stats().distance.mean, dist_mean, 1e-12);
  EXPECT_NEAR(context.relpos_stats().distance.std, dist_std, 1e-12);
  EXPECT_NEAR(context.relpos_stats().azimuth.mean, azim_mean, 1e-12);
  EXPECT_NEAR(context.relpos_stats().azimuth.std, azim_std, 1e-12);
}

// --------------------------------------------------------- system level

struct Fixture {
  Fixture()
      : generator(SmallRegion(32)), data(generator.GenerateHours(10, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
    }
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
};

TEST(KnnServingTest, KCoveringObservedIsBitIdenticalToFullShielding) {
  Fixture f;
  SsinInterpolator model(TinyModel(), FastTraining());
  model.Fit(f.data, f.observed_ids);

  std::vector<std::vector<double>> full_engine, full_autograd;
  for (int t = 0; t < 4; ++t) {
    full_engine.push_back(model.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids));
    full_autograd.push_back(model.InterpolateTimestampAutograd(
        f.data.Values(t), f.observed_ids, f.query_ids));
  }

  // SetNeighborK must invalidate cached layouts: they embed the plan
  // built for the previous k.
  const int64_t invalidations_before = model.layout_cache().invalidations();
  model.SetNeighborK(f.data.num_stations());  // k >= L - 1 >= observed.
  EXPECT_EQ(model.neighbor_k(), f.data.num_stations());
  EXPECT_GT(model.layout_cache().invalidations(), invalidations_before);

  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(model.InterpolateTimestamp(f.data.Values(t), f.observed_ids,
                                         f.query_ids),
              full_engine[t]);
    EXPECT_EQ(model.InterpolateTimestampAutograd(
                  f.data.Values(t), f.observed_ids, f.query_ids),
              full_autograd[t]);
  }

  // And k = num_observed exactly (the tight bound) is still identical.
  model.SetNeighborK(static_cast<int>(f.observed_ids.size()));
  EXPECT_EQ(model.InterpolateTimestamp(f.data.Values(0), f.observed_ids,
                                       f.query_ids),
            full_engine[0]);
}

TEST(KnnServingTest, EngineMatchesAutogradUnderRealCap) {
  Fixture f;
  SsinInterpolator model(TinyModel(), FastTraining());
  model.Fit(f.data, f.observed_ids);
  model.SetNeighborK(5);

  for (int t = 0; t < 4; ++t) {
    const std::vector<double> engine = model.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    const std::vector<double> autograd = model.InterpolateTimestampAutograd(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ASSERT_EQ(engine.size(), autograd.size());
    for (size_t q = 0; q < engine.size(); ++q) {
      EXPECT_NEAR(engine[q], autograd[q], 1e-12);
      EXPECT_TRUE(std::isfinite(engine[q]));
    }
  }
}

TEST(KnnServingTest, ConcurrentOverlappingLayoutsMatchSerial) {
  // More distinct neighbor-limited layouts than the layout cache holds
  // (64), each one query pair plus a one-gauge outage: neighbouring
  // layouts share most station pairs, so four threads serving them
  // interleave pair-store lookups with appends of the pairs one layout
  // adds, and every cache fill evicts the cache and starts a fresh store
  // mid-run. Every concurrent result must equal the serial one bit for
  // bit.
  Fixture f;
  SsinInterpolator model(TinyModel(), FastTraining());
  model.Fit(f.data, f.observed_ids);
  model.SetNeighborK(4);

  struct Request {
    std::vector<int> observed, query;
    int hour;
  };
  std::vector<Request> requests;
  std::set<std::vector<int>> seen;
  Rng rng(404);
  const int stations = f.data.num_stations();
  while (requests.size() < 96) {
    const int a = static_cast<int>(rng.UniformInt(0, stations - 1));
    const int b = static_cast<int>(rng.UniformInt(0, stations - 1));
    const int out = static_cast<int>(rng.UniformInt(0, stations - 1));
    if (a == b || out == a || out == b || !seen.insert({a, b, out}).second) {
      continue;
    }
    Request r;
    for (int id = 0; id < stations; ++id) {
      if (id != a && id != b && id != out) r.observed.push_back(id);
    }
    r.query = {a, b};
    r.hour = static_cast<int>(requests.size()) % f.data.num_timestamps();
    requests.push_back(std::move(r));
  }

  std::vector<std::vector<double>> serial;
  for (const Request& r : requests) {
    serial.push_back(model.InterpolateTimestamp(f.data.Values(r.hour),
                                                r.observed, r.query));
  }

  const int64_t evictions = model.layout_cache().evictions();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<double>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread walks the whole pool from its own offset.
      const size_t n = requests.size();
      results[w].resize(n);
      for (size_t i = 0; i < n; ++i) {
        const size_t j = (i + w * n / kThreads) % n;
        const Request& r = requests[j];
        results[w][j] = model.InterpolateTimestamp(f.data.Values(r.hour),
                                                   r.observed, r.query);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_GT(model.layout_cache().evictions(), evictions);
  for (int w = 0; w < kThreads; ++w) {
    for (size_t j = 0; j < requests.size(); ++j) {
      EXPECT_EQ(results[w][j], serial[j]) << "thread " << w << " layout " << j;
    }
  }
}

TEST(KnnTrainingTest, TrainingRunsUnderNeighborLimit) {
  Fixture f;
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 6;
  SsinInterpolator model(config, FastTraining());
  model.Fit(f.data, f.observed_ids);
  ASSERT_FALSE(model.train_stats().epoch_loss.empty());
  for (double loss : model.train_stats().epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  const std::vector<double> preds = model.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  for (double p : preds) EXPECT_TRUE(std::isfinite(p));
}

TEST(KnnTrainingTest, KCoveringSequenceTrainsBitIdenticalToFull) {
  Fixture f;
  SsinInterpolator full(TinyModel(), FastTraining());
  full.Fit(f.data, f.observed_ids);

  SpaFormerConfig capped_config = TinyModel();
  capped_config.neighbor_k = f.data.num_stations();
  SsinInterpolator capped(capped_config, FastTraining());
  capped.Fit(f.data, f.observed_ids);

  // Identical init RNG + identical plans => the entire training
  // trajectory, and therefore every prediction, is bit-identical.
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(capped.InterpolateTimestamp(f.data.Values(t), f.observed_ids,
                                          f.query_ids),
              full.InterpolateTimestamp(f.data.Values(t), f.observed_ids,
                                        f.query_ids));
  }
}

}  // namespace
}  // namespace ssin
