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
///    runs (and is bit-identical when k covers the sequence);
///  * cone level — a served layout holds only its queries' receptive
///    field, in request-ordered bands, each evaluated row keeping its
///    full-plan keys in order; what it serves equals the full-layout
///    forward bit for bit (f64 and f32, single and batched), and full
///    shielding or unshielded attention keep the full layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/inference_engine.h"
#include "core/masking.h"
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

// ---------------------------------------------------------- cone serving

/// One request: observed ids, then query ids.
struct Request {
  std::vector<int> observed, query;
};

/// 128 gauges, every fifth a held-out site: enough that a catchment's cone
/// leaves most of the network out.
struct ConeFixture {
  ConeFixture()
      : generator(SmallRegion(128)), data(generator.GenerateHours(6, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 5 == 4 ? sites : train_ids).push_back(i);
    }
    context.Build(data, train_ids);
  }

  /// The `count` stations of `candidates` nearest to `center`, ascending.
  std::vector<int> Nearest(const std::vector<int>& candidates, int center,
                           int count) const {
    const std::vector<PointKm> positions = data.Positions();
    std::vector<std::pair<double, int>> by_distance;
    for (int id : candidates) {
      by_distance.emplace_back(DistanceKm(positions[center], positions[id]),
                               id);
    }
    std::sort(by_distance.begin(), by_distance.end());
    std::vector<int> out;
    for (int i = 0; i < count; ++i) out.push_back(by_distance[i].second);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// A catchment around held-out site `center`: its `num_queries` nearest
  /// held-out sites queried, the two gauges nearest to it out.
  Request Catchment(int center, int num_queries) const {
    Request r;
    r.query = Nearest(sites, center, num_queries);
    const std::vector<int> down = Nearest(train_ids, center, 2);
    for (int id : train_ids) {
      if (std::find(down.begin(), down.end(), id) == down.end()) {
        r.observed.push_back(id);
      }
    }
    return r;
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> train_ids;
  std::vector<int> sites;
  SpatialContext context;
};

/// A model trained on the fixture, its output clamp off so every served
/// bit is compared.
std::unique_ptr<SsinInterpolator> FitCone(const ConeFixture& f,
                                          const SpaFormerConfig& config) {
  auto ssin = std::make_unique<SsinInterpolator>(config, FastTraining());
  ssin->Fit(f.data, f.train_ids);
  ssin->set_non_negative(false);
  return ssin;
}

/// The full-layout forward the served values must equal: the standalone
/// layout over the whole request, Predict or PredictF32 on the request's
/// full standardized input, then destandardize and clamp as serving does.
std::vector<double> FullLayoutForward(SsinInterpolator* ssin,
                                      const SpatialContext& context,
                                      const std::vector<double>& values,
                                      const Request& r, bool f32) {
  SpaFormer* model = ssin->model();
  InferenceWorkspace ws;
  const std::shared_ptr<const SequenceLayout> layout =
      BuildSequenceLayout(model, context, r.observed, r.query, &ws);
  std::vector<double> observed_values;
  for (int id : r.observed) observed_values.push_back(values[id]);
  MaskingOptions options;
  options.mean_fill = FastTraining().mean_fill;
  const MaskedSequence seq = BuildInferenceSequence(
      observed_values, static_cast<int>(r.query.size()), options);
  std::vector<double> out;
  const auto finish = [&](const auto& predictions) {
    for (size_t q = 0; q < r.query.size(); ++q) {
      out.push_back(ApplyNonNegative(
          Destandardize(static_cast<double>(
                            predictions[static_cast<int64_t>(q)]),
                        seq.stats),
          ssin->non_negative()));
    }
  };
  if (f32) {
    F32WeightCache weights;
    finish(model->PredictF32(seq.input, *layout, *weights.EnsureFrom(model),
                             &ws));
  } else {
    finish(model->Predict(seq.input, *layout, &ws));
  }
  return out;
}

void ExpectBitEqual(const std::vector<double>& served,
                    const std::vector<double>& reference,
                    const std::string& what) {
  ASSERT_EQ(served.size(), reference.size()) << what;
  ASSERT_FALSE(served.empty()) << what;
  EXPECT_EQ(0, std::memcmp(served.data(), reference.data(),
                           served.size() * sizeof(double)))
      << what;
}

/// Every hour of the fixture served for `r` — through InterpolateTimestamp
/// and through InterpolateBatch at 1 and 3 threads, in f64 and f32 —
/// equals the full-layout forward bit for bit.
void ExpectServedMatchesFull(SsinInterpolator* ssin, const ConeFixture& f,
                             const Request& r) {
  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  for (bool f32 : {false, true}) {
    ssin->set_serving_precision(
        f32 ? SsinInterpolator::ServingPrecision::kFloat32
            : SsinInterpolator::ServingPrecision::kFloat64);
    const std::string precision = f32 ? "f32" : "f64";
    std::vector<std::vector<double>> reference;
    for (const std::vector<double>* values : batch) {
      reference.push_back(FullLayoutForward(ssin, f.context, *values, r, f32));
    }
    for (size_t t = 0; t < batch.size(); ++t) {
      ExpectBitEqual(ssin->InterpolateTimestamp(*batch[t], r.observed,
                                                r.query),
                     reference[t],
                     precision + " timestamp " + std::to_string(t));
    }
    for (int threads : {1, 3}) {
      const std::vector<std::vector<double>> served =
          ssin->InterpolateBatch(batch, r.observed, r.query, threads);
      ASSERT_EQ(served.size(), batch.size());
      for (size_t t = 0; t < batch.size(); ++t) {
        ExpectBitEqual(served[t], reference[t],
                       precision + " batch of " + std::to_string(threads) +
                           " threads, timestamp " + std::to_string(t));
      }
    }
  }
  ssin->set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
}

/// The served (cone) layout of `r` under `config`, on a fresh store.
std::shared_ptr<const SequenceLayout> ServedLayout(
    SpaFormer* model, const ConeFixture& f, const Request& r) {
  InferenceWorkspace ws;
  return BuildSequenceLayout(model, f.context, r.observed, r.query,
                             std::make_shared<PairStore>(), &ws);
}

/// The full plan of `r` under `config`, in request order.
std::shared_ptr<const AttentionPlan> FullPlan(const SpaFormerConfig& config,
                                              const ConeFixture& f,
                                              const Request& r) {
  std::vector<int> ids = r.observed;
  ids.insert(ids.end(), r.query.begin(), r.query.end());
  std::vector<uint8_t> observed(ids.size(), 0);
  std::fill_n(observed.begin(), r.observed.size(), 1);
  return BuildSequencePlan(config, f.context, ids, observed);
}

/// A served layout against the full plan of its request: bands in request
/// order with the queries last, and every row a layer evaluates keeps its
/// full-plan keys, in order, all inside the rows that layer reads.
void ExpectConeOf(const SequenceLayout& cone, const AttentionPlan& full,
                  const Request& r, int num_layers) {
  const int n = cone.length();
  const int num_requested = static_cast<int>(r.observed.size());
  ASSERT_EQ(static_cast<int>(cone.layer_begin.size()), num_layers + 1);
  EXPECT_EQ(cone.layer_begin[0], 0);
  EXPECT_EQ(cone.layer_begin[num_layers], cone.num_observed);
  ASSERT_EQ(n - cone.num_observed, static_cast<int>(r.query.size()));
  ASSERT_EQ(static_cast<int>(cone.request_rows.size()), n);
  ASSERT_EQ(cone.plan->length, n);
  for (int q = 0; q < static_cast<int>(r.query.size()); ++q) {
    EXPECT_EQ(cone.request_rows[cone.num_observed + q], num_requested + q);
    EXPECT_EQ(cone.node_ids[cone.num_observed + q], r.query[q]);
  }
  const AttentionPlan& plan = *cone.plan;
  int level = 0;  // The last layer that writes row r.
  for (int row = 0; row < n; ++row) {
    while (level < num_layers && row >= cone.layer_begin[level + 1]) ++level;
    const int p = cone.request_rows[row];
    if (row > 0 && row != cone.layer_begin[level]) {
      EXPECT_LT(cone.request_rows[row - 1], p) << "band order at row " << row;
    }
    EXPECT_EQ(cone.observed[row], p < num_requested ? 1 : 0);
    std::vector<int> keys;
    for (int64_t t = plan.offset[row]; t < plan.offset[row + 1]; ++t) {
      const int j = plan.key_index[t];
      if (level > 0) {
        EXPECT_GE(j, cone.layer_begin[level - 1])
            << "row " << row << " reads a row its layer does not";
      }
      keys.push_back(cone.request_rows[j]);
    }
    if (level == 0) {
      EXPECT_TRUE(keys.empty()) << "row " << row << " is outside S_1";
      continue;
    }
    const std::vector<int> full_keys(
        full.key_index.begin() + full.offset[p],
        full.key_index.begin() + full.offset[p + 1]);
    EXPECT_EQ(keys, full_keys) << "row " << row;
  }
}

/// Full-layout structure: request order, layer_begin {0, ..., 0, m}, and
/// the full plan itself.
void ExpectRequestOrder(const SequenceLayout& layout, const AttentionPlan& full,
                        const Request& r, int num_layers) {
  std::vector<int> ids = r.observed;
  ids.insert(ids.end(), r.query.begin(), r.query.end());
  EXPECT_EQ(layout.node_ids, ids);
  std::vector<int> layer_begin(num_layers + 1, 0);
  layer_begin.back() = static_cast<int>(r.observed.size());
  EXPECT_EQ(layout.layer_begin, layer_begin);
  ExpectPlansIdentical(*layout.plan, full);
}

TEST(ConeServingTest, CatchmentMatchesFullLayout) {
  ConeFixture f;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, TinyModel());
  for (int k : {4, 8}) {
    ssin->SetNeighborK(k);
    for (int c = 0; c < 3; ++c) {
      const Request r = f.Catchment(f.sites[7 * c + k], 3 + (c + k) % 4);
      const std::string what =
          "k=" + std::to_string(k) + " catchment " + std::to_string(c);
      SCOPED_TRACE(what);
      const std::shared_ptr<const SequenceLayout> cone =
          ServedLayout(ssin->model(), f, r);
      ExpectConeOf(*cone, *FullPlan(ssin->model()->config(), f, r), r,
                   TinyModel().num_layers);
      // The bands nest strictly, and the cone leaves rows out.
      const int request_rows =
          static_cast<int>(r.observed.size() + r.query.size());
      EXPECT_LT(cone->length(), request_rows);
      for (int t = 0; t < TinyModel().num_layers; ++t) {
        EXPECT_LT(cone->layer_begin[t], cone->layer_begin[t + 1]);
      }
      ExpectServedMatchesFull(ssin.get(), f, r);
    }
  }
}

TEST(ConeServingTest, OutageGaugeAsQueryMatchesFullLayout) {
  ConeFixture f;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, TinyModel());
  ssin->SetNeighborK(4);
  Request r = f.Catchment(f.sites[3], 4);
  // One of the two gauges out is asked for, between the sites.
  const int down = f.Nearest(f.train_ids, f.sites[3], 2)[0];
  r.query.insert(r.query.begin() + 2, down);
  ExpectConeOf(*ServedLayout(ssin->model(), f, r),
               *FullPlan(ssin->model()->config(), f, r), r,
               TinyModel().num_layers);
  ExpectServedMatchesFull(ssin.get(), f, r);
}

TEST(ConeServingTest, AllHeldOutMatchesFullLayout) {
  ConeFixture f;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, TinyModel());
  ssin->SetNeighborK(4);
  const Request r{f.train_ids, f.sites};
  ExpectConeOf(*ServedLayout(ssin->model(), f, r),
               *FullPlan(ssin->model()->config(), f, r), r,
               TinyModel().num_layers);
  ExpectServedMatchesFull(ssin.get(), f, r);
}

TEST(ConeServingTest, KCoveringObservedEqualsFullShielding) {
  ConeFixture f;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, TinyModel());
  const Request r = f.Catchment(f.sites[5], 5);
  const std::shared_ptr<const SequenceLayout> full_shielding =
      ServedLayout(ssin->model(), f, r);
  ExpectRequestOrder(*full_shielding,
                     *FullPlan(ssin->model()->config(), f, r), r,
                     TinyModel().num_layers);
  std::vector<std::vector<double>> full;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    full.push_back(
        ssin->InterpolateTimestamp(f.data.Values(t), r.observed, r.query));
  }

  ssin->SetNeighborK(static_cast<int>(r.observed.size()));
  const std::shared_ptr<const SequenceLayout> covering =
      ServedLayout(ssin->model(), f, r);
  ExpectRequestOrder(*covering, *full_shielding->plan, r,
                     TinyModel().num_layers);
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    ExpectBitEqual(
        ssin->InterpolateTimestamp(f.data.Values(t), r.observed, r.query),
        full[t], "timestamp " + std::to_string(t));
  }
  ExpectServedMatchesFull(ssin.get(), f, r);
}

TEST(ConeServingTest, SapeWithKnnMatchesFullLayout) {
  ConeFixture f;
  SpaFormerConfig config = TinyModel();
  config.position_mode = SpaFormerConfig::PositionMode::kSape;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, config);
  ssin->SetNeighborK(4);
  const Request r = f.Catchment(f.sites[11], 6);
  const std::shared_ptr<const SequenceLayout> cone =
      ServedLayout(ssin->model(), f, r);
  EXPECT_LT(cone->length(),
            static_cast<int>(r.observed.size() + r.query.size()));
  // SAPE embeds the cone's rows only.
  EXPECT_EQ(cone->sape.dim(0), cone->length());
  ExpectConeOf(*cone, *FullPlan(ssin->model()->config(), f, r), r,
               config.num_layers);
  ExpectServedMatchesFull(ssin.get(), f, r);
}

TEST(ConeServingTest, UnshieldedKeepsRequestOrder) {
  ConeFixture f;
  SpaFormerConfig config = TinyModel();
  config.shielded = false;
  std::unique_ptr<SsinInterpolator> ssin = FitCone(f, config);
  const Request r = f.Catchment(f.sites[2], 3);
  ExpectRequestOrder(*ServedLayout(ssin->model(), f, r),
                     *FullPlan(config, f, r), r, config.num_layers);
  ExpectServedMatchesFull(ssin.get(), f, r);
}

TEST(ConeServingTest, HkFullShieldingKeepsRequestOrder) {
  // The hk_shared deployment: paper config, 123 gauges, full shielding.
  // Its served layout is the full layout: request order, every row up to
  // the last layer, and the full plan.
  RainfallGenerator generator(HkRegionConfig());
  const SpatialDataset data = generator.GenerateHours(1, 7);
  Request r;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i < 113 ? r.observed : r.query).push_back(i);
  }
  SpatialContext context;
  context.Build(data, r.observed);
  Rng rng(7);
  SpaFormer model(SpaFormerConfig::Paper(), &rng);
  InferenceWorkspace ws;
  const std::shared_ptr<const SequenceLayout> served = BuildSequenceLayout(
      &model, context, r.observed, r.query, std::make_shared<PairStore>(),
      &ws);
  EXPECT_EQ(served->layer_begin, (std::vector<int>{0, 0, 0, 113}));
  std::vector<int> identity(data.num_stations());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(served->request_rows, identity);
  std::vector<uint8_t> observed(identity.size(), 0);
  std::fill_n(observed.begin(), 113, 1);
  ExpectRequestOrder(
      *served,
      *BuildSequencePlan(model.config(), context, served->node_ids, observed),
      r, SpaFormerConfig::Paper().num_layers);
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
