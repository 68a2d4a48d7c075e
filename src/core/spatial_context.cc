#include "core/spatial_context.h"

#include <algorithm>

#include "geo/spatial_index.h"

namespace ssin {

void SpatialContext::Build(const SpatialDataset& data,
                           const std::vector<int>& train_ids) {
  num_stations_ = data.num_stations();
  SSIN_CHECK_GT(num_stations_, 1);
  positions_ = data.Positions();
  has_travel_ = data.has_travel_distance();
  travel_ = has_travel_ ? data.travel_distance() : Matrix();

  // Global standardization statistics over the training sub-network, in
  // one streaming pass over the ordered off-diagonal pairs (no transient
  // O(|train|^2) buffers).
  SSIN_CHECK_GT(train_ids.size(), 1u);
  RunningStats dists, azims, xs, ys;
  for (int a : train_ids) {
    SSIN_CHECK_GE(a, 0);
    SSIN_CHECK_LT(a, num_stations_);
    xs.Add(positions_[a].x);
    ys.Add(positions_[a].y);
    for (int b : train_ids) {
      if (a == b) continue;
      const auto [dist, azim] = RawRelPos(a, b);
      dists.Add(dist);
      azims.Add(azim);
    }
  }
  stats_.distance = dists.ToMeanStd();
  stats_.azimuth = azims.ToMeanStd();
  x_stats_ = xs.ToMeanStd();
  y_stats_ = ys.ToMeanStd();
}

std::pair<double, double> SpatialContext::RawRelPos(int a, int b) const {
  if (a == b) return {0.0, 0.0};
  const double dist = has_travel_ ? travel_(a, b)
                                  : DistanceKm(positions_[a], positions_[b]);
  return {dist, AzimuthRad(positions_[a], positions_[b])};
}

Tensor SpatialContext::RelposForPairs(
    const std::vector<int>& ids, const std::vector<int64_t>& pair_rows) const {
  const int length = static_cast<int>(ids.size());
  SSIN_CHECK_GT(length, 0);
  const int64_t dense_rows = static_cast<int64_t>(length) * length;
  Tensor out({static_cast<int>(pair_rows.size()), 2});
  for (size_t t = 0; t < pair_rows.size(); ++t) {
    const int64_t row = pair_rows[t];
    SSIN_CHECK_GE(row, 0);
    SSIN_CHECK_LT(row, dense_rows);
    const int a = static_cast<int>(row / length);
    const int b = static_cast<int>(row % length);
    const auto [dist, azim] = RawRelPos(ids[a], ids[b]);
    out[static_cast<int64_t>(t) * 2] =
        (dist - stats_.distance.mean) / stats_.distance.std;
    out[static_cast<int64_t>(t) * 2 + 1] =
        (azim - stats_.azimuth.mean) / stats_.azimuth.std;
  }
  return out;
}

Tensor SpatialContext::AbsposFor(const std::vector<int>& ids) const {
  const int length = static_cast<int>(ids.size());
  Tensor out({length, 2});
  for (int a = 0; a < length; ++a) {
    out[static_cast<int64_t>(a) * 2] =
        (positions_[ids[a]].x - x_stats_.mean) / x_stats_.std;
    out[static_cast<int64_t>(a) * 2 + 1] =
        (positions_[ids[a]].y - y_stats_.mean) / y_stats_.std;
  }
  return out;
}

std::vector<std::vector<int>> SpatialContext::NearestObservedKeys(
    const std::vector<int>& ids, const std::vector<uint8_t>& observed,
    int k, double radius_km) const {
  const int length = static_cast<int>(ids.size());
  SSIN_CHECK_EQ(static_cast<int>(observed.size()), length);
  SSIN_CHECK_GE(k, 0);
  SSIN_CHECK_GE(radius_km, 0.0);
  SSIN_CHECK(k > 0 || radius_km > 0.0)
      << "neighbor selection needs a count cap, a radius, or both";

  // Sequence positions of the observed stations, ascending — the local
  // index of the candidate set. Local index order therefore equals
  // sequence-position order, which keeps tie-breaking deterministic and
  // identical between the grid and brute-force paths.
  std::vector<int> obs_pos;
  obs_pos.reserve(observed.size());
  for (int i = 0; i < length; ++i) {
    if (observed[i]) obs_pos.push_back(i);
  }

  std::vector<std::vector<int>> result(length);
  if (obs_pos.empty()) return result;

  auto finish = [&](int i, std::vector<int>* keys) {
    std::sort(keys->begin(), keys->end());
    result[i] = std::move(*keys);
  };

  if (has_travel_) {
    // A road travel metric has no planar embedding, so each query scans
    // all observed candidates (O(L*m) total — the documented fallback).
    // The radius cut filters during the scan (inclusive, matching
    // SpatialIndex::WithinRadius).
    std::vector<std::pair<double, int>> cand;
    for (int i = 0; i < length; ++i) {
      cand.clear();
      for (int local = 0; local < static_cast<int>(obs_pos.size()); ++local) {
        const int j = obs_pos[local];
        if (j == i) continue;
        const double dist = travel_(ids[i], ids[j]);
        if (radius_km > 0.0 && dist > radius_km) continue;
        cand.emplace_back(dist, local);
      }
      const size_t take =
          k > 0 ? std::min(static_cast<size_t>(k), cand.size()) : cand.size();
      std::partial_sort(cand.begin(), cand.begin() + take, cand.end());
      std::vector<int> keys;
      keys.reserve(take);
      for (size_t t = 0; t < take; ++t) keys.push_back(obs_pos[cand[t].second]);
      finish(i, &keys);
    }
    return result;
  }

  std::vector<PointKm> obs_points;
  obs_points.reserve(obs_pos.size());
  for (int j : obs_pos) obs_points.push_back(positions_[ids[j]]);
  const SpatialIndex index(std::move(obs_points));

  for (int i = 0; i < length; ++i) {
    // An observed query's own entry in the candidate set is excluded by
    // local index; binary search works because obs_pos is ascending.
    int exclude = -1;
    if (observed[i]) {
      exclude = static_cast<int>(
          std::lower_bound(obs_pos.begin(), obs_pos.end(), i) -
          obs_pos.begin());
    }
    // Both index queries return locals ascending by (distance, index), so
    // truncating the in-radius list at k keeps exactly the k nearest
    // in-radius keys — identical tie-breaking to the pure k-NN path.
    std::vector<int> nearest;
    if (radius_km > 0.0) {
      nearest = index.WithinRadius(positions_[ids[i]], radius_km, exclude);
      if (k > 0 && nearest.size() > static_cast<size_t>(k)) {
        nearest.resize(static_cast<size_t>(k));
      }
    } else {
      nearest = index.KNearest(positions_[ids[i]], k, exclude);
    }
    std::vector<int> keys;
    keys.reserve(nearest.size());
    for (int local : nearest) keys.push_back(obs_pos[local]);
    finish(i, &keys);
  }
  return result;
}

}  // namespace ssin
