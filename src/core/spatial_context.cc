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
    int k) const {
  const NearestObserved nearest(*this, ids, observed, k);
  std::vector<std::vector<int>> result(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    result[i] = nearest.KeysOf(static_cast<int>(i));
  }
  return result;
}

SpatialContext::NearestObserved::NearestObserved(
    const SpatialContext& context, const std::vector<int>& ids,
    const std::vector<uint8_t>& observed, int k)
    : context_(context), ids_(ids), observed_(observed), k_(k) {
  const int length = static_cast<int>(ids.size());
  SSIN_CHECK_EQ(static_cast<int>(observed.size()), length);
  SSIN_CHECK_GT(k, 0);

  // Local index order equals sequence-position order, which keeps
  // tie-breaking deterministic and identical between the grid and
  // brute-force paths.
  obs_pos_.reserve(observed.size());
  for (int i = 0; i < length; ++i) {
    if (observed[i]) obs_pos_.push_back(i);
  }
  if (context.has_travel_ || obs_pos_.empty()) return;
  std::vector<PointKm> obs_points;
  obs_points.reserve(obs_pos_.size());
  for (int j : obs_pos_) obs_points.push_back(context.positions_[ids[j]]);
  index_ = std::make_unique<SpatialIndex>(std::move(obs_points));
}

SpatialContext::NearestObserved::~NearestObserved() = default;

std::vector<int> SpatialContext::NearestObserved::KeysOf(int i) const {
  SSIN_CHECK(i >= 0 && i < static_cast<int>(ids_.size()));
  std::vector<int> keys;
  if (obs_pos_.empty()) return keys;
  if (context_.has_travel_) {
    // A road travel metric has no planar embedding, so each query scans
    // all observed candidates (O(L*m) total — the documented fallback).
    std::vector<std::pair<double, int>> cand;
    cand.reserve(obs_pos_.size());
    for (int local = 0; local < static_cast<int>(obs_pos_.size()); ++local) {
      const int j = obs_pos_[local];
      if (j == i) continue;
      cand.emplace_back(context_.travel_(ids_[i], ids_[j]), local);
    }
    const size_t take = std::min(static_cast<size_t>(k_), cand.size());
    std::partial_sort(cand.begin(), cand.begin() + take, cand.end());
    keys.reserve(take);
    for (size_t t = 0; t < take; ++t) keys.push_back(obs_pos_[cand[t].second]);
  } else {
    // An observed query's own entry in the candidate set is excluded by
    // local index; binary search works because obs_pos_ is ascending.
    int exclude = -1;
    if (observed_[i]) {
      exclude = static_cast<int>(
          std::lower_bound(obs_pos_.begin(), obs_pos_.end(), i) -
          obs_pos_.begin());
    }
    const std::vector<int> nearest =
        index_->KNearest(context_.positions_[ids_[i]], k_, exclude);
    keys.reserve(nearest.size());
    for (int local : nearest) keys.push_back(obs_pos_[local]);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace ssin
