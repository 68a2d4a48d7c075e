#include "data/dataset.h"

#include <algorithm>

namespace ssin {

std::vector<PointKm> SpatialDataset::Positions() const {
  std::vector<PointKm> out;
  out.reserve(stations_.size());
  for (const Station& s : stations_) out.push_back(s.position);
  return out;
}

void SpatialDataset::AddTimestamp(std::vector<double> values) {
  SSIN_CHECK_EQ(static_cast<int>(values.size()), num_stations());
  values_.push_back(std::move(values));
}

void SpatialDataset::SetTravelDistance(Matrix distance) {
  SSIN_CHECK_EQ(distance.rows(), num_stations());
  SSIN_CHECK_EQ(distance.cols(), num_stations());
  travel_distance_ = std::move(distance);
}

SpatialDataset SpatialDataset::ConcatTimestamps(
    const SpatialDataset& other) const {
  SSIN_CHECK_EQ(num_stations(), other.num_stations());
  SpatialDataset out = *this;
  for (int t = 0; t < other.num_timestamps(); ++t) {
    out.AddTimestamp(other.values_[t]);
  }
  return out;
}

NodeSplit RandomNodeSplit(int num_stations, double test_fraction, Rng* rng) {
  SSIN_CHECK_GT(num_stations, 1);
  SSIN_CHECK(test_fraction > 0.0 && test_fraction < 1.0);
  int num_test = static_cast<int>(num_stations * test_fraction + 0.5);
  num_test = std::max(1, std::min(num_test, num_stations - 1));
  std::vector<int> perm = rng->Permutation(num_stations);
  NodeSplit split;
  split.test_ids.assign(perm.begin(), perm.begin() + num_test);
  split.train_ids.assign(perm.begin() + num_test, perm.end());
  std::sort(split.test_ids.begin(), split.test_ids.end());
  std::sort(split.train_ids.begin(), split.train_ids.end());
  return split;
}

}  // namespace ssin
