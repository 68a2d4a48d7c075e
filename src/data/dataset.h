#ifndef SSIN_DATA_DATASET_H_
#define SSIN_DATA_DATASET_H_

#include <optional>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "geo/coords.h"

namespace ssin {

/// A monitoring station (rain gauge or traffic sensor).
struct Station {
  std::string id;
  LatLon latlon;
  PointKm position;  ///< Projected planar coordinates in km.
};

/// A spatial sensing dataset: a fixed station network plus one value per
/// station per timestamp (the climate-database layout of paper §3.2: each
/// record is station, timestamp, value).
class SpatialDataset {
 public:
  SpatialDataset() = default;
  explicit SpatialDataset(std::vector<Station> stations)
      : stations_(std::move(stations)) {}

  int num_stations() const { return static_cast<int>(stations_.size()); }
  int num_timestamps() const { return static_cast<int>(values_.size()); }

  const Station& station(int i) const { return stations_[i]; }
  const std::vector<Station>& stations() const { return stations_; }

  /// Planar coordinates of all stations, in station order.
  std::vector<PointKm> Positions() const;

  /// Appends one timestamp of observations (size must be num_stations()).
  void AddTimestamp(std::vector<double> values);

  const std::vector<double>& Values(int t) const {
    SSIN_CHECK(t >= 0 && t < num_timestamps());
    return values_[t];
  }
  double Value(int t, int station) const { return values_[t][station]; }

  /// Marks the measured quantity as physically non-negative (rainfall).
  /// Interpolators clamp destandardized predictions at zero for such
  /// datasets; signed quantities (traffic speed residuals) leave this off.
  void SetNonNegative(bool non_negative) { non_negative_ = non_negative; }
  bool non_negative() const { return non_negative_; }

  /// Optional road-network travel distances between stations (traffic use
  /// case, paper §4.3). When present, interpolators that support it use
  /// travel distance instead of geographic distance.
  void SetTravelDistance(Matrix distance);
  bool has_travel_distance() const { return travel_distance_.has_value(); }
  const Matrix& travel_distance() const {
    SSIN_CHECK(has_travel_distance());
    return *travel_distance_;
  }

  /// A copy with the timestamps of `other` appended (same stations).
  SpatialDataset ConcatTimestamps(const SpatialDataset& other) const;

 private:
  std::vector<Station> stations_;
  std::vector<std::vector<double>> values_;
  std::optional<Matrix> travel_distance_;
  bool non_negative_ = false;
};

/// A train/test partition of station indices (the paper holds out 20% of
/// gauges as test locations; the rest are the observed inputs).
struct NodeSplit {
  std::vector<int> train_ids;
  std::vector<int> test_ids;
};

/// Uniformly samples `test_fraction` of the stations as test nodes.
NodeSplit RandomNodeSplit(int num_stations, double test_fraction, Rng* rng);

}  // namespace ssin

#endif  // SSIN_DATA_DATASET_H_
