#ifndef SSIN_CORE_INTERPOLATION_H_
#define SSIN_CORE_INTERPOLATION_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace ssin {

/// Common interface of every spatial interpolator in this library
/// (SpaFormer and all six paper baselines).
///
/// Protocol (matching the paper's evaluation): Fit() receives the full
/// station network and the indices of the training gauges, and may train on
/// the historical values of those gauges. InterpolateTimestamp() then
/// answers one timestamp: given the values observed at `observed_ids`,
/// predict the values at `query_ids`. Implementations must only read
/// `all_values[i]` for i in observed_ids.
class SpatialInterpolator {
 public:
  virtual ~SpatialInterpolator() = default;

  virtual std::string Name() const = 0;

  /// Prepares the interpolator for the given network; trains learned
  /// methods on the train stations' history.
  virtual void Fit(const SpatialDataset& data,
                   const std::vector<int>& train_ids) = 0;

  /// Predicts the values at query stations for one timestamp.
  /// `all_values` is indexed by station id; entries outside observed_ids
  /// must not be read. Returns one prediction per query id, in order.
  virtual std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) = 0;

  /// Batched serving entry point: answers many timestamps that share one
  /// (observed_ids, query_ids) station layout. `batch_values[i]` points at
  /// timestamp i's per-station values (pointers stay owned by the caller
  /// and must outlive the call). Returns one prediction vector per
  /// timestamp, in input order — identical to calling
  /// InterpolateTimestamp per element.
  ///
  /// `num_threads` sizes the thread pool the timestamps fan across (0 = one
  /// per hardware thread; a pool of one runs the same loop on the calling
  /// thread). The default implementation loops over
  /// InterpolateTimestamp, so that must be safe to call concurrently. TIN
  /// and TPS override it to build their per-layout plan once on the
  /// calling thread; SpaFormer overrides it with the graph-free inference
  /// engine, validating and building the sequence layout once for the
  /// whole batch.
  virtual std::vector<std::vector<double>> InterpolateBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, int num_threads = 1);
};

/// Checks the id lists of an InterpolateTimestamp/InterpolateBatch call
/// against the station network: every id must be in [0, num_stations),
/// observed ids must also index a finite value of `all_values` (one NaN or
/// Inf input would turn every prediction non-finite), at least one station
/// must be observed, and no id may appear twice (within a list or across
/// the two — an overlap would leak the queried truth into the input).
/// Returns an empty string when valid, otherwise a message naming the
/// offending id.
/// The interpolation server uses this non-aborting form to *reject* a
/// malformed request instead of taking the process down with it.
std::string InterpolationIdsError(const std::vector<double>& all_values,
                                  int num_stations,
                                  const std::vector<int>& observed_ids,
                                  const std::vector<int>& query_ids);

/// Aborting wrapper over InterpolationIdsError (SSIN_CHECK) — the contract
/// of the direct interpolator entry points, where an invalid id is a
/// programming error.
void ValidateInterpolationIds(const std::vector<double>& all_values,
                              int num_stations,
                              const std::vector<int>& observed_ids,
                              const std::vector<int>& query_ids);

/// Clamps a destandardized prediction to be non-negative when `enabled`.
/// Physical rainfall cannot be negative, so rainfall datasets switch this
/// on (SpatialDataset::non_negative); signed quantities like the traffic
/// speed residuals leave it off.
inline double ApplyNonNegative(double value, bool enabled) {
  return enabled && value < 0.0 ? 0.0 : value;
}

/// Geometry shared by the per-timestamp baselines: station positions plus
/// the pairwise distance the method should reason with (geographic, or road
/// travel distance when the dataset provides one — paper §4.3 does this for
/// IDW/KCN/IGNNK/SpaFormer on traffic).
class StationGeometry {
 public:
  StationGeometry() = default;

  /// Captures positions (and the travel-distance matrix when present and
  /// `use_travel_distance`).
  void Capture(const SpatialDataset& data, bool use_travel_distance);

  int num_stations() const { return static_cast<int>(positions_.size()); }
  const std::vector<PointKm>& positions() const { return positions_; }
  const PointKm& position(int i) const { return positions_[i]; }

  /// The working distance between two stations.
  double Distance(int i, int j) const {
    if (has_travel_) return travel_(i, j);
    return DistanceKm(positions_[i], positions_[j]);
  }

  bool using_travel_distance() const { return has_travel_; }

 private:
  std::vector<PointKm> positions_;
  Matrix travel_;
  bool has_travel_ = false;
};

}  // namespace ssin

#endif  // SSIN_CORE_INTERPOLATION_H_
