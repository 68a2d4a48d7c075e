#ifndef SSIN_BASELINES_TPS_H_
#define SSIN_BASELINES_TPS_H_

#include <string>
#include <vector>

#include "common/matrix.h"
#include "core/interpolation.h"

namespace ssin {

/// Thin Plate (smoothing) Spline interpolation (paper baseline).
///
/// Solves the standard TPS system with radial kernel phi(r) = r^2 log r and
/// an affine trend:
///   [K + lambda I   P] [w]   [y]
///   [P^T            0] [a] = [0]
/// The smoothing parameter lambda is chosen by minimizing generalized
/// cross-validation, GCV(lambda) = n ||y - f||^2 / (n - tr A)^2, over a
/// grid, evaluated on a sample of timestamps at Fit() time (the paper notes
/// TPS needs no manual parameter tuning for exactly this reason).
/// Coordinate-based only: cannot exploit road travel distances.
class TpsInterpolator : public SpatialInterpolator {
 public:
  std::string Name() const override { return "TPS"; }

  void Fit(const SpatialDataset& data,
           const std::vector<int>& train_ids) override;

  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override;

  /// Inverts the TPS system of the observed stations once on the calling
  /// thread, then applies it to every timestamp across the pool.
  std::vector<std::vector<double>> InterpolateBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, int num_threads = 1) override;

  /// The TPS radial basis phi(r) = r^2 log r (0 at r = 0).
  static double Kernel(double r);

 private:
  /// The (n+3)x(n+3) inverse of the TPS system over the observed stations.
  Matrix SystemInverse(const std::vector<int>& observed_ids) const;

  /// Fits the spline to one timestamp's observed values through
  /// `system_inverse` and evaluates it at the queries.
  std::vector<double> Apply(const Matrix& system_inverse,
                            const std::vector<double>& all_values,
                            const std::vector<int>& observed_ids,
                            const std::vector<int>& query_ids) const;

  /// GCV score of one value vector under smoothing `lambda`.
  double GcvScore(const std::vector<int>& observed_ids,
                  const std::vector<double>& y, double lambda) const;

  StationGeometry geometry_;
  double lambda_ = 0.0;
};

}  // namespace ssin

#endif  // SSIN_BASELINES_TPS_H_
