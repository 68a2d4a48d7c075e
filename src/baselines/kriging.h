#ifndef SSIN_BASELINES_KRIGING_H_
#define SSIN_BASELINES_KRIGING_H_

#include <string>
#include <vector>

#include "core/interpolation.h"

namespace ssin {

/// Ordinary Kriging (paper baseline) with the spherical variogram, which
/// the paper reports best.
///
/// Per timestamp it (1) estimates the empirical semivariogram of the
/// observed values, (2) fits the spherical model by weighted least
/// squares, and (3) solves the OK system
///   [Gamma  1] [lambda]   [gamma(q)]
///   [1^T    0] [mu    ] = [1       ]
/// for each query. Degenerate hours (constant field, failed fit) fall back
/// to a linear variogram, which reduces OK toward distance weighting.
class KrigingInterpolator : public SpatialInterpolator {
 public:
  std::string Name() const override { return "OK"; }

  void Fit(const SpatialDataset& data,
           const std::vector<int>& train_ids) override;

  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override;

 private:
  StationGeometry geometry_;
};

}  // namespace ssin

#endif  // SSIN_BASELINES_KRIGING_H_
