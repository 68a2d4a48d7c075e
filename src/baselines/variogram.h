#ifndef SSIN_BASELINES_VARIOGRAM_H_
#define SSIN_BASELINES_VARIOGRAM_H_

#include <vector>

#include "geo/coords.h"

namespace ssin {

/// Parametric semivariogram models used by ordinary kriging.
struct VariogramModel {
  enum class Type { kSpherical, kExponential, kGaussian, kLinear };

  Type type = Type::kSpherical;
  double nugget = 0.0;        ///< gamma(0+).
  double partial_sill = 1.0;  ///< Sill - nugget.
  double range = 1.0;         ///< Correlation range (km).

  /// Semivariance at lag h >= 0.
  double operator()(double h) const;
};

/// One bin of an empirical semivariogram.
struct VariogramBin {
  double lag = 0.0;    ///< Mean pair distance in the bin.
  double gamma = 0.0;  ///< Mean semivariance 0.5 E[(z_i - z_j)^2].
  int count = 0;       ///< Number of pairs.
};

/// Computes the empirical (Matheron) semivariogram of values observed at
/// `points`, binning pair distances up to `max_lag` (<= 0 means half the
/// maximum pair distance, the usual rule of thumb).
std::vector<VariogramBin> EmpiricalVariogram(
    const std::vector<PointKm>& points, const std::vector<double>& values,
    int num_bins = 15, double max_lag = 0.0);

/// Fits a variogram model of the given type to empirical bins by weighted
/// least squares (weights = pair counts): the range is scanned over a grid
/// and nugget/partial sill solved in closed form with non-negativity
/// clamping. Returns false when the bins are degenerate (e.g. constant
/// field) — callers should fall back to a simple model.
bool FitVariogram(const std::vector<VariogramBin>& bins,
                  VariogramModel::Type type, VariogramModel* model);

}  // namespace ssin

#endif  // SSIN_BASELINES_VARIOGRAM_H_
