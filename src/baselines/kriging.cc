#include "baselines/kriging.h"

#include <algorithm>
#include <cmath>

#include "baselines/variogram.h"
#include "common/matrix.h"

namespace ssin {

void KrigingInterpolator::Fit(const SpatialDataset& data,
                              const std::vector<int>& train_ids) {
  (void)train_ids;
  geometry_.Capture(data, /*use_travel_distance=*/false);
}

std::vector<double> KrigingInterpolator::InterpolateTimestamp(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  const int n = static_cast<int>(observed_ids.size());
  SSIN_CHECK_GT(n, 1);

  std::vector<PointKm> points;
  std::vector<double> values;
  points.reserve(n);
  values.reserve(n);
  double mean = 0.0;
  for (int o : observed_ids) {
    points.push_back(geometry_.position(o));
    values.push_back(all_values[o]);
    mean += all_values[o];
  }
  mean /= n;

  // Variogram estimation for this hour's field.
  VariogramModel model;
  const std::vector<VariogramBin> bins = EmpiricalVariogram(points, values);
  if (!FitVariogram(bins, VariogramModel::Type::kSpherical, &model)) {
    // Constant or near-constant field: fall back to a linear variogram
    // (prediction degrades gracefully to distance-weighting of a constant).
    model.type = VariogramModel::Type::kLinear;
    model.nugget = 0.0;
    model.partial_sill = 1.0;
    double max_lag = 1.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        max_lag = std::max(max_lag, DistanceKm(points[i], points[j]));
      }
    }
    model.range = max_lag;
  }

  // Kriging system (shared by all queries of this timestamp), bordered by
  // the single unbiasedness constraint.
  const int size = n + 1;
  Matrix system(size, size);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      system(i, j) = model(DistanceKm(points[i], points[j]));
    }
    system(i, n) = 1.0;
    system(n, i) = 1.0;
  }

  Matrix inverse;
  if (!Invert(system, &inverse)) {
    // Singular system (e.g. pure-nugget variogram): every query gets the
    // field mean, which is the kriging limit in that case.
    return std::vector<double>(query_ids.size(), mean);
  }

  std::vector<double> out;
  out.reserve(query_ids.size());
  std::vector<double> rhs(size), weights(size);
  for (int q : query_ids) {
    const PointKm& p = geometry_.position(q);
    for (int i = 0; i < n; ++i) rhs[i] = model(DistanceKm(p, points[i]));
    rhs[n] = 1.0;
    for (int r = 0; r < size; ++r) {
      double sum = 0.0;
      for (int c = 0; c < size; ++c) sum += inverse(r, c) * rhs[c];
      weights[r] = sum;
    }
    double value = 0.0;
    for (int i = 0; i < n; ++i) value += weights[i] * values[i];
    out.push_back(value);
  }
  return out;
}

}  // namespace ssin
