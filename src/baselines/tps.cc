#include "baselines/tps.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace ssin {

double TpsInterpolator::Kernel(double r) {
  if (r <= 0.0) return 0.0;
  return r * r * std::log(r);
}

namespace {

/// Builds the (n+3)x(n+3) TPS system matrix for the given points.
Matrix BuildSystem(const std::vector<PointKm>& points, double lambda) {
  const int n = static_cast<int>(points.size());
  Matrix m(n + 3, n + 3);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      m(i, j) = TpsInterpolator::Kernel(DistanceKm(points[i], points[j]));
    }
    m(i, i) += lambda;
    m(i, n) = 1.0;
    m(i, n + 1) = points[i].x;
    m(i, n + 2) = points[i].y;
    m(n, i) = 1.0;
    m(n + 1, i) = points[i].x;
    m(n + 2, i) = points[i].y;
  }
  return m;
}

}  // namespace

double TpsInterpolator::GcvScore(const std::vector<int>& observed_ids,
                                 const std::vector<double>& y,
                                 double lambda) const {
  const int n = static_cast<int>(observed_ids.size());
  std::vector<PointKm> points;
  points.reserve(n);
  for (int o : observed_ids) points.push_back(geometry_.position(o));

  Matrix inv;
  if (!Invert(BuildSystem(points, lambda), &inv)) {
    return std::numeric_limits<double>::infinity();
  }

  // Influence matrix A: fitted f = [K P] * inv[:, :n] * y. Its trace and
  // the residual norm give the GCV score.
  Matrix kp(n, n + 3);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      kp(i, j) = Kernel(DistanceKm(points[i], points[j]));
    }
    kp(i, n) = 1.0;
    kp(i, n + 1) = points[i].x;
    kp(i, n + 2) = points[i].y;
  }
  double trace = 0.0;
  std::vector<double> fitted(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double a_ij = 0.0;
      for (int k = 0; k < n + 3; ++k) a_ij += kp(i, k) * inv(k, j);
      if (i == j) trace += a_ij;
      fitted[i] += a_ij * y[j];
    }
  }
  const double dof = n - trace;
  if (dof <= 1e-6) return std::numeric_limits<double>::infinity();
  double rss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = y[i] - fitted[i];
    rss += r * r;
  }
  return n * rss / (dof * dof);
}

void TpsInterpolator::Fit(const SpatialDataset& data,
                          const std::vector<int>& train_ids) {
  geometry_.Capture(data, /*use_travel_distance=*/false);

  // Choose lambda by GCV on a sample of training timestamps, predicting
  // train gauges from train gauges (no test information).
  const int samples = std::min(12, data.num_timestamps());
  if (samples == 0 || train_ids.size() < 8) {
    lambda_ = 0.0;
    return;
  }
  // Scale-aware grid: the kernel magnitude grows with domain size.
  double kernel_scale = 0.0;
  for (size_t a = 0; a < train_ids.size(); ++a) {
    for (size_t b = a + 1; b < train_ids.size(); ++b) {
      kernel_scale += std::fabs(Kernel(
          geometry_.Distance(train_ids[a], train_ids[b])));
    }
  }
  const size_t pairs = train_ids.size() * (train_ids.size() - 1) / 2;
  kernel_scale /= std::max<size_t>(1, pairs);
  const std::vector<double> grid = {0.0,    1e-5,  1e-4, 1e-3,
                                    1e-2,   0.1,   1.0};

  std::vector<double> score(grid.size(), 0.0);
  const int stride = std::max(1, data.num_timestamps() / samples);
  for (int t = 0; t < data.num_timestamps(); t += stride) {
    std::vector<double> y;
    y.reserve(train_ids.size());
    for (int id : train_ids) y.push_back(data.Value(t, id));
    for (size_t g = 0; g < grid.size(); ++g) {
      score[g] += GcvScore(train_ids, y, grid[g] * kernel_scale);
    }
  }
  size_t best = 0;
  for (size_t g = 1; g < grid.size(); ++g) {
    if (score[g] < score[best]) best = g;
  }
  lambda_ = grid[best] * kernel_scale;
}

Matrix TpsInterpolator::SystemInverse(
    const std::vector<int>& observed_ids) const {
  std::vector<PointKm> points;
  points.reserve(observed_ids.size());
  for (int o : observed_ids) points.push_back(geometry_.position(o));
  Matrix inverse;
  const bool ok = Invert(BuildSystem(points, lambda_), &inverse);
  SSIN_CHECK(ok) << "TPS system is singular (duplicate stations?)";
  return inverse;
}

std::vector<double> TpsInterpolator::Apply(
    const Matrix& system_inverse, const std::vector<double>& all_values,
    const std::vector<int>& observed_ids,
    const std::vector<int>& query_ids) const {
  const int n = static_cast<int>(observed_ids.size());

  // Solve for spline coefficients: [w; a] = inv * [y; 0].
  std::vector<double> coeff(n + 3, 0.0);
  for (int r = 0; r < n + 3; ++r) {
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      sum += system_inverse(r, j) * all_values[observed_ids[j]];
    }
    coeff[r] = sum;
  }

  std::vector<double> out;
  out.reserve(query_ids.size());
  for (int q : query_ids) {
    const PointKm& p = geometry_.position(q);
    double value = coeff[n] + coeff[n + 1] * p.x + coeff[n + 2] * p.y;
    for (int j = 0; j < n; ++j) {
      value += coeff[j] *
               Kernel(DistanceKm(p, geometry_.position(observed_ids[j])));
    }
    out.push_back(value);
  }
  return out;
}

std::vector<double> TpsInterpolator::InterpolateTimestamp(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  return Apply(SystemInverse(observed_ids), all_values, observed_ids,
               query_ids);
}

std::vector<std::vector<double>> TpsInterpolator::InterpolateBatch(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    int num_threads) {
  const Matrix system_inverse = SystemInverse(observed_ids);
  std::vector<std::vector<double>> out(batch_values.size());
  ThreadPool pool(num_threads);
  pool.ParallelFor(static_cast<int64_t>(batch_values.size()),
                   [&](int64_t i, int /*slot*/) {
                     out[i] = Apply(system_inverse, *batch_values[i],
                                    observed_ids, query_ids);
                   });
  return out;
}

}  // namespace ssin
