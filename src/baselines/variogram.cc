#include "baselines/variogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ssin {

double VariogramModel::operator()(double h) const {
  if (h <= 0.0) return 0.0;
  switch (type) {
    case Type::kSpherical: {
      if (h >= range) return nugget + partial_sill;
      const double r = h / range;
      return nugget + partial_sill * (1.5 * r - 0.5 * r * r * r);
    }
    case Type::kExponential:
      return nugget + partial_sill * (1.0 - std::exp(-3.0 * h / range));
    case Type::kGaussian: {
      const double r = h / range;
      return nugget + partial_sill * (1.0 - std::exp(-3.0 * r * r));
    }
    case Type::kLinear:
      return nugget + partial_sill * (h / range);
  }
  return 0.0;
}

std::vector<VariogramBin> EmpiricalVariogram(
    const std::vector<PointKm>& points, const std::vector<double>& values,
    int num_bins, double max_lag) {
  SSIN_CHECK_EQ(points.size(), values.size());
  SSIN_CHECK_GE(num_bins, 1);
  const int n = static_cast<int>(points.size());

  double max_dist = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      max_dist = std::max(max_dist, DistanceKm(points[i], points[j]));
    }
  }
  if (max_lag <= 0.0) max_lag = max_dist / 2.0;
  if (max_lag <= 0.0) return {};

  struct Accumulator {
    double lag_sum = 0.0;
    double gamma_sum = 0.0;
    int count = 0;
  };
  std::vector<Accumulator> acc(num_bins);
  const double width = max_lag / num_bins;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double h = DistanceKm(points[i], points[j]);
      if (h > max_lag || h <= 0.0) continue;
      int bin = static_cast<int>(h / width);
      bin = std::min(bin, num_bins - 1);
      const double d = values[i] - values[j];
      acc[bin].lag_sum += h;
      acc[bin].gamma_sum += 0.5 * d * d;
      ++acc[bin].count;
    }
  }

  std::vector<VariogramBin> bins;
  for (const Accumulator& a : acc) {
    if (a.count == 0) continue;
    VariogramBin b;
    b.lag = a.lag_sum / a.count;
    b.gamma = a.gamma_sum / a.count;
    b.count = a.count;
    bins.push_back(b);
  }
  return bins;
}

bool FitVariogram(const std::vector<VariogramBin>& bins,
                  VariogramModel::Type type, VariogramModel* model) {
  if (bins.size() < 3) return false;
  double max_lag = 0.0, max_gamma = 0.0;
  for (const VariogramBin& b : bins) {
    max_lag = std::max(max_lag, b.lag);
    max_gamma = std::max(max_gamma, b.gamma);
  }
  if (max_gamma <= 0.0) return false;  // Constant field.

  // Scan ranges; for each, solve weighted least squares for
  // (nugget, partial sill) against the unit-sill model shape.
  double best_wss = std::numeric_limits<double>::infinity();
  bool found = false;
  for (int step = 1; step <= 20; ++step) {
    VariogramModel candidate;
    candidate.type = type;
    candidate.nugget = 0.0;
    candidate.partial_sill = 1.0;
    candidate.range = max_lag * step / 10.0;  // 0.1 .. 2.0 x max lag.

    // gamma_i ~= nugget + psill * shape(h_i); normal equations in 2 vars.
    double s_ww = 0.0, s_ws = 0.0, s_ss = 0.0, s_wg = 0.0, s_sg = 0.0;
    for (const VariogramBin& b : bins) {
      const double w = static_cast<double>(b.count);
      const double shape = candidate(b.lag);  // nugget=0, psill=1.
      s_ww += w;
      s_ws += w * shape;
      s_ss += w * shape * shape;
      s_wg += w * b.gamma;
      s_sg += w * shape * b.gamma;
    }
    const double det = s_ww * s_ss - s_ws * s_ws;
    double nugget, psill;
    if (std::fabs(det) < 1e-12) {
      nugget = 0.0;
      psill = s_ss > 0.0 ? s_sg / s_ss : 0.0;
    } else {
      nugget = (s_wg * s_ss - s_sg * s_ws) / det;
      psill = (s_ww * s_sg - s_ws * s_wg) / det;
    }
    nugget = std::max(0.0, nugget);
    psill = std::max(1e-12 * max_gamma, psill);

    candidate.nugget = nugget;
    candidate.partial_sill = psill;
    double wss = 0.0;
    for (const VariogramBin& b : bins) {
      const double r = b.gamma - candidate(b.lag);
      wss += b.count * r * r;
    }
    if (wss < best_wss) {
      best_wss = wss;
      *model = candidate;
      found = true;
    }
  }
  return found;
}

}  // namespace ssin
