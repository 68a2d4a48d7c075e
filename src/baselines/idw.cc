#include "baselines/idw.h"

#include <cmath>

namespace ssin {

namespace {
constexpr double kExactHitKm = 1e-9;
}

void IdwInterpolator::Fit(const SpatialDataset& data,
                          const std::vector<int>& train_ids) {
  (void)train_ids;  // Deterministic method: no training.
  geometry_.Capture(data, /*use_travel_distance=*/true);
}

std::vector<double> IdwInterpolator::InterpolateTimestamp(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  std::vector<double> out;
  out.reserve(query_ids.size());
  for (int q : query_ids) {
    double weight_sum = 0.0;
    double value_sum = 0.0;
    bool exact = false;
    for (int o : observed_ids) {
      const double d = geometry_.Distance(q, o);
      if (d < kExactHitKm) {
        out.push_back(all_values[o]);
        exact = true;
        break;
      }
      if (!std::isfinite(d)) continue;  // Unreachable on the road graph.
      const double w = 1.0 / std::pow(d, power_);
      weight_sum += w;
      value_sum += w * all_values[o];
    }
    if (!exact) {
      out.push_back(weight_sum > 0.0 ? value_sum / weight_sum : 0.0);
    }
  }
  return out;
}

}  // namespace ssin
