#ifndef SSIN_BASELINES_IDW_H_
#define SSIN_BASELINES_IDW_H_

#include <string>
#include <vector>

#include "core/interpolation.h"

namespace ssin {

/// Inverse Distance Weighting (Shepard). Estimates are a weighted average
/// of observed values with weights d^-power (paper baseline; power = 2
/// reported best). Uses road travel distances when the dataset provides
/// them (paper §4.3).
class IdwInterpolator : public SpatialInterpolator {
 public:
  explicit IdwInterpolator(double power = 2.0) : power_(power) {}

  std::string Name() const override { return "IDW"; }

  void Fit(const SpatialDataset& data,
           const std::vector<int>& train_ids) override;

  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override;

 private:
  double power_;
  StationGeometry geometry_;
};

}  // namespace ssin

#endif  // SSIN_BASELINES_IDW_H_
