#include "eval/outage.h"

#include <algorithm>

namespace ssin {

OutageResult EvaluateUnderOutage(SpatialInterpolator* method,
                                 const SpatialDataset& data,
                                 const NodeSplit& split,
                                 double outage_fraction, Rng* rng,
                                 int begin, int end, int stride) {
  SSIN_CHECK_GE(outage_fraction, 0.0);
  SSIN_CHECK_LT(outage_fraction, 1.0);
  // Two survivors are kept per timestamp, so two must exist.
  SSIN_CHECK_GE(split.train_ids.size(), 2u);
  if (end < 0) end = data.num_timestamps();

  OutageResult result;
  result.outage_fraction = outage_fraction;
  MetricsAccumulator acc;
  for (int t = begin; t < end; t += stride) {
    // Independent outages per timestamp; always keep >= 2 survivors.
    std::vector<int> surviving;
    for (int id : split.train_ids) {
      if (!rng->Bernoulli(outage_fraction)) surviving.push_back(id);
    }
    while (surviving.size() < 2) {
      surviving.push_back(
          split.train_ids[static_cast<size_t>(rng->UniformInt(
              0, static_cast<int64_t>(split.train_ids.size()) - 1))]);
      std::sort(surviving.begin(), surviving.end());
      surviving.erase(std::unique(surviving.begin(), surviving.end()),
                      surviving.end());
    }
    const std::vector<double> predictions = method->InterpolateTimestamp(
        data.Values(t), surviving, split.test_ids);
    for (size_t q = 0; q < split.test_ids.size(); ++q) {
      acc.Add(data.Value(t, split.test_ids[q]), predictions[q]);
    }
  }
  result.metrics = acc.Compute();
  return result;
}

}  // namespace ssin
