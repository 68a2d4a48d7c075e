#include "eval/metrics.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace ssin {

void MetricsAccumulator::Add(double truth, double prediction) {
  truths_.push_back(truth);
  predictions_.push_back(prediction);
}

Metrics MetricsAccumulator::Compute() const {
  Metrics m;
  m.count = count();
  if (m.count == 0) return m;
  const double n = static_cast<double>(m.count);

  double truth_sum = 0.0;
  for (double t : truths_) truth_sum += t;
  const double truth_mean = truth_sum / n;

  double sq_err = 0.0, abs_err = 0.0, sq_dev = 0.0;
  for (size_t i = 0; i < truths_.size(); ++i) {
    const double e = truths_[i] - predictions_[i];
    sq_err += e * e;
    abs_err += std::fabs(e);
    const double d = truths_[i] - truth_mean;
    sq_dev += d * d;
  }
  m.rmse = std::sqrt(sq_err / n);
  m.mae = abs_err / n;
  m.nse = sq_dev > 0.0 ? 1.0 - sq_err / sq_dev
                       : std::numeric_limits<double>::quiet_NaN();
  return m;
}

Metrics ComputeMetrics(const std::vector<double>& truths,
                       const std::vector<double>& predictions) {
  SSIN_CHECK_EQ(truths.size(), predictions.size());
  MetricsAccumulator acc;
  for (size_t i = 0; i < truths.size(); ++i) {
    acc.Add(truths[i], predictions[i]);
  }
  return acc.Compute();
}

}  // namespace ssin
