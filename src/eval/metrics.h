#ifndef SSIN_EVAL_METRICS_H_
#define SSIN_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace ssin {

/// The paper's evaluation metrics (§4.1.3).
struct Metrics {
  double rmse = 0.0;
  double mae = 0.0;
  /// Nash-Sutcliffe efficiency, (-inf, 1], 1 is best. NaN when the truth
  /// variance is zero (a constant truth makes the denominator vanish, so
  /// the score is undefined rather than infinitely bad) — consumers must
  /// render it as "n/a" / null, never as a bare inf/nan token.
  double nse = 0.0;
  int64_t count = 0;
};

/// Streaming accumulator over (truth, prediction) pairs; NSE needs the
/// truth mean, so it is finalized in Compute().
class MetricsAccumulator {
 public:
  void Add(double truth, double prediction);

  /// Finalized metrics over everything added so far.
  Metrics Compute() const;

  int64_t count() const { return static_cast<int64_t>(truths_.size()); }

 private:
  std::vector<double> truths_;
  std::vector<double> predictions_;
};

/// Convenience one-shot computation.
Metrics ComputeMetrics(const std::vector<double>& truths,
                       const std::vector<double>& predictions);

}  // namespace ssin

#endif  // SSIN_EVAL_METRICS_H_
