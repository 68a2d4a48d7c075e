#ifndef SSIN_EVAL_RUNNER_H_
#define SSIN_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "core/interpolation.h"
#include "eval/metrics.h"

namespace ssin {

/// Evaluation options: which timestamps of the dataset to score.
struct EvalOptions {
  int begin = 0;
  int end = -1;    ///< Exclusive; -1 = all timestamps.
  int stride = 1;  ///< Evaluate every stride-th timestamp.
  /// Worker threads passed to the interpolator's InterpolateBatch; 0 = one
  /// per hardware thread, 1 = the calling thread only. Values > 1 require
  /// per-timestamp interpolation to be safe to run concurrently (true of
  /// every method in this repo after Fit(); predictions and metrics are
  /// reduced in timestamp order, so results are identical at every thread
  /// count). Fit() itself always runs on the calling thread.
  int num_threads = 1;

  /// Run telemetry: when true, the evaluation enables the process-wide
  /// telemetry runtime and writes one TelemetryReport per phase —
  /// `telemetry_train.json` after Fit() (when a fit runs) and
  /// `telemetry_serve.json` after the interpolation sweep — into
  /// `telemetry_dir` (created if missing; defaults to the gitignored
  /// `telemetry/` so instrumented runs never dirty the work tree). Each
  /// file is a versioned metrics report that is also a Chrome trace_event
  /// JSON (load it in chrome://tracing or Perfetto).
  /// The registry and span buffers are reset at each phase boundary so a
  /// report covers exactly its phase. Instrumentation never changes
  /// numeric results (pinned by the equivalence tests).
  bool telemetry = false;
  std::string telemetry_dir = "telemetry";
};

/// Result of evaluating one method on one dataset.
struct EvalResult {
  std::string method;
  Metrics metrics;
  double fit_seconds = 0.0;
  double interpolate_seconds = 0.0;
  int timestamps_evaluated = 0;
};

/// The timestamps an EvalOptions selects on `data`, in evaluation order.
/// Every thread count iterates exactly this list, so all visit identical
/// timestamp sets by construction.
std::vector<int> SelectedTimestamps(const SpatialDataset& data,
                                    const EvalOptions& options);

/// Runs the paper's evaluation protocol: the interpolator is Fit() on the
/// training stations' history, then for each evaluated timestamp predicts
/// the held-out stations from the training stations' readings; metrics
/// aggregate over all (timestamp, test station) pairs.
EvalResult EvaluateInterpolator(SpatialInterpolator* method,
                                const SpatialDataset& data,
                                const NodeSplit& split,
                                const EvalOptions& options = EvalOptions());

/// Variant that skips Fit() (for already-trained / transferred models).
EvalResult EvaluateWithoutFit(SpatialInterpolator* method,
                              const SpatialDataset& data,
                              const NodeSplit& split,
                              const EvalOptions& options = EvalOptions());

/// Prints a paper-style results table. Each row: name + RMSE/MAE/NSE per
/// dataset block. `blocks` names dataset columns (e.g. {"HK", "BW"}).
void PrintResultsTable(const std::string& title,
                       const std::vector<std::string>& blocks,
                       const std::vector<std::vector<EvalResult>>& rows);

}  // namespace ssin

#endif  // SSIN_EVAL_RUNNER_H_
