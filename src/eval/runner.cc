#include "eval/runner.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/log.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace ssin {

std::vector<int> SelectedTimestamps(const SpatialDataset& data,
                                    const EvalOptions& options) {
  const int end = options.end < 0 ? data.num_timestamps() : options.end;
  SSIN_CHECK_LE(end, data.num_timestamps());
  SSIN_CHECK_GE(options.stride, 1);
  std::vector<int> timestamps;
  for (int t = options.begin; t < end; t += options.stride) {
    timestamps.push_back(t);
  }
  return timestamps;
}

namespace {

// Writes one phase's TelemetryReport and logs on failure; then resets the
// registry + span buffers so the next phase starts from zero.
void FlushTelemetryPhase(const EvalOptions& options, const char* kind) {
  // The default dir ("telemetry") is gitignored; create it on demand so
  // an instrumented run works from a fresh checkout. Failure to create is
  // surfaced by the write below.
  std::error_code ec;
  std::filesystem::create_directories(options.telemetry_dir, ec);
  const std::string path = options.telemetry_dir + "/telemetry_" + kind +
                           ".json";
  if (!telemetry::WriteReport(kind, path)) {
    SSIN_LOG(Warn) << "telemetry report write to " << path << " failed";
  }
  telemetry::ResetAll();
}

EvalResult RunEvaluation(SpatialInterpolator* method,
                         const SpatialDataset& data, const NodeSplit& split,
                         const EvalOptions& options, bool fit) {
  EvalResult result;
  result.method = method->Name();

  if (options.telemetry) {
    telemetry::SetEnabled(true);
    telemetry::ResetAll();  // Scope each report to this evaluation.
  }

  if (fit) {
    Timer fit_timer;
    {
      SSIN_TRACE_SPAN("eval.fit");
      method->Fit(data, split.train_ids);
    }
    result.fit_seconds = fit_timer.Seconds();
    if (options.telemetry) FlushTelemetryPhase(options, "train");
  }

  // One timestamp-selection path and one serving call for every thread
  // count: InterpolateBatch answers the selected timestamps (fanning them
  // across a pool when options.num_threads allows), and metrics accumulate
  // on this thread in timestamp order — bit-identical across thread counts.
  const std::vector<int> timestamps = SelectedTimestamps(data, options);
  MetricsAccumulator acc;
  Timer interp_timer;
  std::vector<const std::vector<double>*> batch;
  batch.reserve(timestamps.size());
  for (int t : timestamps) batch.push_back(&data.Values(t));
  std::vector<std::vector<double>> predictions;
  {
    SSIN_TRACE_SPAN("eval.interpolate");
    predictions = method->InterpolateBatch(
        batch, split.train_ids, split.test_ids, options.num_threads);
  }
  for (size_t i = 0; i < timestamps.size(); ++i) {
    SSIN_CHECK_EQ(predictions[i].size(), split.test_ids.size());
    for (size_t q = 0; q < split.test_ids.size(); ++q) {
      acc.Add(data.Value(timestamps[i], split.test_ids[q]),
              predictions[i][q]);
    }
    ++result.timestamps_evaluated;
  }
  result.interpolate_seconds = interp_timer.Seconds();
  result.metrics = acc.Compute();
  if (options.telemetry) FlushTelemetryPhase(options, "serve");
  return result;
}

}  // namespace

EvalResult EvaluateInterpolator(SpatialInterpolator* method,
                                const SpatialDataset& data,
                                const NodeSplit& split,
                                const EvalOptions& options) {
  return RunEvaluation(method, data, split, options, /*fit=*/true);
}

EvalResult EvaluateWithoutFit(SpatialInterpolator* method,
                              const SpatialDataset& data,
                              const NodeSplit& split,
                              const EvalOptions& options) {
  return RunEvaluation(method, data, split, options, /*fit=*/false);
}

void PrintResultsTable(const std::string& title,
                       const std::vector<std::string>& blocks,
                       const std::vector<std::vector<EvalResult>>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-18s", "Method");
  for (const std::string& block : blocks) {
    std::printf(" | %8s %8s %8s", (block + " RMSE").c_str(), "MAE", "NSE");
  }
  std::printf("\n");
  for (const auto& row : rows) {
    if (row.empty()) continue;
    std::printf("%-18s", row[0].method.c_str());
    for (const EvalResult& r : row) {
      std::printf(" | %8.4f %8.4f ", r.metrics.rmse, r.metrics.mae);
      // NSE is NaN when the truth variance is zero; print a readable
      // marker instead of a bare nan/inf token.
      if (std::isfinite(r.metrics.nse)) {
        std::printf("%8.4f", r.metrics.nse);
      } else {
        std::printf("%8s", "n/a");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace ssin
