#ifndef SSIN_PERFBENCH_TRACE_H_
#define SSIN_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ssin_interpolator.h"

namespace perfbench {

/// Client-side record of one request. Times are NowNs(); 0 = never.
struct RequestRecord {
  enum Status { kPending, kOk, kRejected, kErrored };
  int64_t scheduled_ns = 0;  ///< Open loop: due time. Closed: send decision.
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t seen_ns = 0;  ///< The client saw the future ready.
  Status status = kPending;
  int phase = 0;  ///< 0 = open loop, 1 = closed loop.
  bool traced = false;
};

/// One InterpolateBatch call as seen from the bench-side subclass, tagged
/// with every request it served.
struct DispatchRecord {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  bool layout_miss = false;
  int batch_size = 0;  ///< Every request in the batch, traced or not.
  std::vector<int> request_ids;
};

/// Joins requests to the dispatch that served them. A request's identity
/// rides on its values buffer: std::vector keeps its heap buffer across the
/// moves from Submit into the dispatch, so the client registers
/// all_values.data() before Submit and the dispatch looks it up. The entry
/// is erased at dispatch, before the buffer can be freed and its address
/// reused.
class RequestTracer {
 public:
  void Register(const double* values, int request_id);
  /// Drops the registration of a request that was never admitted.
  void Forget(const double* values);
  /// True while a registered request awaits its dispatch.
  bool active() const { return pending_.load(std::memory_order_acquire) > 0; }
  void OnDispatch(const std::vector<const std::vector<double>*>& batch,
                  int64_t begin_ns, int64_t end_ns, bool layout_miss);
  std::vector<DispatchRecord> dispatches() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<const double*, int> ids_;
  std::vector<DispatchRecord> dispatches_;
  std::atomic<int64_t> pending_{0};
};

/// The interpolator the benchmark registers in the ModelRegistry: times
/// each InterpolateBatch (the dispatch span) while its tracer has
/// registered requests, and otherwise forwards untouched.
class TracingInterpolator : public ssin::SsinInterpolator {
 public:
  using SsinInterpolator::SsinInterpolator;

  void set_tracer(RequestTracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  std::vector<std::vector<double>> InterpolateBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
      int num_threads = 1) override;

 private:
  std::atomic<RequestTracer*> tracer_{nullptr};
};

/// Per-request stage durations of traced requests, in ms.
struct StageSamples {
  std::vector<double> send, submit, queue_wait, dispatch, fulfil, latency;
  /// Root self time: latency minus the union of the five stage spans.
  std::vector<double> root_self;
  int64_t traced = 0;     ///< Traced requests that completed OK.
  int64_t unmatched = 0;  ///< Of those, never seen by a traced dispatch.
  int64_t overlapped = 0; ///< Dispatch began before Submit returned.
  double max_sum_error_ms = 0.0;  ///< max |sum(stages) - latency|.
};

/// Tolerance of the stage-sum check: the five stages of a request must add
/// up to its client-measured latency within this many ms.
constexpr double kStageSumToleranceMs = 0.001;

StageSamples AnalyzeStages(const std::vector<RequestRecord>& requests,
                           const std::vector<DispatchRecord>& dispatches,
                           int phase);

/// Duration of [begin, end) not covered by any of `children` (clipped to
/// the parent), in ms: a span's self time.
double SelfTimeMs(int64_t begin_ns, int64_t end_ns,
                  std::vector<std::pair<int64_t, int64_t>> children);

/// One span for the exported trace; `name` must be a string literal.
struct Span {
  const char* name;
  int64_t begin_ns;
  int64_t end_ns;
  uint64_t trace_id;
};

/// Writes `tracks` (one Perfetto track each, in order) through the
/// telemetry TraceRecorder and its Chrome-trace report exporter to `path`.
/// Returns false on IO failure or if the recorder dropped spans.
bool ExportTrace(const std::vector<std::vector<Span>>& tracks,
                 const std::string& path, int64_t* dropped);

/// Spans of traced requests: loadgen.send + serve.submit, serve.queue_wait,
/// core.dispatch (one per served request) and serve.fulfil tracks, all
/// tagged with the request's trace id (request index + 1).
std::vector<std::vector<Span>> RequestTracks(
    const std::vector<RequestRecord>& requests,
    const std::vector<DispatchRecord>& dispatches);

}  // namespace perfbench

#endif  // SSIN_PERFBENCH_TRACE_H_
