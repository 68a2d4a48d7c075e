#ifndef SSIN_SERVE_INTERPOLATION_SERVER_H_
#define SSIN_SERVE_INTERPOLATION_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"

namespace ssin {
namespace serve {

struct ServerConfig {
  /// Bounded request queue capacity; a full queue *rejects* new requests
  /// (admission control) — it never blocks the submitter.
  size_t queue_capacity = 1024;
  /// Largest micro-batch handed to one InterpolateBatch dispatch. Must be
  /// positive (the constructor refuses 0).
  size_t max_batch_size = 64;
  /// After the first request of a wave arrives, how long the batcher
  /// lingers for the wave to fill before dispatching (0 = dispatch
  /// whatever is queued immediately; higher values trade tail latency for
  /// bigger batches).
  int64_t batch_linger_us = 200;
  /// Thread fan-out of each InterpolateBatch dispatch (1 = the batcher
  /// thread only, 0 = one per hardware thread).
  int batch_threads = 1;
  /// Start with the batcher paused (Resume() starts serving). Lets tests
  /// and replay drivers fill the queue deterministically before the first
  /// wave is cut.
  bool start_paused = false;
};

enum class SubmitStatus {
  kAccepted,        ///< Queued; the future will be fulfilled.
  kQueueFull,       ///< Rejected by admission control — retry/shed load.
  kUnknownModel,    ///< No model registered under that name.
  kInvalidRequest,  ///< Ids out of range, duplicated or overlapping, or a
                    ///< non-finite observed value.
  kShutdown,        ///< The server no longer accepts requests.
};

const char* SubmitStatusName(SubmitStatus status);

/// The long-lived serving core: a model registry of resident
/// interpolators, a bounded request queue, and one batcher thread that
/// coalesces concurrent single-timestamp queries sharing an
/// (observed_ids, query_ids) layout into micro-batches dispatched through
/// SsinInterpolator::InterpolateBatch.
///
/// Lifecycle of a request: Submit() validates it against the target model
/// (unknown model / malformed ids are rejected without aborting the
/// process) and pushes it onto the queue — or rejects it when the queue is
/// full. The batcher pops a wave, groups it by (model, layout), acquires
/// each model from the registry (a shared_ptr — hot-swaps promoted during
/// the dispatch don't touch it), runs one InterpolateBatch per group and
/// fulfills the promises. Results are bit-identical to calling
/// InterpolateTimestamp directly: coalescing changes scheduling, never
/// arithmetic.
///
/// Metrics: `serve.queue_depth` (gauge) with `serve.queue_depth_samples`
/// (histogram of depth at each push/pop), `serve.batch_size` (histogram of
/// dispatched group sizes), `serve.requests_total` / `serve.batches_total`
/// / `serve.rejected_total` (counters; every rejection also counts in
/// `serve.rejected_total.<reason>`, reason = SubmitStatusName),
/// `serve.hot_swaps_total` (registry), `serve.queue_wait_us` (histogram,
/// enqueue → wave pop), and a per-model end-to-end latency histogram
/// `serve.request_us.<model>` (enqueue → promise fulfilled) behind Slo().
/// Every counter and histogram carries a lifetime and a last-60s view.
/// These are plain statistics in the sense of src/common/telemetry.h: they
/// record regardless of the global telemetry flag.
///
/// Tracing: when telemetry is enabled, Submit assigns each request a trace
/// id; the `serve.submit`, `serve.queue_wait`, `serve.dispatch`,
/// `serve.batch` and `serve.predict` spans it touches all carry that id,
/// and the exported trace stitches them into one Perfetto flow.
class InterpolationServer {
 public:
  explicit InterpolationServer(const ServerConfig& config = {});
  ~InterpolationServer();  // Shutdown().

  InterpolationServer(const InterpolationServer&) = delete;
  InterpolationServer& operator=(const InterpolationServer&) = delete;

  /// The model registry. Register models before submitting to them;
  /// Promote() through this registry is the zero-drop hot-swap path.
  ModelRegistry& registry() { return registry_; }

  /// Asynchronous submit. On kAccepted, `*result` receives the future that
  /// the batcher fulfills (it carries an exception if the dispatch threw).
  /// Any other status leaves `*result` untouched. Never blocks on a full
  /// queue.
  SubmitStatus Submit(Request request,
                      std::future<std::vector<double>>* result);

  /// Blocking convenience wrapper: Submit + future.get(). On kAccepted,
  /// `*values` receives the predictions (future.get() rethrows if the
  /// dispatch threw). Any other status is returned as is and leaves
  /// `*values` untouched, so a rejection never aborts the process.
  SubmitStatus Interpolate(Request request, std::vector<double>* values);

  /// Pauses the batcher: admission keeps accepting up to queue capacity,
  /// but no further wave is dispatched until Resume(). Takes effect before
  /// the next wave; a batcher already waiting on the queue may cut one
  /// more wave first (start_paused avoids that window for tests).
  void Pause();
  void Resume();

  /// Stops accepting new requests, drains every queued request through the
  /// batcher (a paused batcher is resumed to drain), and joins it.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// SLO view over the per-model end-to-end latency histogram: the
  /// lifetime aggregate plus the trailing-window (last 60 s) view the
  /// health monitor samples.
  struct ModelSlo {
    int64_t requests = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
    int window_seconds = 0;
    int64_t window_requests = 0;
    double window_p50_us = 0.0;
    double window_p99_us = 0.0;
    double window_max_us = 0.0;
  };
  ModelSlo Slo(const std::string& model) const;

  /// Trailing-window snapshot of the per-model latency histogram (the raw
  /// distribution behind Slo()'s window fields; the health monitor computes
  /// its SLO burn rate from the retained samples).
  telemetry::HistogramSnapshot WindowLatencySnapshot(
      const std::string& model) const;

  const ServerConfig& config() const { return config_; }

  int64_t accepted_total() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  int64_t rejected_total() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  int64_t batches_total() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Accepted/rejected totals over the trailing metrics window.
  int64_t accepted_window() const;
  int64_t rejected_window() const;
  /// Rejections by admission control (kQueueFull) over the trailing
  /// metrics window; the rest of rejected_window() are client errors and
  /// shutdown.
  int64_t queue_full_window() const;
  size_t queue_depth() const { return queue_.size(); }

 private:
  /// Counts one rejection in rejected_total(), `serve.rejected_total` and
  /// `serve.rejected_total.<reason>`, and returns `status`.
  SubmitStatus Reject(SubmitStatus status);
  void BatcherLoop();
  /// Blocks while paused, unless shutdown was requested (the batcher then
  /// drains without further pausing).
  void WaitWhilePaused();
  /// One micro-batch: every request in `group` shares (model, layout).
  void DispatchGroup(const std::vector<QueuedRequest*>& group);
  telemetry::Histogram* LatencyHistogramFor(const std::string& model) const;

  const ServerConfig config_;
  ModelRegistry registry_;
  RequestQueue queue_;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> batches_{0};

  /// Per-model latency histogram pointers (stable; registry-owned).
  mutable std::mutex slo_mu_;
  mutable std::map<std::string, telemetry::Histogram*> slo_histograms_;

  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  bool draining_ = false;  ///< Shutdown requested: stop pausing, drain.

  std::thread batcher_;
};

}  // namespace serve
}  // namespace ssin

#endif  // SSIN_SERVE_INTERPOLATION_SERVER_H_
