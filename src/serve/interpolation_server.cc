#include "serve/interpolation_server.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "core/interpolation.h"

namespace ssin {
namespace serve {

namespace {

telemetry::Counter* RequestsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.requests_total");
  return counter;
}

telemetry::Counter* RejectedCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.rejected_total");
  return counter;
}

/// `serve.rejected_total.<reason>` for one rejection status. The four
/// reasons register together, so each exports (at zero) from the first
/// rejection on.
telemetry::Counter* RejectedReasonCounter(SubmitStatus reason) {
  static const std::map<SubmitStatus, telemetry::Counter*> counters = [] {
    std::map<SubmitStatus, telemetry::Counter*> by_reason;
    for (SubmitStatus status :
         {SubmitStatus::kQueueFull, SubmitStatus::kUnknownModel,
          SubmitStatus::kInvalidRequest, SubmitStatus::kShutdown}) {
      by_reason[status] = telemetry::GetCounter(
          std::string("serve.rejected_total.") + SubmitStatusName(status));
    }
    return by_reason;
  }();
  return counters.at(reason);
}

telemetry::Counter* BatchesCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.batches_total");
  return counter;
}

telemetry::Histogram* BatchSizeHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.batch_size");
  return histogram;
}

telemetry::Histogram* QueueWaitHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.queue_wait_us");
  return histogram;
}

/// Orders wave entries by (model, values-length, observed, query): two
/// requests compare equal exactly when InterpolateBatch may legally serve
/// them in one call on one shared sequence layout.
struct GroupKeyLess {
  bool operator()(const QueuedRequest* a, const QueuedRequest* b) const {
    const Request& ra = a->request;
    const Request& rb = b->request;
    if (ra.model != rb.model) return ra.model < rb.model;
    if (ra.all_values.size() != rb.all_values.size()) {
      return ra.all_values.size() < rb.all_values.size();
    }
    if (ra.observed_ids != rb.observed_ids) {
      return ra.observed_ids < rb.observed_ids;
    }
    return ra.query_ids < rb.query_ids;
  }
};

}  // namespace

const char* SubmitStatusName(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue_full";
    case SubmitStatus::kUnknownModel:
      return "unknown_model";
    case SubmitStatus::kInvalidRequest:
      return "invalid_request";
    case SubmitStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

InterpolationServer::InterpolationServer(const ServerConfig& config)
    : config_(config), queue_(config.queue_capacity) {
  // A zero cap would make every wave empty: the batcher would spin on the
  // queue without ever releasing it.
  SSIN_CHECK(config.max_batch_size > 0)
      << "ServerConfig::max_batch_size must be positive";
  paused_ = config.start_paused;
  batcher_ = std::thread([this] { BatcherLoop(); });
}

InterpolationServer::~InterpolationServer() { Shutdown(); }

SubmitStatus InterpolationServer::Reject(SubmitStatus status) {
  RejectedCounter()->Add(1);
  RejectedReasonCounter(status)->Add(1);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

SubmitStatus InterpolationServer::Submit(
    Request request, std::future<std::vector<double>>* result) {
  // Every span opened on this thread until return — and, via
  // QueuedRequest::trace_id, the batcher/engine spans that later serve
  // this request — carries one fresh trace id.
  const uint64_t trace_id =
      telemetry::Enabled() ? telemetry::NextTraceId() : 0;
  telemetry::ScopedTrace trace(trace_id);
  SSIN_TRACE_SPAN("serve.submit");
  if (queue_.closed()) return Reject(SubmitStatus::kShutdown);
  // Validate at admission so a malformed request becomes an explicit
  // rejection here instead of an SSIN_CHECK abort on the batcher thread.
  std::shared_ptr<SsinInterpolator> model = registry_.Acquire(request.model);
  if (model == nullptr) return Reject(SubmitStatus::kUnknownModel);
  const std::string error =
      InterpolationIdsError(request.all_values, model->num_stations(),
                            request.observed_ids, request.query_ids);
  if (!error.empty()) return Reject(SubmitStatus::kInvalidRequest);

  QueuedRequest item;
  item.request = std::move(request);
  item.enqueue_ns = telemetry::NowNs();
  item.trace_id = trace_id;
  std::future<std::vector<double>> future = item.promise.get_future();
  if (!queue_.TryPush(&item)) {
    return Reject(queue_.closed() ? SubmitStatus::kShutdown
                                  : SubmitStatus::kQueueFull);
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter()->Add(1);
  *result = std::move(future);
  return SubmitStatus::kAccepted;
}

SubmitStatus InterpolationServer::Interpolate(Request request,
                                              std::vector<double>* values) {
  std::future<std::vector<double>> future;
  const SubmitStatus status = Submit(std::move(request), &future);
  if (status == SubmitStatus::kAccepted) *values = future.get();
  return status;
}

void InterpolationServer::Pause() {
  std::lock_guard<std::mutex> lock(pause_mu_);
  paused_ = true;
}

void InterpolationServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void InterpolationServer::Shutdown() {
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    draining_ = true;  // A paused batcher resumes to drain the queue.
  }
  pause_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

void InterpolationServer::WaitWhilePaused() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  pause_cv_.wait(lock, [this] { return !paused_ || draining_; });
}

void InterpolationServer::BatcherLoop() {
  std::vector<QueuedRequest> wave;
  for (;;) {
    WaitWhilePaused();
    wave.clear();
    if (!queue_.PopWave(&wave, config_.max_batch_size,
                        config_.batch_linger_us)) {
      break;  // Closed and drained: every accepted promise is fulfilled.
    }
    const int64_t pop_ns = telemetry::NowNs();
    for (const QueuedRequest& item : wave) {
      QueueWaitHistogram()->Observe(
          static_cast<double>(pop_ns - item.enqueue_ns) / 1e3);
      // Every queue-wait span of a wave ends at the same pop instant, so
      // they nest cleanly on the batcher's track; each carries its own
      // request's trace id.
      if (telemetry::Enabled() && item.trace_id != 0) {
        telemetry::TraceRecorder::Global().Record(
            "serve.queue_wait", item.enqueue_ns, pop_ns, /*depth=*/1,
            item.trace_id);
      }
    }
    // Coalesce the wave: requests sharing (model, layout) become one
    // micro-batch. std::map keeps dispatch order deterministic.
    std::map<const QueuedRequest*, std::vector<QueuedRequest*>,
             GroupKeyLess>
        groups;
    for (QueuedRequest& item : wave) groups[&item].push_back(&item);
    for (auto& entry : groups) DispatchGroup(entry.second);
  }
}

void InterpolationServer::DispatchGroup(
    const std::vector<QueuedRequest*>& group) {
  // The dispatch (and the engine spans under it) carries the head
  // request's trace id — one representative flow per micro-batch keeps the
  // Perfetto view readable; every request still has its own submit and
  // queue-wait spans.
  telemetry::ScopedTrace trace(group[0]->trace_id);
  SSIN_TRACE_SPAN("serve.dispatch");
  const Request& head = group[0]->request;
  // The shared_ptr pins these weights for the whole dispatch: a Promote()
  // racing with this batch swaps the registry pointer but cannot touch the
  // instance we are serving on.
  std::shared_ptr<SsinInterpolator> model = registry_.Acquire(head.model);
  auto fail_all = [&group](std::exception_ptr error) {
    for (QueuedRequest* item : group) item->promise.set_exception(error);
  };
  if (model == nullptr) {
    // Submit checked registration, so only a (hypothetical) deregistration
    // between admission and dispatch lands here.
    fail_all(std::make_exception_ptr(
        std::runtime_error("model vanished before dispatch: " + head.model)));
    return;
  }
  std::vector<const std::vector<double>*> batch_values;
  batch_values.reserve(group.size());
  for (QueuedRequest* item : group) {
    batch_values.push_back(&item->request.all_values);
  }
  try {
    std::vector<std::vector<double>> results = model->InterpolateBatch(
        batch_values, head.observed_ids, head.query_ids,
        config_.batch_threads);
    for (size_t i = 0; i < group.size(); ++i) {
      group[i]->promise.set_value(std::move(results[i]));
    }
  } catch (...) {
    fail_all(std::current_exception());
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  BatchesCounter()->Add(1);
  BatchSizeHistogram()->Observe(static_cast<double>(group.size()));
  telemetry::Histogram* latency = LatencyHistogramFor(head.model);
  const int64_t done_ns = telemetry::NowNs();
  for (const QueuedRequest* item : group) {
    latency->Observe(static_cast<double>(done_ns - item->enqueue_ns) / 1e3);
  }
}

telemetry::Histogram* InterpolationServer::LatencyHistogramFor(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  auto it = slo_histograms_.find(model);
  if (it == slo_histograms_.end()) {
    it = slo_histograms_
             .emplace(model,
                      telemetry::GetHistogram("serve.request_us." + model))
             .first;
  }
  return it->second;
}

InterpolationServer::ModelSlo InterpolationServer::Slo(
    const std::string& model) const {
  telemetry::Histogram* histogram = LatencyHistogramFor(model);
  const telemetry::HistogramSnapshot snapshot = histogram->Snapshot();
  const telemetry::HistogramSnapshot window = histogram->WindowSnapshot();
  ModelSlo slo;
  slo.requests = snapshot.count;
  if (snapshot.count > 0) {
    slo.p50_us = snapshot.Quantile(0.5);
    slo.p99_us = snapshot.Quantile(0.99);
    slo.max_us = snapshot.max;
  }
  slo.window_seconds = telemetry::kDefaultWindowSeconds;
  slo.window_requests = window.count;
  if (window.count > 0) {
    slo.window_p50_us = window.Quantile(0.5);
    slo.window_p99_us = window.Quantile(0.99);
    slo.window_max_us = window.max;
  }
  return slo;
}

telemetry::HistogramSnapshot InterpolationServer::WindowLatencySnapshot(
    const std::string& model) const {
  return LatencyHistogramFor(model)->WindowSnapshot();
}

int64_t InterpolationServer::accepted_window() const {
  return RequestsCounter()->WindowValue();
}

int64_t InterpolationServer::rejected_window() const {
  return RejectedCounter()->WindowValue();
}

int64_t InterpolationServer::queue_full_window() const {
  return RejectedReasonCounter(SubmitStatus::kQueueFull)->WindowValue();
}

}  // namespace serve
}  // namespace ssin
