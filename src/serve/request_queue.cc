#include "serve/request_queue.h"

#include <algorithm>
#include <chrono>

#include "common/telemetry.h"

namespace ssin {
namespace serve {

namespace {

telemetry::Gauge* QueueDepthGauge() {
  static telemetry::Gauge* gauge = telemetry::GetGauge("serve.queue_depth");
  return gauge;
}

/// Depth observed at every push/pop: the gauge above is the instantaneous
/// value, this histogram gives the depth distribution over the lifetime
/// and the last 60s.
telemetry::Histogram* QueueDepthSamples() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.queue_depth_samples");
  return histogram;
}

}  // namespace

RequestQueue::RequestQueue(size_t capacity) : capacity_(capacity) {}

bool RequestQueue::TryPush(QueuedRequest* item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(*item));
    QueueDepthGauge()->Set(static_cast<double>(items_.size()));
    QueueDepthSamples()->Observe(static_cast<double>(items_.size()));
  }
  nonempty_cv_.notify_one();
  return true;
}

bool RequestQueue::PopWave(std::vector<QueuedRequest>* out, size_t max,
                           int64_t linger_us) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    nonempty_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // Closed and drained.
    if (linger_us > 0 && items_.size() < max && !closed_) {
      // Linger for the wave to fill; dispatch whatever arrived on timeout.
      nonempty_cv_.wait_for(
          lock, std::chrono::microseconds(linger_us),
          [this, max] { return items_.size() >= max || closed_; });
    }
    // With several consumers, a concurrent pop may have drained the queue
    // during the linger — go back to waiting rather than return an empty
    // wave.
    const size_t take = std::min(max, items_.size());
    if (take == 0) continue;
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    QueueDepthGauge()->Set(static_cast<double>(items_.size()));
    QueueDepthSamples()->Observe(static_cast<double>(items_.size()));
    return true;
  }
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  nonempty_cv_.notify_all();
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace serve
}  // namespace ssin
