#include "serve/health_monitor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json_writer.h"
#include "common/log.h"

namespace ssin {
namespace serve {

namespace {

telemetry::Gauge* HealthStateGauge() {
  static telemetry::Gauge* gauge =
      telemetry::GetGauge("serve.health_state");
  return gauge;
}

telemetry::Counter* TransitionsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.health_transitions_total");
  return counter;
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

std::string ServerStatus::Json() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("state");
  w.String(HealthStateName(state));
  w.Key("sampled_at_ns");
  w.Int(sampled_at_ns);
  w.Key("queue_depth");
  w.Number(queue_depth);
  w.Key("queue_capacity");
  w.Number(queue_capacity);
  w.Key("queue_fill");
  w.Number(queue_fill);
  w.Key("window_accepted");
  w.Int(window_accepted);
  w.Key("window_rejected");
  w.Int(window_rejected);
  w.Key("window_queue_full");
  w.Int(window_queue_full);
  w.Key("shed_ratio");
  w.Number(shed_ratio);
  w.Key("worst_window_p99_us");
  w.Number(worst_window_p99_us);
  w.Key("models");
  w.BeginObject();
  for (const ModelHealth& model : models) {
    w.Key(model.model);
    w.BeginObject();
    w.Key("requests");
    w.Int(model.requests);
    w.Key("p99_us");
    w.Number(model.p99_us);
    w.Key("window_requests");
    w.Int(model.window_requests);
    w.Key("window_p99_us");
    w.Number(model.window_p99_us);
    w.Key("burn_rate");
    w.Number(model.burn_rate);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

HealthMonitor::HealthMonitor(InterpolationServer* server, Options options)
    : server_(server), options_(std::move(options)) {
  HealthStateGauge()->Set(0.0);
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::Start() {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (sampler_.joinable()) return;
  stopping_ = false;
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void HealthMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    stopping_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void HealthMonitor::SamplerLoop() {
  for (;;) {
    Evaluate();
    std::unique_lock<std::mutex> lock(sampler_mu_);
    sampler_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.sample_interval_ms),
        [this] { return stopping_; });
    if (stopping_) return;
  }
}

ServerStatus HealthMonitor::Sample() const {
  const HealthThresholds& t = options_.thresholds;
  ServerStatus status;
  status.sampled_at_ns = telemetry::NowNs();

  status.queue_depth = static_cast<double>(server_->queue_depth());
  status.queue_capacity =
      static_cast<double>(server_->config().queue_capacity);
  status.queue_fill = status.queue_capacity > 0.0
                          ? status.queue_depth / status.queue_capacity
                          : 0.0;

  // Only admission-control rejections count as shed load: a client error
  // says nothing about capacity.
  status.window_accepted = server_->accepted_window();
  status.window_rejected = server_->rejected_window();
  status.window_queue_full = server_->queue_full_window();
  const int64_t offered = status.window_accepted + status.window_queue_full;
  status.shed_ratio =
      offered > 0
          ? static_cast<double>(status.window_queue_full) / offered
          : 0.0;

  for (const std::string& name : server_->registry().Names()) {
    const InterpolationServer::ModelSlo slo = server_->Slo(name);
    ServerStatus::ModelHealth model;
    model.model = name;
    model.requests = slo.requests;
    model.p99_us = slo.p99_us;
    model.window_requests = slo.window_requests;
    model.window_p99_us = slo.window_p99_us;
    if (slo.window_requests > 0) {
      const telemetry::HistogramSnapshot window =
          server_->WindowLatencySnapshot(name);
      if (!window.samples.empty()) {
        const int64_t over = std::count_if(
            window.samples.begin(), window.samples.end(),
            [&t](double us) { return us > t.slo_p99_us; });
        model.burn_rate = static_cast<double>(over) /
                          static_cast<double>(window.samples.size());
      }
    }
    status.worst_window_p99_us =
        std::max(status.worst_window_p99_us, model.window_p99_us);
    status.models.push_back(std::move(model));
  }

  // Fold the signals, worst wins. Shedding outranks degraded: actively
  // rejecting load (or a queue about to) is the louder condition.
  status.state = HealthState::kHealthy;
  for (const ServerStatus::ModelHealth& model : status.models) {
    if (model.window_requests >= t.min_window_requests &&
        model.window_p99_us > t.slo_p99_us) {
      status.state = HealthState::kDegraded;
      break;
    }
  }
  if (status.shed_ratio > t.shed_ratio ||
      status.queue_fill >= t.queue_saturation) {
    status.state = HealthState::kShedding;
  }
  return status;
}

ServerStatus HealthMonitor::Evaluate() {
  ServerStatus status = Sample();
  std::lock_guard<std::mutex> lock(mu_);
  const HealthState previous = state_.load(std::memory_order_relaxed);
  if (status.state != previous) {
    state_.store(status.state, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    TransitionsCounter()->Add(1);
    if (static_cast<int>(status.state) > static_cast<int>(previous)) {
      SSIN_LOG(Warn) << "serving health " << HealthStateName(previous)
                     << " -> " << HealthStateName(status.state)
                     << " (queue_fill " << status.queue_fill
                     << ", shed_ratio " << status.shed_ratio
                     << ", worst window p99 " << status.worst_window_p99_us
                     << " us)";
    } else {
      SSIN_LOG(Info) << "serving health " << HealthStateName(previous)
                     << " -> " << HealthStateName(status.state);
    }
  }
  HealthStateGauge()->Set(static_cast<double>(status.state));
  last_status_ = status;
  return status;
}

ServerStatus HealthMonitor::LastStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

}  // namespace serve
}  // namespace ssin
