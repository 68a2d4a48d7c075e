#ifndef SSIN_SERVE_HEALTH_MONITOR_H_
#define SSIN_SERVE_HEALTH_MONITOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "serve/interpolation_server.h"

namespace ssin {
namespace serve {

/// Serving health, worst first. Transitions are logged via SSIN_LOG and
/// counted in `serve.health_transitions_total`; the current state is
/// mirrored into the `serve.health_state` gauge (0/1/2).
enum class HealthState {
  kHealthy = 0,   ///< Every signal under its threshold.
  kDegraded = 1,  ///< Some model's window p99 exceeds the SLO target.
  kShedding = 2,  ///< Admission control is rejecting load (queue full), or
                  ///< the queue is saturated and about to. Client errors
                  ///< (unknown model, invalid request) and shutdown
                  ///< rejections never shed.
};

const char* HealthStateName(HealthState state);

/// Thresholds the monitor evaluates each sample against. All signals are
/// computed over the metrics' trailing window (last 60s by default), not
/// process lifetime, so recovery is observable.
struct HealthThresholds {
  /// A model is degraded when its window p99 end-to-end latency exceeds
  /// this (microseconds).
  double slo_p99_us = 100000.0;
  /// Shedding when queue depth / queue capacity reaches this fraction.
  double queue_saturation = 0.9;
  /// Shedding when window queue_full / (accepted + queue_full) exceeds
  /// this.
  double shed_ratio = 0.01;
  /// Don't judge a model's SLO on fewer window requests than this (early
  /// samples of a burst would otherwise flap the state).
  int64_t min_window_requests = 8;
};

/// One structured sample of serving health.
struct ServerStatus {
  HealthState state = HealthState::kHealthy;
  int64_t sampled_at_ns = 0;

  double queue_depth = 0.0;
  double queue_capacity = 0.0;
  double queue_fill = 0.0;  ///< depth / capacity.

  int64_t window_accepted = 0;
  int64_t window_rejected = 0;    ///< Every rejection reason.
  int64_t window_queue_full = 0;  ///< Admission-control rejections only.
  /// queue_full / (accepted + queue_full), window.
  double shed_ratio = 0.0;

  struct ModelHealth {
    std::string model;
    int64_t requests = 0;          ///< Lifetime.
    double p99_us = 0.0;           ///< Lifetime.
    int64_t window_requests = 0;
    double window_p99_us = 0.0;
    /// Fraction of retained window samples over the SLO p99 target.
    double burn_rate = 0.0;
  };
  std::vector<ModelHealth> models;
  double worst_window_p99_us = 0.0;

  /// JSON rendering (one object) for ops endpoints and logs.
  std::string Json() const;
};

/// Background sampler over an InterpolationServer: every sample_interval it
/// reads the trailing-window metrics (queue fill, shed ratio, per-model
/// window p99 / SLO burn rate), folds them into a HealthState against the
/// configured thresholds, logs state transitions, and keeps the latest
/// ServerStatus for scraping. Evaluate() runs one sample synchronously —
/// tests and pull-based exporters call it directly; Start()/Stop() run the
/// same evaluation on a timer.
///
/// The monitor only *reads* server and registry state; it never blocks the
/// admission or dispatch paths.
class HealthMonitor {
 public:
  struct Options {
    HealthThresholds thresholds;
    /// Sampling period of the background thread (Start()).
    int64_t sample_interval_ms = 200;
  };

  explicit HealthMonitor(InterpolationServer* server)
      : HealthMonitor(server, Options()) {}
  HealthMonitor(InterpolationServer* server, Options options);
  ~HealthMonitor();  // Stop().

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Starts the background sampler (idempotent).
  void Start();
  /// Stops and joins the background sampler (idempotent).
  void Stop();

  /// Takes one sample now: recomputes the status, applies the state
  /// machine, logs any transition. Thread-safe.
  ServerStatus Evaluate();

  /// Latest sample (Evaluate() result or background tick); a default
  /// healthy status before the first sample.
  ServerStatus LastStatus() const;

  HealthState state() const { return state_.load(std::memory_order_relaxed); }
  /// State changes observed since construction.
  int64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

 private:
  void SamplerLoop();
  ServerStatus Sample() const;

  InterpolationServer* const server_;
  const Options options_;

  std::atomic<HealthState> state_{HealthState::kHealthy};
  std::atomic<int64_t> transitions_{0};

  mutable std::mutex mu_;  ///< Guards last_status_ and the state machine.
  ServerStatus last_status_;

  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool stopping_ = false;
  std::thread sampler_;
};

}  // namespace serve
}  // namespace ssin

#endif  // SSIN_SERVE_HEALTH_MONITOR_H_
