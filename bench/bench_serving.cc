/// Traffic-replay load generator for the serving core (src/serve/): an
/// open-loop arrival schedule with diurnal modulation and superimposed
/// bursts is replayed against an InterpolationServer at several target
/// rates, and the resulting throughput-vs-latency curve — achieved qps,
/// p50/p99/max end-to-end latency, micro-batch sizes, and admission-control
/// rejections — is recorded into BENCH_serving.json.
///
/// The schedule is open-loop on purpose: arrivals do not wait for
/// completions, so past the saturation point the bounded queue fills and
/// the curve shows load shedding (serve.rejected_total climbing) instead
/// of coordinated-omission-flattered latencies.
///
/// Flags:
///   --smoke          tiny replay, no pacing targets beyond a sanity rate;
///                    checks every served prediction bit-exactly against a
///                    direct InterpolateTimestamp reference (a ctest tier1
///                    gate).
///   --smoke-health   synthetic overload against a tiny paused queue: the
///                    HealthMonitor must walk healthy → shedding →
///                    healthy with exactly two transitions (a ctest tier1
///                    gate; no JSON written).
///
/// Writes BENCH_serving.json (override the path with
/// SSIN_BENCH_SERVING_JSON).

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "serve/health_monitor.h"
#include "serve/interpolation_server.h"

namespace {

using namespace ssin;
using namespace ssin::bench;
using serve::HealthMonitor;
using serve::HealthState;
using serve::HealthStateName;
using serve::InterpolationServer;
using serve::Request;
using serve::ServerConfig;
using serve::ServerStatus;
using serve::SubmitStatus;

using SteadyClock = std::chrono::steady_clock;

/// One point of the throughput-vs-latency curve.
struct CurvePoint {
  double target_qps = 0.0;
  int offered = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  double replay_seconds = 0.0;   ///< Submit window (arrival schedule).
  double drain_seconds = 0.0;    ///< Replay + waiting for the last future.
  double achieved_qps = 0.0;     ///< Completions over the drain window.
  double offered_qps = 0.0;      ///< Arrivals over the replay window.
  InterpolationServer::ModelSlo slo;
  double mean_batch_size = 0.0;
  int64_t batches = 0;
};

/// Arrival-rate multiplier at replay phase `u` in [0, 1): a diurnal
/// sinusoid (one "day" per replay, troughs at 0.6x, peaks at 1.4x) with a
/// 4x burst riding on top for 5% of each of four "hours". Deterministic so
/// every run replays the identical trace.
double RateMultiplier(double u) {
  const double diurnal = 1.0 + 0.4 * std::sin(2.0 * M_PI * u);
  const double hour_phase = std::fmod(u * 4.0, 1.0);
  const double burst = hour_phase < 0.05 ? 4.0 : 1.0;
  return diurnal * burst;
}

/// Replays `offered` open-loop arrivals at `target_qps` (pattern-modulated)
/// against `server`, round-robining over the dataset's timestamps.
CurvePoint ReplayCurvePoint(InterpolationServer* server,
                            const std::string& model,
                            const RainfallSetup& setup, double target_qps,
                            int offered) {
  const int64_t accepted_before = server->accepted_total();
  const int64_t rejected_before = server->rejected_total();
  const int64_t batches_before = server->batches_total();

  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(offered);

  const SteadyClock::time_point start = SteadyClock::now();
  SteadyClock::time_point next_arrival = start;
  for (int i = 0; i < offered; ++i) {
    // Sleep to within ~200us of the scheduled arrival (on a small machine
    // a pure busy-wait would steal the batcher's cores), then spin the
    // last stretch — a sleep's wakeup granularity alone would flatten the
    // bursts the pattern exists to produce.
    const SteadyClock::time_point coarse =
        next_arrival - std::chrono::microseconds(200);
    if (SteadyClock::now() < coarse) {
      std::this_thread::sleep_until(coarse);
    }
    while (SteadyClock::now() < next_arrival) {
    }
    Request request;
    request.model = model;
    request.all_values = setup.data.Values(i % setup.data.num_timestamps());
    request.observed_ids = setup.split.train_ids;
    request.query_ids = setup.split.test_ids;
    std::future<std::vector<double>> future;
    if (server->Submit(std::move(request), &future) ==
        SubmitStatus::kAccepted) {
      futures.push_back(std::move(future));
    }
    const double phase = static_cast<double>(i) / offered;
    const double rate = target_qps * RateMultiplier(phase);
    next_arrival += std::chrono::nanoseconds(
        static_cast<int64_t>(1e9 / rate));
  }
  const double replay_seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  for (auto& future : futures) future.get();
  const double drain_seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  CurvePoint point;
  point.target_qps = target_qps;
  point.offered = offered;
  point.accepted = server->accepted_total() - accepted_before;
  point.rejected = server->rejected_total() - rejected_before;
  point.replay_seconds = replay_seconds;
  point.drain_seconds = drain_seconds;
  point.offered_qps = offered / replay_seconds;
  point.achieved_qps = static_cast<double>(point.accepted) / drain_seconds;
  point.slo = server->Slo(model);
  point.batches = server->batches_total() - batches_before;
  point.mean_batch_size =
      point.batches > 0
          ? static_cast<double>(point.accepted) / point.batches
          : 0.0;
  return point;
}

std::shared_ptr<SsinInterpolator> MakeResident(const RainfallSetup& setup) {
  auto model = std::make_shared<SsinInterpolator>(SpaFormerConfig::Paper(),
                                                  ReducedTraining());
  model->Prepare(setup.data, setup.split.train_ids);
  return model;
}

/// Synthetic-overload smoke for the health monitor: a tiny queue behind a
/// paused batcher saturates deterministically, so the monitor must report
/// shedding; resuming and draining must bring it back to healthy. Latency
/// and shed-ratio thresholds are pushed out of the way — the windowed
/// reject count outlives the recovery this gate observes, so queue
/// saturation alone drives the state here.
int RunHealthSmoke(const RainfallSetup& setup) {
  ServerConfig config;
  config.queue_capacity = 4;
  config.max_batch_size = 4;
  config.batch_linger_us = 0;
  config.batch_threads = 1;
  config.start_paused = true;
  InterpolationServer server(config);
  server.registry().Register("hk-health", MakeResident(setup),
                             MakeResident(setup));

  HealthMonitor::Options options;
  options.thresholds.slo_p99_us = 1e9;
  options.thresholds.shed_ratio = 2.0;  // Unreachable: ratio is <= 1.
  HealthMonitor monitor(&server, options);

  if (monitor.Evaluate().state != HealthState::kHealthy) {
    std::printf("FAIL: idle server reported %s, expected healthy\n",
                HealthStateName(monitor.state()));
    return 1;
  }

  // Fill the paused queue to capacity, then overflow it: admission control
  // must reject the excess and the monitor must call the queue saturated.
  std::vector<std::future<std::vector<double>>> futures;
  int rejected = 0;
  for (size_t i = 0; i < config.queue_capacity + 4; ++i) {
    Request request;
    request.model = "hk-health";
    request.all_values =
        setup.data.Values(static_cast<int>(i) % setup.data.num_timestamps());
    request.observed_ids = setup.split.train_ids;
    request.query_ids = setup.split.test_ids;
    std::future<std::vector<double>> future;
    if (server.Submit(std::move(request), &future) ==
        SubmitStatus::kAccepted) {
      futures.push_back(std::move(future));
    } else {
      ++rejected;
    }
  }
  if (futures.size() != config.queue_capacity || rejected == 0) {
    std::printf("FAIL: overload admitted %zu / rejected %d against a "
                "capacity-%zu paused queue\n",
                futures.size(), rejected, config.queue_capacity);
    return 1;
  }
  const ServerStatus overloaded = monitor.Evaluate();
  if (overloaded.state != HealthState::kShedding ||
      overloaded.queue_fill < 1.0) {
    std::printf("FAIL: saturated queue reported %s (fill %.2f), expected "
                "shedding\n",
                HealthStateName(overloaded.state), overloaded.queue_fill);
    return 1;
  }

  server.Resume();
  for (auto& future : futures) future.get();
  const ServerStatus recovered = monitor.Evaluate();
  if (recovered.state != HealthState::kHealthy) {
    std::printf("FAIL: drained server reported %s, expected healthy\n",
                HealthStateName(recovered.state));
    return 1;
  }
  if (monitor.transitions() != 2) {
    std::printf("FAIL: expected 2 transitions (healthy->shedding->healthy), "
                "observed %lld\n",
                static_cast<long long>(monitor.transitions()));
    return 1;
  }

  // The background sampler must start and stop cleanly on top of the same
  // state machine.
  monitor.Start();
  monitor.Stop();

  std::printf("smoke-health: healthy -> shedding (fill %.2f, %d rejected) "
              "-> healthy, 2 transitions\n",
              overloaded.queue_fill, rejected);
  std::printf("overloaded status: %s\n", overloaded.Json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool smoke_health = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--smoke-health") == 0) {
      smoke_health = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  Banner("bench_serving",
         "serving-core throughput vs latency under replayed traffic");

  // Serving latency does not depend on trained weights: Prepare() the
  // paper-geometry model (HK, 123 gauges) and replay against it.
  RainfallSetup setup(HkRegionConfig(), (smoke || smoke_health) ? 8 : Scaled(48),
                      /*data_seed=*/21);

  if (smoke_health) return RunHealthSmoke(setup);

  ServerConfig config;
  config.queue_capacity = 1024;
  config.max_batch_size = 64;
  config.batch_linger_us = smoke ? 0 : 200;
  config.batch_threads = 0;  // One per hardware thread.
  InterpolationServer server(config);
  server.registry().Register("hk", MakeResident(setup), MakeResident(setup));

  if (smoke) {
    // Correctness gate, no pacing: every served prediction must equal the
    // direct engine call bit for bit.
    SsinInterpolator reference(SpaFormerConfig::Paper(), ReducedTraining());
    reference.Prepare(setup.data, setup.split.train_ids);
    const CurvePoint point =
        ReplayCurvePoint(&server, "hk", setup, /*target_qps=*/2000.0,
                         /*offered=*/64);
    if (point.accepted != 64 || point.rejected != 0) {
      std::printf("FAIL: smoke replay dropped requests (accepted %lld, "
                  "rejected %lld)\n",
                  static_cast<long long>(point.accepted),
                  static_cast<long long>(point.rejected));
      return 1;
    }
    for (int t = 0; t < setup.data.num_timestamps(); ++t) {
      Request request;
      request.model = "hk";
      request.all_values = setup.data.Values(t);
      request.observed_ids = setup.split.train_ids;
      request.query_ids = setup.split.test_ids;
      std::vector<double> served;
      const SubmitStatus status = server.Interpolate(request, &served);
      if (status != SubmitStatus::kAccepted) {
        std::printf("FAIL: smoke request at timestamp %d rejected (%s)\n", t,
                    SubmitStatusName(status));
        return 1;
      }
      const std::vector<double> direct = reference.InterpolateTimestamp(
          setup.data.Values(t), setup.split.train_ids,
          setup.split.test_ids);
      if (served != direct) {
        std::printf("FAIL: served prediction differs from direct engine "
                    "call at timestamp %d\n", t);
        return 1;
      }
    }
    std::printf("smoke: 64/64 served, predictions bit-identical to the "
                "direct engine (p99 %.0f us, mean batch %.1f)\n",
                point.slo.p99_us, point.mean_batch_size);
  }

  std::vector<CurvePoint> curve;
  if (!smoke) {
    const int offered = Scaled(2000);
    std::printf("%-12s %10s %10s %10s %12s %10s %10s %8s\n", "target_qps",
                "offered", "accepted", "rejected", "achieved_qps",
                "p50_us", "p99_us", "batch");
    for (double target_qps : {1000.0, 10000.0, 100000.0}) {
      // One server+model pair per point so the per-model SLO histogram and
      // queue state start clean at each rate.
      InterpolationServer point_server(config);
      const std::string model =
          "hk-" + std::to_string(static_cast<int>(target_qps));
      point_server.registry().Register(model, MakeResident(setup),
                                       MakeResident(setup));
      const CurvePoint point = ReplayCurvePoint(
          &point_server, model, setup, target_qps, offered);
      std::printf("%-12.0f %10d %10lld %10lld %12.0f %10.0f %10.0f %8.1f\n",
                  point.target_qps, point.offered,
                  static_cast<long long>(point.accepted),
                  static_cast<long long>(point.rejected),
                  point.achieved_qps, point.slo.p50_us, point.slo.p99_us,
                  point.mean_batch_size);
      std::fflush(stdout);
      curve.push_back(point);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("bench_serving");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("simd_isa");
  json.String(simd::IsaName());
#ifdef __OPTIMIZE__
  json.Key("ssin_build_type");
  json.String("release");
#else
  json.Key("ssin_build_type");
  json.String("debug");
#endif
  json.Key("dataset");
  json.String("HK");
  json.Key("sequence_length");
  json.Int(setup.data.num_stations());
  json.Key("queue_capacity");
  json.Int(static_cast<int64_t>(config.queue_capacity));
  json.Key("max_batch_size");
  json.Int(static_cast<int64_t>(config.max_batch_size));
  json.Key("batch_linger_us");
  json.Int(config.batch_linger_us);
  json.Key("batch_threads");
  json.Int(config.batch_threads);
  json.Key("arrival_pattern");
  json.String("diurnal sinusoid (0.6x-1.4x) with 4x bursts, open loop");
  json.Key("curve");
  json.BeginArray();
  for (const CurvePoint& point : curve) {
    json.BeginObject();
    json.Key("target_qps");
    json.Number(point.target_qps);
    json.Key("offered");
    json.Int(point.offered);
    json.Key("offered_qps");
    json.Number(point.offered_qps);
    json.Key("accepted");
    json.Int(point.accepted);
    json.Key("rejected");
    json.Int(point.rejected);
    json.Key("achieved_qps");
    json.Number(point.achieved_qps);
    json.Key("replay_seconds");
    json.Number(point.replay_seconds);
    json.Key("drain_seconds");
    json.Number(point.drain_seconds);
    json.Key("p50_us");
    json.Number(point.slo.p50_us);
    json.Key("p99_us");
    json.Number(point.slo.p99_us);
    json.Key("max_us");
    json.Number(point.slo.max_us);
    json.Key("batches");
    json.Int(point.batches);
    json.Key("mean_batch_size");
    json.Number(point.mean_batch_size);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const char* json_path = std::getenv("SSIN_BENCH_SERVING_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_serving.json";
  if (WriteFile(out_path, json.str() + "\n")) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
