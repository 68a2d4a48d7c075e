/// Pins the contract of the long-lived serving core (src/serve/): the
/// batcher's micro-batch coalescing is invisible in the results (bit
/// identical to direct InterpolateTimestamp calls), admission control
/// rejects instead of blocking or deadlocking when the bounded queue
/// fills, and a double-buffered hot-swap under sustained concurrent load
/// drops zero requests while every prediction matches exactly one of the
/// two weight generations.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "serve/health_monitor.h"
#include "serve/interpolation_server.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"

namespace ssin {
namespace {

using serve::HealthMonitor;
using serve::HealthState;
using serve::InterpolationServer;
using serve::ModelRegistry;
using serve::Request;
using serve::ServerConfig;
using serve::ServerStatus;
using serve::SubmitStatus;

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 24;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(uint64_t seed) {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = seed;
  return config;
}

/// Dataset + station split + two independently trained weight generations
/// (seed 13 = generation A, seed 99 = generation B) with their reference
/// predictions, plus factories for registry instances.
struct ServeFixture {
  ServeFixture()
      : generator(TinyRegion()), data(generator.GenerateHours(16, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
    }
    source_a = std::make_unique<SsinInterpolator>(TinyModel(),
                                                  FastTraining(13));
    source_a->Fit(data, observed_ids);
    source_b = std::make_unique<SsinInterpolator>(TinyModel(),
                                                  FastTraining(99));
    source_b->Fit(data, observed_ids);
    for (int t = 0; t < data.num_timestamps(); ++t) {
      expected_a.push_back(source_a->InterpolateTimestamp(
          data.Values(t), observed_ids, query_ids));
      expected_b.push_back(source_b->InterpolateTimestamp(
          data.Values(t), observed_ids, query_ids));
    }
  }

  /// A registry-ready (active, standby) pair serving generation A.
  std::pair<std::shared_ptr<SsinInterpolator>,
            std::shared_ptr<SsinInterpolator>>
  MakeBuffers() {
    auto active = std::make_shared<SsinInterpolator>(TinyModel(),
                                                     FastTraining(13));
    active->Prepare(data, observed_ids);
    active->CopyParametersFrom(*source_a);
    auto standby = std::make_shared<SsinInterpolator>(TinyModel(),
                                                      FastTraining(13));
    standby->Prepare(data, observed_ids);
    return {std::move(active), std::move(standby)};
  }

  Request RequestFor(int t, const std::string& model = "hk") const {
    Request request;
    request.model = model;
    request.all_values = data.Values(t);
    request.observed_ids = observed_ids;
    request.query_ids = query_ids;
    return request;
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
  std::unique_ptr<SsinInterpolator> source_a;
  std::unique_ptr<SsinInterpolator> source_b;
  std::vector<std::vector<double>> expected_a;
  std::vector<std::vector<double>> expected_b;
};

/// The fixture trains two models; share it across tests in this file.
ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

void ExpectExactly(const std::vector<double>& actual,
                   const std::vector<double>& expected,
                   const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << label << " element " << i;
  }
}

// Blocking Interpolate that must be accepted; returns the predictions.
std::vector<double> InterpolateAccepted(InterpolationServer* server,
                                        Request request) {
  std::vector<double> values;
  EXPECT_EQ(server->Interpolate(std::move(request), &values),
            SubmitStatus::kAccepted);
  return values;
}

// ------------------------------------------------------- request queue

TEST(RequestQueueTest, TryPushFailsAtCapacityWithoutBlocking) {
  serve::RequestQueue queue(2);
  serve::QueuedRequest a, b, c;
  EXPECT_TRUE(queue.TryPush(&a));
  EXPECT_TRUE(queue.TryPush(&b));
  EXPECT_FALSE(queue.TryPush(&c));  // Full: fails immediately.
  EXPECT_EQ(queue.size(), 2u);

  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 8, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 2u);
  EXPECT_TRUE(queue.TryPush(&c));  // Space again.
}

TEST(RequestQueueTest, CloseDrainsThenSignalsShutdown) {
  serve::RequestQueue queue(4);
  serve::QueuedRequest a;
  EXPECT_TRUE(queue.TryPush(&a));
  queue.Close();
  serve::QueuedRequest late;
  EXPECT_FALSE(queue.TryPush(&late));  // Closed: rejected.

  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 8, /*linger_us=*/0));  // Drains.
  EXPECT_EQ(wave.size(), 1u);
  EXPECT_FALSE(queue.PopWave(&wave, 8, /*linger_us=*/0));  // Shutdown.
}

TEST(RequestQueueTest, PopWaveCapsAtMax) {
  serve::RequestQueue queue(8);
  for (int i = 0; i < 6; ++i) {
    serve::QueuedRequest item;
    ASSERT_TRUE(queue.TryPush(&item));
  }
  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 4, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 4u);
  wave.clear();
  EXPECT_TRUE(queue.PopWave(&wave, 4, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 2u);
}

// ------------------------------------------------------ model registry

TEST(ModelRegistryTest, PromoteSwapsActiveAndCountsSwaps) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active, standby] = f.MakeBuffers();
  SsinInterpolator* active_raw = active.get();
  SsinInterpolator* standby_raw = standby.get();
  registry.Register("hk", std::move(active), std::move(standby));

  EXPECT_TRUE(registry.Contains("hk"));
  EXPECT_FALSE(registry.Contains("bw"));
  EXPECT_EQ(registry.Acquire("bw"), nullptr);
  EXPECT_EQ(registry.Acquire("hk").get(), active_raw);

  EXPECT_FALSE(registry.Promote("bw", *f.source_b));
  EXPECT_TRUE(registry.Promote("hk", *f.source_b));
  EXPECT_EQ(registry.promotions(), 1);
  // The standby buffer, now carrying generation-B weights, serves.
  EXPECT_EQ(registry.Acquire("hk").get(), standby_raw);
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(0), f.observed_ids, f.query_ids),
                f.expected_b[0], "promoted model");
}

TEST(ModelRegistryTest, PromoteRejectsArchitectureMismatchUntouched) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active, standby] = f.MakeBuffers();
  SsinInterpolator* standby_raw = standby.get();
  registry.Register("hk", std::move(active), std::move(standby));
  std::vector<Tensor> standby_before;
  for (Parameter* p : standby_raw->model()->Parameters()) {
    standby_before.push_back(p->value);
  }

  // d_model differs at the very first tensor; d_ff only after the
  // embeddings and attention weights already matched (the case that used
  // to leave a half-overwritten standby); num_layers changes the count.
  SpaFormerConfig wide = TinyModel();
  wide.d_model = 12;
  SpaFormerConfig wide_ffn = TinyModel();
  wide_ffn.d_ff = 64;
  SpaFormerConfig deep = TinyModel();
  deep.num_layers = 3;
  for (const SpaFormerConfig& config : {wide, wide_ffn, deep}) {
    SsinInterpolator mismatched(config, FastTraining(13));
    mismatched.Prepare(f.data, f.observed_ids);
    EXPECT_FALSE(registry.Promote("hk", mismatched));
  }
  SsinInterpolator unprepared(TinyModel(), FastTraining(13));
  EXPECT_FALSE(registry.Promote("hk", unprepared));
  EXPECT_EQ(registry.promotions(), 0);

  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(0), f.observed_ids, f.query_ids),
                f.expected_a[0], "active after rejected promotions");
  const std::vector<Parameter*> standby_after =
      standby_raw->model()->Parameters();
  ASSERT_EQ(standby_after.size(), standby_before.size());
  for (size_t i = 0; i < standby_after.size(); ++i) {
    const Tensor& before = standby_before[i];
    const Tensor& after = standby_after[i]->value;
    ASSERT_TRUE(after.SameShape(before)) << standby_after[i]->name;
    for (int64_t j = 0; j < before.numel(); ++j) {
      EXPECT_EQ(after[j], before[j]) << standby_after[i]->name << "[" << j
                                     << "]";
    }
  }

  // A matching source still promotes afterwards.
  EXPECT_TRUE(registry.Promote("hk", *f.source_b));
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(0), f.observed_ids, f.query_ids),
                f.expected_b[0], "promoted model");
}

TEST(ModelRegistryTest, MultipleResidentModelsServeIndependently) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active_a, standby_a] = f.MakeBuffers();
  auto [active_b, standby_b] = f.MakeBuffers();
  active_b->CopyParametersFrom(*f.source_b);
  registry.Register("hk", std::move(active_a), std::move(standby_a));
  registry.Register("bw", std::move(active_b), std::move(standby_b));
  ASSERT_EQ(registry.Names().size(), 2u);
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(1), f.observed_ids, f.query_ids),
                f.expected_a[1], "model hk");
  ExpectExactly(registry.Acquire("bw")->InterpolateTimestamp(
                    f.data.Values(1), f.observed_ids, f.query_ids),
                f.expected_b[1], "model bw");
}

// -------------------------------------------------- coalescing batcher

TEST(InterpolationServerTest, CoalescedBatchesMatchDirectCalls) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;  // Queue everything, then cut one wave.
  config.max_batch_size = 64;
  config.batch_linger_us = 0;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  // Two distinct layouts: timestamps 0..11 share the fixture layout; the
  // "holdout" layout queries one extra station. Coalescing must group them
  // separately and change no result.
  std::vector<int> holdout_observed = f.observed_ids;
  std::vector<int> holdout_query = f.query_ids;
  holdout_query.push_back(holdout_observed.back());
  holdout_observed.pop_back();
  const std::vector<double> holdout_direct =
      f.source_a->InterpolateTimestamp(f.data.Values(3), holdout_observed,
                                       holdout_query);

  std::vector<std::future<std::vector<double>>> futures(13);
  for (int t = 0; t < 12; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  Request holdout;
  holdout.model = "hk";
  holdout.all_values = f.data.Values(3);
  holdout.observed_ids = holdout_observed;
  holdout.query_ids = holdout_query;
  ASSERT_EQ(server.Submit(std::move(holdout), &futures[12]),
            SubmitStatus::kAccepted);
  ASSERT_EQ(server.queue_depth(), 13u);

  server.Resume();
  for (int t = 0; t < 12; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "coalesced request");
  }
  ExpectExactly(futures[12].get(), holdout_direct, "holdout layout");

  // Join the batcher so its post-dispatch bookkeeping (batch counter, SLO
  // observations) is complete before asserting on it.
  server.Shutdown();

  // All 13 queued requests were cut into exactly two micro-batches: one
  // per layout group — coalescing really happened.
  EXPECT_EQ(server.accepted_total(), 13);
  EXPECT_EQ(server.batches_total(), 2);
  const InterpolationServer::ModelSlo slo = server.Slo("hk");
  EXPECT_EQ(slo.requests, 13);
  EXPECT_GT(slo.p50_us, 0.0);
  EXPECT_LE(slo.p50_us, slo.p99_us);
  EXPECT_LE(slo.p99_us, slo.max_us);
}

TEST(InterpolationServerTest, BatchThreadFanOutChangesNoResult) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;
  config.batch_threads = 4;  // Fan each micro-batch across a pool.
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(8);
  for (int t = 0; t < 8; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  server.Resume();
  for (int t = 0; t < 8; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "fan-out request");
  }
}

// ----------------------------------------------------- admission control

TEST(InterpolationServerTest, FullQueueRejectsInsteadOfDeadlocking) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.queue_capacity = 6;
  config.start_paused = true;  // Nothing drains: the queue must fill.
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(6);
  for (int t = 0; t < 6; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  // Admission control: the 7th request fails fast — no blocking, no drop
  // of anything already accepted.
  std::future<std::vector<double>> rejected;
  EXPECT_EQ(server.Submit(f.RequestFor(6), &rejected),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(server.rejected_total(), 1);
  EXPECT_EQ(server.accepted_total(), 6);

  server.Resume();
  for (int t = 0; t < 6; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "accepted request");
  }
}

TEST(InterpolationServerTest, MalformedRequestsRejectedAtAdmission) {
  ServeFixture& f = Fixture();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::future<std::vector<double>> future;
  EXPECT_EQ(server.Submit(f.RequestFor(0, "no-such-model"), &future),
            SubmitStatus::kUnknownModel);

  Request overlapping = f.RequestFor(0);
  overlapping.query_ids.push_back(overlapping.observed_ids[0]);
  EXPECT_EQ(server.Submit(std::move(overlapping), &future),
            SubmitStatus::kInvalidRequest);

  Request out_of_range = f.RequestFor(0);
  out_of_range.query_ids.push_back(f.data.num_stations() + 7);
  EXPECT_EQ(server.Submit(std::move(out_of_range), &future),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(server.rejected_total(), 3);

  // A well-formed request still sails through after the rejections.
  ExpectExactly(InterpolateAccepted(&server, f.RequestFor(0)),
                f.expected_a[0], "post-rejection request");
}

TEST(InterpolationServerTest, NonFiniteObservedValuesRejectedAtAdmission) {
  ServeFixture& f = Fixture();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  // One NaN or infinite observed value would turn every prediction of the
  // request non-finite: an invalid request, not a served result.
  std::future<std::vector<double>> future;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Request request = f.RequestFor(0);
    request.all_values[f.observed_ids[3]] = bad;
    EXPECT_EQ(server.Submit(std::move(request), &future),
              SubmitStatus::kInvalidRequest)
        << bad;
  }
  EXPECT_EQ(server.rejected_total(), 3);

  // Values at query stations are never read (they are what gets
  // predicted), so a non-finite one there is served normally.
  Request query_nan = f.RequestFor(0);
  query_nan.all_values[f.query_ids[0]] =
      std::numeric_limits<double>::quiet_NaN();
  ExpectExactly(InterpolateAccepted(&server, std::move(query_nan)),
                f.expected_a[0], "non-finite query value");
  EXPECT_EQ(server.rejected_total(), 3);
}

TEST(InterpolationServerTest, ShutdownDrainsAcceptedThenRejects) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(4);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  // Shutdown with the batcher paused: every accepted request must still be
  // served before the batcher exits.
  server.Shutdown();
  for (int t = 0; t < 4; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "drained request");
  }
  std::future<std::vector<double>> late;
  EXPECT_EQ(server.Submit(f.RequestFor(0), &late), SubmitStatus::kShutdown);
}

TEST(InterpolationServerTest, InterpolateReturnsRejectionWithoutAborting) {
  ServeFixture& f = Fixture();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  // A rejected blocking call reports its status and leaves the output
  // untouched instead of aborting the process.
  const std::vector<double> sentinel = {-1.0, -2.0};
  std::vector<double> values = sentinel;
  EXPECT_EQ(server.Interpolate(f.RequestFor(0, "no-such-model"), &values),
            SubmitStatus::kUnknownModel);
  EXPECT_EQ(values, sentinel);

  server.Shutdown();
  EXPECT_EQ(server.Interpolate(f.RequestFor(0), &values),
            SubmitStatus::kShutdown);
  EXPECT_EQ(values, sentinel);
}

// ------------------------------------------------------------ hot-swap

TEST(InterpolationServerTest, HotSwapUnderLoadDropsNothing) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.queue_capacity = 4096;
  config.batch_linger_us = 50;
  config.batch_threads = 2;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> accepted{0};
  std::atomic<int> matched_a{0};
  std::atomic<int> matched_b{0};
  std::atomic<int> mismatched{0};

  auto client = [&](int seed) {
    for (int i = 0; i < kPerClient; ++i) {
      const int t = (seed * 7 + i) % f.data.num_timestamps();
      std::future<std::vector<double>> future;
      // The queue is sized for the whole burst: every submit must land.
      ASSERT_EQ(server.Submit(f.RequestFor(t), &future),
                SubmitStatus::kAccepted);
      accepted.fetch_add(1);
      const std::vector<double> result = future.get();
      // Zero-drop and no torn weights: each prediction matches one of the
      // two weight generations exactly, never a mixture.
      if (result == f.expected_a[t]) {
        matched_a.fetch_add(1);
      } else if (result == f.expected_b[t]) {
        matched_b.fetch_add(1);
      } else {
        mismatched.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client, c + 1);
  }
  // Promote B, then A, then B again while the clients hammer the server —
  // three zero-drop swaps under sustained concurrent load.
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_b));
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_a));
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_b));
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(accepted.load(), kClients * kPerClient);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(matched_a.load() + matched_b.load(), kClients * kPerClient);
  EXPECT_EQ(server.registry().promotions(), 3);

  // Post-swap requests serve the promoted (generation B) weights.
  ExpectExactly(InterpolateAccepted(&server, f.RequestFor(0)),
                f.expected_b[0], "post-swap request");
}

// ------------------------------------------------- windowed SLO metrics

TEST(InterpolationServerTest, SloWindowViewConvergesToLifetime) {
  ServeFixture& f = Fixture();
  // The windowed metrics are process-global; start this test from zero so
  // earlier tests' requests don't sit in the trailing window.
  telemetry::MetricsRegistry::Global().Reset();
  ServerConfig config;
  config.start_paused = true;
  config.max_batch_size = 16;
  config.batch_linger_us = 0;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-slo", std::move(active), std::move(standby));

  constexpr int kRequests = 48;
  std::vector<std::future<std::vector<double>>> futures(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.Submit(
                  f.RequestFor(i % f.data.num_timestamps(), "hk-slo"),
                  &futures[i]),
              SubmitStatus::kAccepted);
  }
  server.Resume();
  for (auto& future : futures) future.get();
  server.Shutdown();  // Joins the batcher: every SLO observation landed.

  // A steady load entirely inside one 60s window retains identical sample
  // sets in both views, so the window statistics converge to the lifetime
  // ones exactly — bit-equal quantiles, not approximations.
  const InterpolationServer::ModelSlo slo = server.Slo("hk-slo");
  EXPECT_EQ(slo.requests, kRequests);
  EXPECT_EQ(slo.window_seconds, telemetry::kDefaultWindowSeconds);
  EXPECT_EQ(slo.window_requests, kRequests);
  EXPECT_GT(slo.p99_us, 0.0);
  EXPECT_EQ(slo.window_p50_us, slo.p50_us);
  EXPECT_EQ(slo.window_p99_us, slo.p99_us);
  EXPECT_EQ(slo.window_max_us, slo.max_us);

  EXPECT_EQ(server.accepted_window(), kRequests);
  EXPECT_EQ(server.rejected_window(), 0);
  const telemetry::HistogramSnapshot window =
      server.WindowLatencySnapshot("hk-slo");
  EXPECT_EQ(window.count, kRequests);
}

// ---------------------------------------------------- request tracing

TEST(InterpolationServerTest, RequestSpansShareOneTraceIdAndExportFlow) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  ServeFixture& f = Fixture();
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  {
    ServerConfig config;
    config.start_paused = true;
    config.batch_linger_us = 0;
    InterpolationServer server(config);
    auto [active, standby] = f.MakeBuffers();
    server.registry().Register("hk-flow", std::move(active),
                               std::move(standby));
    std::future<std::vector<double>> future;
    ASSERT_EQ(server.Submit(f.RequestFor(0, "hk-flow"), &future),
              SubmitStatus::kAccepted);
    server.Resume();
    future.get();
    server.Shutdown();
  }

  // One submitted request must leave serve.submit (submit thread),
  // serve.queue_wait + serve.dispatch (batcher thread) and serve.predict
  // (engine) spans all tagged with the same nonzero trace id.
  uint64_t trace_id = 0;
  std::map<std::string, int> tagged;
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    for (const telemetry::SpanEvent& event : trace.events) {
      if (event.trace_id == 0) continue;
      if (trace_id == 0) trace_id = event.trace_id;
      EXPECT_EQ(event.trace_id, trace_id) << event.name;
      ++tagged[event.name];
    }
  }
  ASSERT_NE(trace_id, 0u);
  EXPECT_EQ(tagged["serve.submit"], 1);
  EXPECT_EQ(tagged["serve.queue_wait"], 1);
  EXPECT_EQ(tagged["serve.dispatch"], 1);
  EXPECT_GE(tagged["serve.predict"], 1);

  // The exported report stitches those spans into one Perfetto flow: a
  // start arrow, a binding finish, and the shared id on every slice.
  const std::string report = telemetry::ReportJson("serve");
  telemetry::SetEnabled(false);
  telemetry::ResetAll();
  const std::string id_text = "\"trace_id\":" + std::to_string(trace_id);
  int id_count = 0;
  for (size_t pos = report.find(id_text); pos != std::string::npos;
       pos = report.find(id_text, pos + id_text.size())) {
    ++id_count;
  }
  EXPECT_GE(id_count, 4);
  EXPECT_NE(report.find("\"ph\":\"s\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"ph\":\"f\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"cat\":\"ssin.flow\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.request\""), std::string::npos);
}

TEST(InterpolationServerTest, NoTraceIdsAssignedWhenTelemetryDisabled) {
  ServeFixture& f = Fixture();
  ASSERT_FALSE(telemetry::Enabled());
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-noflow", std::move(active),
                             std::move(standby));
  ExpectExactly(InterpolateAccepted(&server, f.RequestFor(0, "hk-noflow")),
                f.expected_a[0], "untraced request");
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    EXPECT_TRUE(trace.events.empty());
  }
}

// ------------------------------------------------------- health monitor

TEST(HealthMonitorTest, HealthyOnIdleServer) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-idle", std::move(active),
                             std::move(standby));
  HealthMonitor monitor(&server);
  const ServerStatus status = monitor.Evaluate();
  EXPECT_EQ(status.state, HealthState::kHealthy);
  EXPECT_EQ(monitor.transitions(), 0);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 0.0);
}

TEST(HealthMonitorTest, DegradedWhenWindowP99ExceedsTarget) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-deg", std::move(active),
                             std::move(standby));
  for (int t = 0; t < 10; ++t) {
    InterpolateAccepted(&server,
                        f.RequestFor(t % f.data.num_timestamps(), "hk-deg"));
  }
  // Join the batcher: the SLO observation lands after the promise is
  // fulfilled, so without this the last request's latency could still be
  // in flight when the monitor samples.
  server.Shutdown();

  // An impossible latency target: every retained window sample breaches
  // it, so the burn rate saturates and the state degrades. Shedding
  // signals are pushed out of reach so only the SLO drives the fold.
  HealthMonitor::Options strict;
  strict.thresholds.slo_p99_us = 1e-3;
  strict.thresholds.queue_saturation = 2.0;
  strict.thresholds.shed_ratio = 2.0;
  HealthMonitor monitor(&server, strict);
  const ServerStatus status = monitor.Evaluate();
  EXPECT_EQ(status.state, HealthState::kDegraded);
  EXPECT_EQ(monitor.transitions(), 1);
  EXPECT_GT(status.worst_window_p99_us, 0.0);
  ASSERT_EQ(status.models.size(), 1u);
  EXPECT_EQ(status.models[0].model, "hk-deg");
  EXPECT_EQ(status.models[0].window_requests, 10);
  EXPECT_EQ(status.models[0].burn_rate, 1.0);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 1.0);

  // The same traffic judged against a generous target is healthy: the
  // state is a property of thresholds over the window, not of lifetime
  // history.
  HealthMonitor generous(&server);
  EXPECT_EQ(generous.Evaluate().state, HealthState::kHealthy);
  EXPECT_EQ(generous.transitions(), 0);
}

TEST(HealthMonitorTest, SheddingWhenQueueSaturatesThenRecovers) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  ServerConfig config;
  config.queue_capacity = 4;
  config.start_paused = true;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-shed", std::move(active),
                             std::move(standby));

  // Shed-ratio threshold out of reach: the windowed reject count outlives
  // the drain below, and this test pins the queue-saturation signal and
  // the recovery transition.
  HealthMonitor::Options options;
  options.thresholds.slo_p99_us = 1e9;
  options.thresholds.shed_ratio = 2.0;
  HealthMonitor monitor(&server, options);
  ASSERT_EQ(monitor.Evaluate().state, HealthState::kHealthy);

  std::vector<std::future<std::vector<double>>> futures(4);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t, "hk-shed"), &futures[t]),
              SubmitStatus::kAccepted);
  }
  std::future<std::vector<double>> overflow;
  ASSERT_EQ(server.Submit(f.RequestFor(4, "hk-shed"), &overflow),
            SubmitStatus::kQueueFull);

  const ServerStatus overloaded = monitor.Evaluate();
  EXPECT_EQ(overloaded.state, HealthState::kShedding);
  EXPECT_EQ(overloaded.queue_fill, 1.0);
  EXPECT_EQ(overloaded.window_rejected, 1);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 2.0);
  // The structured status renders as JSON for ops endpoints.
  const std::string json = overloaded.Json();
  EXPECT_NE(json.find("\"state\":\"shedding\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_fill\":1"), std::string::npos) << json;

  server.Resume();
  for (auto& future : futures) future.get();
  EXPECT_EQ(monitor.Evaluate().state, HealthState::kHealthy);
  // healthy -> shedding -> healthy, counted in the transitions metric too.
  EXPECT_EQ(monitor.transitions(), 2);
  EXPECT_EQ(telemetry::GetCounter("serve.health_transitions_total")->Value(),
            2);
}

TEST(HealthMonitorTest, BackgroundSamplerKeepsLastStatusFresh) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-bg", std::move(active), std::move(standby));

  HealthMonitor::Options options;
  options.sample_interval_ms = 1;
  HealthMonitor monitor(&server, options);
  monitor.Start();
  monitor.Start();  // Idempotent.
  // The sampler evaluates immediately on start; wait for one sample.
  for (int spin = 0; spin < 1000; ++spin) {
    if (monitor.LastStatus().sampled_at_ns != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(monitor.LastStatus().sampled_at_ns, 0);
  EXPECT_EQ(monitor.LastStatus().state, HealthState::kHealthy);
  monitor.Stop();
  monitor.Stop();  // Idempotent.
}

}  // namespace
}  // namespace ssin
