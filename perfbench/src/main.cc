/// Repository benchmark for the SSIN serving system and trainer.
///
///   ssin_perfbench --workload <hk_shared|nat1k_churn> --seed <n>
///                  --seconds <s> --trace <0|1> [--short] [--out-dir <dir>]
///
/// Generates the workload's inputs from the seed, sets up (timed, several
/// times), drives the library's public API for --seconds, checks the
/// outputs, and prints every metric by name and unit followed by one JSON
/// line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
/// end-to-end metrics; --trace 1 runs the same traffic with request spans
/// plus an offline stage pass and reports the per-layer metrics, the
/// tracing overhead, the stage-sum check and a Perfetto-loadable trace.
/// A detail report is written to <out-dir>/<workload>-seed<n>-trace<t>.json.
/// See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/simd.h"
#include "inputs.h"
#include "serving.h"
#include "stages.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

using ssin::SsinInterpolator;

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: ssin_perfbench --workload "
               "<hk_shared|nat1k_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--short] [--out-dir <dir>]\n",
               error);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--short") {
      options->short_mode = true;
      continue;
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" &&
        arg != "--trace" && arg != "--out-dir") {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
    if ((v = value(arg.c_str())) == nullptr) return false;
    if (arg == "--workload") {
      options->workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::atof(v);
    } else if (arg == "--trace") {
      options->trace = std::atoi(v) != 0;
    } else {
      options->out_dir = v;
    }
  }
  return have_workload && options->seconds > 0.0;
}

std::string NumberArray(const std::vector<double>& values) {
  ssin::JsonWriter w;
  w.BeginArray();
  for (double v : values) w.Number(v);
  w.EndArray();
  return w.str();
}

/// Medians of the open-loop latencies over 10 consecutive windows of the
/// phase (failures count as +inf).
std::vector<double> WindowMedians(const std::vector<double>& latency_ms) {
  constexpr size_t kWindows = 10;
  std::vector<double> medians;
  const size_t n = latency_ms.size();
  for (size_t w = 0; w < kWindows && n >= kWindows; ++w) {
    medians.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + w * n / kWindows,
                            latency_ms.begin() + (w + 1) * n / kWindows),
        0.5));
  }
  return medians.empty() ? std::vector<double>{Quantile(latency_ms, 0.5)}
                         : medians;
}

double MeanBatch(const PhaseResult& phase) {
  return static_cast<double>(phase.accepted) /
         static_cast<double>(std::max<int64_t>(1, phase.batches));
}

double HitRatio(const ServingResult& res) {
  return static_cast<double>(res.layout_hits) /
         static_cast<double>(
             std::max<int64_t>(1, res.layout_hits + res.layout_misses));
}

/// Masked sequences one training epoch presents.
int64_t ItemsPerEpoch(const WorkloadInputs& in) {
  return static_cast<int64_t>(in.train_data.num_timestamps()) *
         in.budget.masks_per_sequence;
}

std::string PhaseJson(const PhaseResult& phase) {
  JsonObject o;
  o.Int("sent", phase.attempted);
  o.Int("succeeded", phase.succeeded);
  o.Int("rejected", phase.rejected);
  o.Int("errored", phase.errored);
  o.Int("server_batches", phase.batches);
  o.Number("mean_batch_size", MeanBatch(phase));
  if (!phase.latency_ms.empty()) {
    o.Raw("latency_ms", SampleJson(phase.latency_ms));
    o.Raw("send_lag_ms", SampleJson(phase.send_lag_ms));
    o.Number("send_window_s", phase.send_window_s);
    o.Int("outstanding_at_last_send", phase.outstanding_at_end);
  } else {
    o.Int("window_completions", phase.window_completions);
    o.Number("window_s", phase.window_s);
    o.Number("window_cpu_s", phase.window_cpu_s);
  }
  return o.Json();
}

std::string StagesJson(const StageSamples& s) {
  JsonObject o;
  o.Int("traced_ok", s.traced);
  o.Int("unmatched", s.unmatched);
  o.Int("dispatch_before_submit_returned", s.overlapped);
  o.Number("max_stage_sum_error_ms", s.max_sum_error_ms);
  o.Number("tolerance_ms", kStageSumToleranceMs);
  o.Raw("loadgen.send_ms", SampleJson(s.send));
  o.Raw("serve.submit_ms", SampleJson(s.submit));
  o.Raw("serve.queue_wait_ms", SampleJson(s.queue_wait));
  o.Raw("core.dispatch_ms", SampleJson(s.dispatch));
  o.Raw("serve.fulfil_ms", SampleJson(s.fulfil));
  o.Raw("latency_ms", SampleJson(s.latency));
  o.Raw("request_self_ms", SampleJson(s.root_self));
  return o.Json();
}

std::vector<double> Scaled(const std::vector<double>& v, double factor) {
  std::vector<double> out;
  for (double x : v) out.push_back(x * factor);
  return out;
}

/// Per-layer metrics of a traced run (see BENCHMARK.json "per_layer").
void PerLayerMetrics(const WorkloadInputs& in, const ServingResult& res,
                     const StageSamples& open, const StageResult& stages,
                     const std::vector<double>& promote_ms,
                     const std::vector<double>& epoch_s, MetricSet* m) {
  const std::vector<double> submit_us = Scaled(open.submit, 1e3);
  m->Set("serve.submit_us.p50", Quantile(submit_us, 0.5), "us");
  m->Set("serve.submit_us.p99", Quantile(submit_us, 0.99), "us");
  m->Set("serve.queue_wait_ms.p50", Quantile(open.queue_wait, 0.5), "ms");
  m->Set("serve.queue_wait_ms.p99", Quantile(open.queue_wait, 0.99), "ms");
  m->Set("serve.fulfil_us.p50", Quantile(Scaled(open.fulfil, 1e3), 0.5),
         "us");
  m->Set("serve.promote_ms.p50", Quantile(promote_ms, 0.5), "ms");
  m->Set("serve.attempted",
         static_cast<double>(res.open.attempted + res.closed.attempted),
         "count");
  m->Set("serve.rejected",
         static_cast<double>(res.open.rejected + res.closed.rejected),
         "count");
  m->Set("serve.errored",
         static_cast<double>(res.open.errored + res.closed.errored), "count");

  // Dispatch timing from the closed loop, where waves are full.
  const int open_count = static_cast<int>(in.open_sends.size());
  std::vector<double> dispatch_ms;
  double dispatch_total_ms = 0.0;
  int64_t dispatched = 0;
  for (const DispatchRecord& d : res.dispatches) {
    if (d.request_ids.empty() || d.request_ids[0] < open_count) continue;
    dispatch_ms.push_back(MsBetween(d.begin_ns, d.end_ns));
    dispatch_total_ms += dispatch_ms.back();
    dispatched += d.batch_size;
  }
  m->Set("serve.batch_size.mean",
         static_cast<double>(dispatched) /
             static_cast<double>(std::max<size_t>(1, dispatch_ms.size())),
         "requests");
  m->Set("core.dispatch_ms.p50", Quantile(dispatch_ms, 0.5), "ms");
  m->Set("core.dispatch_ms_per_req.mean",
         dispatch_total_ms / static_cast<double>(std::max<int64_t>(1, dispatched)),
         "ms");
  m->Set("core.layout_hit_ratio", HitRatio(res), "ratio");
  m->Set("core.layout_hits", static_cast<double>(res.layout_hits), "count");
  m->Set("core.layout_misses", static_cast<double>(res.layout_misses),
         "count");
  m->Set("core.layout_evictions", static_cast<double>(res.layout_evictions),
         "count");
  auto p50 = [&](const char* name) {
    return Quantile(stages.ms.at(name), 0.5);
  };
  m->Set("core.layout_build_ms.p50", p50("core.layout_build"), "ms");
  m->Set("core.plan_build_ms.p50", p50("core.plan_build"), "ms");
  m->Set("core.relpos_rows_ms.p50", p50("core.relpos_rows"), "ms");
  m->Set("core.embed_positions_ms.p50", p50("core.embed_positions"), "ms");
  m->Set("core.predict_ms.p50", p50("core.predict"), "ms");
  m->Set("core.predict_f32_ms.p50", p50("core.predict_f32"), "ms");
  m->Set("core.plan_pairs", stages.plan_pairs, "count");
  m->Set("core.layout_bytes", stages.layout_bytes, "bytes");
  m->Set("geo.nearest_keys_ms.p50", p50("geo.nearest_keys"), "ms");
  m->Set("nn.f32_snapshot_ms", p50("nn.f32_snapshot"), "ms");
  m->Set("nn.arena_peak_bytes", static_cast<double>(res.arena_peak_bytes),
         "bytes");
  m->Set("tensor.attention_ns_per_pair", stages.attention_ns_per_pair, "ns");
  m->Set("tensor.attention_bytes_per_call", stages.attention_bytes_per_call,
         "bytes");
  m->Set("train.forward_ms.p50", p50("train.forward"), "ms");
  m->Set("train.backward_ms.p50", p50("train.backward"), "ms");
  m->Set("train.optimizer_step_ms.p50", p50("train.optimizer_step"), "ms");
  m->Set("train.epoch_s.p50", Quantile(epoch_s, 0.5), "s");
}

/// Tracing overhead: closed-loop slices traced end to end against slices
/// untraced end to end, as a share of the untraced figure.
struct TracingOverhead {
  explicit TracingOverhead(const ServingResult& res)
      : cpu_off(SliceCpuMsPerReq(res, Slice::kOff)),
        cpu_on(SliceCpuMsPerReq(res, Slice::kOn)),
        qps_off(SliceCapacityQps(res, Slice::kOff)),
        qps_on(SliceCapacityQps(res, Slice::kOn)) {}
  double cpu_share() const { return (cpu_on - cpu_off) / cpu_off; }
  double qps_share() const { return (qps_off - qps_on) / qps_off; }
  std::string Json() const {
    JsonObject o;
    o.Number("untraced_cpu_ms_per_req", cpu_off);
    o.Number("traced_cpu_ms_per_req", cpu_on);
    o.Number("untraced_qps", qps_off);
    o.Number("traced_qps", qps_on);
    o.Number("cpu_overhead_share", cpu_share());
    o.Number("qps_overhead_share", qps_share());
    return o.Json();
  }
  double cpu_off, cpu_on, qps_off, qps_on;
};

int Run(const Options& options) {
  Kind kind;
  if (!ParseKind(options.workload, &kind)) return Usage("unknown workload");
  std::filesystem::create_directories(options.out_dir);

  Checks checks;
  const int64_t gen_begin = NowNs();
  WorkloadInputs in = GenerateInputs(kind, options);
  const double input_gen_s = MsBetween(gen_begin, NowNs()) / 1e3;

  const int nproc = AvailableCpus();
  const int serving_threads =
      3 + (kind == Kind::kNat1kChurn ? 1 : 0) +
      std::max(0, in.server_config.batch_threads - 1);
  const int train_threads = in.budget.num_threads;
  if (std::max(serving_threads, train_threads) > nproc) {
    std::fprintf(stderr,
                 "refusing to run: the workload needs %d threads but only "
                 "%d CPUs are available\n",
                 std::max(serving_threads, train_threads), nproc);
    return 4;
  }

  std::vector<double> setup_s;
  std::unique_ptr<ServingRig> rig;
  for (int r = 0; r < in.setup_repeats && checks.all_passed(); ++r) {
    rig.reset();
    const int64_t begin = NowNs();
    rig = SetupServing(in, &checks);
    setup_s.push_back(MsBetween(begin, NowNs()) / 1e3);
  }
  if (rig == nullptr) return 1;
  const std::vector<double>& epoch_s = in.gen_epoch_seconds;
  std::vector<double> train_rates;
  for (double s : epoch_s) {
    train_rates.push_back(static_cast<double>(ItemsPerEpoch(in)) / s);
  }
  checks.Expect(in.gen_epoch_loss.size() >= 2 &&
                    in.gen_epoch_loss.back() < in.gen_epoch_loss.front(),
                "epoch loss fell while training the served weights");
  // Generation A as served: f64 on hk_shared, f32 on nat1k_churn.
  std::unique_ptr<SsinInterpolator> reference = LoadGeneration(in, 0);
  if (kind == Kind::kNat1kChurn) {
    reference->set_serving_precision(
        SsinInterpolator::ServingPrecision::kFloat32);
  }
  const double rmse_mm = HeldOutRmse(in, reference.get());
  checks.Expect(std::isfinite(rmse_mm), "held-out RMSE is finite");
  JsonObject train_report;
  train_report.Int("items", in.gen_train_items);
  train_report.Number("wall_s", in.gen_train_wall_s);
  train_report.Int("threads", in.budget.num_threads);
  train_report.Raw("epoch_items_per_s", SampleJson(train_rates));

  const ServingResult res = RunServing(in, rig.get(), options.trace,
                                       options.seed);
  // Peak RSS through set-up and traffic; the output checks below build
  // reference models of their own and are not part of the serving process.
  const double peak_rss_mb = PeakRssMb();
  checks.Expect(res.threads_used <= nproc,
                "threads used (" + std::to_string(res.threads_used) +
                    ") within nproc (" + std::to_string(nproc) + ")");
  CheckServed(in, res, reference.get(), &checks);

  MetricSet metrics;
  const int64_t attempted = res.open.attempted + res.closed.attempted;
  const int64_t failed = res.open.rejected + res.open.errored +
                         res.closed.rejected + res.closed.errored;
  const double capacity_qps = SliceCapacityQps(res, Slice::kOff);
  const double cpu_ms_per_req = SliceCpuMsPerReq(res, Slice::kOff);
  const double hit_ratio = HitRatio(res);

  JsonObject trace_report;
  std::string trace_summary;
  if (options.trace) {
    const StageSamples open = AnalyzeStages(res.requests, res.dispatches, 0);
    const StageSamples closed = AnalyzeStages(res.requests, res.dispatches, 1);
    checks.Expect(open.unmatched == 0 && closed.unmatched == 0 &&
                      open.traced > 0 && closed.traced > 0,
                  "every traced request joined to the dispatch that served "
                  "it");
    checks.Expect(std::max(open.max_sum_error_ms, closed.max_sum_error_ms) <=
                      kStageSumToleranceMs,
                  "per-request stages sum to latency within 1 us");
    std::vector<double> promote_ms = res.promote_ms;
    if (promote_ms.empty()) {
      // No live promotes on this workload: time them offline, after the
      // traffic and the output checks, with weights equal to the served
      // ones.
      promote_ms = TimePromotes(in, rig.get(), reference.get(), 6);
    }
    SsinInterpolator* weights = kind == Kind::kNat1kChurn
                                    ? rig->generations[0].get()
                                    : reference.get();
    const StageResult stages = RunStagePass(in, weights, options.short_mode);
    PerLayerMetrics(in, res, open, stages, promote_ms, epoch_s, &metrics);

    std::vector<std::vector<Span>> tracks =
        RequestTracks(res.requests, res.dispatches);
    tracks.push_back(res.promote_spans);
    tracks.push_back(stages.spans);
    const std::string trace_path = options.out_dir + "/" + in.name + "-seed" +
                                   std::to_string(options.seed) +
                                   ".trace.json";
    int64_t dropped = 0;
    checks.Expect(ExportTrace(tracks, trace_path, &dropped),
                  "trace written to " + trace_path + " with no dropped spans");
    trace_report.String("perfetto_trace", trace_path);
    const TracingOverhead overhead(res);
    char summary[512];
    std::snprintf(
        summary, sizeof(summary),
        "%s; stage sum within %.4f ms of latency (tolerance %.3f ms) over "
        "%lld + %lld traced requests; tracing overhead %+.1f%% CPU/request, "
        "%+.1f%% throughput (traced vs untraced closed-loop slices)",
        trace_path.c_str(),
        std::max(open.max_sum_error_ms, closed.max_sum_error_ms),
        kStageSumToleranceMs, static_cast<long long>(open.traced),
        static_cast<long long>(closed.traced),
        100.0 * overhead.cpu_share(), -100.0 * overhead.qps_share());
    trace_summary = summary;
    trace_report.Raw("stages_open_loop", StagesJson(open));
    trace_report.Raw("stages_closed_loop", StagesJson(closed));
    trace_report.Raw("overhead", overhead.Json());
    trace_report.Raw("layout_steps_self_ms",
                     SampleJson(stages.layout_steps_self_ms));
    JsonObject stage_ms;
    for (const auto& [name, samples] : stages.ms) {
      stage_ms.Raw(name, SampleJson(samples));
    }
    trace_report.Raw("stage_pass_ms", stage_ms.Json());
    trace_report.Raw("promote_ms", SampleJson(promote_ms));
    std::vector<double> dispatch_ms[2];  // [layout hit, layout miss]
    for (const DispatchRecord& d : res.dispatches) {
      dispatch_ms[d.layout_miss].push_back(MsBetween(d.begin_ns, d.end_ns));
    }
    trace_report.Raw("dispatch_ms_layout_hit", SampleJson(dispatch_ms[0]));
    trace_report.Raw("dispatch_ms_layout_miss", SampleJson(dispatch_ms[1]));
  } else {
    metrics.Set("latency_p50_ms", QuietCost(WindowMedians(res.open.latency_ms)),
                "ms");
    metrics.Set("capacity_qps", capacity_qps, "1/s");
    metrics.Set("cpu_ms_per_req", cpu_ms_per_req, "ms");
    metrics.Set("rmse_mm", rmse_mm, "mm");
    metrics.Set("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  }
  bool finite = true;
  for (const auto& [name, metric] : metrics.all()) {
    finite = finite && std::isfinite(metric.value);
  }
  checks.Expect(finite, "every reported metric is finite");
  if (res.open.latency_ms.size() < 1000) {
    std::fprintf(stderr,
                 "note: the open-loop phase completed fewer than 1000 "
                 "requests; its p99 is not a supported percentile\n");
  }

  // Provenance and the detail report.
  JsonObject provenance;
  provenance.Int("nproc", nproc);
  provenance.Int("hardware_concurrency",
                 static_cast<int64_t>(std::thread::hardware_concurrency()));
  provenance.String("simd_isa", ssin::simd::IsaName());
  provenance.String("build_type", "optimized (__OPTIMIZE__)");
  provenance.String("compiler", __VERSION__);
  const char* commit = std::getenv("SSIN_BENCH_COMMIT");
  const char* source = std::getenv("SSIN_BENCH_SOURCE_SHA256");
  provenance.String("commit", commit != nullptr ? commit : "unknown");
  provenance.String("source_sha256", source != nullptr ? source : "unknown");
  provenance.Int("serving_threads", serving_threads);
  provenance.Int("train_threads", train_threads);
  JsonObject server;
  server.Int("queue_capacity",
             static_cast<int64_t>(in.server_config.queue_capacity));
  server.Int("max_batch_size",
             static_cast<int64_t>(in.server_config.max_batch_size));
  server.Int("batch_linger_us", in.server_config.batch_linger_us);
  server.Int("batch_threads", in.server_config.batch_threads);
  provenance.Raw("server_config", server.Json());

  JsonObject workload;
  workload.Int("stations", in.train_data.num_stations());
  workload.Int("observed", static_cast<int64_t>(in.split.train_ids.size()));
  workload.Int("held_out", static_cast<int64_t>(in.split.test_ids.size()));
  workload.Int("neighbor_k", in.model_config.neighbor_k);
  workload.Int("layouts", static_cast<int64_t>(in.layouts.size()));
  workload.Number("open_rate_qps", in.open_rate_qps);
  workload.Int("closed_outstanding", in.closed_outstanding);
  workload.Number("promote_interval_s", in.promote_interval_s);
  workload.Int("promotes", static_cast<int64_t>(res.promote_ms.size()));
  workload.Number("layout_hit_ratio", hit_ratio);
  workload.Number("mean_batch_size_open", MeanBatch(res.open));
  workload.Number("mean_batch_size_closed", MeanBatch(res.closed));
  workload.Number("input_generation_s", input_gen_s);
  workload.Raw("setup_s", SampleJson(setup_s));
  workload.Raw("training", train_report.Json());
  workload.Number("rmse_mm", rmse_mm);
  workload.Number("latency_p99_ms", Quantile(res.open.latency_ms, 0.99));
  workload.Number("train_items_per_s", QuietRate(train_rates));
  workload.Number("capacity_qps", capacity_qps);
  workload.Number("cpu_ms_per_req", cpu_ms_per_req);
  std::vector<double> slice_qps, slice_cpu;
  for (const Slice& s : res.slices) {
    slice_qps.push_back(static_cast<double>(s.completions) / s.seconds);
    slice_cpu.push_back(s.cpu_s * 1e3 / static_cast<double>(s.completions));
  }
  workload.Raw("closed_slice_qps", SampleJson(slice_qps));
  workload.Raw("closed_slice_cpu_ms_per_req", SampleJson(slice_cpu));
  workload.Raw("closed_slices_qps_all", NumberArray(slice_qps));
  workload.Raw("open_window_p50_ms", NumberArray(WindowMedians(res.open.latency_ms)));
  workload.Raw("epoch_items_per_s_all", NumberArray(train_rates));
  workload.Number("failed_share",
                  static_cast<double>(failed) /
                      static_cast<double>(std::max<int64_t>(1, attempted)));

  JsonObject metric_json;
  for (const auto& [name, metric] : metrics.all()) {
    JsonObject m;
    m.Number("value", metric.value);
    m.String("unit", metric.unit);
    metric_json.Raw(name, m.Json());
  }
  JsonObject checks_json;
  checks_json.Int("passed", static_cast<int64_t>(checks.passed().size()));
  std::string failures = "[";
  for (size_t i = 0; i < checks.failures().size(); ++i) {
    ssin::JsonWriter w;
    w.String(checks.failures()[i]);
    failures += (i > 0 ? "," : "") + w.str();
  }
  checks_json.Raw("failures", failures + "]");

  JsonObject detail;
  detail.String("workload", in.name);
  detail.Int("seed", static_cast<int64_t>(options.seed));
  detail.Number("seconds", options.seconds);
  detail.Bool("trace", options.trace);
  detail.Bool("short", options.short_mode);
  detail.Raw("provenance", provenance.Json());
  detail.Raw("workload_state", workload.Json());
  detail.Raw("open_loop", PhaseJson(res.open));
  detail.Raw("closed_loop", PhaseJson(res.closed));
  detail.Raw("metrics", metric_json.Json());
  detail.Raw("checks", checks_json.Json());
  if (options.trace) detail.Raw("trace", trace_report.Json());
  const std::string report_path = options.out_dir + "/" + in.name + "-seed" +
                                  std::to_string(options.seed) + "-trace" +
                                  (options.trace ? "1" : "0") + ".json";
  ssin::WriteFile(report_path, detail.Json() + "\n");
  for (const std::string& path : in.checkpoints) {
    std::filesystem::remove(path);
  }

  std::printf("workload %s seed %llu (%s): %lld sent, %lld failed, layout "
              "hit ratio %.3f, mean batch %.2f (open) / %.2f (closed), "
              "nproc %d, isa %s\n",
              in.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              hit_ratio, MeanBatch(res.open), MeanBatch(res.closed), nproc,
              ssin::simd::IsaName());
  std::printf("  provenance: nproc %d, hardware_concurrency %u, isa %s, "
              "optimized build, %s, commit %s; batch_threads %d, "
              "max_batch_size %zu, linger %lld us; threads: serving %d, "
              "training %d\n",
              nproc, std::thread::hardware_concurrency(),
              ssin::simd::IsaName(), __VERSION__,
              commit != nullptr ? commit : "unknown",
              in.server_config.batch_threads,
              in.server_config.max_batch_size,
              static_cast<long long>(in.server_config.batch_linger_us),
              serving_threads, train_threads);
  auto print_phase = [](const char* name, const PhaseResult& p) {
    std::printf("  %s: sent %lld, succeeded %lld, rejected %lld, errored "
                "%lld, server batches %lld\n",
                name, static_cast<long long>(p.attempted),
                static_cast<long long>(p.succeeded),
                static_cast<long long>(p.rejected),
                static_cast<long long>(p.errored),
                static_cast<long long>(p.batches));
  };
  print_phase("open loop", res.open);
  std::printf("  open loop: send lag p50 %.4f ms, p99 %.4f ms; %lld "
              "outstanding at the last send; whole-phase latency p50 %.4f "
              "ms over %zu requests\n",
              Quantile(res.open.send_lag_ms, 0.5),
              Quantile(res.open.send_lag_ms, 0.99),
              static_cast<long long>(res.open.outstanding_at_end),
              Quantile(res.open.latency_ms, 0.5), res.open.latency_ms.size());
  // Measured on every run but not gated (see perfbench/README.md).
  std::printf("  %-34s %18.6f ms (not gated)\n", "latency_p99_ms",
              Quantile(res.open.latency_ms, 0.99));
  std::printf("  %-34s %18.6f 1/s (not gated)\n", "train_items_per_s",
              QuietRate(train_rates));
  print_phase("closed loop", res.closed);
  if (options.trace) {
    std::printf("  trace: %s\n", trace_summary.c_str());
  }
  for (const auto& [name, metric] : metrics.all()) {
    std::printf("  %-34s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("report: %s\n", report_path.c_str());
  JsonObject result;
  result.Bool("correct", checks.all_passed());
  result.Int("attempted", std::max<int64_t>(1, attempted));
  result.Int("failed", failed);
  result.Raw("metrics", metric_json.Json());
  std::printf("%s\n", result.Json().c_str());
  std::fflush(stdout);
  return checks.all_passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  // Timings from an unoptimized build say nothing about the program.
  std::fprintf(stderr,
               "refusing to report metrics from a non-optimized build\n");
  return 3;
#endif
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    return perfbench::Usage("bad arguments");
  }
  return perfbench::Run(options);
}
