#include "serving.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

namespace {

using ssin::SsinInterpolator;
using ssin::serve::Request;
using ssin::serve::SubmitStatus;
using Future = std::future<std::vector<double>>;

constexpr double kF32GateMm = 1e-3;

std::shared_ptr<TracingInterpolator> PrepareBuffer(const WorkloadInputs& in) {
  auto model = std::make_shared<TracingInterpolator>(in.model_config,
                                                     in.train_config);
  model->Prepare(in.train_data, in.split.train_ids);
  return model;
}

/// Sleeps to within 200 us of `due_ns`, then spins: a sleep's wake-up
/// granularity alone would bunch the Poisson arrivals.
void WaitUntil(int64_t due_ns) {
  const int64_t coarse = due_ns - 200000;
  const int64_t now = NowNs();
  if (now < coarse) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(coarse - now));
  }
  while (NowNs() < due_ns) {
  }
}

/// A thread that is stopped and joined when the scope ends, on exception
/// paths too.
class ScopedThread {
 public:
  ScopedThread(std::function<void()> body, std::function<void()> stop)
      : stop_(std::move(stop)), thread_(std::move(body)) {}
  ~ScopedThread() { Join(); }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;

  void Join() {
    if (!thread_.joinable()) return;
    stop_();
    thread_.join();
  }

 private:
  std::function<void()> stop_;
  std::thread thread_;
};

struct LayoutCounters {
  int64_t hits = 0, misses = 0, evictions = 0;
};

LayoutCounters ReadCounters(const ServingRig& rig) {
  LayoutCounters c;
  for (const auto& buffer : rig.buffers) {
    c.hits += buffer->layout_cache().hits();
    c.misses += buffer->layout_cache().misses();
    c.evictions += buffer->layout_cache().evictions();
  }
  return c;
}

/// Which requests keep their served result for the output checks: a
/// seeded spread over the open loop plus the first closed-loop fill.
std::unordered_map<int, size_t> PickSamples(const WorkloadInputs& in,
                                            uint64_t seed,
                                            std::vector<ServedSample>* out) {
  ssin::Rng rng(SubSeed(seed, 20));
  std::unordered_map<int, size_t> index;
  const int open = static_cast<int>(in.open_sends.size());
  const int per_phase = in.check_samples / 2;
  auto add = [&](int id, const Send& send) {
    if (index.count(id) > 0) return;
    index[id] = out->size();
    out->push_back(ServedSample{send, {}, false});
  };
  for (int i = 0; i < per_phase; ++i) {
    const int id = static_cast<int>(rng.UniformInt(0, open - 1));
    add(id, in.open_sends[id]);
  }
  for (int i = 0; i < per_phase; ++i) {
    const int j = static_cast<int>(
        rng.UniformInt(0, std::min<int64_t>(in.closed_outstanding,
                                            in.closed_sends.size()) -
                              1));
    add(open + j, in.closed_sends[j]);
  }
  return index;
}

/// Settles one request the client has seen ready: status, stamp, sample.
void Settle(Future* future, int64_t seen_ns, RequestRecord* record,
            const std::unordered_map<int, size_t>& sample_index, int id,
            std::vector<ServedSample>* samples) {
  record->seen_ns = seen_ns;
  try {
    std::vector<double> values = future->get();
    record->status = RequestRecord::kOk;
    auto it = sample_index.find(id);
    if (it != sample_index.end()) {
      (*samples)[it->second].served = std::move(values);
      (*samples)[it->second].ok = true;
    }
  } catch (...) {
    record->status = RequestRecord::kErrored;
  }
}

/// Admission of one request: register it with the tracer (traced only),
/// submit, and stamp the submit span. Returns true when accepted.
bool SubmitOne(ServingRig* rig, RequestTracer* tracer, Request request,
               int id, RequestRecord* record, Future* future) {
  const double* key = request.all_values.data();
  if (record->traced) tracer->Register(key, id);
  record->submit_begin_ns = NowNs();
  const SubmitStatus status = rig->server->Submit(std::move(request), future);
  record->submit_end_ns = NowNs();
  if (status == SubmitStatus::kAccepted) return true;
  record->status = RequestRecord::kRejected;
  record->seen_ns = record->submit_end_ns;
  if (record->traced) {
    // The buffer died with the rejected request; drop its registration so
    // the address can be reused.
    tracer->Forget(key);
  }
  return false;
}

void FillPhaseCounts(const std::vector<RequestRecord>& requests, size_t begin,
                     size_t end, PhaseResult* phase) {
  for (size_t i = begin; i < end; ++i) {
    ++phase->attempted;
    switch (requests[i].status) {
      case RequestRecord::kOk:
        ++phase->succeeded;
        break;
      case RequestRecord::kRejected:
        ++phase->rejected;
        break;
      default:
        ++phase->errored;
        break;
    }
  }
}

void RunOpenLoop(const WorkloadInputs& in, ServingRig* rig,
                 RequestTracer* tracer,
                 const std::unordered_map<int, size_t>& sample_index,
                 ServingResult* out) {
  const size_t n = in.open_sends.size();
  out->requests.resize(n);
  const int64_t batches0 = rig->server->batches_total();
  const int64_t accepted0 = rig->server->accepted_total();

  struct Pending {
    int id;
    Future future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool done = false;
  std::atomic<int64_t> settled{0};

  // The collector stands for the clients: it stamps the moment each
  // future turns ready. It waits on the oldest with a 100 us timeout and
  // sweeps the rest, so requests completing out of order (coalesced by
  // layout) are stamped within 100 us.
  auto collect = [&] {
    std::vector<Pending> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || done; });
        }
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (pending.empty() && done) break;
      }
      if (pending.empty()) continue;
      pending.front().future.wait_for(std::chrono::microseconds(100));
      const int64_t now = NowNs();
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Settle(&it->future, now, &out->requests[it->id], sample_index,
                 it->id, &out->samples);
          settled.fetch_add(1, std::memory_order_relaxed);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  };
  ScopedThread collector(collect, [&] {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });

  int64_t accepted = 0;
  const int64_t start = NowNs() + 2000000;
  for (size_t i = 0; i < n; ++i) {
    Request request = MakeRequest(in, in.open_sends[i]);
    RequestRecord& record = out->requests[i];
    record.phase = 0;
    record.traced = tracer != nullptr;
    record.scheduled_ns = start + in.open_sends[i].offset_ns;
    WaitUntil(record.scheduled_ns);
    Future future;
    if (SubmitOne(rig, tracer, std::move(request), static_cast<int>(i),
                  &record, &future)) {
      ++accepted;
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(Pending{static_cast<int>(i), std::move(future)});
      cv.notify_one();
    }
    out->open.send_lag_ms.push_back(
        MsBetween(record.scheduled_ns, record.submit_begin_ns));
  }
  out->open.send_window_s =
      MsBetween(start, out->requests[n - 1].submit_end_ns) / 1e3;
  out->open.outstanding_at_end =
      accepted - settled.load(std::memory_order_relaxed);
  collector.Join();

  FillPhaseCounts(out->requests, 0, n, &out->open);
  for (const RequestRecord& r : out->requests) {
    out->open.latency_ms.push_back(
        r.status == RequestRecord::kOk
            ? MsBetween(r.scheduled_ns, r.seen_ns)
            : std::numeric_limits<double>::infinity());
  }
  out->open.batches = rig->server->batches_total() - batches0;
  out->open.accepted = rig->server->accepted_total() - accepted0;
}

void RunClosedLoop(const WorkloadInputs& in, ServingRig* rig,
                   RequestTracer* tracer,
                   const std::unordered_map<int, size_t>& sample_index,
                   ServingResult* out) {
  const size_t first = out->requests.size();
  const int64_t batches0 = rig->server->batches_total();
  const int64_t accepted0 = rig->server->accepted_total();
  struct Pending {
    int id;
    Future future;
  };
  std::deque<Pending> window;
  const int64_t start = NowNs();
  const double start_cpu = ProcessCpuSeconds();
  const int64_t end = start + static_cast<int64_t>(in.closed_seconds * 1e9);
  // The measured window starts once the first fill has drained and is cut
  // into slices of max_batch_size completions; with `outstanding` = two
  // slices in flight, a request completing in slice i was submitted in
  // slice i-2 or i-1. Traced runs trace the submissions of slices 1-3 of
  // every 6: slice 3 is then traced end to end and slice 0 untraced end to
  // end (the others are mixed).
  const int64_t outstanding = in.closed_outstanding;
  const int64_t slice_size =
      static_cast<int64_t>(in.server_config.max_batch_size);
  const int64_t depth = outstanding / slice_size;
  const int64_t period = 2 * (depth + 1);
  size_t cursor = 0;
  int64_t completions = 0;
  bool measuring = false;
  bool stopping = false;
  int64_t slice_index = 0, slice_start = 0, slice_done = 0;
  double slice_cpu = 0.0;
  auto trace_submits = [&] {
    const int64_t phase = slice_index % period;
    return measuring && tracer != nullptr && phase >= 1 && phase <= depth + 1;
  };

  for (;;) {
    while (!stopping && static_cast<int64_t>(window.size()) < outstanding) {
      const int id = static_cast<int>(out->requests.size());
      const Send& send = in.closed_sends[cursor++ % in.closed_sends.size()];
      out->requests.emplace_back();
      RequestRecord& record = out->requests.back();
      record.phase = 1;
      record.traced = trace_submits();
      record.scheduled_ns = NowNs();
      Future future;
      if (SubmitOne(rig, tracer, MakeRequest(in, send), id, &record,
                    &future)) {
        window.push_back(Pending{id, std::move(future)});
      }
    }
    if (window.empty()) break;
    Pending& head = window.front();
    head.future.wait();
    const int64_t now = NowNs();
    Settle(&head.future, now, &out->requests[head.id], sample_index, head.id,
           &out->samples);
    window.pop_front();
    ++completions;
    if (stopping) continue;
    if (now >= end) {
      stopping = true;  // A partial last slice is dropped.
      continue;
    }
    if (!measuring) {
      if (completions >= outstanding) {
        measuring = true;
        slice_start = now;
        slice_cpu = ProcessCpuSeconds();
      }
      continue;
    }
    if (++slice_done == slice_size) {
      const double cpu = ProcessCpuSeconds();
      const int64_t phase = slice_index % period;
      Slice slice;
      slice.tracing = tracer == nullptr || phase == 0 ? Slice::kOff
                      : phase == depth + 1            ? Slice::kOn
                                                      : Slice::kMixed;
      slice.completions = slice_done;
      slice.seconds = MsBetween(slice_start, now) / 1e3;
      slice.cpu_s = cpu - slice_cpu;
      out->slices.push_back(slice);
      ++slice_index;
      slice_start = now;
      slice_cpu = cpu;
      slice_done = 0;
    }
  }
  out->closed.window_s = MsBetween(start, NowNs()) / 1e3;
  out->closed.window_cpu_s = ProcessCpuSeconds() - start_cpu;
  out->closed.window_completions = completions;
  FillPhaseCounts(out->requests, first, out->requests.size(), &out->closed);
  out->closed.batches = rig->server->batches_total() - batches0;
  out->closed.accepted = rig->server->accepted_total() - accepted0;
}

}  // namespace

std::unique_ptr<ServingRig> SetupServing(const WorkloadInputs& in,
                                         Checks* checks) {
  auto rig = std::make_unique<ServingRig>();
  rig->server =
      std::make_unique<ssin::serve::InterpolationServer>(in.server_config);
  for (auto& buffer : rig->buffers) {
    buffer = PrepareBuffer(in);
    if (!buffer->Load(in.checkpoints[0])) {
      checks->Expect(false, "load checkpoint " + in.checkpoints[0]);
      return nullptr;
    }
  }
  rig->server->registry().Register(in.model_name, rig->buffers[0],
                                   rig->buffers[1]);
  const Layout& layout = in.layouts[0];
  if (in.kind == Kind::kNat1kChurn) {
    for (size_t g = 0; g < in.checkpoints.size(); ++g) {
      rig->generations.push_back(LoadGeneration(in, static_cast<int>(g)));
    }
    std::vector<const std::vector<double>*> calibration;
    for (int t = 0; t < std::min(4, in.live_data.num_timestamps()); ++t) {
      calibration.push_back(&in.live_data.Values(t));
    }
    for (auto& buffer : rig->buffers) {
      buffer->EnableF32Serving(calibration, layout.observed_ids,
                               layout.query_ids, kF32GateMm);
      if (buffer->serving_precision() !=
          SsinInterpolator::ServingPrecision::kFloat32) {
        checks->Expect(false, "f32 gate switched nat1k serving to f32");
        return nullptr;
      }
    }
  } else {
    rig->buffers[0]->InterpolateBatch({&in.live_data.Values(0)},
                                      layout.observed_ids, layout.query_ids);
  }
  return rig;
}

ServingResult RunServing(const WorkloadInputs& in, ServingRig* rig,
                         bool trace, uint64_t seed) {
  ServingResult out;
  const std::unordered_map<int, size_t> sample_index =
      PickSamples(in, seed, &out.samples);
  RequestTracer tracer;
  if (trace) {
    for (auto& buffer : rig->buffers) buffer->set_tracer(&tracer);
  }
  const LayoutCounters before = ReadCounters(*rig);

  // nat1k_churn's admin thread: promotes alternate weight generations on
  // a fixed cadence for the whole traffic window.
  std::mutex admin_mu;
  std::condition_variable admin_cv;
  bool admin_stop = false;
  auto promote_loop = [&] {
    const auto interval =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(in.promote_interval_s));
    auto next = std::chrono::steady_clock::now() + interval;
    for (size_t g = 1;; g ^= 1) {
      {
        std::unique_lock<std::mutex> lock(admin_mu);
        if (admin_cv.wait_until(lock, next, [&] { return admin_stop; })) {
          break;
        }
      }
      const int64_t begin = NowNs();
      rig->server->registry().Promote(in.model_name, *rig->generations[g]);
      const int64_t end = NowNs();
      out.promote_ms.push_back(MsBetween(begin, end));
      out.promote_spans.push_back({"serve.promote", begin, end, 0});
      next += interval;
    }
  };
  const bool churn = in.kind == Kind::kNat1kChurn;
  std::optional<ScopedThread> admin;
  if (churn) {
    admin.emplace(promote_loop, [&] {
      std::lock_guard<std::mutex> lock(admin_mu);
      admin_stop = true;
      admin_cv.notify_one();
    });
  }
  // Client threads: the generator (this thread) and the collector, plus
  // the server's batcher and, for nat1k_churn, the admin thread.
  out.threads_used = 3 + (churn ? 1 : 0) +
                     std::max(0, in.server_config.batch_threads - 1);

  RunOpenLoop(in, rig, trace ? &tracer : nullptr, sample_index, &out);
  RunClosedLoop(in, rig, trace ? &tracer : nullptr, sample_index, &out);

  if (admin) admin->Join();
  for (auto& buffer : rig->buffers) buffer->set_tracer(nullptr);
  const LayoutCounters after = ReadCounters(*rig);
  out.layout_hits = after.hits - before.hits;
  out.layout_misses = after.misses - before.misses;
  out.layout_evictions = after.evictions - before.evictions;
  for (const auto& buffer : rig->buffers) {
    out.arena_peak_bytes =
        std::max(out.arena_peak_bytes, buffer->arena_peak_bytes());
  }
  out.dispatches = tracer.dispatches();
  return out;
}

namespace {

std::vector<double> SliceValues(const ServingResult& result,
                                Slice::Tracing tracing, bool cpu) {
  std::vector<double> values;
  for (const Slice& s : result.slices) {
    if (s.tracing != tracing) continue;
    values.push_back(cpu ? s.cpu_s * 1e3 / static_cast<double>(s.completions)
                         : static_cast<double>(s.completions) / s.seconds);
  }
  return values;
}

}  // namespace

double SliceCapacityQps(const ServingResult& result, Slice::Tracing tracing) {
  const std::vector<double> v = SliceValues(result, tracing, false);
  if (!v.empty()) return QuietRate(v);
  return static_cast<double>(result.closed.window_completions) /
         result.closed.window_s;
}

double SliceCpuMsPerReq(const ServingResult& result, Slice::Tracing tracing) {
  const std::vector<double> v = SliceValues(result, tracing, true);
  if (!v.empty()) return QuietCost(v);
  return result.closed.window_cpu_s * 1e3 /
         static_cast<double>(std::max<int64_t>(
             1, result.closed.window_completions));
}

std::unique_ptr<SsinInterpolator> LoadGeneration(const WorkloadInputs& in,
                                                 int generation) {
  auto model =
      std::make_unique<SsinInterpolator>(in.model_config, in.train_config);
  model->Prepare(in.train_data, in.split.train_ids);
  SSIN_CHECK(model->Load(in.checkpoints[generation]))
      << "cannot load " << in.checkpoints[generation];
  return model;
}

double HeldOutRmse(const WorkloadInputs& in, SsinInterpolator* model) {
  std::vector<const std::vector<double>*> hours;
  for (int t = 0; t < in.live_data.num_timestamps(); ++t) {
    hours.push_back(&in.live_data.Values(t));
  }
  const std::vector<std::vector<double>> predictions = model->InterpolateBatch(
      hours, in.split.train_ids, in.split.test_ids);
  double sum_sq = 0.0;
  int64_t count = 0;
  for (size_t t = 0; t < hours.size(); ++t) {
    for (size_t q = 0; q < in.split.test_ids.size(); ++q) {
      const double err =
          predictions[t][q] - (*hours[t])[in.split.test_ids[q]];
      sum_sq += err * err;
      ++count;
    }
  }
  return std::sqrt(sum_sq / static_cast<double>(std::max<int64_t>(1, count)));
}

namespace {

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

void CheckServed(const WorkloadInputs& in, const ServingResult& result,
                 SsinInterpolator* reference, Checks* checks) {
  int checked = 0, exact = 0, within_gate = 0;
  double worst_gate = 0.0;
  std::vector<std::unique_ptr<SsinInterpolator>> f32, f64;
  if (in.kind == Kind::kNat1kChurn) {
    for (size_t g = 0; g < in.checkpoints.size(); ++g) {
      f64.push_back(LoadGeneration(in, static_cast<int>(g)));
      f32.push_back(LoadGeneration(in, static_cast<int>(g)));
      f32.back()->set_serving_precision(
          SsinInterpolator::ServingPrecision::kFloat32);
    }
  }
  for (const ServedSample& sample : result.samples) {
    if (!sample.ok) continue;
    ++checked;
    const Layout& layout = in.layouts[sample.send.layout];
    const std::vector<double>& values = in.live_data.Values(sample.send.hour);
    if (in.kind != Kind::kNat1kChurn) {
      exact += BitEqual(sample.served,
                        reference->InterpolateTimestamp(
                            values, layout.observed_ids, layout.query_ids));
      continue;
    }
    for (size_t g = 0; g < f32.size(); ++g) {
      if (!BitEqual(sample.served,
                    f32[g]->InterpolateTimestamp(values, layout.observed_ids,
                                                 layout.query_ids))) {
        continue;
      }
      ++exact;
      const std::vector<double> ref = f64[g]->InterpolateTimestamp(
          values, layout.observed_ids, layout.query_ids);
      double delta = 0.0;
      for (size_t q = 0; q < ref.size(); ++q) {
        delta = std::max(delta, std::fabs(ref[q] - sample.served[q]));
      }
      worst_gate = std::max(worst_gate, delta);
      within_gate += delta <= kF32GateMm;
      break;
    }
  }
  checks->Expect(checked > 0, "served sample is non-empty (" +
                                  std::to_string(checked) + " requests)");
  if (in.kind == Kind::kNat1kChurn) {
    checks->Expect(exact == checked,
                   "every sampled result equals the direct f32 result of "
                   "one weight generation bit for bit (" +
                       std::to_string(exact) + "/" + std::to_string(checked) +
                       ")");
    checks->Expect(within_gate == exact,
                   "matched f32 results within 1e-3 mm of that "
                   "generation's f64 result (worst " +
                       std::to_string(worst_gate) + " mm)");
  } else {
    checks->Expect(exact == checked,
                   "served results equal direct InterpolateTimestamp bit "
                   "for bit (" +
                       std::to_string(exact) + "/" + std::to_string(checked) +
                       ")");
  }
}

std::vector<double> TimePromotes(const WorkloadInputs& in, ServingRig* rig,
                                 SsinInterpolator* source, int count) {
  std::vector<double> ms;
  for (int i = 0; i < count; ++i) {
    const int64_t begin = NowNs();
    rig->server->registry().Promote(in.model_name, *source);
    ms.push_back(MsBetween(begin, NowNs()));
  }
  return ms;
}

}  // namespace perfbench
