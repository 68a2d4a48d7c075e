#include "trace.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/telemetry.h"
#include "util.h"

namespace perfbench {

void RequestTracer::Register(const double* values, int request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ids_[values] = request_id;
  pending_.fetch_add(1, std::memory_order_release);
}

void RequestTracer::Forget(const double* values) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ids_.erase(values) > 0) pending_.fetch_sub(1, std::memory_order_release);
}

void RequestTracer::OnDispatch(
    const std::vector<const std::vector<double>*>& batch, int64_t begin_ns,
    int64_t end_ns, bool layout_miss) {
  DispatchRecord record;
  record.begin_ns = begin_ns;
  record.end_ns = end_ns;
  record.layout_miss = layout_miss;
  record.batch_size = static_cast<int>(batch.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::vector<double>* values : batch) {
    auto it = ids_.find(values->data());
    if (it == ids_.end()) continue;
    record.request_ids.push_back(it->second);
    ids_.erase(it);
    pending_.fetch_sub(1, std::memory_order_release);
  }
  if (!record.request_ids.empty()) dispatches_.push_back(std::move(record));
}

std::vector<DispatchRecord> RequestTracer::dispatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatches_;
}

std::vector<std::vector<double>> TracingInterpolator::InterpolateBatch(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    int num_threads) {
  RequestTracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer == nullptr || !tracer->active()) {
    return SsinInterpolator::InterpolateBatch(batch_values, observed_ids,
                                              query_ids, num_threads);
  }
  const int64_t misses = layout_cache().misses();
  const int64_t begin = NowNs();
  std::vector<std::vector<double>> out = SsinInterpolator::InterpolateBatch(
      batch_values, observed_ids, query_ids, num_threads);
  const int64_t end = NowNs();
  tracer->OnDispatch(batch_values, begin, end,
                     layout_cache().misses() > misses);
  return out;
}

double SelfTimeMs(int64_t begin_ns, int64_t end_ns,
                  std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = begin_ns;
  for (auto [b, e] : children) {
    b = std::max(b, cursor);
    e = std::min(e, end_ns);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return MsBetween(0, (end_ns - begin_ns) - covered);
}

StageSamples AnalyzeStages(const std::vector<RequestRecord>& requests,
                           const std::vector<DispatchRecord>& dispatches,
                           int phase) {
  std::vector<int> served_by(requests.size(), -1);
  for (size_t d = 0; d < dispatches.size(); ++d) {
    for (int id : dispatches[d].request_ids) served_by[id] = static_cast<int>(d);
  }
  StageSamples s;
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestRecord& r = requests[i];
    if (!r.traced || r.phase != phase || r.status != RequestRecord::kOk) {
      continue;
    }
    ++s.traced;
    if (served_by[i] < 0) {
      ++s.unmatched;
      continue;
    }
    const DispatchRecord& d = dispatches[served_by[i]];
    const int64_t stages[5][2] = {{r.scheduled_ns, r.submit_begin_ns},
                                  {r.submit_begin_ns, r.submit_end_ns},
                                  {r.submit_end_ns, d.begin_ns},
                                  {d.begin_ns, d.end_ns},
                                  {d.end_ns, r.seen_ns}};
    std::vector<double>* out[5] = {&s.send, &s.submit, &s.queue_wait,
                                   &s.dispatch, &s.fulfil};
    double sum = 0.0;
    std::vector<std::pair<int64_t, int64_t>> children;
    for (int k = 0; k < 5; ++k) {
      const double ms = MsBetween(stages[k][0], stages[k][1]);
      out[k]->push_back(ms);
      sum += ms;
      children.emplace_back(stages[k][0], stages[k][1]);
    }
    if (d.begin_ns < r.submit_end_ns) ++s.overlapped;
    const double latency = MsBetween(r.scheduled_ns, r.seen_ns);
    s.latency.push_back(latency);
    s.max_sum_error_ms = std::max(s.max_sum_error_ms, std::fabs(sum - latency));
    s.root_self.push_back(SelfTimeMs(r.scheduled_ns, r.seen_ns, children));
  }
  return s;
}

std::vector<std::vector<Span>> RequestTracks(
    const std::vector<RequestRecord>& requests,
    const std::vector<DispatchRecord>& dispatches) {
  std::vector<Span> client, queue, batcher, fulfil;
  std::vector<const DispatchRecord*> served_by(requests.size(), nullptr);
  for (const DispatchRecord& d : dispatches) {
    for (int id : d.request_ids) served_by[id] = &d;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestRecord& r = requests[i];
    if (!r.traced) continue;
    const uint64_t id = i + 1;
    client.push_back({"loadgen.send", r.scheduled_ns, r.submit_begin_ns, id});
    client.push_back({"serve.submit", r.submit_begin_ns, r.submit_end_ns, id});
    const DispatchRecord* d = served_by[i];
    if (d == nullptr) continue;
    queue.push_back({"serve.queue_wait", r.submit_end_ns,
                     std::max(r.submit_end_ns, d->begin_ns), id});
    batcher.push_back({"core.dispatch", d->begin_ns, d->end_ns, id});
    if (r.seen_ns > 0) {
      fulfil.push_back({"serve.fulfil", d->end_ns, r.seen_ns, id});
    }
  }
  return {client, queue, batcher, fulfil};
}

bool ExportTrace(const std::vector<std::vector<Span>>& tracks,
                 const std::string& path, int64_t* dropped) {
  namespace telemetry = ssin::telemetry;
  telemetry::ResetAll();
  // The recorder keeps one ring per recording thread, and each ring is one
  // track in the export; a short-lived thread per chunk gives every track
  // its own ring without overflowing it.
  constexpr size_t kChunk = telemetry::TraceRecorder::kRingCapacity;
  for (const std::vector<Span>& track : tracks) {
    for (size_t start = 0; start < track.size(); start += kChunk) {
      std::thread recorder([&track, start] {
        const size_t end = std::min(track.size(), start + kChunk);
        for (size_t i = start; i < end; ++i) {
          const Span& s = track[i];
          telemetry::TraceRecorder::Global().Record(
              s.name, s.begin_ns, s.end_ns, /*depth=*/1, s.trace_id);
        }
      });
      recorder.join();
    }
  }
  *dropped = telemetry::TraceRecorder::Global().TotalDropped();
  return telemetry::WriteReport("serve", path) && *dropped == 0;
}

}  // namespace perfbench
