#include "common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/json_writer.h"

namespace ssin {
namespace telemetry {

namespace {

/// Default fixed bucket bounds: the 1-2-5 series over 1e-9 .. 1e9.
std::vector<double> DefaultBounds() {
  std::vector<double> bounds;
  for (int exp = -9; exp <= 9; ++exp) {
    const double decade = std::pow(10.0, exp);
    for (double m : {1.0, 2.0, 5.0}) bounds.push_back(m * decade);
  }
  return bounds;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr int64_t kNsPerSecond = 1000000000;

/// Wall-free epoch for the window rings: whole seconds on the NowNs clock.
int64_t NowSecond() { return NowNs() / kNsPerSecond; }

/// Ring size of the trailing window: one slot per second plus slack so a
/// slot being recycled is never also in-window.
constexpr int kWindowSlots = kDefaultWindowSeconds + 2;

uint64_t ReservoirSeed(int shard, int64_t epoch) {
  return 0x5851f42d4c957f2dull ^ (static_cast<uint64_t>(shard) << 32) ^
         static_cast<uint64_t>(epoch);
}

}  // namespace

#ifndef SSIN_TELEMETRY_DISABLED
namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
#endif

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              anchor)
      .count();
}

int ThreadShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int index =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return index;
}

// ---------------------------------------------------------------------------
// Counter.

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Histogram.

namespace internal {

void HistogramCell::Observe(double value, const std::vector<double>& bounds,
                            size_t reservoir_capacity) {
  if (buckets.empty()) buckets.assign(bounds.size() + 1, 0);
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  // Inclusive upper bounds (Prometheus "le" semantics): value lands in the
  // first bucket whose bound is >= value.
  const size_t bucket =
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin();
  ++buckets[bucket];
  if (reservoir.size() < reservoir_capacity) {
    reservoir.push_back(value);
  } else {
    // Algorithm R: keep a uniform subsample once the reservoir is full.
    const uint64_t slot = SplitMix64(&rng) % static_cast<uint64_t>(count);
    if (slot < reservoir_capacity) {
      reservoir[static_cast<size_t>(slot)] = value;
    }
  }
}

void HistogramCell::MergeInto(HistogramSnapshot* snap) const {
  snap->count += count;
  snap->sum += sum;
  snap->min = std::min(snap->min, min);
  snap->max = std::max(snap->max, max);
  for (size_t b = 0; b < buckets.size(); ++b) {
    snap->bucket_counts[b] += buckets[b];
  }
  snap->samples.insert(snap->samples.end(), reservoir.begin(),
                       reservoir.end());
}

void HistogramCell::Reset() {
  count = 0;
  sum = 0.0;
  min = std::numeric_limits<double>::infinity();
  max = -std::numeric_limits<double>::infinity();
  std::fill(buckets.begin(), buckets.end(), 0);
  reservoir.clear();
}

}  // namespace internal

namespace {

void CheckAscendingBounds(const std::vector<double>& bounds) {
  for (size_t i = 1; i < bounds.size(); ++i) {
    SSIN_CHECK_LT(bounds[i - 1], bounds[i])
        << "histogram bucket bounds must be strictly ascending";
  }
}

}  // namespace

Histogram::Histogram(std::string name, const HistogramOptions& options)
    : name_(std::move(name)),
      bounds_(options.bucket_bounds.empty() ? DefaultBounds()
                                            : options.bucket_bounds),
      reservoir_capacity_(std::max<size_t>(1, options.reservoir_capacity)) {
  CheckAscendingBounds(bounds_);
  shards_.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->cell.buckets.assign(bounds_.size() + 1, 0);
    shard->cell.rng = ReservoirSeed(s, 0);
    shards_.push_back(std::move(shard));
  }
}

void Histogram::Observe(double value) {
  Shard& shard = *shards_[ThreadShardIndex()];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cell.Observe(value, bounds_, reservoir_capacity_);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bucket_bounds = bounds_;
  snap.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cell.MergeInto(&snap);
  }
  std::sort(snap.samples.begin(), snap.samples.end());
  return snap;
}

void Histogram::Reset() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cell.Reset();
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (samples.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  if (lo + 1 >= samples.size()) return samples.back();
  const double fraction = position - static_cast<double>(lo);
  return samples[lo] + fraction * (samples[lo + 1] - samples[lo]);
}

// ---------------------------------------------------------------------------
// WindowedCounter.

WindowedCounter::WindowedCounter(std::string name) : name_(std::move(name)) {
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<Slot[]>(kWindowSlots);
  }
}

void WindowedCounter::Add(int64_t delta) {
  Shard& shard = shards_[ThreadShardIndex()];
  shard.lifetime.fetch_add(delta, std::memory_order_relaxed);
  const int64_t second = NowSecond();
  Slot& slot = shard.slots[static_cast<size_t>(second % kWindowSlots)];
  if (slot.epoch.load(std::memory_order_acquire) != second) {
    // Recycle the slot for the new second; the exchange elects exactly one
    // zeroing writer should two threads share the shard.
    if (slot.epoch.exchange(second, std::memory_order_acq_rel) != second) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }
  slot.value.fetch_add(delta, std::memory_order_relaxed);
}

int64_t WindowedCounter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.lifetime.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t WindowedCounter::WindowValue() const {
  // The window covers the current (partial) second and the
  // kDefaultWindowSeconds - 1 full seconds before it.
  const int64_t oldest = NowSecond() - kDefaultWindowSeconds + 1;
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    for (int i = 0; i < kWindowSlots; ++i) {
      const Slot& slot = shard.slots[static_cast<size_t>(i)];
      if (slot.epoch.load(std::memory_order_acquire) >= oldest) {
        total += slot.value.load(std::memory_order_relaxed);
      }
    }
  }
  return total;
}

void WindowedCounter::Reset() {
  for (Shard& shard : shards_) {
    shard.lifetime.store(0, std::memory_order_relaxed);
    for (int i = 0; i < kWindowSlots; ++i) {
      Slot& slot = shard.slots[static_cast<size_t>(i)];
      slot.epoch.store(-1, std::memory_order_relaxed);
      slot.value.store(0, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// WindowedHistogram.

WindowedHistogram::WindowedHistogram(std::string name,
                                     const HistogramOptions& options)
    : name_(std::move(name)),
      bounds_(options.bucket_bounds.empty() ? DefaultBounds()
                                            : options.bucket_bounds),
      reservoir_capacity_(std::max<size_t>(1, options.reservoir_capacity)),
      window_reservoir_capacity_(
          std::max<size_t>(1, options.window_reservoir_capacity)) {
  CheckAscendingBounds(bounds_);
  shards_.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->lifetime.buckets.assign(bounds_.size() + 1, 0);
    shard->lifetime.rng = ReservoirSeed(s, 0);
    // Slot cells stay empty (no bucket vectors) until their first Observe.
    shard->slots.resize(kWindowSlots);
    shards_.push_back(std::move(shard));
  }
}

void WindowedHistogram::Observe(double value) {
  const int shard_index = ThreadShardIndex();
  Shard& shard = *shards_[shard_index];
  const int64_t second = NowSecond();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.lifetime.Observe(value, bounds_, reservoir_capacity_);
  Slot& slot = shard.slots[static_cast<size_t>(second % kWindowSlots)];
  if (slot.epoch != second) {
    slot.epoch = second;
    slot.cell.Reset();
    slot.cell.rng = ReservoirSeed(shard_index, second);
  }
  slot.cell.Observe(value, bounds_, window_reservoir_capacity_);
}

HistogramSnapshot WindowedHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bucket_bounds = bounds_;
  snap.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lifetime.MergeInto(&snap);
  }
  std::sort(snap.samples.begin(), snap.samples.end());
  return snap;
}

HistogramSnapshot WindowedHistogram::WindowSnapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bucket_bounds = bounds_;
  snap.bucket_counts.assign(bounds_.size() + 1, 0);
  const int64_t oldest = NowSecond() - kDefaultWindowSeconds + 1;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Slot& slot : shard.slots) {
      if (slot.epoch >= oldest) slot.cell.MergeInto(&snap);
    }
  }
  std::sort(snap.samples.begin(), snap.samples.end());
  return snap;
}

void WindowedHistogram::Reset() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lifetime.Reset();
    for (Slot& slot : shard.slots) {
      slot.epoch = -1;
      slot.cell.Reset();
    }
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Leaked.
  return *registry;
}

namespace {

template <typename T, typename Make>
T* FindOrInsert(std::vector<std::unique_ptr<T>>* items,
                const std::string& name, const Make& make) {
  auto it = std::lower_bound(
      items->begin(), items->end(), name,
      [](const std::unique_ptr<T>& m, const std::string& n) {
        return m->name() < n;
      });
  if (it != items->end() && (*it)->name() == name) return it->get();
  return items->insert(it, make())->get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&counters_, name, [&] {
    return std::unique_ptr<Counter>(new Counter(name));
  });
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&gauges_, name, [&] {
    return std::unique_ptr<Gauge>(new Gauge(name));
  });
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&histograms_, name, [&] {
    return std::unique_ptr<Histogram>(new Histogram(name, options));
  });
}

WindowedCounter* MetricsRegistry::GetWindowedCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&windowed_counters_, name, [&] {
    return std::unique_ptr<WindowedCounter>(new WindowedCounter(name));
  });
}

WindowedHistogram* MetricsRegistry::GetWindowedHistogram(
    const std::string& name, const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&windowed_histograms_, name, [&] {
    return std::unique_ptr<WindowedHistogram>(
        new WindowedHistogram(name, options));
  });
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) snap.counters.emplace_back(c->name(),
                                                             c->Value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) snap.gauges.emplace_back(g->name(),
                                                         g->Value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) snap.histograms.push_back(h->Snapshot());
  snap.windowed_counters.reserve(windowed_counters_.size());
  for (const auto& wc : windowed_counters_) {
    snap.windowed_counters.push_back({wc->name(), wc->window_seconds(),
                                      wc->Value(), wc->WindowValue()});
  }
  snap.windowed_histograms.reserve(windowed_histograms_.size());
  for (const auto& wh : windowed_histograms_) {
    MetricsSnapshot::WindowedHistogramSnapshot entry;
    entry.window_seconds = wh->window_seconds();
    entry.lifetime = wh->Snapshot();
    entry.window = wh->WindowSnapshot();
    snap.windowed_histograms.push_back(std::move(entry));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    for (Counter::Shard& shard : c->shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& g : gauges_) g->Set(0.0);
  for (const auto& h : histograms_) h->Reset();
  for (const auto& wc : windowed_counters_) wc->Reset();
  for (const auto& wh : windowed_histograms_) wh->Reset();
}

// ---------------------------------------------------------------------------
// TraceRecorder.

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // Leaked.
  return *recorder;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return buffer.get();
}

void TraceRecorder::Record(const char* name, int64_t begin_ns, int64_t end_ns,
                           int depth, uint64_t trace_id) {
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  const SpanEvent event{name, begin_ns, end_ns, depth, trace_id};
  if (buffer->ring.size() < kRingCapacity) {
    buffer->ring.push_back(event);
  } else {
    buffer->ring[static_cast<size_t>(buffer->total % kRingCapacity)] = event;
  }
  ++buffer->total;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->ring.clear();
    buffer->total = 0;
  }
}

std::vector<ThreadTrace> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrace> traces;
  traces.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    ThreadTrace trace;
    trace.tid = buffer->tid;
    trace.total_recorded = buffer->total;
    if (buffer->total <= static_cast<int64_t>(kRingCapacity)) {
      trace.events = buffer->ring;
    } else {
      // Wrapped: oldest retained event sits at total % capacity.
      const size_t head = static_cast<size_t>(buffer->total % kRingCapacity);
      trace.events.reserve(kRingCapacity);
      trace.events.insert(trace.events.end(), buffer->ring.begin() + head,
                          buffer->ring.end());
      trace.events.insert(trace.events.end(), buffer->ring.begin(),
                          buffer->ring.begin() + head);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

int64_t TraceRecorder::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    dropped += std::max<int64_t>(
        0, buffer->total - static_cast<int64_t>(buffer->ring.size()));
  }
  return dropped;
}

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

#ifndef SSIN_TELEMETRY_DISABLED
namespace internal {
namespace {
thread_local int t_span_depth = 0;
thread_local uint64_t t_trace_id = 0;
}  // namespace

int EnterSpan() { return ++t_span_depth; }
void ExitSpan() { --t_span_depth; }

uint64_t ExchangeTraceId(uint64_t trace_id) {
  const uint64_t prev = t_trace_id;
  t_trace_id = trace_id;
  return prev;
}
}  // namespace internal

uint64_t CurrentTraceId() { return internal::t_trace_id; }
#endif

// ---------------------------------------------------------------------------
// Export.

namespace {

/// Flat per-name span aggregate over the retained events.
struct SpanAggregate {
  int64_t count = 0;
  int64_t total_ns = 0;
};

std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<ThreadTrace>& traces) {
  std::map<std::string, SpanAggregate> by_name;
  for (const ThreadTrace& trace : traces) {
    for (const SpanEvent& event : trace.events) {
      SpanAggregate& agg = by_name[event.name];
      ++agg.count;
      agg.total_ns += event.end_ns - event.begin_ns;
    }
  }
  return by_name;
}

void WriteHistogramJson(JsonWriter* w, const HistogramSnapshot& h) {
  w->BeginObject();
  w->Key("count");
  w->Int(h.count);
  w->Key("sum");
  w->Number(h.sum);
  w->Key("min");
  w->Number(h.count > 0 ? h.min : 0.0);
  w->Key("max");
  w->Number(h.count > 0 ? h.max : 0.0);
  w->Key("mean");
  w->Number(h.mean());
  w->Key("p50");
  w->Number(h.Quantile(0.50));
  w->Key("p90");
  w->Number(h.Quantile(0.90));
  w->Key("p99");
  w->Number(h.Quantile(0.99));
  // Only occupied buckets: the default bound series has ~58 buckets and
  // most metrics touch a handful. `le: null` is the +inf overflow bucket
  // (JsonWriter renders non-finite numbers as null by contract).
  w->Key("buckets");
  w->BeginArray();
  for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
    if (h.bucket_counts[b] == 0) continue;
    w->BeginObject();
    w->Key("le");
    w->Number(b < h.bucket_bounds.size()
                  ? h.bucket_bounds[b]
                  : std::numeric_limits<double>::infinity());
    w->Key("count");
    w->Int(h.bucket_counts[b]);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteSnapshotMembers(JsonWriter* w, const MetricsSnapshot& metrics,
                          const std::vector<ThreadTrace>& traces) {
  // Windowed lifetimes fold into the plain counters/histograms sections so
  // existing consumers see one namespace; the trailing-window views get
  // their own "windows" section below.
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : metrics.counters) {
    w->Key(name);
    w->Int(value);
  }
  for (const auto& wc : metrics.windowed_counters) {
    w->Key(wc.name);
    w->Int(wc.lifetime);
  }
  w->EndObject();

  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, value] : metrics.gauges) {
    w->Key(name);
    w->Number(value);
  }
  w->EndObject();

  w->Key("histograms");
  w->BeginObject();
  for (const HistogramSnapshot& h : metrics.histograms) {
    w->Key(h.name);
    WriteHistogramJson(w, h);
  }
  for (const auto& wh : metrics.windowed_histograms) {
    w->Key(wh.lifetime.name);
    WriteHistogramJson(w, wh.lifetime);
  }
  w->EndObject();

  w->Key("windows");
  w->BeginObject();
  for (const auto& wc : metrics.windowed_counters) {
    w->Key(wc.name);
    w->BeginObject();
    w->Key("window_seconds");
    w->Int(wc.window_seconds);
    w->Key("value");
    w->Int(wc.window);
    w->EndObject();
  }
  for (const auto& wh : metrics.windowed_histograms) {
    w->Key(wh.window.name);
    w->BeginObject();
    w->Key("window_seconds");
    w->Int(wh.window_seconds);
    w->Key("histogram");
    WriteHistogramJson(w, wh.window);
    w->EndObject();
  }
  w->EndObject();

  w->Key("spans");
  w->BeginObject();
  for (const auto& [name, agg] : AggregateSpans(traces)) {
    w->Key(name);
    w->BeginObject();
    w->Key("count");
    w->Int(agg.count);
    w->Key("total_ms");
    w->Number(static_cast<double>(agg.total_ns) / 1e6);
    w->EndObject();
  }
  w->EndObject();
}

void WriteTraceEvents(JsonWriter* w, const std::vector<ThreadTrace>& traces) {
  w->Key("traceEvents");
  w->BeginArray();
  for (const ThreadTrace& trace : traces) {
    for (const SpanEvent& event : trace.events) {
      w->BeginObject();
      w->Key("name");
      w->String(event.name);
      w->Key("cat");
      w->String("ssin");
      w->Key("ph");
      w->String("X");
      w->Key("ts");
      w->Number(static_cast<double>(event.begin_ns) / 1e3);  // microseconds
      w->Key("dur");
      w->Number(static_cast<double>(event.end_ns - event.begin_ns) / 1e3);
      w->Key("pid");
      w->Int(0);
      w->Key("tid");
      w->Int(trace.tid);
      if (event.trace_id != 0) {
        w->Key("args");
        w->BeginObject();
        w->Key("trace_id");
        w->Int(static_cast<int64_t>(event.trace_id));
        w->EndObject();
      }
      w->EndObject();
    }
  }

  // Flow arrows: for every trace id spanning at least two slices, chain
  // the slices in time order with s -> t ... t -> f events. Each flow
  // event's ts sits at its slice's begin, which Chrome/Perfetto bind to
  // the enclosing slice on that (pid, tid), drawing the arrows that stitch
  // one request across the submit thread, the batcher and the engine
  // workers.
  struct FlowPoint {
    int64_t begin_ns;
    int tid;
  };
  std::map<uint64_t, std::vector<FlowPoint>> flows;
  for (const ThreadTrace& trace : traces) {
    for (const SpanEvent& event : trace.events) {
      if (event.trace_id != 0) {
        flows[event.trace_id].push_back({event.begin_ns, trace.tid});
      }
    }
  }
  for (auto& [trace_id, points] : flows) {
    if (points.size() < 2) continue;
    std::stable_sort(points.begin(), points.end(),
                     [](const FlowPoint& a, const FlowPoint& b) {
                       return a.begin_ns < b.begin_ns;
                     });
    for (size_t i = 0; i < points.size(); ++i) {
      const bool first = i == 0;
      const bool last = i + 1 == points.size();
      w->BeginObject();
      w->Key("name");
      w->String("serve.request");
      w->Key("cat");
      w->String("ssin.flow");
      w->Key("ph");
      w->String(first ? "s" : (last ? "f" : "t"));
      if (last) {
        w->Key("bp");
        w->String("e");
      }
      w->Key("id");
      w->Int(static_cast<int64_t>(trace_id));
      w->Key("ts");
      w->Number(static_cast<double>(points[i].begin_ns) / 1e3);
      w->Key("pid");
      w->Int(0);
      w->Key("tid");
      w->Int(points[i].tid);
      w->EndObject();
    }
  }
  w->EndArray();
}

}  // namespace

void MetricsSnapshot::WriteJson(JsonWriter* writer) const {
  WriteSnapshotMembers(writer, *this, {});
}

void WriteSnapshotJson(JsonWriter* writer) {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  const std::vector<ThreadTrace> traces = TraceRecorder::Global().Snapshot();
  writer->BeginObject();
  writer->Key("telemetry_version");
  writer->Int(kTelemetryVersion);
  WriteSnapshotMembers(writer, metrics, traces);
  writer->EndObject();
}

std::string ReportJson(const std::string& kind) {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  const std::vector<ThreadTrace> traces = TraceRecorder::Global().Snapshot();

  JsonWriter w;
  w.BeginObject();
  w.Key("telemetry_version");
  w.Int(kTelemetryVersion);
  w.Key("kind");
  w.String(kind);
  w.Key("displayTimeUnit");
  w.String("ms");
  WriteSnapshotMembers(&w, metrics, traces);
  w.Key("spans_dropped");
  w.Int(TraceRecorder::Global().TotalDropped());
  WriteTraceEvents(&w, traces);
  w.EndObject();
  return w.str();
}

bool WriteReport(const std::string& kind, const std::string& path) {
  return WriteFile(path, ReportJson(kind) + "\n");
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

namespace {

std::string PromName(const std::string& name) {
  std::string out = "ssin_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendPromNumber(std::string* out, double value) {
  if (std::isnan(value)) {
    *out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void AppendPromGauge(std::string* out, const std::string& prom,
                     double value) {
  *out += "# TYPE " + prom + " gauge\n" + prom + " ";
  AppendPromNumber(out, value);
  *out += "\n";
}

void AppendPromHistogram(std::string* out, const std::string& prom,
                         const HistogramSnapshot& h) {
  *out += "# TYPE " + prom + " histogram\n";
  int64_t cumulative = 0;
  for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
    cumulative += h.bucket_counts[b];
    const bool is_overflow = b >= h.bucket_bounds.size();
    // Empty finite buckets are elided (the default bound series has ~58 and
    // most metrics touch a handful); cumulative `le` semantics stay valid
    // because the running total carries across elided bounds. The +Inf
    // bucket is always emitted.
    if (h.bucket_counts[b] == 0 && !is_overflow) continue;
    *out += prom + "_bucket{le=\"";
    if (is_overflow) {
      *out += "+Inf";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", h.bucket_bounds[b]);
      *out += buf;
    }
    *out += "\"} " + std::to_string(cumulative) + "\n";
  }
  *out += prom + "_sum ";
  AppendPromNumber(out, h.sum);
  *out += "\n" + prom + "_count " + std::to_string(h.count) + "\n";
}

std::string WindowSuffix(int window_seconds) {
  return "_last" + std::to_string(window_seconds) + "s";
}

}  // namespace

std::string PrometheusText() {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  std::string out;
  for (const auto& [name, value] : metrics.counters) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n" + prom + " " +
           std::to_string(value) + "\n";
  }
  for (const auto& wc : metrics.windowed_counters) {
    const std::string prom = PromName(wc.name);
    out += "# TYPE " + prom + " counter\n" + prom + " " +
           std::to_string(wc.lifetime) + "\n";
    AppendPromGauge(&out, prom + WindowSuffix(wc.window_seconds),
                    static_cast<double>(wc.window));
  }
  for (const auto& [name, value] : metrics.gauges) {
    AppendPromGauge(&out, PromName(name), value);
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    AppendPromHistogram(&out, PromName(h.name), h);
  }
  for (const auto& wh : metrics.windowed_histograms) {
    const std::string prom = PromName(wh.lifetime.name);
    AppendPromHistogram(&out, prom, wh.lifetime);
    const std::string window = prom + WindowSuffix(wh.window_seconds);
    AppendPromGauge(&out, window + "_count",
                    static_cast<double>(wh.window.count));
    AppendPromGauge(&out, window + "_sum", wh.window.sum);
    AppendPromGauge(&out, window + "_p50", wh.window.Quantile(0.50));
    AppendPromGauge(&out, window + "_p99", wh.window.Quantile(0.99));
  }
  return out;
}

bool WritePrometheusText(const std::string& path) {
  return WriteFile(path, PrometheusText());
}

namespace {

/// Aggregated call-tree node for the hierarchy breakdown.
struct TreeNode {
  int64_t count = 0;
  int64_t total_ns = 0;
  std::map<std::string, TreeNode> children;
};

void BuildTree(const ThreadTrace& trace, TreeNode* root) {
  // Events are recorded at span *end*, so parents follow their children in
  // the buffer. Re-derive nesting from timestamps: sort by (begin asc,
  // end desc) so a parent precedes everything it contains, then walk with
  // a containment stack.
  std::vector<const SpanEvent*> ordered;
  ordered.reserve(trace.events.size());
  for (const SpanEvent& event : trace.events) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SpanEvent* a, const SpanEvent* b) {
                     if (a->begin_ns != b->begin_ns) {
                       return a->begin_ns < b->begin_ns;
                     }
                     return a->end_ns > b->end_ns;
                   });

  struct Open {
    int64_t end_ns;
    TreeNode* node;
  };
  std::vector<Open> stack;
  for (const SpanEvent* event : ordered) {
    while (!stack.empty() && event->begin_ns >= stack.back().end_ns) {
      stack.pop_back();
    }
    TreeNode* parent = stack.empty() ? root : stack.back().node;
    TreeNode& node = parent->children[event->name];
    ++node.count;
    node.total_ns += event->end_ns - event->begin_ns;
    stack.push_back({event->end_ns, &node});
  }
}

void PrintTree(const TreeNode& node, int indent, int64_t parent_ns,
               std::string* out) {
  // Siblings ordered by total time, descending.
  std::vector<std::pair<std::string, const TreeNode*>> ordered;
  ordered.reserve(node.children.size());
  for (const auto& [name, child] : node.children) {
    ordered.emplace_back(name, &child);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.second->total_ns > b.second->total_ns;
            });
  for (const auto& [name, child] : ordered) {
    char line[256];
    const double total_ms = static_cast<double>(child->total_ns) / 1e6;
    const std::string label(static_cast<size_t>(indent) * 2, ' ');
    if (parent_ns > 0) {
      std::snprintf(line, sizeof(line), "%-40s %10lld x %12.3f ms  %5.1f%%\n",
                    (label + name).c_str(),
                    static_cast<long long>(child->count), total_ms,
                    100.0 * static_cast<double>(child->total_ns) /
                        static_cast<double>(parent_ns));
    } else {
      std::snprintf(line, sizeof(line), "%-40s %10lld x %12.3f ms\n",
                    (label + name).c_str(),
                    static_cast<long long>(child->count), total_ms);
    }
    *out += line;
    PrintTree(*child, indent + 1, child->total_ns, out);
  }
}

}  // namespace

std::string HierarchyText() {
  const std::vector<ThreadTrace> traces = TraceRecorder::Global().Snapshot();
  TreeNode root;
  for (const ThreadTrace& trace : traces) BuildTree(trace, &root);
  std::string out;
  if (root.children.empty()) {
    out = "(no spans recorded)\n";
    return out;
  }
  out += "span hierarchy (aggregated over threads; counts x total time,"
         " % of parent)\n";
  PrintTree(root, 0, 0, &out);
  const int64_t dropped = TraceRecorder::Global().TotalDropped();
  if (dropped > 0) {
    char line[96];
    std::snprintf(line, sizeof(line),
                  "(+ %lld older spans dropped by ring wrap-around)\n",
                  static_cast<long long>(dropped));
    out += line;
  }
  return out;
}

void ResetAll() {
  MetricsRegistry::Global().Reset();
  TraceRecorder::Global().Clear();
}

}  // namespace telemetry
}  // namespace ssin
