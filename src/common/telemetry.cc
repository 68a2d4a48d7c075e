#include "common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json_writer.h"

namespace ssin {
namespace telemetry {

namespace {

/// Fixed bucket upper bounds of every histogram: the 1-2-5 series over
/// 1e-9 .. 1e9. Leaked like the registry, so histograms observed from
/// static destructors or detached threads never see it destroyed.
const std::vector<double>& BucketBounds() {
  static const std::vector<double>* bounds = [] {
    auto* series = new std::vector<double>();
    for (int exp = -9; exp <= 9; ++exp) {
      const double decade = std::pow(10.0, exp);
      for (double m : {1.0, 2.0, 5.0}) series->push_back(m * decade);
    }
    return series;
  }();
  return *bounds;
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

/// Oldest second inside the trailing window: the window covers the current
/// (partial) second and the kDefaultWindowSeconds - 1 full seconds before
/// it.
int64_t OldestWindowSecond() {
  return NowSecond() - kDefaultWindowSeconds + 1;
}

/// Ring size of the trailing window: one slot per second plus slack so a
/// slot being recycled is never also in-window.
constexpr int kWindowSlots = kDefaultWindowSeconds + 2;

uint64_t ReservoirSeed(int shard, int64_t epoch) {
  return 0x5851f42d4c957f2dull ^ (static_cast<uint64_t>(shard) << 32) ^
         static_cast<uint64_t>(epoch);
}

/// Sticky shard index of the calling thread, in [0, kShards).
int ThreadShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int index =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return index;
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

// ---------------------------------------------------------------------------
// Counter.

Counter::Counter(std::string name) : name_(std::move(name)) {
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<Slot[]>(kWindowSlots);
  }
}

void Counter::Add(int64_t delta) {
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

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.lifetime.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Counter::WindowValue() const {
  const int64_t oldest = OldestWindowSecond();
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

void Counter::Reset() {
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
// Histogram.

namespace internal {

void HistogramCell::Observe(double value, size_t reservoir_capacity) {
  const std::vector<double>& bounds = BucketBounds();
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

Histogram::Histogram(std::string name) : name_(std::move(name)) {
  shards_.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->lifetime.rng = ReservoirSeed(s, 0);
    // Slot cells stay empty (no bucket vectors) until their first Observe.
    shard->slots.resize(kWindowSlots);
    shards_.push_back(std::move(shard));
  }
}

void Histogram::Observe(double value) {
  const int shard_index = ThreadShardIndex();
  Shard& shard = *shards_[shard_index];
  const int64_t second = NowSecond();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.lifetime.Observe(value, kReservoirCapacity);
  Slot& slot = shard.slots[static_cast<size_t>(second % kWindowSlots)];
  if (slot.epoch != second) {
    slot.epoch = second;
    slot.cell.Reset();
    slot.cell.rng = ReservoirSeed(shard_index, second);
  }
  slot.cell.Observe(value, kWindowReservoirCapacity);
}

HistogramSnapshot Histogram::Merge(bool window) const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bucket_bounds = BucketBounds();
  snap.bucket_counts.assign(snap.bucket_bounds.size() + 1, 0);
  const int64_t oldest = OldestWindowSecond();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!window) {
      shard.lifetime.MergeInto(&snap);
      continue;
    }
    for (const Slot& slot : shard.slots) {
      if (slot.epoch >= oldest) slot.cell.MergeInto(&snap);
    }
  }
  std::sort(snap.samples.begin(), snap.samples.end());
  return snap;
}

HistogramSnapshot Histogram::Snapshot() const { return Merge(false); }

HistogramSnapshot Histogram::WindowSnapshot() const { return Merge(true); }

void Histogram::Reset() {
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
// MetricsRegistry.

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Leaked.
  return *registry;
}

template <typename T>
T* MetricsRegistry::FindOrInsert(std::vector<std::unique_ptr<T>>* items,
                                 const std::string& name) {
  auto it = std::lower_bound(
      items->begin(), items->end(), name,
      [](const std::unique_ptr<T>& m, const std::string& n) {
        return m->name() < n;
      });
  if (it != items->end() && (*it)->name() == name) return it->get();
  return items->insert(it, std::unique_ptr<T>(new T(name)))->get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&counters_, name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrInsert(&histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    snap.counters.push_back({c->name(), c->Value(), c->WindowValue()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) snap.gauges.emplace_back(g->name(),
                                                         g->Value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    snap.histograms.push_back({h->Snapshot(), h->WindowSnapshot()});
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) c->Reset();
  for (const auto& g : gauges_) g->Set(0.0);
  for (const auto& h : histograms_) h->Reset();
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
  // Only occupied buckets: the 1-2-5 bound series has 58 buckets and
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
  // Lifetime views under "counters"/"histograms"; the trailing-window view
  // of each lives under "windows" with the same name.
  w->Key("counters");
  w->BeginObject();
  for (const auto& c : metrics.counters) {
    w->Key(c.name);
    w->Int(c.lifetime);
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
  for (const auto& h : metrics.histograms) {
    w->Key(h.lifetime.name);
    WriteHistogramJson(w, h.lifetime);
  }
  w->EndObject();

  w->Key("windows");
  w->BeginObject();
  for (const auto& c : metrics.counters) {
    w->Key(c.name);
    w->BeginObject();
    w->Key("window_seconds");
    w->Int(kDefaultWindowSeconds);
    w->Key("value");
    w->Int(c.window);
    w->EndObject();
  }
  for (const auto& h : metrics.histograms) {
    w->Key(h.window.name);
    w->BeginObject();
    w->Key("window_seconds");
    w->Int(kDefaultWindowSeconds);
    w->Key("histogram");
    WriteHistogramJson(w, h.window);
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
    // Empty finite buckets are elided (the 1-2-5 bound series has 58 and
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

/// Name suffix of the trailing-window gauges.
constexpr char kWindowSuffix[] = "_last60s";
static_assert(kDefaultWindowSeconds == 60, "kWindowSuffix names the window");

}  // namespace

std::string PrometheusText() {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  std::string out;
  for (const auto& c : metrics.counters) {
    const std::string prom = PromName(c.name);
    out += "# TYPE " + prom + " counter\n" + prom + " " +
           std::to_string(c.lifetime) + "\n";
    AppendPromGauge(&out, prom + kWindowSuffix,
                    static_cast<double>(c.window));
  }
  for (const auto& [name, value] : metrics.gauges) {
    AppendPromGauge(&out, PromName(name), value);
  }
  for (const auto& h : metrics.histograms) {
    const std::string prom = PromName(h.lifetime.name);
    AppendPromHistogram(&out, prom, h.lifetime);
    const std::string window = prom + kWindowSuffix;
    AppendPromGauge(&out, window + "_count",
                    static_cast<double>(h.window.count));
    AppendPromGauge(&out, window + "_sum", h.window.sum);
    AppendPromGauge(&out, window + "_p50", h.window.Quantile(0.50));
    AppendPromGauge(&out, window + "_p99", h.window.Quantile(0.99));
  }
  return out;
}

bool WritePrometheusText(const std::string& path) {
  return WriteFile(path, PrometheusText());
}

void ResetAll() {
  MetricsRegistry::Global().Reset();
  TraceRecorder::Global().Clear();
}

}  // namespace telemetry
}  // namespace ssin
