#ifndef SSIN_COMMON_TELEMETRY_H_
#define SSIN_COMMON_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Process-wide telemetry: a metrics registry (counters, gauges,
/// histograms) plus scoped trace spans, shared by the trainer, the thread
/// pool, the inference engine and the evaluation runner.
///
/// Design constraints, in order:
///  1. *Never* perturb numerics — instrumentation only reads program state,
///     so every equivalence test passes bit-identically with telemetry on.
///  2. Cheap enough to leave on (<2% wall-clock budget, enforced by
///     scripts/check_overhead.sh at <5%): counters are lock-free relaxed
///     atomics striped over per-thread shards, spans cost two clock reads
///     plus one uncontended per-thread mutex, and everything expensive
///     (aggregation, JSON export) happens at snapshot time.
///  3. Compile-out path: configuring with -DSSIN_TELEMETRY=OFF defines
///     SSIN_TELEMETRY_DISABLED, which turns SSIN_TRACE_SPAN into a no-op
///     and pins Enabled() to a constexpr false so Enabled()-guarded probes
///     dead-code-eliminate. The registry classes themselves stay compiled:
///     components (e.g. the serving LayoutCache) use Counter as their
///     always-on statistics API, and the report writers must keep working
///     in disabled builds (they then export metrics with no spans).
///
/// Runtime model: one process-wide flag (SetEnabled) gates spans and the
/// Enabled()-guarded probes. EvalOptions::telemetry switches it on for its
/// run; enabling is sticky until SetEnabled(false). Counters, gauges and histograms record
/// whenever they are called, whatever the flag — they are plain
/// statistics, not timing probes.

namespace ssin {

class JsonWriter;  // common/json_writer.h

namespace telemetry {

// ---------------------------------------------------------------------------
// Enable switches.

#ifdef SSIN_TELEMETRY_DISABLED
/// Whether the telemetry instrumentation was compiled in.
constexpr bool CompiledIn() { return false; }
/// Disabled builds pin the runtime flag to false so guarded probes fold.
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
constexpr bool CompiledIn() { return true; }
/// Whether span/timing recording is currently on (relaxed atomic load).
bool Enabled();
void SetEnabled(bool on);
#endif

/// Monotonic nanoseconds since an arbitrary process-start anchor. All span
/// timestamps share this clock.
int64_t NowNs();

// ---------------------------------------------------------------------------
// Metrics.

/// Number of shards each counter/histogram stripes its state over. Threads
/// map to shards by a sticky per-thread index, so with up to kShards
/// concurrent threads the fast path is contention-free.
constexpr int kShards = 16;

/// Trailing-window length of every counter and histogram, in seconds.
constexpr int kDefaultWindowSeconds = 60;

/// Per-shard streaming-quantile reservoir size of a histogram's lifetime
/// view. Quantiles are *exact* while every shard has seen at most this many
/// samples; beyond that the shard switches to uniform reservoir subsampling
/// (deterministic per-shard splitmix64 stream) and quantiles become
/// estimates.
constexpr size_t kReservoirCapacity = 4096;

/// Per-(shard, second) reservoir size of a histogram's window ring cells.
/// Smaller than the lifetime reservoir because each cell covers at most one
/// second of observations.
constexpr size_t kWindowReservoirCapacity = 1024;

/// Monotonic event counter with two views: the lifetime total and the
/// total over the trailing kDefaultWindowSeconds, kept as a per-shard ring
/// of one-second buckets merged on read. Add() is lock-free: one relaxed
/// fetch_add on this thread's lifetime cell, one clock read and one
/// fetch_add on the current second's slot. Slots recycle by epoch
/// exchange; because shard indices are sticky per thread, two threads race
/// a recycle only past kShards concurrent writers, and even then only
/// increments landing in the same instant a 60s-stale slot turns over can
/// be misattributed — the lifetime total is always exact.
class Counter {
 public:
  void Add(int64_t delta = 1);
  int64_t Value() const;        ///< Lifetime total (exact).
  int64_t WindowValue() const;  ///< Total over the trailing window.
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name);

  struct Slot {
    std::atomic<int64_t> epoch{-1};  ///< Second this slot currently holds.
    std::atomic<int64_t> value{0};
  };
  struct alignas(64) Shard {
    std::atomic<int64_t> lifetime{0};
    std::unique_ptr<Slot[]> slots;  ///< One ring of window slots.
  };

  std::string name_;
  Shard shards_[kShards];
};

/// Last-write-wins scalar. Set/Value are lock-free (the double travels as
/// its bit pattern through one atomic word).
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> bits_{0};  // 0 bits == 0.0.
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<double> bucket_bounds;   ///< Upper bounds, +inf excluded.
  std::vector<int64_t> bucket_counts;  ///< bucket_bounds.size() + 1 entries.
  std::vector<double> samples;         ///< Merged reservoirs, sorted.

  double mean() const { return count > 0 ? sum / count : 0.0; }
  /// Linear-interpolated quantile of the retained samples, q in [0, 1].
  /// Exact (equals the same formula applied to all observations) while no
  /// shard overflowed its reservoir.
  double Quantile(double q) const;
};

namespace internal {

/// One fixed-bucket + reservoir accumulation cell: a histogram keeps one
/// lifetime cell per shard plus one per ring slot. Callers synchronize via
/// the owning shard's mutex; the cell itself is plain data. `buckets` is
/// sized lazily on first Observe so idle window cells cost no memory.
struct HistogramCell {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<int64_t> buckets;  ///< One per bucket bound, plus overflow.
  std::vector<double> reservoir;
  uint64_t rng = 0;  ///< splitmix64 state for reservoir replacement.

  void Observe(double value, size_t reservoir_capacity);
  /// Adds this cell into `snap` (bucket_counts must already be sized).
  void MergeInto(HistogramSnapshot* snap) const;
  void Reset();
};

}  // namespace internal

/// Fixed-bucket + streaming-quantile histogram with a lifetime view and a
/// trailing-window view. Buckets have inclusive upper bounds on the 1-2-5
/// log series spanning 1e-9 .. 1e9 (fits nanosecond-to-second latencies
/// and typical scalar statistics alike), plus an overflow bucket. Observe()
/// takes one uncontended per-shard mutex (threads own distinct shards up
/// to kShards) and updates the shard's lifetime cell and the current
/// second's ring cell. Window quantiles are exact under the same condition
/// as lifetime ones: no (shard, second) cell overflowed
/// kWindowReservoirCapacity.
class Histogram {
 public:
  void Observe(double value);
  HistogramSnapshot Snapshot() const;        ///< Lifetime view.
  HistogramSnapshot WindowSnapshot() const;  ///< Trailing-window view.
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name);

  struct Slot {
    int64_t epoch = -1;  ///< Second this slot currently holds.
    internal::HistogramCell cell;
  };
  struct Shard {
    mutable std::mutex mu;
    internal::HistogramCell lifetime;
    std::vector<Slot> slots;  ///< One ring of window slots.
  };

  /// Merges every shard's lifetime cell, or (window) every in-window ring
  /// cell, into one snapshot with sorted samples.
  HistogramSnapshot Merge(bool window) const;

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Point-in-time aggregate of every registered metric, ordered by name.
/// Counters and histograms carry both views; the window covers the
/// trailing kDefaultWindowSeconds.
struct MetricsSnapshot {
  struct CounterViews {
    std::string name;
    int64_t lifetime = 0;
    int64_t window = 0;
  };
  struct HistogramViews {
    HistogramSnapshot lifetime;  ///< .name carries the metric name.
    HistogramSnapshot window;
  };

  std::vector<CounterViews> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramViews> histograms;
};

/// Process-wide, thread-safe metric registry. Get* registers on first use
/// (mutex-guarded cold path) and returns a stable pointer — callers cache
/// it and hit only the metric's own lock-free/sharded fast path afterwards.
class MetricsRegistry {
 public:
  /// The process-wide registry (leaked singleton: safe to use from static
  /// destructors and detached threads).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (registrations and cached pointers
  /// stay valid). Concurrent Add()s may land before or after the zeroing.
  void Reset();

 private:
  MetricsRegistry() = default;

  /// The metric registered under `name`, created on first use. Caller
  /// holds mu_.
  template <typename T>
  static T* FindOrInsert(std::vector<std::unique_ptr<T>>* items,
                         const std::string& name);

  mutable std::mutex mu_;
  // Deterministically ordered so snapshots/exports are stable.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands for the global registry.
inline Counter* GetCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge* GetGauge(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline Histogram* GetHistogram(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name);
}

// ---------------------------------------------------------------------------
// Trace spans.

/// One completed span. `name` must be a string literal (events store the
/// pointer, never a copy).
struct SpanEvent {
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int depth = 0;  ///< Nesting depth on the recording thread (1 = root).
  uint64_t trace_id = 0;  ///< Request flow this span belongs to (0 = none).
};

/// All spans retained for one thread, oldest first.
struct ThreadTrace {
  int tid = 0;
  std::vector<SpanEvent> events;
  int64_t total_recorded = 0;  ///< Including events the ring overwrote.
};

/// Collects spans into per-thread ring buffers. Each thread writes its own
/// buffer under a dedicated (hence uncontended) mutex; the same mutex makes
/// Snapshot() safe while other threads keep recording. The ring keeps the
/// most recent kRingCapacity spans per thread — metrics are the complete
/// record, the trace is a window.
class TraceRecorder {
 public:
  static constexpr size_t kRingCapacity = 1 << 15;

  static TraceRecorder& Global();

  /// Appends a completed span for the calling thread. `trace_id` tags the
  /// span with the request flow it served (0 = untagged); the exporter
  /// stitches same-id spans across threads with Chrome flow arrows.
  void Record(const char* name, int64_t begin_ns, int64_t end_ns, int depth,
              uint64_t trace_id = 0);

  /// Drops all retained spans (threads stay registered).
  void Clear();

  /// Copies every thread's retained spans, in ring (time) order.
  std::vector<ThreadTrace> Snapshot() const;

  /// Spans overwritten by ring wrap-around, summed over threads.
  int64_t TotalDropped() const;

 private:
  TraceRecorder() = default;

  struct ThreadBuffer {
    std::mutex mu;
    int tid = 0;
    std::vector<SpanEvent> ring;  ///< Grows to kRingCapacity, then wraps.
    int64_t total = 0;
  };

  ThreadBuffer* BufferForThisThread();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

// ---------------------------------------------------------------------------
// Request-scoped tracing.

/// Allocates a fresh nonzero trace id (process-wide atomic counter).
/// Trace ids stitch spans recorded on different threads into one request
/// flow: tag the current thread with ScopedTrace and every span opened
/// inside the scope inherits the id; the exporter then emits Chrome flow
/// arrows (`ph:"s"/"t"/"f"`) connecting each id's spans across threads.
uint64_t NextTraceId();

#ifndef SSIN_TELEMETRY_DISABLED

/// Trace id currently attached to the calling thread (0 = untagged).
uint64_t CurrentTraceId();

namespace internal {
/// Current span nesting depth of this thread; Enter returns the new depth.
int EnterSpan();
void ExitSpan();
/// Swaps the calling thread's trace id, returning the previous one.
uint64_t ExchangeTraceId(uint64_t trace_id);
}  // namespace internal

/// RAII: tags the calling thread with `trace_id` for the scope's lifetime
/// (spans opened inside inherit it) and restores the previous id on
/// destruction. Pass 0 to explicitly untag.
class ScopedTrace {
 public:
  explicit ScopedTrace(uint64_t trace_id)
      : prev_(internal::ExchangeTraceId(trace_id)) {}
  ~ScopedTrace() { internal::ExchangeTraceId(prev_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  uint64_t prev_;
};

/// RAII span: records [construction, destruction) into the trace recorder
/// when telemetry is enabled. The enabled check is latched at construction
/// so a mid-span toggle cannot produce an unbalanced event; the thread's
/// current trace id is latched the same way.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!Enabled()) return;
    name_ = name;
    depth_ = internal::EnterSpan();
    trace_id_ = CurrentTraceId();
    begin_ns_ = NowNs();
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    const int64_t end_ns = NowNs();
    TraceRecorder::Global().Record(name_, begin_ns_, end_ns, depth_,
                                   trace_id_);
    internal::ExitSpan();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t begin_ns_ = 0;
  int depth_ = 0;
  uint64_t trace_id_ = 0;
};

#define SSIN_TELEMETRY_CONCAT_INNER(a, b) a##b
#define SSIN_TELEMETRY_CONCAT(a, b) SSIN_TELEMETRY_CONCAT_INNER(a, b)
/// Scoped trace span: SSIN_TRACE_SPAN("train.epoch"); the argument must be
/// a string literal. Compiles to nothing under -DSSIN_TELEMETRY=OFF.
#define SSIN_TRACE_SPAN(name)                                        \
  ::ssin::telemetry::ScopedSpan SSIN_TELEMETRY_CONCAT(ssin_trace_span_, \
                                                      __LINE__)(name)

#else  // SSIN_TELEMETRY_DISABLED

/// Disabled builds pin the thread trace id to 0 so guarded probes fold.
constexpr uint64_t CurrentTraceId() { return 0; }

/// No-op stand-in so call sites compile unchanged.
class ScopedTrace {
 public:
  explicit ScopedTrace(uint64_t) {}
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

#define SSIN_TRACE_SPAN(name) static_cast<void>(0)

#endif  // SSIN_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// Export / reports.

/// Schema version stamped into every telemetry JSON document.
constexpr int kTelemetryVersion = 1;

/// Writes a versioned snapshot object — {"telemetry_version": 1, counters,
/// gauges, histograms, windows, spans} — as the *value* following an open
/// Key(). "counters" and "histograms" hold the lifetime views; "windows"
/// holds the trailing-window view of every counter and histogram under the
/// same name. bench_table9_traffic embeds it in BENCH_traffic.json.
void WriteSnapshotJson(JsonWriter* writer);

/// Complete telemetry report: the snapshot above plus the Chrome
/// trace_event list ("traceEvents", loadable in chrome://tracing and
/// Perfetto — extra top-level keys are ignored by both) and a "kind" tag
/// ("train"/"serve"). Returns the JSON document.
std::string ReportJson(const std::string& kind);

/// Writes ReportJson(kind) to `path`. Returns false on IO failure.
bool WriteReport(const std::string& kind, const std::string& path);

/// Prometheus text exposition (format version 0.0.4) of every registered
/// metric: counter lifetimes as `counter`, gauges as `gauge`, histogram
/// lifetimes as `histogram` with cumulative `le` buckets plus
/// `_sum`/`_count`. Trailing-window views export as gauges with a
/// `_last60s` suffix (`..._last60s` for counters;
/// `..._last60s_count/_sum/_p50/_p99` for histograms). Metric names are
/// prefixed `ssin_` and sanitized — every byte outside [a-zA-Z0-9_:]
/// becomes '_'.
std::string PrometheusText();

/// Writes PrometheusText() to `path`. Returns false on IO failure.
bool WritePrometheusText(const std::string& path);

/// Resets the global registry and clears the trace recorder — the benches
/// and RunEvaluation call this between the train and serve phases so each
/// report covers exactly one phase.
void ResetAll();

}  // namespace telemetry
}  // namespace ssin

#endif  // SSIN_COMMON_TELEMETRY_H_
