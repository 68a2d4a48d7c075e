/// Tests of the telemetry layer (common/telemetry.h): metric correctness
/// (counters and histograms in both their lifetime and last-60s views,
/// gauges, exact streaming quantiles against a sorted reference),
/// multi-thread shard aggregation under the ThreadPool, span nesting
/// exported as well-formed Chrome trace_event JSON, report and Prometheus
/// export, and the pin that enabling telemetry changes no training result
/// (the instrumentation is read-only).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "serve/interpolation_server.h"

namespace ssin {
namespace {

using telemetry::GetCounter;
using telemetry::GetGauge;
using telemetry::GetHistogram;
using telemetry::HistogramSnapshot;

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (strict enough for our exports:
// no leading zeros / unicode escapes are not validated, but structure,
// string escaping, and token grammar are).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!ParseValue()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseString() {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return ParseNumber();
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!ParseString()) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!ParseValue()) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!ParseValue()) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Fresh global state for every test: metrics zeroed, spans dropped,
// recording off until the test opts in.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(false);
    telemetry::ResetAll();
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::ResetAll();
  }
};

// ---------------------------------------------------------------------------
// Metrics.

TEST_F(TelemetryTest, CounterTracksLifetimeAndWindowAndResets) {
  telemetry::Counter* counter = GetCounter("test.counter");
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(counter->WindowValue(), 0);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42);
  // Every add landed inside the trailing window, so both views agree.
  EXPECT_EQ(counter->WindowValue(), 42);
  // Same name -> same counter.
  EXPECT_EQ(GetCounter("test.counter"), counter);
  telemetry::MetricsRegistry::Global().Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(counter->WindowValue(), 0);
}

TEST_F(TelemetryTest, CounterRecordsEvenWhenRuntimeDisabled) {
  // Counters are statistics, not probes: the LayoutCache hit/miss API
  // depends on them recording regardless of SetEnabled.
  ASSERT_FALSE(telemetry::Enabled() && telemetry::CompiledIn());
  telemetry::Counter* counter = GetCounter("test.always_on");
  counter->Add(3);
  EXPECT_EQ(counter->Value(), 3);
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  telemetry::Gauge* gauge = GetGauge("test.gauge");
  EXPECT_EQ(gauge->Value(), 0.0);
  gauge->Set(2.5);
  gauge->Set(-17.75);
  EXPECT_EQ(gauge->Value(), -17.75);
}

TEST_F(TelemetryTest, HistogramCountsSumAndBuckets) {
  telemetry::Histogram* histogram = GetHistogram("test.histogram_buckets");
  for (double v : {0.5, 0.7, 1.0, 5.0, 50.0, 1e10}) histogram->Observe(v);
  const HistogramSnapshot snap = histogram->Snapshot();
  EXPECT_EQ(snap.count, 6);
  EXPECT_DOUBLE_EQ(snap.sum, 57.2 + 1e10);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 1e10);
  // The 1-2-5 series over the decades 1e-9 .. 1e9: 57 strictly ascending
  // upper bounds plus the overflow bucket.
  ASSERT_EQ(snap.bucket_bounds.size(), 57u);
  ASSERT_EQ(snap.bucket_counts.size(), 58u);
  EXPECT_DOUBLE_EQ(snap.bucket_bounds.front(), 1e-9);
  EXPECT_DOUBLE_EQ(snap.bucket_bounds.back(), 5e9);
  for (size_t b = 1; b < snap.bucket_bounds.size(); ++b) {
    EXPECT_LT(snap.bucket_bounds[b - 1], snap.bucket_bounds[b]);
  }
  auto count_at = [&snap](double bound) -> int64_t {
    for (size_t b = 0; b < snap.bucket_bounds.size(); ++b) {
      if (std::abs(snap.bucket_bounds[b] - bound) <= 1e-12 * bound) {
        return snap.bucket_counts[b];
      }
    }
    ADD_FAILURE() << "no bucket bound " << bound;
    return -1;
  };
  // Upper bounds are inclusive: 0.5 lands in "le 0.5", 1.0 in "le 1".
  EXPECT_EQ(count_at(0.5), 1);
  EXPECT_EQ(count_at(1.0), 2);  // 0.7, 1.0.
  EXPECT_EQ(count_at(5.0), 1);
  EXPECT_EQ(count_at(50.0), 1);
  EXPECT_EQ(snap.bucket_counts.back(), 1);  // 1e10 overflows 5e9.
  int64_t total = 0;
  for (int64_t c : snap.bucket_counts) total += c;
  EXPECT_EQ(total, 6);
}

TEST_F(TelemetryTest, QuantilesExactAgainstSortedReference) {
  // Below the reservoir capacity the quantiles are exact: identical (to
  // 1e-9) to the linear-interpolation formula on the full sorted sample.
  telemetry::Histogram* histogram = GetHistogram("test.histogram_quantiles");
  std::vector<double> values;
  uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    // Deterministic pseudo-random values (xorshift), wide dynamic range.
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double v =
        static_cast<double>(state % 1000000) / 1000.0 - 200.0;
    values.push_back(v);
    histogram->Observe(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  const HistogramSnapshot snap = histogram->Snapshot();
  ASSERT_EQ(snap.count, 1000);
  ASSERT_EQ(snap.samples.size(), 1000u);  // Nothing subsampled.
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double expected = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
    EXPECT_NEAR(snap.Quantile(q), expected, 1e-9) << "q=" << q;
  }
}

TEST_F(TelemetryTest, ReservoirSubsamplingKeepsCountExact) {
  // One thread writes one shard, past both reservoir constants: the
  // lifetime reservoir holds exactly kReservoirCapacity samples, and each
  // one-second window cell at most kWindowReservoirCapacity.
  telemetry::Histogram* histogram = GetHistogram("test.histogram_overflow");
  constexpr int kObservations =
      3 * static_cast<int>(telemetry::kReservoirCapacity);
  const int64_t first_second = telemetry::NowNs() / 1000000000;
  for (int i = 0; i < kObservations; ++i) {
    histogram->Observe(static_cast<double>(i));
  }
  const int64_t seconds = telemetry::NowNs() / 1000000000 - first_second + 1;
  for (const HistogramSnapshot& snap :
       {histogram->Snapshot(), histogram->WindowSnapshot()}) {
    EXPECT_EQ(snap.count, kObservations);  // count/sum/min/max stay exact.
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, kObservations - 1.0);
    // Quantiles remain plausible estimates of the uniform ramp.
    EXPECT_GE(snap.Quantile(0.5), 0.0);
    EXPECT_LE(snap.Quantile(0.5), kObservations - 1.0);
  }
  EXPECT_EQ(histogram->Snapshot().samples.size(),
            telemetry::kReservoirCapacity);
  const size_t window_samples = histogram->WindowSnapshot().samples.size();
  EXPECT_LE(window_samples,
            static_cast<size_t>(seconds) * telemetry::kWindowReservoirCapacity);
  EXPECT_LT(window_samples, static_cast<size_t>(kObservations));
}

TEST_F(TelemetryTest, ShardAggregationUnderThreadPool) {
  // Four pool threads hammer one counter, histogram and gauge; per-thread
  // shards must aggregate without losing a single event, in the lifetime
  // and the window view alike (the whole burst fits inside the window and
  // no ring slot can recycle in milliseconds). Run under TSan via
  // scripts/run_tsan.sh.
  telemetry::Counter* counter = GetCounter("test.mt_counter");
  telemetry::Histogram* histogram = GetHistogram("test.mt_histogram");
  telemetry::Gauge* gauge = GetGauge("test.mt_gauge");
  constexpr int64_t kItems = 20000;
  ThreadPool pool(4);
  pool.ParallelFor(kItems, [&](int64_t i, int slot) {
    counter->Add(1);
    histogram->Observe(static_cast<double>(i % 100));
    gauge->Set(static_cast<double>(slot));
  });
  EXPECT_EQ(counter->Value(), kItems);
  EXPECT_EQ(counter->WindowValue(), kItems);
  for (const HistogramSnapshot& snap :
       {histogram->Snapshot(), histogram->WindowSnapshot()}) {
    EXPECT_EQ(snap.count, kItems);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 99.0);
  }
  EXPECT_GE(gauge->Value(), 0.0);
  EXPECT_LE(gauge->Value(), 3.0);
}

TEST_F(TelemetryTest, SnapshotOrdersMetricsByName) {
  GetCounter("test.z");
  GetCounter("test.a");
  GetCounter("test.m");
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::Global().Snapshot();
  ASSERT_GE(snap.counters.size(), 3u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

// ---------------------------------------------------------------------------
// Quantile edge cases.

TEST_F(TelemetryTest, QuantileOfEmptySnapshotIsZero) {
  const HistogramSnapshot snap = GetHistogram("test.empty_hist")->Snapshot();
  EXPECT_EQ(snap.count, 0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST_F(TelemetryTest, QuantileOfSingleSampleIsThatSample) {
  telemetry::Histogram* histogram = GetHistogram("test.single_hist");
  histogram->Observe(42.5);
  const HistogramSnapshot snap = histogram->Snapshot();
  ASSERT_EQ(snap.count, 1);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.Quantile(q), 42.5) << "q=" << q;
  }
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_EQ(snap.Quantile(-1.0), 42.5);
  EXPECT_EQ(snap.Quantile(2.0), 42.5);
}

TEST_F(TelemetryTest, QuantileBeyondReservoirCapacityStaysMonotoneInRange) {
  // Once count outruns the reservoir the quantiles are estimates, but they
  // must stay monotone in q and inside the observed [min, max] range, in
  // both views.
  telemetry::Histogram* histogram = GetHistogram("test.overflow_quantile");
  constexpr int kObservations =
      2 * static_cast<int>(telemetry::kReservoirCapacity) + 1000;
  for (int i = 0; i < kObservations; ++i) {
    histogram->Observe(static_cast<double>(i));
  }
  for (const HistogramSnapshot& snap :
       {histogram->Snapshot(), histogram->WindowSnapshot()}) {
    EXPECT_EQ(snap.count, kObservations);
    ASSERT_GT(snap.samples.size(), 0u);
    EXPECT_LT(snap.samples.size(), static_cast<size_t>(kObservations));
    double prev = snap.Quantile(0.0);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double cur = snap.Quantile(q);
      EXPECT_GE(cur, prev) << "q=" << q;
      EXPECT_GE(cur, snap.min) << "q=" << q;
      EXPECT_LE(cur, snap.max) << "q=" << q;
      prev = cur;
    }
  }
}

// ---------------------------------------------------------------------------
// Trailing-window views.

TEST_F(TelemetryTest, HistogramWindowMatchesLifetimeWhenRecent) {
  // A burst entirely inside the window retains identical sample sets in
  // both views (nothing overflowed either reservoir), so every statistic
  // — including the interpolated quantiles — is bit-equal.
  telemetry::Histogram* histogram = GetHistogram("test.windowed_hist");
  for (int i = 0; i < 500; ++i) {
    histogram->Observe(static_cast<double>((i * 37) % 500));
  }
  const HistogramSnapshot lifetime = histogram->Snapshot();
  const HistogramSnapshot window = histogram->WindowSnapshot();
  EXPECT_EQ(lifetime.count, 500);
  EXPECT_EQ(window.count, lifetime.count);
  EXPECT_EQ(window.sum, lifetime.sum);
  EXPECT_EQ(window.min, lifetime.min);
  EXPECT_EQ(window.max, lifetime.max);
  EXPECT_EQ(window.bucket_counts, lifetime.bucket_counts);
  ASSERT_EQ(window.samples.size(), lifetime.samples.size());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(window.Quantile(q), lifetime.Quantile(q)) << "q=" << q;
  }
}

TEST_F(TelemetryTest, SnapshotAndReportCarryBothViews) {
  GetCounter("test.report_windowed")->Add(4);
  GetHistogram("test.report_whist")->Observe(1.5);
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::Global().Snapshot();
  bool counter_found = false, histogram_found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.report_windowed") {
      counter_found = true;
      EXPECT_EQ(c.lifetime, 4);
      EXPECT_EQ(c.window, 4);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.lifetime.name == "test.report_whist") {
      histogram_found = true;
      EXPECT_EQ(h.lifetime.count, 1);
      EXPECT_EQ(h.window.count, 1);
    }
  }
  EXPECT_TRUE(counter_found);
  EXPECT_TRUE(histogram_found);

  const std::string report = telemetry::ReportJson("serve");
  JsonChecker checker(report);
  EXPECT_TRUE(checker.Valid()) << report;
  // Lifetimes sit in the regular metric objects; the trailing-window
  // views live under "windows".
  EXPECT_NE(report.find("\"test.report_windowed\":4"), std::string::npos);
  EXPECT_NE(report.find("\"windows\""), std::string::npos);
  EXPECT_NE(report.find("\"window_seconds\":60"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST_F(TelemetryTest, SpansRecordNestingWhenEnabled) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  telemetry::SetEnabled(true);
  {
    SSIN_TRACE_SPAN("outer");
    {
      SSIN_TRACE_SPAN("inner");
    }
    {
      SSIN_TRACE_SPAN("inner");
    }
  }
  const std::vector<telemetry::ThreadTrace> traces =
      telemetry::TraceRecorder::Global().Snapshot();
  // This thread's trace holds inner, inner, outer (recorded at span end).
  int outer_count = 0, inner_count = 0;
  for (const telemetry::ThreadTrace& trace : traces) {
    for (const telemetry::SpanEvent& event : trace.events) {
      ASSERT_LE(event.begin_ns, event.end_ns);
      if (std::string(event.name) == "outer") {
        ++outer_count;
        EXPECT_EQ(event.depth, 1);
      } else if (std::string(event.name) == "inner") {
        ++inner_count;
        EXPECT_EQ(event.depth, 2);
      }
    }
  }
  EXPECT_EQ(outer_count, 1);
  EXPECT_EQ(inner_count, 2);
}

TEST_F(TelemetryTest, SpansSilentWhenRuntimeDisabled) {
  ASSERT_FALSE(telemetry::Enabled());
  {
    SSIN_TRACE_SPAN("should_not_record");
  }
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    EXPECT_TRUE(trace.events.empty());
  }
}

// ---------------------------------------------------------------------------
// Export.

TEST_F(TelemetryTest, ReportIsWellFormedVersionedChromeTrace) {
  if (telemetry::CompiledIn()) telemetry::SetEnabled(true);
  GetCounter("test.report_counter")->Add(7);
  GetGauge("test.report_gauge")->Set(1.5);
  GetHistogram("test.report_histogram")->Observe(3.25);
  {
    SSIN_TRACE_SPAN("report_outer");
    {
      SSIN_TRACE_SPAN("report_inner");
    }
  }
  const std::string report = telemetry::ReportJson("serve");
  JsonChecker checker(report);
  EXPECT_TRUE(checker.Valid()) << report;
  // JsonWriter emits compact JSON: no space after ':'.
  EXPECT_NE(report.find("\"telemetry_version\":1"), std::string::npos);
  EXPECT_NE(report.find("\"kind\":\"serve\""), std::string::npos);
  EXPECT_NE(report.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(report.find("\"test.report_counter\""), std::string::npos);
  EXPECT_NE(report.find("\"test.report_gauge\""), std::string::npos);
  EXPECT_NE(report.find("\"test.report_histogram\""), std::string::npos);
  if (telemetry::CompiledIn()) {
    // Chrome trace_event complete events for both spans.
    EXPECT_NE(report.find("\"report_outer\""), std::string::npos);
    EXPECT_NE(report.find("\"report_inner\""), std::string::npos);
    EXPECT_GE(CountOccurrences(report, "\"ph\":\"X\""), 2);
    EXPECT_GE(CountOccurrences(report, "\"cat\":\"ssin\""), 2);
    EXPECT_GE(CountOccurrences(report, "\"dur\":"), 2);
  }
}

TEST_F(TelemetryTest, WriteReportRoundTripsThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ssin_telemetry_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "telemetry_train.json").string();
  GetCounter("test.disk_counter")->Add(1);
  ASSERT_TRUE(telemetry::WriteReport("train", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string report = buffer.str();
  JsonChecker checker(report);
  EXPECT_TRUE(checker.Valid());
  EXPECT_NE(report.find("\"kind\":\"train\""), std::string::npos);
  EXPECT_NE(report.find("\"test.disk_counter\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(TelemetryTest, ResetAllClearsMetricsAndSpans) {
  if (telemetry::CompiledIn()) telemetry::SetEnabled(true);
  GetCounter("test.reset_counter")->Add(5);
  {
    SSIN_TRACE_SPAN("reset_span");
  }
  telemetry::ResetAll();
  EXPECT_EQ(GetCounter("test.reset_counter")->Value(), 0);
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    EXPECT_TRUE(trace.events.empty());
  }
}

// ---------------------------------------------------------------------------
// Request tracing: trace ids on spans and Chrome flow-event export.

TEST_F(TelemetryTest, ScopedTraceTagsSpansAndExportsFlowEvents) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  telemetry::SetEnabled(true);
  const uint64_t trace_id = telemetry::NextTraceId();
  ASSERT_NE(trace_id, 0u);
  {
    telemetry::ScopedTrace trace(trace_id);
    EXPECT_EQ(telemetry::CurrentTraceId(), trace_id);
    {
      SSIN_TRACE_SPAN("flow_first");
    }
    {
      SSIN_TRACE_SPAN("flow_second");
    }
  }
  EXPECT_EQ(telemetry::CurrentTraceId(), 0u);  // Restored on scope exit.

  int tagged = 0;
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    for (const telemetry::SpanEvent& event : trace.events) {
      if (std::string(event.name) == "flow_first" ||
          std::string(event.name) == "flow_second") {
        EXPECT_EQ(event.trace_id, trace_id);
        ++tagged;
      }
    }
  }
  EXPECT_EQ(tagged, 2);

  // Two spans sharing the id stitch into one flow: a start ("s") and a
  // binding finish ("f"), both in the ssin.flow category with id =
  // trace_id, plus trace_id args on the X slices themselves.
  const std::string report = telemetry::ReportJson("serve");
  JsonChecker checker(report);
  EXPECT_TRUE(checker.Valid()) << report;
  EXPECT_EQ(CountOccurrences(report, "\"ph\":\"s\""), 1) << report;
  EXPECT_EQ(CountOccurrences(report, "\"ph\":\"f\""), 1) << report;
  EXPECT_GE(CountOccurrences(report, "\"cat\":\"ssin.flow\""), 2);
  EXPECT_GE(CountOccurrences(
                report, "\"trace_id\":" + std::to_string(trace_id)),
            2);
}

TEST_F(TelemetryTest, SingleSpanTraceEmitsNoFlowArrows) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  telemetry::SetEnabled(true);
  {
    telemetry::ScopedTrace trace(telemetry::NextTraceId());
    SSIN_TRACE_SPAN("flow_lonely");
  }
  // A flow with one endpoint would render as a dangling arrow; the
  // exporter drops it and keeps only the tagged slice.
  const std::string report = telemetry::ReportJson("serve");
  EXPECT_EQ(CountOccurrences(report, "\"ph\":\"s\""), 0) << report;
  EXPECT_EQ(CountOccurrences(report, "\"ph\":\"f\""), 0) << report;
  EXPECT_GE(CountOccurrences(report, "\"trace_id\":"), 1);
}

TEST_F(TelemetryTest, ScopedTraceNestsAndRestores) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  const uint64_t outer_id = telemetry::NextTraceId();
  const uint64_t inner_id = telemetry::NextTraceId();
  EXPECT_NE(outer_id, inner_id);
  {
    telemetry::ScopedTrace outer(outer_id);
    {
      telemetry::ScopedTrace inner(inner_id);
      EXPECT_EQ(telemetry::CurrentTraceId(), inner_id);
    }
    EXPECT_EQ(telemetry::CurrentTraceId(), outer_id);
  }
  EXPECT_EQ(telemetry::CurrentTraceId(), 0u);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

// Minimal checker for the exposition subset we emit: `# TYPE` comments,
// bare-name samples, and histogram `_bucket{le="..."}` series with
// cumulative counts ending at +Inf. Returns "" when the text parses, a
// diagnostic otherwise.
std::string CheckPrometheusText(const std::string& text) {
  auto valid_name = [](const std::string& name) {
    if (name.empty() ||
        std::isdigit(static_cast<unsigned char>(name[0]))) {
      return false;
    }
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) return false;
    }
    return true;
  };
  std::istringstream lines(text);
  std::string line;
  std::string open_histogram;  // From the last `# TYPE ... histogram`.
  int64_t cumulative = -1;
  bool saw_inf = false;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::string where =
        "line " + std::to_string(line_no) + ": " + line;
    if (line.empty()) return "blank " + where;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name, type;
      comment >> hash >> kind >> name >> type;
      if (hash != "#" || kind != "TYPE" || !valid_name(name) ||
          (type != "counter" && type != "gauge" && type != "histogram")) {
        return "bad comment at " + where;
      }
      if (!open_histogram.empty() && !saw_inf) {
        return "histogram " + open_histogram + " ended without +Inf";
      }
      open_histogram = type == "histogram" ? name : "";
      cumulative = -1;
      saw_inf = false;
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) return "no value at " + where;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);  // Accepts +Inf / NaN spellings.
    if (end == value.c_str() || *end != '\0') return "bad value at " + where;
    std::string series = line.substr(0, space);
    std::string labels;
    const size_t brace = series.find('{');
    if (brace != std::string::npos) {
      if (series.back() != '}') return "unterminated labels at " + where;
      labels = series.substr(brace + 1, series.size() - brace - 2);
      series = series.substr(0, brace);
    }
    if (!valid_name(series)) return "bad metric name at " + where;
    if (!labels.empty()) {
      // The only labelled series we emit are histogram buckets.
      if (open_histogram.empty() || series != open_histogram + "_bucket" ||
          labels.rfind("le=\"", 0) != 0 || labels.back() != '"') {
        return "unexpected labels at " + where;
      }
      const int64_t count = std::strtoll(value.c_str(), nullptr, 10);
      if (count < cumulative) return "non-cumulative bucket at " + where;
      cumulative = count;
      if (labels.substr(4, labels.size() - 5) == "+Inf") saw_inf = true;
    }
  }
  if (!open_histogram.empty() && !saw_inf) {
    return "histogram " + open_histogram + " ended without +Inf";
  }
  return "";
}

TEST_F(TelemetryTest, PrometheusTextParsesAndCoversEveryMetricFamily) {
  GetCounter("test.prom_counter")->Add(3);
  GetGauge("test.prom/gauge")->Set(-2.5);  // '/' must sanitize to '_'.
  GetHistogram("test.prom_hist")->Observe(5.0);

  const std::string text = telemetry::PrometheusText();
  EXPECT_EQ(CheckPrometheusText(text), "") << text;
  EXPECT_NE(text.find("ssin_test_prom_gauge "), std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_hist_bucket{le=\"5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_hist_count 1"), std::string::npos);
  // A counter exports its lifetime as the counter and the trailing window
  // as a _last60s gauge; a histogram adds _last60s_{count,sum,p50,p99}
  // gauges next to the lifetime histogram.
  EXPECT_NE(text.find("ssin_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_counter_last60s 3"), std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_hist_last60s_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("ssin_test_prom_hist_last60s_p99 5"),
            std::string::npos);
}

TEST_F(TelemetryTest, WritePrometheusTextRoundTripsThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ssin_telemetry_prom_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "metrics.prom").string();
  GetCounter("test.prom_disk")->Add(1);
  ASSERT_TRUE(telemetry::WritePrometheusText(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(CheckPrometheusText(text), "") << text;
  EXPECT_NE(text.find("ssin_test_prom_disk 1"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The no-perturbation pin: telemetry ON changes no training numerics.

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 16;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 1;
  config.num_heads = 1;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 16;
  return config;
}

TrainConfig TinyTraining() {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 4;
  config.warmup_steps = 4;
  config.lr_factor = 0.2;
  config.seed = 23;
  return config;
}

std::pair<std::vector<double>, std::vector<double>> TrainTiny(
    const SpatialDataset& data, const std::vector<int>& train_ids) {
  SsinInterpolator ssin(TinyModel(), TinyTraining());
  ssin.Fit(data, train_ids);
  std::vector<double> flat;
  for (Parameter* p : ssin.model()->Parameters()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      flat.push_back(p->value[i]);
    }
  }
  return {ssin.train_stats().epoch_loss, flat};
}

TEST_F(TelemetryTest, TrainingBitIdenticalWithTelemetryOnAndOff) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 9);
  std::vector<int> train_ids;
  for (int i = 0; i < 12; ++i) train_ids.push_back(i);

  telemetry::SetEnabled(false);
  const auto [off_loss, off_params] = TrainTiny(data, train_ids);
  ASSERT_FALSE(telemetry::Enabled());

  telemetry::SetEnabled(true);
  const auto [on_loss, on_params] = TrainTiny(data, train_ids);
  if (telemetry::CompiledIn()) {
    EXPECT_TRUE(telemetry::Enabled());
    EXPECT_GT(GetCounter("train.steps")->Value(), 0);
  }

  // Bit-identical, not just close: the instrumentation only reads state.
  ASSERT_EQ(off_loss.size(), on_loss.size());
  for (size_t e = 0; e < off_loss.size(); ++e) {
    EXPECT_EQ(off_loss[e], on_loss[e]) << "epoch " << e;
  }
  ASSERT_EQ(off_params.size(), on_params.size());
  for (size_t i = 0; i < off_params.size(); ++i) {
    EXPECT_EQ(off_params[i], on_params[i]) << "parameter scalar " << i;
  }
}

// Direct keys of the first `"member":{...}` object in compact JSON, in
// document order.
std::vector<std::string> MemberKeys(const std::string& json,
                                    const std::string& member) {
  std::vector<std::string> keys;
  const std::string opener = "\"" + member + "\":{";
  size_t pos = json.find(opener);
  if (pos == std::string::npos) return keys;
  pos += opener.size();
  int depth = 1;
  while (pos < json.size() && depth > 0) {
    const char c = json[pos];
    if (c == '"') {
      size_t end = pos + 1;
      while (end < json.size() && json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (depth == 1 && end + 1 < json.size() && json[end + 1] == ':') {
        keys.push_back(json.substr(pos + 1, end - pos - 1));
      }
      pos = end + 1;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ++pos;
  }
  return keys;
}

// The Prometheus family name of a registry metric name.
std::string PromName(const std::string& name) {
  std::string out = "ssin_";
  for (char c : name) {
    const bool ok =
        std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

TEST_F(TelemetryTest, EveryCounterAndHistogramReportsItsWindow) {
  // A telemetry-on fit, hot swap and serve register the train.*,
  // thread_pool.* and serve.* series. Every counter and histogram in the
  // report must carry its last-60s view under "windows", and export a
  // _last60s gauge to Prometheus.
  telemetry::SetEnabled(true);
  RainfallGenerator gen(TinyRegion());
  const SpatialDataset data = gen.GenerateHours(8, 9);
  std::vector<int> observed_ids, query_ids;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i < 12 ? observed_ids : query_ids).push_back(i);
  }
  SsinInterpolator source(TinyModel(), TinyTraining());
  source.Fit(data, observed_ids);
  auto active = std::make_shared<SsinInterpolator>(TinyModel(),
                                                   TinyTraining());
  auto standby = std::make_shared<SsinInterpolator>(TinyModel(),
                                                    TinyTraining());
  active->Prepare(data, observed_ids);
  standby->Prepare(data, observed_ids);
  {
    serve::InterpolationServer server;
    server.registry().Register("tiny", active, standby);
    ASSERT_TRUE(server.registry().Promote("tiny", source));
    for (int t = 0; t < data.num_timestamps(); ++t) {
      std::vector<double> values;
      ASSERT_EQ(server.Interpolate({"tiny", data.Values(t), observed_ids,
                                    query_ids},
                                   &values),
                serve::SubmitStatus::kAccepted);
    }
    std::vector<double> values;
    EXPECT_EQ(server.Interpolate({"absent", data.Values(0), observed_ids,
                                  query_ids},
                                 &values),
              serve::SubmitStatus::kUnknownModel);
  }
  telemetry::SetEnabled(false);

  const std::string report = telemetry::ReportJson("serve");
  ASSERT_TRUE(JsonChecker(report).Valid());
  const std::vector<std::string> counters = MemberKeys(report, "counters");
  const std::vector<std::string> histograms =
      MemberKeys(report, "histograms");
  const std::vector<std::string> windows = MemberKeys(report, "windows");
  EXPECT_NE(std::find(counters.begin(), counters.end(),
                      "serve.layout_cache.misses"),
            counters.end());
  EXPECT_NE(
      std::find(histograms.begin(), histograms.end(), "serve.batch_size"),
      histograms.end());
  EXPECT_NE(std::find(counters.begin(), counters.end(), "train.steps"),
            counters.end());
  const std::string prometheus = telemetry::PrometheusText();
  for (const std::string& name : counters) {
    EXPECT_NE(std::find(windows.begin(), windows.end(), name), windows.end())
        << name;
    EXPECT_NE(
        prometheus.find("# TYPE " + PromName(name) + "_last60s gauge\n"),
        std::string::npos)
        << name;
  }
  for (const std::string& name : histograms) {
    EXPECT_NE(std::find(windows.begin(), windows.end(), name), windows.end())
        << name;
    EXPECT_NE(prometheus.find("# TYPE " + PromName(name) +
                              "_last60s_count gauge\n"),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(windows.size(), counters.size() + histograms.size());
}

}  // namespace
}  // namespace ssin
