#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/telemetry.h"

namespace perfbench {

int64_t NowNs() { return ssin::telemetry::NowNs(); }

double MsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (!std::isfinite(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double QuietRate(const std::vector<double>& values) {
  return Quantile(values, 0.9);
}

double QuietCost(const std::vector<double>& values) {
  return Quantile(values, 0.1);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Checks::Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  (ok ? passed_ : failures_).push_back(what);
}

void JsonObject::Number(const std::string& key, double value) {
  ssin::JsonWriter w;
  w.Number(value);
  entries_.emplace_back(key, w.str());
}

void JsonObject::Int(const std::string& key, int64_t value) {
  entries_.emplace_back(key, std::to_string(value));
}

void JsonObject::String(const std::string& key, const std::string& value) {
  ssin::JsonWriter w;
  w.String(value);
  entries_.emplace_back(key, w.str());
}

void JsonObject::Bool(const std::string& key, bool value) {
  entries_.emplace_back(key, value ? "true" : "false");
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  entries_.emplace_back(key, json);
}

std::string JsonObject::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    ssin::JsonWriter key;
    key.String(entries_[i].first);
    if (i > 0) out += ",";
    out += key.str() + ":" + entries_[i].second;
  }
  return out + "}";
}

namespace {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace

std::string SampleJson(const std::vector<double>& values) {
  ssin::JsonWriter w;
  w.BeginObject();
  w.Key("count");
  w.Int(static_cast<int64_t>(values.size()));
  w.Key("p50");
  w.Number(Quantile(values, 0.5));
  w.Key("p99");
  w.Number(Quantile(values, 0.99));
  w.Key("max");
  w.Number(values.empty() ? std::numeric_limits<double>::quiet_NaN()
                          : *std::max_element(values.begin(), values.end()));
  w.Key("mean");
  w.Number(Mean(values));
  w.EndObject();
  return w.str();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
