#ifndef SSIN_PERFBENCH_UTIL_H_
#define SSIN_PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json_writer.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and budgets so every workload and check runs in seconds
  /// (the benchmark's own smoke test); its figures are not comparable.
  bool short_mode = false;
  std::string out_dir = ".bench_out";
};

/// Monotonic nanoseconds on the same clock as telemetry::NowNs, so spans
/// exported through the telemetry trace recorder line up.
int64_t NowNs();
double MsBetween(int64_t begin_ns, int64_t end_ns);

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// CPUs this process may run on (sched_getaffinity).
int AvailableCpus();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries
/// sort last, so a failed request counts as missing every limit. Returns
/// NaN for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Quantiles that estimate what the program does when the shared host
/// leaves it alone. Interference from other tenants only ever slows a
/// sample down, so across the repeated samples of one run (closed-loop
/// slices, training epochs, open-loop windows) the fast tail is the
/// program's own figure and the slow tail is the host's: rates report
/// their 90th percentile, costs their 10th.
double QuietRate(const std::vector<double>& values);
double QuietCost(const std::vector<double>& values);

/// One named figure with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> metric map. Every result a run prints goes through one
/// of these, so the human-readable lines and the final JSON line agree.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Collects the failures of the output checks; a run with any failure
/// prints correct=false and exits non-zero.
class Checks {
 public:
  /// Records `what` as passed or failed and echoes it to stderr.
  void Expect(bool ok, const std::string& what);
  bool all_passed() const { return failures_.empty(); }
  const std::vector<std::string>& passed() const { return passed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> passed_;
  std::vector<std::string> failures_;
};

/// An ordered JSON object assembled from already-encoded values, so
/// nested sections (samples, per-phase counts) compose without a DOM.
class JsonObject {
 public:
  void Number(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void String(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  /// `json` must be one complete JSON value.
  void Raw(const std::string& key, const std::string& json);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Summary of a latency-like sample as a JSON object
/// {"count", "p50", "p99", "max", "mean"} (non-finite values count in
/// `count` and sort last).
std::string SampleJson(const std::vector<double>& values);

/// Seeded hash used to derive independent sub-seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // SSIN_PERFBENCH_UTIL_H_
