#ifndef SSIN_COMMON_JSON_WRITER_H_
#define SSIN_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ssin {

/// Minimal streaming JSON builder for the benchmark result files
/// (BENCH_*.json). Produces strictly valid JSON: strings are escaped and
/// non-finite doubles are emitted as null — JSON has no inf/nan tokens,
/// and a bare `inf` in a results file breaks every downstream parser.
///
/// Usage is push-based; the writer tracks nesting and inserts commas:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("speedup"); w.Number(2.4);
///   w.Key("nse");     w.Number(metrics.nse);  // null when NaN
///   w.EndObject();
///   write w.str() to disk.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object member key; must be directly followed by exactly one value
  /// (or container).
  void Key(const std::string& name);

  void String(const std::string& value);
  void Number(double value);  ///< null when !isfinite(value).
  void Int(int64_t value);
  void Bool(bool value);

  /// The document so far. Valid JSON once every container is closed.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();
  void Escape(const std::string& value);

  std::string out_;
  /// One entry per open container: whether it already holds a value
  /// (controls comma insertion). `pending_key_` suppresses the comma
  /// between a key and its value.
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

/// Writes `content` to `path` atomically enough for bench output (write
/// then rename is overkill here; this is a plain overwrite). Returns false
/// on IO failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace ssin

#endif  // SSIN_COMMON_JSON_WRITER_H_
