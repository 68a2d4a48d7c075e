#include "common/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace ssin {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(false);
}

void JsonWriter::EndObject() {
  SSIN_CHECK(!has_value_.empty() && !pending_key_);
  has_value_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(false);
}

void JsonWriter::EndArray() {
  SSIN_CHECK(!has_value_.empty() && !pending_key_);
  has_value_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(const std::string& name) {
  SSIN_CHECK(!pending_key_) << "key '" << name << "' follows another key";
  BeforeValue();
  Escape(name);
  out_ += ':';
  pending_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  BeforeValue();
  Escape(value);
}

void JsonWriter::Number(double value) {
  // JSON has no representation for inf/nan: emit null so result files
  // stay parseable (the undefined-NSE case of eval/metrics.h).
  if (!std::isfinite(value)) {
    BeforeValue();
    out_ += "null";
    return;
  }
  BeforeValue();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Escape(const std::string& value) {
  out_ += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out_ += buffer;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace ssin
