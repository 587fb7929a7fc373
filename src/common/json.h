// Minimal JSON support shared by the benches and the service layer: an
// incremental writer (formerly bench/bench_json.h) and a strict
// recursive-descent parser. Both are stdlib-only — the service's REST
// bodies, the bench BENCH_*.json artifacts, and the canonical
// ClusteringResult serialization (clustering/result_json.h) all go through
// this one file, so there is exactly one JSON dialect in the repo.
#ifndef UCLUST_COMMON_JSON_H_
#define UCLUST_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace uclust::common {

/// Incremental writer producing one JSON document. Values are emitted in
/// call order; the caller is responsible for balanced Begin/End pairs.
class JsonWriter {
 public:
  std::string& str() { return out_; }

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  /// Starts `"key": ` inside an object; follow with a value call.
  void Key(const std::string& key) {
    Comma();
    out_ += '"';
    Escape(key);
    out_ += "\": ";
    pending_value_ = true;
  }

  void Value(const std::string& v) {
    Comma();
    out_ += '"';
    Escape(v);
    out_ += '"';
  }
  void Value(const char* v) { Value(std::string(v)); }
  /// Compact double formatting (%.6g) — the bench-artifact default, where
  /// timings dominate and six significant digits read well.
  void Value(double v) { Number(v, "%.6g"); }
  void Value(int64_t v) {
    Comma();
    out_ += std::to_string(v);
  }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(std::size_t v) { Value(static_cast<int64_t>(v)); }
  void Value(bool v) {
    Comma();
    out_ += v ? "true" : "false";
  }
  /// Round-trippable double formatting (%.17g) — for quantities whose exact
  /// bits matter downstream (the clustering objective a fingerprint hashes).
  void ValueExact(double v) { Number(v, "%.17g"); }
  /// Splices a pre-rendered JSON value verbatim (e.g. the output of
  /// clustering::ResultToJson) as the next value. The caller guarantees
  /// `json` is itself well formed.
  void Raw(const std::string& json) {
    Comma();
    out_ += json;
  }

  /// Convenience: Key + Value.
  template <typename T>
  void KV(const std::string& key, const T& v) {
    Key(key);
    Value(v);
  }
  /// Convenience: Key + ValueExact.
  void KVExact(const std::string& key, double v) {
    Key(key);
    ValueExact(v);
  }

  /// Writes the document to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    std::fclose(f);
    return ok;
  }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (need_comma_) out_ += ", ";
    need_comma_ = true;
  }
  void Open(char c) {
    Comma();
    out_ += c;
    need_comma_ = false;
  }
  void Close(char c) {
    out_ += c;
    need_comma_ = true;
    pending_value_ = false;
  }
  void Number(double v, const char* fmt) {
    Comma();
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), fmt, v);
      out_ += buf;
    } else {
      out_ += "null";
    }
  }
  void Escape(const std::string& s);

  std::string out_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

/// One parsed JSON value. Object member order is preserved (the service's
/// JobSpec applies engine knobs in document order, later keys winning).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// The boolean (or `def` for non-booleans).
  bool AsBool(bool def = false) const {
    return is_bool() ? bool_ : def;
  }
  /// The number (or `def` for non-numbers).
  double AsDouble(double def = 0.0) const {
    return is_number() ? number_ : def;
  }
  /// True for a number parsed from an integer token (no fraction or
  /// exponent) that fits int64: AsInt() returns it exactly, even above 2^53
  /// where the double AsDouble() returns has rounded it.
  bool is_int() const { return is_int_; }
  /// The number as int64: exact when is_int(), else the double truncated
  /// (or `def` for non-numbers).
  int64_t AsInt(int64_t def = 0) const {
    if (is_int_) return int_;
    return is_number() ? static_cast<int64_t>(number_) : def;
  }
  /// The string ("" for non-strings).
  const std::string& AsString() const { return string_; }

  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// Object member lookup; nullptr when absent or not an object. The LAST
  /// occurrence wins when a key repeats, matching "later keys override".
  const JsonValue* Find(const std::string& key) const {
    const JsonValue* found = nullptr;
    for (const auto& [k, v] : members_) {
      if (k == key) found = &v;
    }
    return found;
  }

  // Construction (used by the parser and by tests).
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue j;
    j.type_ = Type::kBool;
    j.bool_ = v;
    return j;
  }
  static JsonValue Number(double v) {
    JsonValue j;
    j.type_ = Type::kNumber;
    j.number_ = v;
    return j;
  }
  static JsonValue Integer(int64_t v) {
    JsonValue j = Number(static_cast<double>(v));
    j.is_int_ = true;
    j.int_ = v;
    return j;
  }
  static JsonValue String(std::string v) {
    JsonValue j;
    j.type_ = Type::kString;
    j.string_ = std::move(v);
    return j;
  }
  static JsonValue Array(std::vector<JsonValue> items) {
    JsonValue j;
    j.type_ = Type::kArray;
    j.items_ = std::move(items);
    return j;
  }
  static JsonValue Object(
      std::vector<std::pair<std::string, JsonValue>> members) {
    JsonValue j;
    j.type_ = Type::kObject;
    j.members_ = std::move(members);
    return j;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool is_int_ = false;
  int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document. Strict: the whole input must be
/// consumed (trailing garbage is an error), nesting is capped at 64 levels,
/// and only valid escape sequences are accepted (\uXXXX decodes to UTF-8;
/// surrogate pairs are combined). Integer tokens that fit int64 keep their
/// exact value (JsonValue::is_int). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace uclust::common

#endif  // UCLUST_COMMON_JSON_H_
