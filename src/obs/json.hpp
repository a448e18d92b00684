// Minimal JSON document model for the observability layer.
//
// Run reports, metric snapshots, and trace dumps all serialize through this
// one value type so every telemetry artifact shares a single, dependency-free
// code path. The writer emits deterministic output (object keys keep their
// insertion order). Nothing shipped reads JSON back: the tests' reader lives
// in tests/obs/json_parse.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>


namespace gendpr::obs {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object: report sections appear in the order they are
  /// written, which keeps diffs between runs readable.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : storage_(nullptr) {}
  JsonValue(std::nullptr_t) : storage_(nullptr) {}  // NOLINT
  JsonValue(bool value) : storage_(value) {}        // NOLINT
  JsonValue(double value) : storage_(value) {}      // NOLINT
  JsonValue(std::int64_t value)                     // NOLINT
      : storage_(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value)                    // NOLINT
      : storage_(static_cast<double>(value)) {}
  JsonValue(int value) : storage_(static_cast<double>(value)) {}  // NOLINT
  JsonValue(unsigned value)                                       // NOLINT
      : storage_(static_cast<double>(value)) {}
  JsonValue(std::string value) : storage_(std::move(value)) {}    // NOLINT
  JsonValue(const char* value) : storage_(std::string(value)) {}  // NOLINT
  JsonValue(Array value) : storage_(std::move(value)) {}          // NOLINT
  JsonValue(Object value) : storage_(std::move(value)) {}         // NOLINT

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  bool is_null() const noexcept;
  bool is_bool() const noexcept;
  bool is_number() const noexcept;
  bool is_string() const noexcept;
  bool is_array() const noexcept;
  bool is_object() const noexcept;

  bool as_bool() const { return std::get<bool>(storage_); }
  double as_number() const { return std::get<double>(storage_); }
  const std::string& as_string() const {
    return std::get<std::string>(storage_);
  }
  const Array& as_array() const { return std::get<Array>(storage_); }
  Array& as_array() { return std::get<Array>(storage_); }
  const Object& as_object() const { return std::get<Object>(storage_); }
  Object& as_object() { return std::get<Object>(storage_); }

  /// Object helpers. set() replaces an existing key or appends a new one;
  /// find() returns nullptr when the key is absent (or this is not an
  /// object), so lookups chain without exceptions.
  void set(std::string_view key, JsonValue value);
  const JsonValue* find(std::string_view key) const noexcept;

  /// Array helper.
  void push_back(JsonValue value);

  /// Serializes the document. indent 0 produces compact single-line output;
  /// a positive indent pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      storage_;
};

}  // namespace gendpr::obs
