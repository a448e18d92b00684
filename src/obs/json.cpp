#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace gendpr::obs {

bool JsonValue::is_null() const noexcept {
  return std::holds_alternative<std::nullptr_t>(storage_);
}
bool JsonValue::is_bool() const noexcept {
  return std::holds_alternative<bool>(storage_);
}
bool JsonValue::is_number() const noexcept {
  return std::holds_alternative<double>(storage_);
}
bool JsonValue::is_string() const noexcept {
  return std::holds_alternative<std::string>(storage_);
}
bool JsonValue::is_array() const noexcept {
  return std::holds_alternative<Array>(storage_);
}
bool JsonValue::is_object() const noexcept {
  return std::holds_alternative<Object>(storage_);
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (!is_object()) storage_ = Object{};
  for (auto& [existing, slot] : std::get<Object>(storage_)) {
    if (existing == key) {
      slot = std::move(value);
      return;
    }
  }
  std::get<Object>(storage_).emplace_back(std::string(key), std::move(value));
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [existing, slot] : std::get<Object>(storage_)) {
    if (existing == key) return &slot;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue value) {
  if (!is_array()) storage_ = Array{};
  std::get<Array>(storage_).push_back(std::move(value));
}

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no inf/nan; null keeps parsers alive
    return;
  }
  // Integral values (counters, byte counts) print without a fraction.
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

static void dump_value(const JsonValue& value, std::string& out, int indent,
                       int depth) {
  const auto newline_indent = [&](int levels) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    append_number(out, value.as_number());
  } else if (value.is_string()) {
    append_escaped(out, value.as_string());
  } else if (value.is_array()) {
    const auto& items = value.as_array();
    if (items.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      newline_indent(depth + 1);
      dump_value(items[i], out, indent, depth + 1);
    }
    newline_indent(depth);
    out += ']';
  } else {
    const auto& fields = value.as_object();
    if (fields.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out += ',';
      newline_indent(depth + 1);
      append_escaped(out, fields[i].first);
      out += indent > 0 ? ": " : ":";
      dump_value(fields[i].second, out, indent, depth + 1);
    }
    newline_indent(depth);
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

}  // namespace gendpr::obs
