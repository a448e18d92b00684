// JSON reader for tests: parses the documents the observability layer
// writes (run reports, metric snapshots, traces) so tests can round-trip
// them. No shipped binary reads JSON; tools/check_report.py validates
// reports in CI.
#pragma once

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gendpr::obs {

using common::Errc;
using common::make_error;
using common::Result;

namespace detail {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> run() {
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  common::Error fail(const std::string& what) const {
    return make_error(Errc::bad_message,
                      "json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value() {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto text = parse_string();
      if (!text.ok()) return text.error();
      return JsonValue(std::move(text).take());
    }
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue(nullptr);
    return parse_number();
  }

  Result<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonValue::Object fields;
    skip_whitespace();
    if (consume('}')) return JsonValue(std::move(fields));
    for (;;) {
      skip_whitespace();
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' in object");
      auto value = parse_value();
      if (!value.ok()) return value;
      fields.emplace_back(std::move(key).take(), std::move(value).take());
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue(std::move(fields));
      return fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonValue::Array items;
    skip_whitespace();
    if (consume(']')) return JsonValue(std::move(items));
    for (;;) {
      auto value = parse_value();
      if (!value.ok()) return value;
      items.push_back(std::move(value).take());
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue(std::move(items));
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return fail("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; lone surrogates pass through as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail


/// Parses a complete JSON document (trailing garbage is an error).
inline Result<JsonValue> parse_json(std::string_view text) {
  return detail::Parser(text).run();
}

/// Inverse of TraceRecorder::to_json.
inline Result<std::vector<Span>> spans_from_json(const JsonValue& json) {
  if (!json.is_array()) {
    return make_error(Errc::bad_message, "trace: expected a span array");
  }
  std::vector<Span> spans;
  spans.reserve(json.as_array().size());
  for (const JsonValue& entry : json.as_array()) {
    const JsonValue* id = entry.find("id");
    const JsonValue* parent = entry.find("parent");
    const JsonValue* name = entry.find("name");
    const JsonValue* start = entry.find("start_ms");
    const JsonValue* duration = entry.find("duration_ms");
    if (id == nullptr || !id->is_number() || parent == nullptr ||
        name == nullptr || !name->is_string() || start == nullptr ||
        !start->is_number() || duration == nullptr) {
      return make_error(Errc::bad_message, "trace: malformed span entry");
    }
    Span span;
    span.id = static_cast<SpanId>(id->as_number());
    span.parent = parent->is_number() ? static_cast<SpanId>(parent->as_number())
                                      : kNoSpan;
    span.name = name->as_string();
    span.start_ms = start->as_number();
    span.duration_ms = duration->is_number() ? duration->as_number() : -1;
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace gendpr::obs
