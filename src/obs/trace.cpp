#include "obs/trace.hpp"

namespace gendpr::obs {

SpanId TraceRecorder::begin_span(std::string name, SpanId parent) {
  const double start = since_epoch_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size();
  span.parent = parent < spans_.size() ? parent : kNoSpan;
  span.name = std::move(name);
  span.start_ms = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRecorder::end_span(SpanId id) {
  const double now = since_epoch_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= spans_.size()) return;
  Span& span = spans_[id];
  if (span.duration_ms >= 0) return;  // already closed
  span.duration_ms = now - span.start_ms;
}

std::vector<Span> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

JsonValue TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::array();
  for (const Span& span : spans_) {
    JsonValue entry = JsonValue::object();
    entry.set("id", static_cast<std::uint64_t>(span.id));
    entry.set("parent",
              span.parent == kNoSpan
                  ? JsonValue(nullptr)
                  : JsonValue(static_cast<std::uint64_t>(span.parent)));
    entry.set("name", span.name);
    entry.set("start_ms", span.start_ms);
    entry.set("duration_ms", span.duration_ms < 0
                                 ? JsonValue(nullptr)
                                 : JsonValue(span.duration_ms));
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace gendpr::obs
