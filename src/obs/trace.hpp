// Hierarchical phase tracing over the steady clock.
//
// A TraceRecorder collects spans — named, nested intervals — from every layer
// of a federation run: the runner opens the root "study" span, the leader
// opens one span per protocol step, and the coordinator opens one child span
// per collusion combination inside each analysis phase (study → phase →
// combination). Spans may begin and end on different threads than their
// parents (the LR phase evaluates combinations on a pool), so the recorder is
// thread-safe and parents are passed explicitly rather than inferred from
// thread-local state.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace gendpr::obs {

using SpanId = std::size_t;
inline constexpr SpanId kNoSpan = static_cast<SpanId>(-1);

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  /// Start offset from the recorder's construction, in milliseconds.
  double start_ms = 0;
  /// Negative while the span is still open.
  double duration_ms = -1;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under `parent` (kNoSpan = top level). Returns its id.
  SpanId begin_span(std::string name, SpanId parent = kNoSpan);

  /// Closes the span. Closing an already-closed or unknown id is a no-op.
  void end_span(SpanId id);

  /// Snapshot of all spans recorded so far.
  std::vector<Span> spans() const;

  std::size_t span_count() const;

  /// Flat array of {"id","parent","name","start_ms","duration_ms"}; parent
  /// is null for top-level spans. Open spans carry a null duration.
  JsonValue to_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  double since_epoch_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: ends on destruction. Tolerates a null recorder so call sites
/// can stay unconditional when observability is not attached.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceRecorder* recorder, std::string name, SpanId parent = kNoSpan)
      : recorder_(recorder),
        id_(recorder == nullptr
                ? kNoSpan
                : recorder->begin_span(std::move(name), parent)) {}
  ~ScopedSpan() { end(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept
      : recorder_(other.recorder_), id_(other.id_) {
    other.recorder_ = nullptr;
    other.id_ = kNoSpan;
  }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      end();
      recorder_ = other.recorder_;
      id_ = other.id_;
      other.recorder_ = nullptr;
      other.id_ = kNoSpan;
    }
    return *this;
  }

  /// Id to parent child spans under; kNoSpan when no recorder is attached.
  SpanId id() const noexcept { return id_; }

  void end() {
    if (recorder_ != nullptr && id_ != kNoSpan) recorder_->end_span(id_);
    recorder_ = nullptr;
    id_ = kNoSpan;
  }

 private:
  TraceRecorder* recorder_ = nullptr;
  SpanId id_ = kNoSpan;
};

}  // namespace gendpr::obs
