#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "json_parse.hpp"

#include <thread>
#include <vector>

namespace gendpr::obs {
namespace {

TEST(ObsTraceTest, SpansNestViaExplicitParents) {
  TraceRecorder recorder;
  const SpanId study = recorder.begin_span("study");
  const SpanId phase = recorder.begin_span("phase.maf", study);
  const SpanId combo = recorder.begin_span("maf.combination.0", phase);
  recorder.end_span(combo);
  recorder.end_span(phase);
  recorder.end_span(study);

  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "study");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, study);
  EXPECT_EQ(spans[2].parent, phase);
  for (const auto& span : spans) {
    EXPECT_GE(span.duration_ms, 0.0) << span.name;
    EXPECT_GE(span.start_ms, 0.0) << span.name;
  }
  // Children cannot start before their parents.
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_LE(spans[1].start_ms, spans[2].start_ms);
}

TEST(ObsTraceTest, OpenSpansAndDoubleEnd) {
  TraceRecorder recorder;
  const SpanId open = recorder.begin_span("still.running");
  EXPECT_LT(recorder.spans()[0].duration_ms, 0.0);  // open marker
  recorder.end_span(open);
  const double first = recorder.spans()[0].duration_ms;
  recorder.end_span(open);                   // no-op
  recorder.end_span(static_cast<SpanId>(999));  // unknown id: no-op
  EXPECT_EQ(recorder.spans()[0].duration_ms, first);
}

TEST(ObsTraceTest, BogusParentIsSanitizedToTopLevel) {
  TraceRecorder recorder;
  const SpanId id = recorder.begin_span("orphan", static_cast<SpanId>(123));
  recorder.end_span(id);
  EXPECT_EQ(recorder.spans()[0].parent, kNoSpan);
}

TEST(ObsTraceTest, JsonRoundTrip) {
  TraceRecorder recorder;
  const SpanId study = recorder.begin_span("study");
  const SpanId phase = recorder.begin_span("phase.ld", study);
  recorder.end_span(phase);
  recorder.end_span(study);
  const SpanId open = recorder.begin_span("unfinished");
  (void)open;

  const auto round_tripped = spans_from_json(recorder.to_json());
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.error().to_string();
  const auto original = recorder.spans();
  ASSERT_EQ(round_tripped.value().size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(round_tripped.value()[i].id, original[i].id);
    EXPECT_EQ(round_tripped.value()[i].parent, original[i].parent);
    EXPECT_EQ(round_tripped.value()[i].name, original[i].name);
    EXPECT_DOUBLE_EQ(round_tripped.value()[i].start_ms, original[i].start_ms);
    EXPECT_DOUBLE_EQ(round_tripped.value()[i].duration_ms,
                     original[i].duration_ms);
  }
}

TEST(ObsTraceTest, SpansFromJsonRejectsNonTrace) {
  EXPECT_FALSE(spans_from_json(JsonValue(3.0)).ok());
  JsonValue bad = JsonValue::array();
  bad.push_back(JsonValue("not a span"));
  EXPECT_FALSE(spans_from_json(bad).ok());
}

TEST(ObsTraceTest, ScopedSpanToleratesNullRecorder) {
  ScopedSpan nothing(nullptr, "ignored");
  EXPECT_EQ(nothing.id(), kNoSpan);
  nothing.end();  // harmless

  TraceRecorder recorder;
  {
    ScopedSpan scoped(&recorder, "raii");
    EXPECT_NE(scoped.id(), kNoSpan);
    ScopedSpan moved = std::move(scoped);
    EXPECT_NE(moved.id(), kNoSpan);
  }  // destructor closes the moved-to span exactly once
  ASSERT_EQ(recorder.span_count(), 1u);
  EXPECT_GE(recorder.spans()[0].duration_ms, 0.0);
}

TEST(ObsTraceTest, ConcurrentChildrenUnderOneParent) {
  // The LR phase opens combination spans from pool workers; the recorder
  // must keep ids and parents consistent under concurrency.
  TraceRecorder recorder;
  const SpanId phase = recorder.begin_span("phase.lr");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, phase, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&recorder,
                        "lr.combination." + std::to_string(t * 1000 + i),
                        phase);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  recorder.end_span(phase);

  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 1u + kThreads * kSpansPerThread);
  for (const auto& span : spans) {
    if (span.id == phase) continue;
    EXPECT_EQ(span.parent, phase);
    EXPECT_GE(span.duration_ms, 0.0);
  }
}

}  // namespace
}  // namespace gendpr::obs
