// Thread-aware span ring: recording semantics, nesting, reset, drop
// accounting and the disabled-path contract. Export-level structure is
// covered by perfetto_test.cpp.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/keys.hpp"

namespace tveg::obs {
namespace {

struct SpanTracingGuard {
  SpanTracingGuard() {
    span_reset();
    set_enabled(true);
  }
  ~SpanTracingGuard() {
    set_enabled(false);
    span_reset();
  }
};

std::vector<const Json*> events_of(const Json& doc, const std::string& ph) {
  std::vector<const Json*> out;
  for (const Json& e : doc.find("traceEvents")->items())
    if (e.find("ph")->as_string() == ph) out.push_back(&e);
  return out;
}

TEST(Span, DisabledRecordsNothing) {
  span_reset();
  set_enabled(false);
  { Span span("ignored"); }
  const Json doc = chrome_trace();
  EXPECT_TRUE(events_of(doc, "B").empty());
  EXPECT_TRUE(events_of(doc, "X").empty());
}

TEST(Span, SpanProducesMatchedPair) {
  SpanTracingGuard guard;
  { Span span("unit_phase"); }
  const Json doc = chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");
  const auto begins = events_of(doc, "B");
  const auto ends = events_of(doc, "E");
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(begins[0]->find("name")->as_string(), "unit_phase");
  EXPECT_EQ(begins[0]->find("tid")->as_number(),
            ends[0]->find("tid")->as_number());
  EXPECT_LE(begins[0]->find("ts")->as_number(),
            ends[0]->find("ts")->as_number());
}

TEST(Span, NestedSpansExportInStackOrder) {
  SpanTracingGuard guard;
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  const Json doc = chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");
  // Emission order on one track must be B(outer) B(inner) E(inner) E(outer).
  std::vector<std::string> order;
  for (const Json& e : doc.find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "B" || ph == "E")
      order.push_back(ph + ":" + e.find("name")->as_string());
  }
  const std::vector<std::string> expected = {"B:outer", "B:inner", "E:inner",
                                             "E:outer"};
  EXPECT_EQ(order, expected);
}

TEST(Span, QueueWaitBecomesCompleteEventOnQueueTrack) {
  SpanTracingGuard guard;
  const auto t0 = std::chrono::steady_clock::now();
  span_queue_wait(t0, t0 + std::chrono::nanoseconds(1500));
  const Json doc = chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");
  const auto xs = events_of(doc, "X");
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0]->find("name")->as_string(), "queue_wait");
  EXPECT_GE(xs[0]->find("tid")->as_number(), 1000.0);
  EXPECT_GE(xs[0]->find("dur")->as_number(), 0.0);
}

TEST(Span, ResetClearsRecordsAndDrops) {
  SpanTracingGuard guard;
  { Span span("before_reset"); }
  span_reset();
  const Json doc = chrome_trace();
  EXPECT_TRUE(events_of(doc, "B").empty());
  EXPECT_EQ(span_drop_count(), 0u);
}

TEST(Span, RingOverflowDropsOldestAndCounts) {
  SpanTracingGuard guard;
  // Well past any plausible ring capacity; the export must stay valid (a
  // dropped parent degrades nesting, never produces unmatched pairs).
  constexpr std::size_t kSpans = 1u << 16;
  for (std::size_t i = 0; i < kSpans; ++i) { Span span("flood"); }
  EXPECT_GT(span_drop_count(), 0u);
  const Json doc = chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");
  EXPECT_LT(events_of(doc, "B").size(), kSpans);
}

TEST(Span, ThreadNameShowsUpAsMetadata) {
  SpanTracingGuard guard;
  set_current_thread_name("span-test-main");
  { Span span("named"); }
  const Json doc = chrome_trace();
  bool found = false;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "M") continue;
    const Json* args = e.find("args");
    if (args != nullptr && args->find("name") != nullptr &&
        args->find("name")->as_string() == "span-test-main")
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Span, RingOverflowReachesTheMetricsSnapshotBeforeAnyExport) {
  SpanTracingGuard guard;
  constexpr std::size_t kSpans = 1u << 16;
  for (std::size_t i = 0; i < kSpans; ++i) { Span span("flood"); }
  // Read the registry snapshot first: the drops must already be there,
  // without chrome_trace() having run.
  const Json snap = snapshot();
  const Json* drops =
      snap.find("metrics")->find("counters")->find(keys::kObsSpanDrops);
  ASSERT_NE(drops, nullptr);
  EXPECT_GT(drops->as_number(), 0.0);
  // Every span is either exported or counted as dropped.
  const Json doc = chrome_trace();
  EXPECT_EQ(static_cast<double>(events_of(doc, "B").size()) +
                drops->as_number(),
            static_cast<double>(kSpans));
}

}  // namespace
}  // namespace tveg::obs
