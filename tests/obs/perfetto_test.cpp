// Perfetto/Chrome trace export: a real multi-threaded pool run must produce
// a structurally valid trace_event document with worker tracks and
// queue-wait events, and validate_chrome_trace must reject the malformed
// shapes it exists to catch (the regression fixtures).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "support/thread_pool.hpp"

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

TEST(Perfetto, PoolRunProducesValidTraceWithWorkerTracks) {
  SpanTracingGuard guard;
  set_current_thread_name("main");
  support::ThreadPool pool(4);
  pool.parallel_for(0, 256, [](std::size_t) {
    Span span("work_item");
    volatile double sink = 0;
    for (int i = 0; i < 500; ++i) sink = sink + static_cast<double>(i);
  });
  pool.shutdown();

  const Json doc = chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");

  std::set<double> worker_tids;
  bool queue_wait_seen = false;
  bool work_item_seen = false;
  for (const Json& e : doc.find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    const std::string name = e.find("name")->as_string();
    if (ph == "M" && name == "thread_name") {
      const std::string track = e.find("args")->find("name")->as_string();
      if (track.rfind("pool-worker-", 0) == 0)
        worker_tids.insert(e.find("tid")->as_number());
    }
    if (ph == "X" && name == "queue_wait") queue_wait_seen = true;
    if (ph == "B" && name == "work_item") work_item_seen = true;
  }
  // The acceptance bar: at least two workers visible, with queue-wait and
  // task spans on their tracks.
  EXPECT_GE(worker_tids.size(), 2u);
  EXPECT_TRUE(queue_wait_seen);
  EXPECT_TRUE(work_item_seen);
}

TEST(Perfetto, SerializedTraceRoundTripsThroughParser) {
  SpanTracingGuard guard;
  { Span span("roundtrip"); }
  const std::string text = chrome_trace_json();
  const Json parsed = Json::parse(text);
  EXPECT_EQ(validate_chrome_trace(parsed), "");
}

// -- malformed-output regression fixtures ---------------------------------
// Each shape below was a real way an exporter bug could corrupt the file;
// validate_chrome_trace must name a violation for every one.

Json event(const char* ph, double tid, const char* name, double ts) {
  Json e = Json::object();
  e.set("ph", Json(ph));
  e.set("pid", Json(1));
  e.set("tid", Json(tid));
  e.set("name", Json(name));
  e.set("ts", Json(ts));
  return e;
}

Json doc_of(std::initializer_list<Json> events) {
  Json doc = Json::object();
  Json arr = Json::array();
  for (const Json& e : events) arr.push_back(e);
  doc.set("traceEvents", std::move(arr));
  return doc;
}

TEST(Perfetto, RejectsNonObjectDocument) {
  EXPECT_NE(validate_chrome_trace(Json::array()), "");
  EXPECT_NE(validate_chrome_trace(Json("hello")), "");
}

TEST(Perfetto, RejectsMissingTraceEvents) {
  EXPECT_NE(validate_chrome_trace(Json::object()), "");
}

TEST(Perfetto, RejectsUnmatchedBegin) {
  const Json doc = doc_of({event("B", 0, "orphan", 10)});
  EXPECT_NE(validate_chrome_trace(doc), "");
}

TEST(Perfetto, RejectsMismatchedEndName) {
  const Json doc =
      doc_of({event("B", 0, "alpha", 10), event("E", 0, "beta", 20)});
  EXPECT_NE(validate_chrome_trace(doc), "");
}

TEST(Perfetto, RejectsEndWithoutBegin) {
  const Json doc = doc_of({event("E", 0, "stray", 10)});
  EXPECT_NE(validate_chrome_trace(doc), "");
}

TEST(Perfetto, RejectsNonMonotoneTimestampsPerTid) {
  const Json doc = doc_of({event("B", 0, "a", 20), event("E", 0, "a", 10)});
  EXPECT_NE(validate_chrome_trace(doc), "");
}

TEST(Perfetto, RejectsNegativeDuration) {
  Json x = event("X", 1000, "queue_wait", 10);
  x.set("dur", Json(-5));
  EXPECT_NE(validate_chrome_trace(doc_of({std::move(x)})), "");
}

TEST(Perfetto, RejectsUnknownPhase) {
  const Json doc = doc_of({event("Q", 0, "weird", 10)});
  EXPECT_NE(validate_chrome_trace(doc), "");
}

TEST(Perfetto, RejectsNonNumericTid) {
  Json e = event("B", 0, "a", 10);
  e.set("tid", Json("zero"));
  Json e2 = event("E", 0, "a", 20);
  EXPECT_NE(validate_chrome_trace(doc_of({std::move(e), std::move(e2)})), "");
}

TEST(Perfetto, AcceptsInterleavedTracksWithLocalMonotonicity) {
  // Two tids may interleave globally as long as each track's ts is
  // non-decreasing and its B/E stack matches.
  const Json doc = doc_of({
      event("B", 0, "a", 10),
      event("B", 1, "b", 5),
      event("E", 1, "b", 30),
      event("E", 0, "a", 40),
  });
  EXPECT_EQ(validate_chrome_trace(doc), "");
}

}  // namespace
}  // namespace tveg::obs
