// Phase tracing: nested spans aggregate into a tree, disabled mode records
// nothing, and the JSON export round-trips through the bundled parser.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/thread_pool.hpp"

namespace tveg::obs {
namespace {

/// Fresh trace state per test; restores the disabled default afterwards.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    trace_reset();
  }
  void TearDown() override {
    set_enabled(false);
    trace_reset();
  }

  static const TraceNodeSnapshot* find(
      const std::vector<TraceNodeSnapshot>& nodes, const std::string& name) {
    for (const auto& n : nodes)
      if (n.name == name) return &n;
    return nullptr;
  }
};

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  EXPECT_TRUE(trace_snapshot().empty());
  EXPECT_TRUE(phase_totals().empty());
}

TEST_F(TraceTest, NestedSpansFormTree) {
  set_enabled(true);
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  const auto roots = trace_snapshot();
  const TraceNodeSnapshot* outer = find(roots, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const TraceNodeSnapshot* inner = find(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);  // same (parent, name) aggregates
  EXPECT_GE(outer->wall_ms, inner->wall_ms);
}

TEST_F(TraceTest, ElapsedTracksWallClock) {
  set_enabled(true);
  double elapsed_ms = 0;
  {
    Span span("sleepy", &elapsed_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(elapsed_ms, 4.0);
}

TEST_F(TraceTest, DeclarePhasesSeedsZeroCountNodes) {
  declare_phases({"alpha", "beta"});
  const auto roots = trace_snapshot();
  const TraceNodeSnapshot* alpha = find(roots, "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->count, 0u);
  EXPECT_EQ(alpha->wall_ms, 0.0);
  ASSERT_NE(find(roots, "beta"), nullptr);
}

TEST_F(TraceTest, PhaseTotalsSumAcrossTheTree) {
  set_enabled(true);
  {
    Span a("phase_a");
    { Span b("phase_b"); }
  }
  { Span b("phase_b"); }  // same name at root level
  const auto totals = phase_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "phase_a");
  EXPECT_EQ(totals[0].second.count, 1u);
  EXPECT_EQ(totals[1].first, "phase_b");
  EXPECT_EQ(totals[1].second.count, 2u);
}

TEST_F(TraceTest, WorkerSpansAttachUnderRoot) {
  set_enabled(true);
  support::ThreadPool pool(2);
  pool.parallel_for(0, 8, [](std::size_t) { Span span("worker_phase"); });
  const auto totals = phase_totals();
  const TraceNodeSnapshot* worker = nullptr;
  for (const auto& [name, node] : totals)
    if (name == "worker_phase") worker = &node;
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, 8u);
}

TEST_F(TraceTest, JsonSnapshotRoundTrips) {
  set_enabled(true);
  declare_phases({"idle_phase"});
  {
    Span outer("outer");
    Span inner("inner");
  }
  MetricsRegistry::global().counter("tveg.tracetest.counter").add(3);

  const std::string text = snapshot_json(2);
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), "tveg-obs-1");

  // Parse(dump(x)) == x structurally: dump again and compare.
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(), doc.dump());

  const Json* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("tveg.tracetest.counter")->as_number(), 3.0);

  const Json* totals = doc.find("phase_totals");
  ASSERT_NE(totals, nullptr);
  ASSERT_NE(totals->find("outer"), nullptr);
  ASSERT_NE(totals->find("idle_phase"), nullptr);
  EXPECT_EQ(totals->find("idle_phase")->as_number(), 0.0);

  const Json* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  bool found_inner = false;
  for (const Json& phase : phases->items())
    if (phase.find("name")->as_string() == "outer")
      for (const Json& child : phase.find("children")->items())
        if (child.find("name")->as_string() == "inner") found_inner = true;
  EXPECT_TRUE(found_inner);
}

TEST_F(TraceTest, ResetDropsTheTree) {
  set_enabled(true);
  { Span span("ephemeral"); }
  EXPECT_FALSE(trace_snapshot().empty());
  trace_reset();
  EXPECT_TRUE(trace_snapshot().empty());
}

}  // namespace
}  // namespace tveg::obs
