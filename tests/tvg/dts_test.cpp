#include "tvg/dts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/flight_recorder.hpp"

namespace tveg {
namespace {

TimeVaryingGraph line_graph(Time tau) {
  TimeVaryingGraph g(4, 20.0, tau);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 2, 5.0, 15.0);
  g.add_contact(2, 3, 12.0, 20.0);
  return g;
}

TEST(Dts, ContainsAdjacentPartitionPoints) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  // Node 1's adjacent partition: contact boundaries minus tau.
  EXPECT_TRUE(dts.contains(1, 0.0));
  EXPECT_TRUE(dts.contains(1, 5.0));
  EXPECT_TRUE(dts.contains(1, 9.0));
  EXPECT_TRUE(dts.contains(1, 14.0));
}

TEST(Dts, TauPropagationCreatesCascadePoints) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  // 0 may transmit at 0 → 1 informed at 1 → 1 may transmit at... the 1-2
  // contact opens later, but 1 is adjacent to 0 at 1 → 0 gains point 2.
  EXPECT_TRUE(dts.contains(1, 1.0));  // 0's point 0 + τ
  EXPECT_TRUE(dts.contains(0, 1.0));  // 1's point 0 (shared contact) + τ
  // 1 transmits at 5 (contact 1-2 opens) → 2 gains 6; 2-3 closed then, but
  // 2 is adjacent to 1 at 6 → 1 gains 7.
  EXPECT_TRUE(dts.contains(2, 6.0));
  EXPECT_TRUE(dts.contains(1, 7.0));
}

TEST(Dts, ZeroLatencySharesPointsAcrossComponent) {
  const auto g = line_graph(0.0);
  const auto dts = DiscreteTimeSet::build(g);
  // With τ = 0 the contact-open point of 1-2 (t = 5) propagates to node 0
  // (adjacent to 1 at 5) without creating new offsets.
  EXPECT_TRUE(dts.contains(0, 5.0));
}

TEST(Dts, PointsAreSortedAndBounded) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& pts = dts.points(v);
    EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
    EXPECT_GE(pts.front(), 0.0);
    EXPECT_LE(pts.back(), g.horizon());
    EXPECT_TRUE(dts.contains(v, 0.0));
  }
  EXPECT_FALSE(dts.truncated());
}

TEST(Dts, ExtraPointsAreIncludedAndPropagated) {
  const auto g = line_graph(1.0);
  DtsOptions options;
  options.extra_points.assign(4, {});
  options.extra_points[0] = {2.5};  // e.g. a channel breakpoint on node 0
  const auto dts = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(dts.contains(0, 2.5));
  EXPECT_TRUE(dts.contains(1, 3.5));  // 0 adjacent to 1 at 2.5 → 2.5 + τ
}

TEST(Dts, ExtraPointsArityChecked) {
  const auto g = line_graph(1.0);
  DtsOptions options;
  options.extra_points.assign(2, {});  // wrong: 4 nodes
  EXPECT_THROW(DiscreteTimeSet::build(g, options), std::invalid_argument);
}

TEST(Dts, TruncationFlag) {
  const auto g = line_graph(0.5);
  DtsOptions options;
  options.max_points_per_node = 3;
  const auto dts = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(dts.truncated());
  for (NodeId v = 0; v < 4; ++v) EXPECT_LE(dts.points(v).size(), 3u);
}

TEST(Dts, TruncationRecordsOneFlightEvent) {
  const auto g = line_graph(0.5);
  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.reset();
  const auto uncapped = DiscreteTimeSet::build(g);
  EXPECT_FALSE(uncapped.truncated());
  EXPECT_EQ(rec.dump_string().find("dts_truncated"), std::string::npos);

  DtsOptions options;
  options.max_points_per_node = 3;
  const auto capped = DiscreteTimeSet::build(g, options);
  ASSERT_TRUE(capped.truncated());
  const std::string dump = rec.dump_string();
  const std::string event = "dts_truncated a=" +
                            std::to_string(capped.total_points()) + " b=3";
  const auto at = dump.find(event);
  ASSERT_NE(at, std::string::npos) << dump;
  EXPECT_EQ(dump.find("dts_truncated", at + 1), std::string::npos) << dump;
  rec.reset();
}

TEST(Dts, GlobalPointsSortedUnique) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  const auto pts = dts.global_points();
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GT(pts[i] - pts[i - 1], 1e-10);
  EXPECT_LE(pts.size(), dts.total_points());
}

TEST(Dts, LowerBoundSemantics) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  const auto& pts = dts.points(1);
  const std::size_t k = dts.lower_bound(1, 5.0);
  ASSERT_LT(k, pts.size());
  EXPECT_NEAR(pts[k], 5.0, 1e-9);
  EXPECT_EQ(dts.lower_bound(1, g.horizon() + 1.0), pts.size());
}

TEST(Dts, IsolatedNodeHasTrivialPartition) {
  TimeVaryingGraph g(3, 10.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  const auto dts = DiscreteTimeSet::build(g);
  // Node 2 never meets anyone: only the span endpoints.
  EXPECT_EQ(dts.points(2).size(), 2u);
}

}  // namespace
}  // namespace tveg
