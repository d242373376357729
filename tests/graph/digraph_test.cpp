#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tveg::graph {
namespace {

TEST(Digraph, ConstructionAndGrowth) {
  Digraph g(3);
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.add_vertex(), 3);
  EXPECT_EQ(g.vertex_count(), 4);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(Digraph, ArcsAreDirected) {
  Digraph g(2);
  g.add_arc(0, 1, 5.0);
  EXPECT_EQ(g.out(0).size(), 1u);
  EXPECT_TRUE(g.out(1).empty());
  EXPECT_EQ(g.arc_count(), 1u);
}

TEST(Digraph, RejectsNegativeWeightAndBadVertices) {
  Digraph g(2);
  EXPECT_THROW(g.add_arc(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_arc(0, 1, INFINITY), std::invalid_argument);
  EXPECT_THROW(g.add_arc(0, 1, NAN), std::invalid_argument);
  EXPECT_THROW(g.add_arc(0, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(g.out(9), std::invalid_argument);
}

TEST(Digraph, ReversedFlipsArcs) {
  Digraph g(3);
  g.add_arc(0, 1, 2.0);
  g.add_arc(1, 2, 3.0);
  const Digraph r = g.reversed();
  ASSERT_EQ(r.out(1).size(), 1u);
  EXPECT_EQ(r.out(1)[0].to, 0);
  EXPECT_DOUBLE_EQ(r.out(1)[0].weight, 2.0);
  EXPECT_TRUE(r.out(0).empty());
}

TEST(Dijkstra, ShortestDistances) {
  Digraph g(5);
  g.add_arc(0, 1, 1.0);
  g.add_arc(0, 2, 4.0);
  g.add_arc(1, 2, 2.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(1, 3, 6.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 3.0);
  EXPECT_DOUBLE_EQ(sp.dist[3], 4.0);
  EXPECT_TRUE(std::isinf(sp.dist[4]));
}

TEST(Dijkstra, ZeroWeightArcs) {
  Digraph g(3);
  g.add_arc(0, 1, 0.0);
  g.add_arc(1, 2, 0.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 0.0);
}

TEST(Dijkstra, ExtractPath) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(0, 3, 10.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_EQ(extract_path(sp, 3), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(extract_path(sp, 0), (std::vector<VertexId>{0}));
}

TEST(Dijkstra, UnreachablePathEmpty) {
  Digraph g(2);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_TRUE(extract_path(sp, 1).empty());
}

TEST(Dijkstra, ParallelArcsTakeCheapest) {
  Digraph g(2);
  g.add_arc(0, 1, 5.0);
  g.add_arc(0, 1, 2.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 2.0);
}

TEST(Digraph, FreezeCompactsAndIsIdempotent) {
  Digraph g(3);
  g.add_arc(0, 2, 1.0);
  g.add_arc(0, 1, 2.0);
  g.add_arc(2, 0, 3.0);
  EXPECT_FALSE(g.frozen());
  g.freeze();
  EXPECT_TRUE(g.frozen());
  g.freeze();  // idempotent
  EXPECT_EQ(g.arc_count(), 3u);
  // Per-vertex insertion order survives the counting-sort scatter.
  ASSERT_EQ(g.out(0).size(), 2u);
  EXPECT_EQ(g.out(0)[0].to, 2);
  EXPECT_EQ(g.out(0)[1].to, 1);
  ASSERT_EQ(g.out(2).size(), 1u);
  EXPECT_EQ(g.out(2)[0].to, 0);
}

TEST(Digraph, MutationAfterFreezeThrows) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  g.freeze();
  EXPECT_THROW(g.add_arc(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_vertex(), std::invalid_argument);
  // out-of-range checks still precede the frozen-state accessors
  EXPECT_THROW(g.out(9), std::invalid_argument);
}

TEST(Digraph, TraversalFreezesLazily) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.out(0).size(), 1u);  // first access freezes
  EXPECT_TRUE(g.frozen());
}

TEST(Digraph, ResetReturnsToBuildingState) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);
  g.freeze();
  g.reset(2);
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.vertex_count(), 2);
  EXPECT_EQ(g.arc_count(), 0u);
  g.add_arc(1, 0, 4.0);
  g.freeze();
  ASSERT_EQ(g.out(1).size(), 1u);
  EXPECT_DOUBLE_EQ(g.out(1)[0].weight, 4.0);
  EXPECT_TRUE(g.out(0).empty());
}

TEST(Digraph, ReversedKeepsSourcePositionOrder) {
  // Arcs into vertex 3 from sources 0, 1, 2 (two from 1): the reversed
  // vertex must list them by (source, insertion position) — the order the
  // historical per-source add_arc replay produced.
  Digraph g(4);
  g.add_arc(1, 3, 1.0);
  g.add_arc(0, 3, 2.0);
  g.add_arc(1, 3, 3.0);
  g.add_arc(2, 3, 4.0);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.frozen());
  ASSERT_EQ(r.out(3).size(), 4u);
  EXPECT_EQ(r.out(3)[0].to, 0);
  EXPECT_DOUBLE_EQ(r.out(3)[0].weight, 2.0);
  EXPECT_EQ(r.out(3)[1].to, 1);
  EXPECT_DOUBLE_EQ(r.out(3)[1].weight, 1.0);
  EXPECT_EQ(r.out(3)[2].to, 1);
  EXPECT_DOUBLE_EQ(r.out(3)[2].weight, 3.0);
  EXPECT_EQ(r.out(3)[3].to, 2);
  EXPECT_DOUBLE_EQ(r.out(3)[3].weight, 4.0);
}

TEST(Dijkstra, EqualCostTiesKeepTheFirstSettledParent) {
  // 3 is reached at cost 2 through 1 and through 2. The arcs to 2 are added
  // first, but the heap pops equal distances in vertex-id order, so 1 is
  // settled first and the strict `<` relaxation keeps it as 3's parent.
  Digraph g(5);
  g.add_arc(0, 2, 1.0);
  g.add_arc(0, 1, 1.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(1, 3, 1.0);
  // 4 ties through a zero-weight arc from 3 and a direct arc from 0.
  g.add_arc(0, 4, 2.0);
  g.add_arc(3, 4, 0.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_EQ(sp.dist[3], 2.0);
  EXPECT_EQ(sp.parent[3], 1);
  EXPECT_EQ(sp.dist[4], 2.0);
  EXPECT_EQ(sp.parent[4], 0);
  EXPECT_EQ(extract_path(sp, 4), (std::vector<VertexId>{0, 4}));
  EXPECT_EQ(sp.settled, 5u);
  EXPECT_EQ(sp.relaxations, 4u);
}

}  // namespace
}  // namespace tveg::graph
