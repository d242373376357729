#include "graph/steiner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/aux_graph.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "trace/io.hpp"

namespace tveg::graph {
namespace {

/// Broadcast star: root 0, power vertex 1 costs 10 and reaches all three
/// terminals for free; individual power vertices cost 6 each. Optimal tree
/// costs 10 (share the broadcast), per-terminal shortest paths cost 18.
struct BroadcastStar {
  Digraph g{Digraph(8)};
  VertexId root = 0;
  std::vector<VertexId> terminals{2, 3, 4};

  BroadcastStar() {
    g.add_arc(0, 1, 10.0);  // shared power vertex
    g.add_arc(1, 2, 0.0);
    g.add_arc(1, 3, 0.0);
    g.add_arc(1, 4, 0.0);
    // Individual power vertices 5, 6, 7 (cheaper per terminal).
    g.add_arc(0, 5, 6.0);
    g.add_arc(5, 2, 0.0);
    g.add_arc(0, 6, 6.0);
    g.add_arc(6, 3, 0.0);
    g.add_arc(0, 7, 6.0);
    g.add_arc(7, 4, 0.0);
  }
};

TEST(SteinerSpt, TakesPerTerminalShortestPaths) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.shortest_path_heuristic(s.root, s.terminals);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(solver.validate(r, s.root, s.terminals));
  // SPT pays each terminal's 6 — this is exactly the heuristic's blind spot.
  EXPECT_DOUBLE_EQ(r.cost, 18.0);
}

TEST(SteinerGreedyLevel2, FindsSharedBroadcastVertex) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.recursive_greedy(s.root, s.terminals, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(solver.validate(r, s.root, s.terminals));
  // Density of the shared vertex is 10/3 < 6 → the greedy must pick it.
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
}

TEST(SteinerExact, MatchesKnownOptimum) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.exact_small(s.root, s.terminals);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  // The exact solver reconstructs a concrete, valid arborescence.
  EXPECT_FALSE(r.arcs.empty());
  EXPECT_TRUE(solver.validate(r, s.root, s.terminals));
}

TEST(SteinerExact, ReconstructedArcsSumToCost) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.exact_small(s.root, s.terminals);
  double sum = 0;
  for (const auto& arc : r.arcs) sum += arc.weight;
  EXPECT_NEAR(sum, r.cost, 1e-12);
}

TEST(SteinerExact, ReconstructionValidOnRandomGraphs) {
  for (unsigned seed = 30; seed <= 36; ++seed) {
    Digraph g(14);
    unsigned state = seed * 2654435761u;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return state;
    };
    for (VertexId u = 0; u < 14; ++u)
      for (VertexId v = 0; v < 14; ++v)
        if (u != v && next() % 100 < 25)
          g.add_arc(u, v, 1.0 + static_cast<double>(next() % 50) / 5.0);
    SteinerSolver solver(g);
    const std::vector<VertexId> terminals{4, 9, 13};
    const SteinerResult r = solver.exact_small(0, terminals);
    if (!r.feasible) continue;
    EXPECT_TRUE(solver.validate(r, 0, terminals)) << "seed " << seed;
    double sum = 0;
    for (const auto& arc : r.arcs) sum += arc.weight;
    EXPECT_NEAR(sum, r.cost, 1e-9) << "seed " << seed;
  }
}

TEST(SteinerGreedyLevel2, NeverWorseThanLevel1OnStar) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const double c1 = solver.recursive_greedy(s.root, s.terminals, 1).cost;
  const double c2 = solver.recursive_greedy(s.root, s.terminals, 2).cost;
  EXPECT_LE(c2, c1 + 1e-9);
}

TEST(Steiner, SingleTerminalIsShortestPath) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(0, 2, 5.0);
  SteinerSolver solver(g);
  for (int level : {1, 2}) {
    const SteinerResult r = solver.recursive_greedy(0, {2}, level);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, 2.0) << "level " << level;
  }
  EXPECT_DOUBLE_EQ(solver.shortest_path_heuristic(0, {2}).cost, 2.0);
  EXPECT_DOUBLE_EQ(solver.exact_small(0, {2}).cost, 2.0);
}

TEST(Steiner, RootAsTerminalIsFree) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(0, {0}, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(Steiner, UnreachableTerminalReportsInfeasible) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);  // vertex 2 unreachable
  SteinerSolver solver(g);
  EXPECT_FALSE(solver.shortest_path_heuristic(0, {1, 2}).feasible);
  EXPECT_FALSE(solver.recursive_greedy(0, {1, 2}, 2).feasible);
  EXPECT_FALSE(solver.exact_small(0, {1, 2}).feasible);
}

TEST(Steiner, SharedTrunkCountedOnce) {
  // root → trunk (cost 10) → two branches (cost 1 each).
  Digraph g(4);
  g.add_arc(0, 1, 10.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(1, 3, 1.0);
  SteinerSolver solver(g);
  for (int level : {1, 2}) {
    const SteinerResult r = solver.recursive_greedy(0, {2, 3}, level);
    EXPECT_DOUBLE_EQ(r.cost, 12.0) << "level " << level;
  }
  EXPECT_DOUBLE_EQ(solver.shortest_path_heuristic(0, {2, 3}).cost, 12.0);
  EXPECT_DOUBLE_EQ(solver.exact_small(0, {2, 3}).cost, 12.0);
}

TEST(Steiner, ExactBeatsOrMatchesHeuristicsRandomGraphs) {
  // Property check over several seeded random DAG-ish graphs.
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const VertexId n = 12;
    Digraph g(n);
    // Deterministic pseudo-random arcs.
    unsigned state = seed * 2654435761u;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return state;
    };
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (u != v && next() % 100 < 30)
          g.add_arc(u, v, 1.0 + static_cast<double>(next() % 100) / 10.0);

    std::vector<VertexId> terminals{3, 7, 11};
    SteinerSolver solver(g);
    const SteinerResult exact = solver.exact_small(0, terminals);
    const SteinerResult spt = solver.shortest_path_heuristic(0, terminals);
    const SteinerResult g1 = solver.recursive_greedy(0, terminals, 1);
    const SteinerResult g2 = solver.recursive_greedy(0, terminals, 2);
    ASSERT_EQ(exact.feasible, spt.feasible) << "seed " << seed;
    if (!exact.feasible) continue;
    EXPECT_LE(exact.cost, spt.cost + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.cost, g1.cost + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.cost, g2.cost + 1e-9) << "seed " << seed;
    EXPECT_TRUE(solver.validate(spt, 0, terminals));
    EXPECT_TRUE(solver.validate(g1, 0, terminals));
    EXPECT_TRUE(solver.validate(g2, 0, terminals));
  }
}

TEST(Steiner, ValidateRejectsFabricatedTree) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);
  SteinerSolver solver(g);
  SteinerResult fake;
  fake.arcs.push_back({0, 2, 1.0});  // arc not in graph
  fake.cost = 1.0;
  fake.feasible = true;
  EXPECT_FALSE(solver.validate(fake, 0, {2}));
}

TEST(Steiner, ExactRejectsTooManyTerminals) {
  Digraph g(20);
  SteinerSolver solver(g);
  std::vector<VertexId> terminals;
  for (VertexId v = 1; v < 19; ++v) terminals.push_back(v);
  EXPECT_THROW(solver.exact_small(0, terminals), std::invalid_argument);
}

bool has_arc(const SteinerResult& r, VertexId from, VertexId to) {
  return std::any_of(r.arcs.begin(), r.arcs.end(), [&](const auto& arc) {
    return arc.from == from && arc.to == to;
  });
}

TEST(SteinerGreedyLevel2, EqualDensityAtTwoVerticesPicksTheLowerId) {
  // Hubs 0 and 1 each reach both terminals for free behind an arc of cost
  // 2: density 1 at either. The root is the highest id, and hub 1's arcs
  // are inserted first, so only the id rule picks hub 0.
  const VertexId h0 = 0, h1 = 1, t1 = 2, t2 = 3, root = 4;
  Digraph g(5);
  g.add_arc(root, h1, 2.0);
  g.add_arc(h1, t1, 0.0);
  g.add_arc(h1, t2, 0.0);
  g.add_arc(root, h0, 2.0);
  g.add_arc(h0, t1, 0.0);
  g.add_arc(h0, t2, 0.0);
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(root, {t1, t2}, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(has_arc(r, root, h0));
  EXPECT_TRUE(has_arc(r, h0, t1));
  EXPECT_TRUE(has_arc(r, h0, t2));
  EXPECT_FALSE(has_arc(r, root, h1));
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(SteinerGreedyLevel2, EqualDensityAcrossCountsPicksTheSmallerCount) {
  // Hub u: (2 + 1) / 1 == (2 + 1 + 3) / 2 == 3, so k' = 1 wins the tie
  // and u's bunch covers t1 only. t2 then goes to v at density 4; the
  // k' = 2 bunch would have routed it through u for a cheaper tree (6).
  const VertexId u = 0, v = 1, t1 = 2, t2 = 3, root = 4;
  Digraph g(5);
  g.add_arc(root, u, 2.0);
  g.add_arc(u, t1, 1.0);
  g.add_arc(u, t2, 3.0);
  g.add_arc(root, v, 4.0);
  g.add_arc(v, t2, 0.0);
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(root, {t1, t2}, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(has_arc(r, u, t1));
  EXPECT_TRUE(has_arc(r, root, v));
  EXPECT_TRUE(has_arc(r, v, t2));
  EXPECT_FALSE(has_arc(r, u, t2));
  EXPECT_DOUBLE_EQ(r.cost, 7.0);
}

TEST(SteinerGreedyLevel2, StaleBoundEqualToTheFreshWinnerIsReevaluated) {
  // Pass 1 covers t_a through A (density 1). In pass 2, b's bound from
  // pass 1 is 2 — equal to c's fresh density — and b has the lower id, so
  // it pops first; re-evaluated without t_a it rises to 6 and c wins. Had
  // the stale bound won, b's bunch would route t_b through b (cost 6);
  // instead pass 3 gives t_b to d at density 5.5.
  const VertexId b = 0, c = 1, a = 2, d = 3, t_a = 4, t_b = 5, t_c = 6,
                 root = 7;
  Digraph g(8);
  g.add_arc(root, a, 1.0);
  g.add_arc(a, t_a, 0.0);
  g.add_arc(root, b, 2.0);
  g.add_arc(b, t_a, 0.0);
  g.add_arc(b, t_b, 4.0);
  g.add_arc(root, c, 2.0);
  g.add_arc(c, t_c, 0.0);
  g.add_arc(root, d, 5.5);
  g.add_arc(d, t_b, 0.0);
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(root, {t_a, t_b, t_c}, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(has_arc(r, a, t_a));
  EXPECT_TRUE(has_arc(r, c, t_c));
  EXPECT_TRUE(has_arc(r, d, t_b));
  EXPECT_FALSE(has_arc(r, b, t_b));
  EXPECT_FALSE(has_arc(r, root, b));
  EXPECT_DOUBLE_EQ(r.cost, 8.5);
}

/// The aux graph of the shipped N=20 trace at T=10000, source 0 — the
/// instance `tmedb run data/haggle_like_n20.trace --deadline 10000` solves.
struct HaggleN20 {
  trace::ContactTrace trace = trace::read_trace_file(
      std::string(TVEG_DATA_DIR) + "/haggle_like_n20.trace");
  sim::Workbench bench{trace, sim::paper_radio()};
  core::TmedbInstance instance = bench.step_instance(0, 10000);
  core::AuxGraph aux{instance, bench.dts()};
};

TEST(SteinerGreedyLevel2, PinnedWorkCountersOnTheShippedN20Trace) {
  // Only heap Dijkstra runs count: the forward trees from the root and the
  // level-2 winners (the reverse sweep is not one). Any change to these
  // numbers changes the solver's work and must be explained.
  const HaggleN20 h;
  SteinerSolver solver(h.aux.digraph());
  const SteinerResult r = solver.recursive_greedy(
      h.aux.source_vertex_for(0), h.aux.terminals_for(h.instance), 2);
  EXPECT_TRUE(r.feasible);
  const SteinerSolver::QueryStats& stats = solver.last_query_stats();
  EXPECT_EQ(stats.dijkstra_runs, 7u);
  EXPECT_EQ(stats.nodes_expanded, 421067u);
  EXPECT_EQ(stats.relaxations, 421060u);
}

TEST(SteinerGreedyLevel2, SubPhaseSpansNestUnderSteiner) {
  const HaggleN20 h;
  SteinerSolver solver(h.aux.digraph());
  obs::trace_reset();
  obs::set_enabled(true);
  {
    const obs::Span span("steiner");
    solver.recursive_greedy(h.aux.source_vertex_for(0),
                            h.aux.terminals_for(h.instance), 2);
  }
  obs::set_enabled(false);
  const std::vector<obs::TraceNodeSnapshot> roots = obs::trace_snapshot();
  obs::trace_reset();
  const auto steiner =
      std::find_if(roots.begin(), roots.end(),
                   [](const auto& node) { return node.name == "steiner"; });
  ASSERT_NE(steiner, roots.end());
  std::vector<std::string> children;
  for (const obs::TraceNodeSnapshot& child : steiner->children) {
    children.push_back(child.name);
    EXPECT_GE(child.count, 1u) << child.name;
  }
  std::sort(children.begin(), children.end());
  EXPECT_EQ(children, (std::vector<std::string>{
                          "steiner_finalize", "steiner_forward",
                          "steiner_reverse", "steiner_scan"}));
}

}  // namespace
}  // namespace tveg::graph
