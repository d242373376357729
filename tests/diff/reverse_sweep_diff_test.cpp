// Differential tests for graph::distances_to, the reverse sweep behind
// recursive_greedy's terminal distances: every entry of its terminal-major
// matrix must be bitwise equal (memcmp, so even the sign of a zero counts)
// to graph::dijkstra run from that terminal on the reversed graph — the
// oracle the sweep replaced. Covered: seeded random digraphs with the shapes
// that stress an SCC-ordered method (zero-weight arcs and cycles,
// self-loops, parallel arcs, one giant component, unreachable, duplicate
// and root terminals), a component that needs the per-terminal heaps, the
// auxiliary graphs of the three shipped traces, and auxiliary graphs of
// random traces at τ = 0 and τ = 1.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/aux_graph.hpp"
#include "core/tveg.hpp"
#include "graph/digraph.hpp"
#include "graph/reverse_sweep.hpp"
#include "sim/experiment.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"

namespace tveg::graph {
namespace {

/// Asserts the sweep matrix equals one reverse Dijkstra per terminal, bit
/// for bit, and that the component order lists sinks first.
void expect_matches_dijkstra(const Digraph& g,
                             const std::vector<VertexId>& terminals,
                             const std::string& label) {
  const SccOrder order = scc_sinks_first(g);
  const auto n = static_cast<std::size_t>(g.vertex_count());
  ASSERT_EQ(order.vertices.size(), n) << label;
  std::vector<std::size_t> component(n);
  for (std::size_t c = 0; c + 1 < order.begin.size(); ++c)
    for (std::uint32_t i = order.begin[c]; i < order.begin[c + 1]; ++i) {
      ASSERT_EQ(order.position[static_cast<std::size_t>(order.vertices[i])],
                i)
          << label;
      component[static_cast<std::size_t>(order.vertices[i])] = c;
    }
  for (VertexId u = 0; u < g.vertex_count(); ++u)
    for (const Arc& a : g.out(u))
      ASSERT_LE(component[static_cast<std::size_t>(a.to)],
                component[static_cast<std::size_t>(u)])
          << label << ": arc " << u << "->" << a.to << " points to a later "
          << "component";

  std::vector<double> dist;
  distances_to(g, order, terminals, support::Budget{}, dist);
  const std::size_t k_count = terminals.size();
  ASSERT_EQ(dist.size(), n * k_count) << label;
  const Digraph reversed = g.reversed();
  for (std::size_t k = 0; k < k_count; ++k) {
    const ShortestPaths sp = dijkstra(reversed, terminals[k]);
    for (std::size_t u = 0; u < n; ++u)
      ASSERT_EQ(std::memcmp(&dist[u * k_count + k], &sp.dist[u],
                            sizeof(double)),
                0)
          << label << ": terminal #" << k << " (" << terminals[k]
          << "), vertex " << u << ": sweep " << dist[u * k_count + k]
          << " vs dijkstra " << sp.dist[u];
  }
}

/// A random digraph whose weights mix exact zeros, small integers and
/// full-mantissa doubles across magnitudes, so that different summation
/// orders would round differently.
Digraph random_digraph(support::Rng& rng, VertexId n, double density,
                       bool giant_cycle) {
  Digraph g(n);
  const auto weight = [&rng] {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return 0.0;
      case 1:
        return static_cast<double>(rng.uniform_int(1, 5));
      case 2:
        return rng.uniform() * 1e-18;
      default:
        return rng.uniform() * 10.0;
    }
  };
  if (giant_cycle)
    for (VertexId v = 0; v < n; ++v) g.add_arc(v, (v + 1) % n, weight());
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v) {
      if (rng.uniform() >= density) continue;
      g.add_arc(u, v, weight());  // u == v makes a self-loop
      if (rng.uniform() < 0.2) g.add_arc(u, v, weight());  // parallel arc
    }
  return g;
}

TEST(ReverseSweepDiff, RandomDigraphsMatchReverseDijkstra) {
  support::Rng rng(20240617);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<VertexId>(rng.uniform_int(1, 60));
    const double density = rng.uniform() * (trial % 3 == 0 ? 0.3 : 0.06);
    const Digraph g = random_digraph(rng, n, density, trial % 4 == 1);
    std::vector<VertexId> terminals;
    const auto k_count = rng.uniform_int(1, 8);
    for (std::int64_t k = 0; k < k_count; ++k)
      terminals.push_back(static_cast<VertexId>(rng.uniform_int(0, n - 1)));
    terminals.push_back(terminals.front());  // a duplicate column
    terminals.push_back(0);                  // the usual query root
    expect_matches_dijkstra(g, terminals, "trial " + std::to_string(trial));
  }
}

TEST(ReverseSweepDiff, UnreachableTerminalsAndZeroCycles) {
  // 0 ⇄ 1 is a zero-weight cycle that reaches terminal 2; 3 ⇄ 4 is a
  // zero-weight cycle reaching nothing; terminal 5 is isolated.
  Digraph g(6);
  g.add_arc(0, 1, 0.0);
  g.add_arc(1, 0, 0.0);
  g.add_arc(1, 2, 0.1);
  g.add_arc(3, 4, 0.0);
  g.add_arc(4, 3, 0.0);
  g.add_arc(3, 3, 0.0);
  expect_matches_dijkstra(g, {2, 5, 2, 0}, "zero cycles");

  std::vector<double> dist;
  distances_to(g, scc_sinks_first(g), std::vector<VertexId>{},
               support::Budget{}, dist);
  EXPECT_TRUE(dist.empty());
}

TEST(ReverseSweepDiff, ComponentThatNeedsThePerTerminalHeaps) {
  // A 40-vertex ring 0 → 1 → … → 39 → 0 of expensive arcs plus cheap back
  // arcs i+1 → i, leaving only at 0. Tarjan enters the ring along the
  // expensive arcs and lists 39 first, so the cheap path from vertex i runs
  // against the relaxation order and improves by one hop per round — the
  // rounds give up and the heaps finish the component.
  constexpr VertexId kRing = 40;
  Digraph g(kRing + 1);
  const VertexId exit = kRing;
  g.add_arc(0, 1, 100.0);
  g.add_arc(0, exit, 0.0);
  for (VertexId i = 1; i < kRing; ++i) {
    g.add_arc(i, (i + 1) % kRing, 100.0);
    g.add_arc(i, i - 1, 0.1);
  }
  expect_matches_dijkstra(g, {exit, 0, kRing / 2}, "back-arc ring");

  std::vector<double> dist;
  distances_to(g, scc_sinks_first(g), std::vector<VertexId>{exit},
               support::Budget{}, dist);
  EXPECT_GT(dist[static_cast<std::size_t>(kRing - 1)], 3.8);
  EXPECT_LT(dist[static_cast<std::size_t>(kRing - 1)], 4.0);
}

TEST(ReverseSweepDiff, ShippedTraceAuxGraphsMatchReverseDijkstra) {
  struct Case {
    const char* file;
    Time deadline;
  };
  for (const Case& c : {Case{"haggle_like_n20.trace", 10000},
                        Case{"waypoint_n12.trace", 1500},
                        Case{"dutycycle_n16.trace", 2000}}) {
    const trace::ContactTrace t =
        trace::read_trace_file(std::string(TVEG_DATA_DIR) + "/" + c.file);
    const sim::Workbench bench(t, sim::paper_radio());
    const core::TmedbInstance instance = bench.step_instance(0, c.deadline);
    const core::AuxGraph aux(instance, bench.dts());
    std::vector<VertexId> terminals = aux.terminals_for(instance);
    terminals.push_back(aux.source_vertex_for(0));
    expect_matches_dijkstra(aux.digraph(), terminals, c.file);
  }
}

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

TEST(ReverseSweepDiff, RandomTraceAuxGraphsAtBothLatencies) {
  for (const Time tau : {0.0, 1.0})
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      trace::SnapshotConfig cfg;
      cfg.nodes = 5 + static_cast<int>(seed % 5);
      cfg.slot = 20;
      cfg.horizon = 200;
      cfg.p = 0.25 + 0.05 * static_cast<double>(seed % 4);
      cfg.seed = seed;
      const trace::ContactTrace t = trace::generate_snapshots(cfg);
      const core::Tveg tveg(t, unit_radio(),
                            {.model = channel::ChannelModel::kStep,
                             .tau = tau});
      const DiscreteTimeSet dts = tveg.build_dts();
      const core::TmedbInstance instance{&tveg, 0, 200.0};
      const core::AuxGraph aux(instance, dts);
      expect_matches_dijkstra(aux.digraph(), aux.terminals(),
                              "tau " + std::to_string(tau) + " seed " +
                                  std::to_string(seed));
    }
}

}  // namespace
}  // namespace tveg::graph
