// Distances to many terminals in one reverse pass over the condensation
// (DESIGN.md "The Steiner search"). The components of an auxiliary graph
// are small — its arcs go forward in time or stay in one τ=0 layer — so
// visiting them sinks first, with a K-wide row per vertex, replaces one
// reverse Dijkstra per terminal. The rows are bitwise equal to those runs:
// with weights >= 0, fl(a + w) >= a and is monotone in a, so every method
// whose labels are folds of real walks and that stops at a fixed point of
// row(u) = min over arcs u→w of fl(row(w) + weight) returns the same
// doubles (tests/diff/reverse_sweep_diff_test.cpp checks it with memcmp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "support/budget.hpp"

namespace tveg::graph {

/// The strongly connected components of a digraph, listed sinks first:
/// every arc leaving a component enters one listed before it.
struct SccOrder {
  /// Vertices grouped by component.
  std::vector<VertexId> vertices;
  /// Component c is vertices[begin[c], begin[c + 1]); size = components + 1.
  std::vector<std::uint32_t> begin;
  /// Index of each vertex in `vertices`.
  std::vector<std::uint32_t> position;
};

/// Iterative Tarjan, O(V + E); components come out sinks first.
SccOrder scc_sinks_first(const Digraph& g);

/// Fills dist[u * K + k] (K = terminals.size()) with the shortest u →
/// terminals[k] distance, +inf when unreachable — bitwise equal to
/// dijkstra(g.reversed(), terminals[k]).dist[u]. A component takes the
/// minimum over its exit arcs, then relaxes its internal arcs in rounds; one
/// still improving after bit_width(size) rounds finishes with one heap per
/// terminal, so the cost stays within a constant factor of K Dijkstras on
/// any graph.
/// `order` must be scc_sinks_first(g). Polls `budget` once per vertex.
void distances_to(const Digraph& g, const SccOrder& order,
                  std::span<const VertexId> terminals,
                  const support::Budget& budget, std::vector<double>& dist);

}  // namespace tveg::graph
