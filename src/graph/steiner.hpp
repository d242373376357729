// Directed Steiner tree solvers.
//
// TMEDB-S reduces (via the auxiliary graph of Sec. VI-A) to the directed
// Steiner tree problem: given a root r and terminal set X, find a minimum-
// weight out-arborescence subgraph containing a path r→x for every x ∈ X.
// Three solvers with different cost/quality points:
//
//  * recursive_greedy — Charikar et al.'s level-i algorithm, the one Liang's
//    MEMT approximation [3] builds on; level i gives ratio O(|X|^{1/i})
//    (levels 1 and 2 implemented; the paper's O(N^ε) bound corresponds to
//    running at level ⌈1/ε⌉).
//  * shortest_path_heuristic — union of shortest paths root→terminal with a
//    leaf-pruning cleanup; fast, no worst-case guarantee, strong in practice.
//  * exact_small — Dreyfus–Wagner-style subset DP, exponential in |X|;
//    ground truth for tests and for the approximation-ratio benches.
//
// recursive_greedy at level 2 runs four sub-phases, each an obs::Span under
// the caller's `steiner` span (DESIGN.md "The Steiner search"):
// steiner_reverse (all terminal distances in one reverse sweep,
// graph/reverse_sweep.hpp), steiner_scan (the lazy density scan),
// steiner_forward (the cached forward Dijkstra trees) and steiner_finalize.
//
// Memory layout (DESIGN.md "Data layout & hot-path memory"): all per-query
// state is dense and index-addressed — the forward-tree cache is a slot
// array into a stable deque and terminal distances live in one flat
// terminal-major matrix. Each Dijkstra run allocates its own dist/parent
// arrays and heap (graph::dijkstra); a cached forward tree keeps its arrays.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/reverse_sweep.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"

namespace tveg::graph {

/// A (partial) Steiner arborescence.
struct SteinerResult {
  /// Tree arcs as (from, to, weight) triples; forms an out-arborescence
  /// rooted at the query root when feasible.
  struct TreeArc {
    VertexId from;
    VertexId to;
    double weight;
  };
  std::vector<TreeArc> arcs;
  double cost = 0;
  /// True iff every terminal is reachable in the tree.
  bool feasible = false;
};

/// Directed Steiner solver bound to one digraph; caches single-source
/// shortest-path trees across queries. Construction freezes the graph (CSR
/// form) — do not mutate it afterwards.
class SteinerSolver {
 public:
  explicit SteinerSolver(const Digraph& g);

  /// Cooperative solve budget: the heuristic solvers poll it between
  /// shortest-path runs and (via strided pollers) per vertex in the reverse
  /// sweep and the density scan, throwing support::TimeoutError on expiry
  /// and support::CancelledError when the budget's cancel token fires.
  /// Default: unlimited.
  void set_budget(support::Budget budget) { budget_ = std::move(budget); }

  /// Optional worker pool for exact_small's all-sources Dijkstra trees,
  /// each written to an indexed slot so results and stats are bit-identical
  /// to the serial path; nullptr = serial. The heuristic solvers always run
  /// serially.
  void set_pool(support::ThreadPool* pool) { pool_ = pool; }

  /// Union of shortest paths to each terminal, then non-terminal leaves are
  /// pruned. O(|X|·SP) after one Dijkstra from the root.
  SteinerResult shortest_path_heuristic(VertexId root,
                                        const std::vector<VertexId>& terminals);

  /// Charikar recursive greedy at the given level (1 or 2; higher levels
  /// clamp to 2). Level 1 equals the shortest-path bunch; level 2 selects
  /// intermediate roots by best density.
  SteinerResult recursive_greedy(VertexId root,
                                 const std::vector<VertexId>& terminals,
                                 int level);

  /// Exact subset DP (Dreyfus–Wagner adapted to digraphs); |terminals| must
  /// be <= 16 and the graph reasonably small (3^k·V time, V² distance
  /// storage). Returns the optimal arborescence *with* its arcs.
  SteinerResult exact_small(VertexId root,
                            const std::vector<VertexId>& terminals);

  /// Validates that `r` is an arborescence rooted at `root` covering all
  /// terminals with arcs that exist in the graph; used by tests.
  bool validate(const SteinerResult& r, VertexId root,
                const std::vector<VertexId>& terminals) const;

  /// Work counters of the most recent solver query: heap Dijkstra runs
  /// only (forward trees and exact_small's all-sources trees; cached trees
  /// count no work twice, and the reverse sweep is not a Dijkstra run).
  /// Also accumulated into the global metrics registry under tveg.steiner.*.
  struct QueryStats {
    std::size_t dijkstra_runs = 0;
    std::size_t nodes_expanded = 0;  ///< settled vertices across runs
    std::size_t relaxations = 0;
  };
  const QueryStats& last_query_stats() const { return stats_; }

 private:
  const ShortestPaths& forward_from(VertexId v);
  /// Accounts a freshly computed shortest-path tree to the current query.
  void note_run(const ShortestPaths& sp);
  /// Resets per-query stats; flushes them to the registry on destruction.
  struct QueryScope;

  QueryStats stats_;
  support::Budget budget_;
  support::ThreadPool* pool_ = nullptr;

  /// dist(u → terminals_[k]) of the current recursive_greedy query, stored
  /// terminal-major at [u*term_count_ + k] so the density scan's inner loop
  /// over k is one contiguous read per vertex.
  std::vector<double> dist_to_term_;
  /// The graph's components sinks first; built by the first level-2 query.
  std::optional<SccOrder> scc_;
  std::size_t term_count_ = 0;

  struct GreedyState;
  void greedy_cover(GreedyState& state, VertexId v, int level,
                    std::size_t want);

  const Digraph& g_;
  /// Forward-tree cache: forward_slot_[v] indexes forward_store_, -1 when
  /// absent. A deque so cached trees keep stable addresses while
  /// greedy_cover holds references across recursive inserts.
  std::vector<std::int32_t> forward_slot_;
  std::deque<ShortestPaths> forward_store_;
  /// Reusable scratch for finalize()'s subgraph cleanup pass.
  Digraph scratch_sub_;
};

}  // namespace tveg::graph
