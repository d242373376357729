#include "graph/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

using support::kInf;

namespace {

std::uint64_t arc_key(VertexId from, VertexId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

/// Accumulates a subgraph as a deduplicated arc set.
//
// Deliberately still an unordered_map: finalize() replays its iteration
// order into the scratch Digraph, and that order feeds the cleanup
// Dijkstra's tie-breaking — swapping the container would silently change
// golden schedules. Local per query.
struct TreeBuilder {
  std::unordered_map<std::uint64_t, double> arcs;

  void add_arc(VertexId from, VertexId to, double w) {
    arcs.emplace(arc_key(from, to), w);
  }

  /// Adds every arc of the shortest path sp-root → dst.
  void add_path(const ShortestPaths& sp, VertexId dst) {
    VertexId cur = dst;
    while (sp.parent[static_cast<std::size_t>(cur)] != kNoVertex) {
      const VertexId p = sp.parent[static_cast<std::size_t>(cur)];
      add_arc(p, cur,
              sp.dist[static_cast<std::size_t>(cur)] -
                  sp.dist[static_cast<std::size_t>(p)]);
      cur = p;
    }
  }
};

/// Converts an arbitrary selected subgraph into a clean arborescence: runs
/// Dijkstra inside the subgraph from the root, keeps only arcs on the
/// resulting paths to terminals. Never increases the cost. `scratch` is
/// reused across queries (reset per call, capacity kept).
SteinerResult finalize(const TreeBuilder& builder, VertexId root,
                       const std::vector<VertexId>& terminals,
                       VertexId vertex_count, Digraph& scratch) {
  scratch.reset(vertex_count);
  scratch.reserve_arcs(builder.arcs.size());
  for (const auto& [key, w] : builder.arcs)
    scratch.add_arc(static_cast<VertexId>(key >> 32),
                    static_cast<VertexId>(key & 0xffffffffu), w);
  scratch.freeze();

  const ShortestPaths sp = dijkstra(scratch, root);

  SteinerResult result;
  result.feasible = true;
  std::unordered_set<std::uint64_t> kept;
  for (VertexId t : terminals) {
    if (sp.dist[static_cast<std::size_t>(t)] == kInf) {
      result.feasible = false;
      continue;
    }
    VertexId cur = t;
    while (sp.parent[static_cast<std::size_t>(cur)] != kNoVertex) {
      const VertexId p = sp.parent[static_cast<std::size_t>(cur)];
      const std::uint64_t key = arc_key(p, cur);
      if (kept.insert(key).second) {
        const double w = sp.dist[static_cast<std::size_t>(cur)] -
                         sp.dist[static_cast<std::size_t>(p)];
        result.arcs.push_back({p, cur, w});
        result.cost += w;
      }
      cur = p;
    }
  }
  return result;
}

}  // namespace

SteinerSolver::SteinerSolver(const Digraph& g)
    : g_(g),
      forward_slot_(static_cast<std::size_t>(g.vertex_count()), -1) {
  g_.ensure_frozen();
}

/// Clears per-query stats on entry to a public solver method and flushes
/// them into the registry when the query finishes.
struct SteinerSolver::QueryScope {
  explicit QueryScope(SteinerSolver& solver) : solver_(solver) {
    solver_.stats_ = QueryStats{};
  }
  ~QueryScope() {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& queries = registry.counter(obs::keys::kSteinerQueries);
    static obs::Counter& runs = registry.counter(obs::keys::kSteinerDijkstraRuns);
    static obs::Counter& expanded =
        registry.counter(obs::keys::kSteinerNodesExpanded);
    static obs::Counter& relaxations =
        registry.counter(obs::keys::kSteinerRelaxations);
    queries.add(1);
    runs.add(solver_.stats_.dijkstra_runs);
    expanded.add(solver_.stats_.nodes_expanded);
    relaxations.add(solver_.stats_.relaxations);
  }
  SteinerSolver& solver_;
};

void SteinerSolver::note_run(const ShortestPaths& sp) {
  ++stats_.dijkstra_runs;
  stats_.nodes_expanded += sp.settled;
  stats_.relaxations += sp.relaxations;
}

const ShortestPaths& SteinerSolver::forward_from(VertexId v) {
  const auto i = static_cast<std::size_t>(v);
  std::int32_t slot = forward_slot_[i];
  if (slot < 0) {
    budget_.check("steiner");
    const obs::Span span("steiner_forward");
    slot = static_cast<std::int32_t>(forward_store_.size());
    forward_store_.push_back(dijkstra(g_, v));
    forward_slot_[i] = slot;
    note_run(forward_store_.back());
  }
  return forward_store_[static_cast<std::size_t>(slot)];
}

SteinerResult SteinerSolver::shortest_path_heuristic(
    VertexId root, const std::vector<VertexId>& terminals) {
  const QueryScope scope(*this);
  const ShortestPaths& sp = forward_from(root);
  TreeBuilder builder;
  for (VertexId t : terminals)
    if (t != root && sp.dist[static_cast<std::size_t>(t)] < kInf)
      builder.add_path(sp, t);
  const obs::Span span("steiner_finalize");
  SteinerResult result = finalize(builder, root, terminals, g_.vertex_count(),
                                  scratch_sub_);
  for (VertexId t : terminals)
    if (sp.dist[static_cast<std::size_t>(t)] == kInf) result.feasible = false;
  return result;
}

struct SteinerSolver::GreedyState {
  std::vector<VertexId> terminals;  ///< deduplicated, root removed
  std::vector<char> covered;        ///< parallel to terminals
  TreeBuilder tree;
};

void SteinerSolver::greedy_cover(GreedyState& state, VertexId v, int level,
                                 std::size_t want) {
  const ShortestPaths& sp = forward_from(v);

  if (level <= 1) {
    // Level 1: the bunch — the `want` cheapest shortest paths v → terminal.
    std::vector<std::pair<double, std::size_t>> cand;
    for (std::size_t k = 0; k < state.terminals.size(); ++k) {
      if (state.covered[k]) continue;
      const double d = sp.dist[static_cast<std::size_t>(state.terminals[k])];
      if (d < kInf) cand.push_back({d, k});
    }
    std::sort(cand.begin(), cand.end());
    if (cand.size() > want) cand.resize(want);
    for (const auto& [d, k] : cand) {
      state.tree.add_path(sp, state.terminals[k]);
      state.covered[k] = 1;
    }
    return;
  }

  // Level >= 2: repeatedly pick the intermediate root u and count k' whose
  // level-1 bunch has the best density estimate
  //   (dist(v→u) + Σ k'-cheapest dist(u→terminal)) / k',
  // the first (u, k') attaining the minimum, u then k' ascending. A pick can
  // only raise the others' best densities, so the scan is lazy (CELF,
  // DESIGN.md "The Steiner search"): every u is evaluated once into a
  // min-heap on (density, u); each later pass re-evaluates the popped
  // entries stamped by an earlier pass, and the first entry popped with the
  // current stamp wins. Equal densities pop in u order.
  struct Candidate {
    double density;
    VertexId u;
    std::uint32_t k;
    std::uint32_t pass;
  };
  const auto after = [](const Candidate& a, const Candidate& b) {
    return a.density > b.density || (a.density == b.density && a.u > b.u);
  };
  const std::size_t kTerms = term_count_;
  std::vector<double> dists;
  // u's first-minimum (density, k') under the current cover; false when u
  // reaches no uncovered terminal.
  const auto evaluate = [&](std::size_t remaining, Candidate& c) {
    dists.clear();
    // dist_to_term_ is terminal-major: the k loop walks one contiguous row
    // of the matrix.
    const double* row =
        dist_to_term_.data() + static_cast<std::size_t>(c.u) * kTerms;
    for (std::size_t k = 0; k < kTerms; ++k) {
      if (state.covered[k]) continue;
      const double d = row[k];
      if (d < kInf) dists.push_back(d);
    }
    const std::size_t take = std::min(remaining, dists.size());
    std::partial_sort(dists.begin(),
                      dists.begin() + static_cast<std::ptrdiff_t>(take),
                      dists.end());
    c.density = kInf;
    double sum = sp.dist[static_cast<std::size_t>(c.u)];
    for (std::size_t kp = 1; kp <= take; ++kp) {
      sum += dists[kp - 1];
      const double density = sum / static_cast<double>(kp);
      if (density < c.density) {
        c.density = density;
        c.k = static_cast<std::uint32_t>(kp);
      }
    }
    return c.density < kInf;
  };

  std::vector<Candidate> heap;
  {
    const obs::Span span("steiner_scan");
    support::Budget::Poller poller(budget_, "steiner_scan");
    for (VertexId u = 0; u < g_.vertex_count(); ++u) {
      poller.poll();
      if (sp.dist[static_cast<std::size_t>(u)] == kInf) continue;
      Candidate c{kInf, u, 0, 0};
      if (evaluate(want, c)) heap.push_back(c);
    }
    std::make_heap(heap.begin(), heap.end(), after);
  }

  std::size_t remaining = want;
  for (std::uint32_t pass = 0; remaining > 0; ++pass) {
    budget_.check("steiner");
    Candidate best{kInf, kNoVertex, 0, 0};
    {
      const obs::Span span("steiner_scan");
      support::Budget::Poller poller(budget_, "steiner_scan");
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), after);
        Candidate& top = heap.back();
        if (top.pass == pass) {
          // The winner stays in the heap, stale for the next pass.
          best = top;
          std::push_heap(heap.begin(), heap.end(), after);
          break;
        }
        poller.poll();
        if (evaluate(remaining, top)) {
          top.pass = pass;
          std::push_heap(heap.begin(), heap.end(), after);
        } else {
          heap.pop_back();  // no uncovered terminal reachable, ever again
        }
      }
    }

    if (best.u == kNoVertex) return;  // nothing more reachable
    state.tree.add_path(sp, best.u);
    const std::size_t covered_before =
        static_cast<std::size_t>(std::count(state.covered.begin(),
                                            state.covered.end(), char{1}));
    greedy_cover(state, best.u, level - 1, best.k);
    const std::size_t covered_after =
        static_cast<std::size_t>(std::count(state.covered.begin(),
                                            state.covered.end(), char{1}));
    if (covered_after == covered_before) return;  // no progress — stop
    remaining -= std::min(remaining, covered_after - covered_before);
  }
}

SteinerResult SteinerSolver::recursive_greedy(
    VertexId root, const std::vector<VertexId>& terminals, int level) {
  TVEG_REQUIRE(level >= 1, "recursion level must be >= 1");
  const QueryScope scope(*this);
  level = std::min(level, 2);

  GreedyState state;
  std::unordered_set<VertexId> seen;
  for (VertexId t : terminals)
    if (t != root && seen.insert(t).second) state.terminals.push_back(t);
  state.covered.assign(state.terminals.size(), 0);

  term_count_ = state.terminals.size();
  if (level >= 2) {
    const obs::Span span("steiner_reverse");
    if (!scc_) scc_ = scc_sinks_first(g_);
    distances_to(g_, *scc_, state.terminals, budget_, dist_to_term_);
  }

  greedy_cover(state, root, level, state.terminals.size());
  dist_to_term_.clear();
  term_count_ = 0;

  const obs::Span span("steiner_finalize");
  return finalize(state.tree, root, terminals, g_.vertex_count(), scratch_sub_);
}

SteinerResult SteinerSolver::exact_small(
    VertexId root, const std::vector<VertexId>& terminals) {
  const QueryScope scope(*this);
  // Looked up before any branch so a serial run exports the key as 0.
  static obs::Counter& par_runs = obs::MetricsRegistry::global().counter(
      obs::keys::kParallelSteinerDijkstras);
  std::vector<VertexId> terms;
  std::unordered_set<VertexId> seen;
  for (VertexId t : terminals)
    if (t != root && seen.insert(t).second) terms.push_back(t);
  const std::size_t k = terms.size();
  TVEG_REQUIRE(k <= 16, "exact solver limited to 16 terminals");
  const auto n = static_cast<std::size_t>(g_.vertex_count());
  TVEG_REQUIRE(n <= 1500, "exact solver limited to 1500 vertices "
                          "(quadratic distance/parent storage)");

  if (k == 0) {
    SteinerResult r;
    r.feasible = true;
    return r;
  }

  // Full single-source trees from every vertex: distances for the DP plus
  // parents for arc reconstruction. Indexed slots + in-order stats keep the
  // pooled path bit-identical to the serial one.
  std::vector<ShortestPaths> sp(n);
  if (pool_ != nullptr && n > 1) {
    pool_->parallel_for(0, n, [&](std::size_t v) {
      obs::Span run_span("steiner_all_source");
      budget_.check("steiner_all_source");
      sp[v] = dijkstra(g_, static_cast<VertexId>(v));
    }, budget_.cancel);
    par_runs.add(n);
  } else {
    support::Budget::Poller poller(budget_, "steiner_all_source",
                                   /*stride=*/16);
    for (std::size_t v = 0; v < n; ++v) {
      poller.poll();
      sp[v] = dijkstra(g_, static_cast<VertexId>(v));
    }
  }
  for (std::size_t v = 0; v < n; ++v) note_run(sp[v]);
  auto dist = [&](std::size_t v, std::size_t u) { return sp[v].dist[u]; };

  const std::size_t full = (std::size_t{1} << k) - 1;
  // dp[S][v]: min arborescence cost rooted at v covering terminal subset S.
  // graft_u[S][v]: the vertex the split/base happens at (reached from v by
  // a shortest path). split_a[S][u]: the subset A of the split at u
  // (0 = singleton base case, path straight to the terminal).
  std::vector<std::vector<double>> dp(full + 1, std::vector<double>(n, kInf));
  std::vector<std::vector<VertexId>> graft_u(
      full + 1, std::vector<VertexId>(n, kNoVertex));
  std::vector<std::vector<std::uint32_t>> split_a(
      full + 1, std::vector<std::uint32_t>(n, 0));

  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t S = std::size_t{1} << i;
    for (std::size_t v = 0; v < n; ++v) {
      dp[S][v] = dist(v, static_cast<std::size_t>(terms[i]));
      graft_u[S][v] = static_cast<VertexId>(v);  // base: path v → terminal
    }
  }

  std::vector<double> merged(n);
  std::vector<std::uint32_t> merged_a(n);
  for (std::size_t S = 1; S <= full; ++S) {
    if ((S & (S - 1)) == 0) continue;  // singletons are the base case
    // Split step: best partition of S at the same root.
    for (std::size_t v = 0; v < n; ++v) {
      double best = kInf;
      std::uint32_t best_a = 0;
      for (std::size_t A = (S - 1) & S; A > (S ^ A); A = (A - 1) & S) {
        const std::size_t B = S ^ A;
        if (dp[A][v] < kInf && dp[B][v] < kInf && dp[A][v] + dp[B][v] < best) {
          best = dp[A][v] + dp[B][v];
          best_a = static_cast<std::uint32_t>(A);
        }
      }
      merged[v] = best;
      merged_a[v] = best_a;
    }
    // Graft step: reach the split vertex u from v by a shortest path.
    for (std::size_t v = 0; v < n; ++v) {
      double best = merged[v];
      std::size_t best_u = v;
      for (std::size_t u = 0; u < n; ++u) {
        if (merged[u] == kInf || dist(v, u) == kInf) continue;
        if (dist(v, u) + merged[u] < best) {
          best = dist(v, u) + merged[u];
          best_u = u;
        }
      }
      dp[S][v] = best;
      graft_u[S][v] = static_cast<VertexId>(best_u);
      split_a[S][v] = merged_a[best_u];
    }
  }

  SteinerResult r;
  const double opt = dp[full][static_cast<std::size_t>(root)];
  if (opt == kInf) return r;  // infeasible, empty result

  // Reconstruct: realize dp[S][v] recursively into a TreeBuilder.
  TreeBuilder builder;
  struct Frame {
    std::size_t S;
    std::size_t v;
  };
  std::vector<Frame> stack{{full, static_cast<std::size_t>(root)}};
  while (!stack.empty()) {
    const auto [S, v] = stack.back();
    stack.pop_back();
    const auto u = static_cast<std::size_t>(graft_u[S][v]);
    TVEG_ASSERT(graft_u[S][v] != kNoVertex);
    builder.add_path(sp[v], static_cast<VertexId>(u));
    if ((S & (S - 1)) == 0) {
      // Singleton: shortest path u → terminal.
      std::size_t i = 0;
      while (!(S & (std::size_t{1} << i))) ++i;
      builder.add_path(sp[u], terms[i]);
    } else {
      const std::size_t A = split_a[S][v];
      TVEG_ASSERT(A != 0 && (A & S) == A);
      stack.push_back({A, u});
      stack.push_back({S ^ A, u});
    }
  }

  r = finalize(builder, root, terminals, g_.vertex_count(), scratch_sub_);
  TVEG_ASSERT_MSG(r.feasible, "exact reconstruction lost a terminal");
  // Shared arcs can only make the realized tree cheaper than the DP value,
  // and no tree beats the optimum — so they must agree.
  TVEG_ASSERT_MSG(r.cost <= opt + 1e-9 * (1 + opt), "cost above DP optimum");
  return r;
}

bool SteinerSolver::validate(const SteinerResult& r, VertexId root,
                             const std::vector<VertexId>& terminals) const {
  // Check arcs exist in the graph with the claimed (or better) weight, and
  // that every terminal is reachable from the root using only tree arcs.
  Digraph sub(g_.vertex_count());
  for (const auto& arc : r.arcs) {
    bool found = false;
    for (const Arc& a : g_.out(arc.from))
      if (a.to == arc.to && a.weight <= arc.weight + 1e-9) {
        found = true;
        break;
      }
    if (!found) return false;
    sub.add_arc(arc.from, arc.to, arc.weight);
  }
  const ShortestPaths sp = dijkstra(sub, root);
  for (VertexId t : terminals)
    if (sp.dist[static_cast<std::size_t>(t)] == kInf) return false;
  return true;
}

}  // namespace tveg::graph
